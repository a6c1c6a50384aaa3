//! Quick LP/MILP micro-bench harness emitting machine-readable results.
//!
//! Runs the solver-critical benchmarks (a reduced-time version of
//! `benches/solver_benches.rs`) and writes `BENCH_lp.json` — a `{name:
//! median_ns}` object — so the perf trajectory of the LP hot path is tracked
//! across PRs with `cargo run -p teccl-bench --release --bin bench_lp_json`.

use std::time::Duration;

use teccl_bench::microbench::{BenchConfig, Harness};
use teccl_bench::{
    degenerate_alltoall_fixture, dual_resolve_fixture, print_table, quick_config, run_teccl,
    solver_stats_rows, warm_rounds_fixture, warm_vs_cold_fixture, Method, Scenario,
    SOLVER_STATS_HEADERS,
};
use teccl_collective::CollectiveKind;

fn main() {
    let mut h = Harness::new(BenchConfig {
        measurement_time: Duration::from_secs(2),
        sample_count: 7,
        ..Default::default()
    });

    let lp_scenario = Scenario::collective(
        "lp-internal2x2-atoa",
        teccl_topology::internal2(2),
        CollectiveKind::AllToAll,
        1,
        1024.0 * 1024.0,
    );
    h.bench_function("lp_form/internal2x2_alltoall", || {
        run_teccl(&lp_scenario, &quick_config(), Method::Lp).unwrap();
    });

    let milp_scenario = Scenario::collective(
        "milp-internal1x1-ag",
        teccl_topology::internal1(1),
        CollectiveKind::AllGather,
        1,
        1024.0 * 1024.0,
    );
    h.bench_function("milp_form/internal1_allgather", || {
        run_teccl(&milp_scenario, &quick_config(), Method::Milp).unwrap();
    });

    let (sf, nv, basis, overrides) = warm_vs_cold_fixture();
    h.bench_function("lp/simplex_warm_vs_cold", || {
        teccl_lp::solve_standard_form_from(&sf, nv, &overrides, Some(&basis)).unwrap();
    });
    h.bench_function("lp/simplex_cold_resolve", || {
        teccl_lp::solve_standard_form_from(&sf, nv, &overrides, None).unwrap();
    });

    // Dual re-solve: a tightened *active* bound, so the warm basis is primal
    // infeasible and the dual simplex takes real pivots (the B&B pattern).
    let (dsf, dnv, dbasis, doverrides) = dual_resolve_fixture();
    h.bench_function("lp/dual_resolve", || {
        let sol =
            teccl_lp::solve_standard_form_from(&dsf, dnv, &doverrides, Some(&dbasis)).unwrap();
        assert!(sol.has_solution());
        assert_eq!(sol.stats.warm_starts, 1, "dual path must not fall cold");
    });

    // Degenerate ALLTOALL cold solve — the CI gate for the anti-degeneracy
    // machinery (EXPAND ratio test): the process aborts (failing the bench
    // smoke) if the instance stalls past its iteration budget or trips the
    // simplex iteration limit.
    let (gsf, gnv, budget) = degenerate_alltoall_fixture();
    // The same instance with the perturbed pre-pass disabled: a pure
    // projected-steepest-edge phase-2 walk, tracking the pricing core on its
    // own (the perturbation otherwise absorbs most of the pivots).
    let se_opts = teccl_lp::SimplexOptions {
        pricing: teccl_lp::PricingRule::SteepestEdge,
        perturb_min_rows: usize::MAX,
        perturb_seed: 0,
    };
    h.bench_function("lp/steepest_edge_phase2", || {
        let sol = teccl_lp::solve_standard_form_with_options(&gsf, gnv, &[], None, None, &se_opts)
            .unwrap();
        assert_eq!(sol.status, teccl_lp::SolveStatus::Optimal);
    });
    h.bench_function("lp/degenerate_alltoall", || {
        let sol = teccl_lp::solve_standard_form(&gsf, gnv).unwrap();
        assert_eq!(sol.status, teccl_lp::SolveStatus::Optimal);
        assert!(
            !sol.stats.iteration_limit_hit,
            "degenerate ALLTOALL hit the simplex iteration limit"
        );
        assert!(
            sol.stats.simplex_iterations <= budget,
            "degenerate ALLTOALL regressed: {} iterations (budget {budget})",
            sol.stats.simplex_iterations
        );
    });

    // What a warm dual pivot costs on an A* round (per pivot), and the two
    // solves inside it on that round's optimal basis, sparse kernel and
    // dense kernel side by side.
    teccl_bench::bench_dual_pivot_rows(&mut h);

    // Parallel branch-and-bound: the same wide-tree knapsack at 1 and 4
    // threads. The speedup ratio is pushed into BENCH_lp.json as
    // `lp/parallel_bnb_speedup`; the >=1.5x gate only arms on machines that
    // can physically parallelize (4+ cores) — elsewhere the skip is printed,
    // never silently swallowed.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let bnb = teccl_bench::parallel_bnb_fixture();
    let solve_bnb = |threads: usize| {
        let sol = bnb
            .solve_with(&teccl_lp::MilpConfig {
                threads,
                ..Default::default()
            })
            .unwrap();
        assert_eq!(sol.status, teccl_lp::SolveStatus::Optimal);
        sol.objective
    };
    let obj_1t = solve_bnb(1);
    let obj_4t = solve_bnb(4);
    assert!(
        (obj_1t - obj_4t).abs() < 1e-6,
        "thread-count invariance broken on the bench instance: {obj_1t} vs {obj_4t}"
    );
    h.bench_function("lp/parallel_bnb_1thread", || {
        solve_bnb(1);
    });
    h.bench_function("lp/parallel_bnb_4threads", || {
        solve_bnb(4);
    });

    // Portfolio race on the degenerate ALLTOALL: 2 racers (steepest-edge vs
    // devex) against the solo default solve measured above. The
    // never-slower-than-solo gate likewise needs 2+ cores to be meaningful.
    h.bench_function("lp/portfolio_race", || {
        let sol = teccl_lp::race_lp(&gsf, gnv, &[], None, None, 2).unwrap();
        assert_eq!(sol.status, teccl_lp::SolveStatus::Optimal);
    });

    // Dantzig-Wolfe rows on the 8-GPU internal1(2) ALLTOALL: one warm
    // pricing round (the per-round unit of work), the full decomposed solve
    // at 1 and 4 pricing threads, and the monolithic solve of the same model
    // for the `lp/dw_vs_monolithic` ratio. Correctness is asserted inline:
    // the decomposed objective must certify against the monolithic one.
    let dw_form = teccl_bench::dw_alltoall_fixture();
    let dw_structure = dw_form
        .block_structure()
        .expect("fixture splits into blocks");
    let dw_mono = dw_form
        .model
        .solve_lp_relaxation()
        .expect("monolithic baseline solves");
    let solve_dw = |threads: usize| {
        let sol = teccl_lp::solve_decomposed(
            &dw_form.model,
            &dw_structure,
            None,
            &teccl_lp::DecompOptions {
                threads,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(sol.status, teccl_lp::SolveStatus::Optimal);
        assert!(
            sol.stats.dw_rounds > 0,
            "bench row must genuinely decompose"
        );
        assert!(
            (sol.objective - dw_mono.objective).abs() <= 1e-6 * dw_mono.objective.abs().max(1.0),
            "decomposed bench row drifted from monolithic: {} vs {}",
            sol.objective,
            dw_mono.objective
        );
    };
    solve_dw(1);
    solve_dw(4);
    {
        // One *warm* pricing round: per-block re-solves under alternating
        // coupling duals, each restarting from the previous round's basis —
        // the steady-state cost every column-generation round pays.
        let nblocks = dw_structure.num_blocks;
        let mut probs: Vec<teccl_lp::decomp::pricing::PricingProblem> = (0..nblocks)
            .map(|s| {
                teccl_lp::decomp::pricing::PricingProblem::build(&dw_form.model, &dw_structure, s)
            })
            .collect();
        let zeros = vec![0.0; dw_structure.coupling_rows.len()];
        let ones = vec![1.0; dw_structure.coupling_rows.len()];
        teccl_lp::decomp::pricing::price_round(&mut probs, &zeros, 4, None);
        let mut flip = false;
        h.bench_function("lp/dw_pricing_round", || {
            flip = !flip;
            let y = if flip { &ones } else { &zeros };
            let out = teccl_lp::decomp::pricing::price_round(&mut probs, y, 4, None);
            assert_eq!(out.len(), nblocks);
            assert!(out.iter().all(|r| r.is_ok()));
        });
    }
    h.bench_function("lp/dw_1thread", || solve_dw(1));
    h.bench_function("lp/dw_4threads", || solve_dw(4));
    h.bench_function("lp/dw_monolithic", || {
        let sol = dw_form.model.solve_lp_relaxation().unwrap();
        assert_eq!(sol.status, teccl_lp::SolveStatus::Optimal);
    });

    // A* cross-round warm starts with presolve ON (the layout-preserving
    // presolve keeps the carried root basis valid round to round). The warm
    // run must stay on the warm path — at most the first round may start
    // cold — and must not spend more simplex iterations than the all-cold
    // run; either regression aborts the process and fails CI's bench smoke.
    let (wr_scenario, wr_warm_cfg, wr_cold_cfg) = warm_rounds_fixture();
    let cold_rounds = run_teccl(&wr_scenario, &wr_cold_cfg, Method::AStar)
        .expect("warm-rounds fixture solves cold");
    h.bench_function("lp/presolve_cold_rounds", || {
        run_teccl(&wr_scenario, &wr_cold_cfg, Method::AStar).unwrap();
    });
    h.bench_function("lp/presolve_warm_rounds", || {
        let warm = run_teccl(&wr_scenario, &wr_warm_cfg, Method::AStar).unwrap();
        assert!(
            warm.warm_starts > 0,
            "A* rounds fell off the warm path entirely"
        );
        assert!(
            warm.cold_starts <= 1,
            "warm rounds went cold {} times (only the first round may)",
            warm.cold_starts
        );
        assert!(
            warm.simplex_iterations <= cold_rounds.simplex_iterations,
            "warm rounds spent more iterations than cold ({} vs {})",
            warm.simplex_iterations,
            cold_rounds.simplex_iterations
        );
    });

    // Schedule service: steady-state cache-hit latency and batch throughput
    // at a fixed hit ratio (one evicted key per 64-request batch → exactly
    // one solve per batch). The hit bench is a CI gate: a hit that falls off
    // the no-solve path (any cache status but Hit, or a moved solve counter)
    // aborts the process and fails the bench smoke.
    {
        use teccl_service::CacheStatus;
        let (svc, pool) = teccl_bench::service_bench_fixture();
        for req in &pool {
            svc.request(req.clone()).expect("fixture request solves");
        }
        let hot = pool[1].clone();
        let solves_before = svc.stats().solves;
        h.bench_function("service/cache_hit_latency", || {
            let served = svc.request(hot.clone()).expect("hit");
            assert_eq!(
                served.cache,
                CacheStatus::Hit,
                "cache hit fell off the no-solve path"
            );
        });
        let stats = svc.stats();
        assert_eq!(
            stats.solves, solves_before,
            "cache hits must not invoke the solver (solves {} -> {})",
            solves_before, stats.solves
        );
        assert_eq!(stats.solve_errors, 0);

        // The same hit with what the wire adds to it: the request line
        // parsed and the reply rendered, as a connection thread does per
        // request (it aborts, like the row above, if the hit solves).
        let (wire_svc, wire_line) = teccl_bench::wire_hit_fixture();
        let mut wire_reply = String::new();
        h.bench_function("service/wire_hit", || {
            teccl_bench::wire_hit(&wire_svc, &wire_line, &mut wire_reply);
        });
        wire_svc.shutdown();

        let cold_key = pool[0].key().hash;
        h.bench_function("service/throughput", || {
            svc.evict_key(cold_key);
            let tickets: Vec<_> = (0..64)
                .map(|i| svc.submit(pool[i % pool.len()].clone()))
                .collect();
            for t in tickets {
                t.wait().expect("batch request solves");
            }
        });

        // Degraded fallback: an already-expired deadline on a request whose
        // exact solve takes tens of seconds must descend the ladder to the
        // instant baseline — without a single simplex pivot. CI gate: any
        // pivot on this path aborts the process and fails the bench smoke.
        let (fb_svc, fb_req) = teccl_bench::degraded_fallback_fixture();
        let fb_hash = fb_req.key().hash;
        h.bench_function("service/degraded_fallback_latency", || {
            fb_svc.evict_key(fb_hash);
            let served = fb_svc.request(fb_req.clone()).expect("fallback serves");
            assert_eq!(served.quality, teccl_service::Quality::Baseline);
        });
        assert_eq!(
            fb_svc.stats().solve_simplex_iterations,
            0,
            "the baseline fallback must never touch the simplex"
        );
        fb_svc.shutdown();
    }

    // Solver counters alongside the timings: the warm/cold split is the perf
    // claim, so regressions must be visible here too.
    print_table(
        "Solver stats",
        &["scenario"],
        &SOLVER_STATS_HEADERS,
        &solver_stats_rows(),
    );

    // LU fill-in of the degenerate instance's optimal basis: the metric the
    // Markowitz tie-breaking in `LuFactors::factorize` optimizes. Tracked in
    // BENCH_lp.json (`lu_fill_nnz` vs the basis matrix's own `lu_basis_nnz`)
    // so fill regressions show up across PRs.
    let (lu_m, basis_cols) = teccl_bench::lu_refactor_fixture();
    let mut lu =
        teccl_lp::LuFactors::factorize(lu_m, &basis_cols).expect("optimal basis factorizes");
    let basis_nnz: usize = basis_cols.iter().map(|c| c.indices.len()).sum();
    let fill_nnz = lu.fill_nnz();
    // Exercise a solve so the factors are demonstrably usable.
    let mut probe = vec![1.0; lu_m];
    lu.ftran(&mut probe);
    println!(
        "\nlp/lu_fill: basis nnz {basis_nnz} -> L+U nnz {fill_nnz} ({:.2}x)",
        fill_nnz as f64 / basis_nnz as f64
    );

    // The eta-accumulation → fill-triggered-refactorization cycle: identity
    // column replacements build up the eta file until the fill-aware trigger
    // fires, then the basis is refactorized from scratch (the Gilbert–Peierls
    // path). This is the steady-state cost the refactorization policy pays.
    h.bench_function("lp/lu_refactor_fill", || {
        let mut lu = teccl_lp::LuFactors::factorize(lu_m, &basis_cols).unwrap();
        let mut r = 0usize;
        while !lu.needs_refactor() {
            let mut w = vec![0.0; lu_m];
            for (pos, &i) in basis_cols[r].indices.iter().enumerate() {
                w[i] = basis_cols[r].values[pos];
            }
            // Replacing column r with itself: w = B⁻¹ B e_r = e_r, so the
            // update is always well-pivoted and the basis never degrades.
            lu.ftran(&mut w);
            lu.update(&teccl_lp::IndexedVec::from_dense(w), r).unwrap();
            r = (r + 1) % lu_m;
        }
        let fresh = teccl_lp::LuFactors::factorize(lu_m, &basis_cols).unwrap();
        assert!(fresh.fill_nnz() > 0);
    });

    let mut json = h.to_json();
    if let teccl_util::json::Value::Obj(pairs) = &mut json {
        pairs.push((
            "lp/lu_basis_nnz".to_string(),
            teccl_util::json::Value::from(basis_nnz),
        ));
        pairs.push((
            "lp/lu_fill_nnz".to_string(),
            teccl_util::json::Value::from(fill_nnz),
        ));
    }

    // Thread metadata + the derived speedup ratios, so a reader of
    // BENCH_lp.json can tell whether the parallel rows were measured on a
    // machine where parallelism was physically possible.
    let median = |v: &teccl_util::json::Value, name: &str| -> Option<f64> {
        v.get(name).and_then(teccl_util::json::Value::as_f64)
    };
    let bnb_1t = median(&json, "lp/parallel_bnb_1thread").expect("1-thread row measured");
    let bnb_4t = median(&json, "lp/parallel_bnb_4threads").expect("4-thread row measured");
    let speedup = bnb_1t / bnb_4t;
    let dw_1t = median(&json, "lp/dw_1thread").expect("dw 1-thread row measured");
    let dw_4t = median(&json, "lp/dw_4threads").expect("dw 4-thread row measured");
    let mono_ns = median(&json, "lp/dw_monolithic").expect("dw monolithic row measured");
    let dw_speedup = dw_1t / dw_4t;
    let dw_vs_mono = mono_ns / dw_4t;
    if let teccl_util::json::Value::Obj(pairs) = &mut json {
        pairs.push((
            "meta/threads_available".to_string(),
            teccl_util::json::Value::from(cores),
        ));
        pairs.push((
            "lp/parallel_bnb_speedup".to_string(),
            teccl_util::json::Value::Num(speedup),
        ));
        pairs.push((
            "lp/dw_speedup".to_string(),
            teccl_util::json::Value::Num(dw_speedup),
        ));
        pairs.push((
            "lp/dw_vs_monolithic".to_string(),
            teccl_util::json::Value::Num(dw_vs_mono),
        ));
    }

    // The machine-aware gates. Each gate's armed/skipped disposition is
    // recorded *in the json* as a `meta/gate_*` row — a skip that only goes
    // to stdout vanishes the moment the terminal scrolls, and a reader of a
    // committed BENCH_lp.json could not tell a passed gate from one that
    // never armed. The assert still fires on machines where the gate arms.
    let gate = |json: &mut teccl_util::json::Value,
                name: &str,
                need_cores: usize,
                detail: String,
                check: &dyn Fn()| {
        let armed = cores >= need_cores;
        let status = if armed {
            "armed".to_string()
        } else {
            format!("skipped: {cores} core(s) available, need {need_cores}")
        };
        if let teccl_util::json::Value::Obj(pairs) = json {
            pairs.push((
                format!("meta/gate_{name}"),
                teccl_util::json::Value::Str(status.clone()),
            ));
        }
        if armed {
            check();
            println!("lp/{name}: {detail} ({cores} cores) — gate passed");
        } else {
            println!("lp/{name}: {detail} — gate SKIPPED ({status})");
        }
    };

    // Gate: parallel B&B must actually pay for its coordination — >=1.5x at
    // 4 threads — wherever 4 cores exist. On smaller machines no speedup is
    // physically possible, so the gate is skipped loudly and visibly.
    gate(
        &mut json,
        "parallel_bnb_speedup",
        4,
        format!("{speedup:.2}x at 4 threads"),
        &|| {
            assert!(
                speedup >= 1.5,
                "parallel B&B speedup gate: {speedup:.2}x at 4 threads on {cores} cores (need >=1.5x)"
            );
        },
    );

    // Gate: the portfolio race must never lose to the solo default solve on
    // the degenerate ALLTOALL (25% scheduler-noise allowance). Racing on one
    // core just timeshares the racers, so this too needs real parallelism.
    let race_ns = median(&json, "lp/portfolio_race").expect("race row measured");
    let solo_ns = median(&json, "lp/degenerate_alltoall").expect("solo row measured");
    gate(
        &mut json,
        "portfolio_race",
        2,
        format!("{:.2} ms vs solo {:.2} ms", race_ns / 1e6, solo_ns / 1e6),
        &|| {
            assert!(
                race_ns <= solo_ns * 1.25,
                "portfolio race slower than solo steepest-edge: {:.2} ms vs {:.2} ms",
                race_ns / 1e6,
                solo_ns / 1e6
            );
        },
    );

    // Gate: parallel pricing must earn its keep — the decomposed 8-GPU
    // ALLTOALL solve >=1.5x faster at 4 pricing threads than at 1 — wherever
    // 4 cores exist.
    gate(
        &mut json,
        "dw_speedup",
        4,
        format!("{dw_speedup:.2}x at 4 threads, {dw_vs_mono:.2}x vs monolithic"),
        &|| {
            assert!(
                dw_speedup >= 1.5,
                "DW pricing speedup gate: {dw_speedup:.2}x at 4 threads on {cores} cores (need >=1.5x)"
            );
        },
    );

    // Gate 1: the warm-rounds win must hold. `lp/presolve_warm_rounds` once
    // regressed to slower-than-cold without anything failing; now the smoke
    // aborts if the warm median ever exceeds the cold median again.
    let warm_ns = median(&json, "lp/presolve_warm_rounds").expect("warm row measured");
    let cold_ns = median(&json, "lp/presolve_cold_rounds").expect("cold row measured");
    assert!(
        warm_ns <= cold_ns,
        "presolve_warm_rounds regressed past cold again: warm {:.1} ms vs cold {:.1} ms",
        warm_ns / 1e6,
        cold_ns / 1e6
    );

    // Gate 2: >25% regression against the committed medians for the gated
    // rows. Sub-millisecond rows get a 2x allowance instead — at that scale
    // scheduler noise alone crosses 25% on shared CI runners.
    let path = "BENCH_lp.json";
    let gated = [
        "lp_form/internal2x2_alltoall",
        "lp/degenerate_alltoall",
        "lp/steepest_edge_phase2",
        "lp/lu_refactor_fill",
        "lp/dual_pivot_astar_round",
        "lp/btran_unit",
        "lp/ftran_col",
        "lp/presolve_warm_rounds",
        "lp/presolve_cold_rounds",
        "lp/parallel_bnb_1thread",
        "lp/portfolio_race",
        "lp/dw_pricing_round",
        "lp/dw_1thread",
        "lp/dw_monolithic",
        "service/wire_hit",
    ];
    if let Some(committed) = std::fs::read_to_string(path)
        .ok()
        .and_then(|t| teccl_util::json::Value::parse(&t).ok())
    {
        for name in gated {
            let (Some(old), Some(new)) = (median(&committed, name), median(&json, name)) else {
                continue; // row added after the committed baseline
            };
            let allowance = if old < 1e6 { 2.0 } else { 1.25 };
            assert!(
                new <= old * allowance,
                "{name} regressed >{:.0}% vs committed BENCH_lp.json: {:.2} ms -> {:.2} ms",
                (allowance - 1.0) * 100.0,
                old / 1e6,
                new / 1e6
            );
        }
    }

    let json = json.to_json_pretty();
    std::fs::write(path, format!("{json}\n")).expect("write BENCH_lp.json");
    println!("\nwrote {path}");
}
