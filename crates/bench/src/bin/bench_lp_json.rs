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

    // The `allgather_copy` MILP key end to end through `TeCcl::solve_milp`;
    // aborts if its first horizon is refuted.
    teccl_bench::bench_milp_dgx1_allgather(&mut h);

    // The `allgather_copy` A* key with the most rounds per request.
    teccl_bench::bench_astar_internal2x8_allgather(&mut h);

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

    // The 8-GPU internal1(2) ALLTOALL copy-free LP, solved monolithically
    // through `Model::solve_lp_relaxation` (presolve + cold simplex): the one
    // row at that scale.
    let a2a = teccl_bench::internal1x2_alltoall_fixture();
    h.bench_function("lp/internal1x2_alltoall", || {
        let sol = a2a.model.solve_lp_relaxation().unwrap();
        assert_eq!(sol.status, teccl_lp::SolveStatus::Optimal);
    });

    // A* cross-round warm starts with presolve ON (the layout-preserving
    // presolve keeps the carried root basis valid round to round). The run
    // must stay on the warm path — at most the first round may start cold —
    // or the process aborts and fails CI's bench smoke.
    let (wr_scenario, wr_cfg) = warm_rounds_fixture();
    h.bench_function("lp/presolve_warm_rounds", || {
        let warm = run_teccl(&wr_scenario, &wr_cfg, Method::AStar).unwrap();
        assert!(
            warm.warm_starts > 0,
            "A* rounds fell off the warm path entirely"
        );
        assert!(
            warm.cold_starts <= 1,
            "warm rounds went cold {} times (only the first round may)",
            warm.cold_starts
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

    let median = |v: &teccl_util::json::Value, name: &str| -> Option<f64> {
        v.get(name).and_then(teccl_util::json::Value::as_f64)
    };

    // Gate: >25% regression against the committed medians for the gated
    // rows. Sub-millisecond rows get a 2x allowance instead — at that scale
    // scheduler noise alone crosses 25% on shared CI runners.
    let path = "BENCH_lp.json";
    let gated = [
        "lp_form/internal2x2_alltoall",
        "core/milp_dgx1_allgather",
        "core/astar_internal2x8_allgather",
        "lp/degenerate_alltoall",
        "lp/lu_refactor_fill",
        "lp/dual_pivot_astar_round",
        "lp/btran_unit",
        "lp/ftran_col",
        "lp/presolve_warm_rounds",
        "lp/internal1x2_alltoall",
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
