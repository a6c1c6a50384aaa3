//! Micro-benchmarks for the quantities behind the paper's solver-time results
//! (Figures 5, 6, 8, 9, Table 4): the LP form, the general MILP, the A*
//! rounds, the baselines, the alpha-beta simulator, and the warm- vs
//! cold-started simplex. Runs on the in-tree harness
//! ([`teccl_bench::microbench`]; the offline toolchain has no criterion) via
//! `cargo bench -p teccl-bench`.

use std::time::Duration;

use teccl_baselines::{sccl_like_schedule, taccl_like_schedule, TacclConfig};
use teccl_bench::microbench::{BenchConfig, Harness};
use teccl_bench::{quick_config, run_teccl, Method, Scenario};
use teccl_collective::{CollectiveKind, DemandMatrix};
use teccl_schedule::simulate;
use teccl_topology::NodeId;

fn bench_lp_alltoall(h: &mut Harness) {
    let scenario = Scenario::collective(
        "lp-internal2x2-atoa",
        teccl_topology::internal2(2),
        CollectiveKind::AllToAll,
        1,
        1024.0 * 1024.0,
    );
    h.bench_function("lp_form/internal2x2_alltoall", || {
        run_teccl(&scenario, &quick_config(), Method::Lp).unwrap();
    });
}

fn bench_milp_allgather(h: &mut Harness) {
    let scenario = Scenario::collective(
        "milp-internal1x1-ag",
        teccl_topology::internal1(1),
        CollectiveKind::AllGather,
        1,
        1024.0 * 1024.0,
    );
    h.bench_function("milp_form/internal1_allgather", || {
        run_teccl(&scenario, &quick_config(), Method::Milp).unwrap();
    });
}

fn bench_astar_allgather(h: &mut Harness) {
    let scenario = Scenario::collective(
        "astar-internal2x2-ag",
        teccl_topology::internal2(2),
        CollectiveKind::AllGather,
        1,
        1024.0 * 1024.0,
    );
    h.bench_function("astar/internal2x2_allgather", || {
        run_teccl(&scenario, &quick_config(), Method::AStar).unwrap();
    });
}

/// Warm- vs cold-started simplex re-solves on a transportation LP after one
/// bound tightening — the branch-and-bound node pattern in isolation.
fn bench_simplex_warm_vs_cold(h: &mut Harness) {
    let (sf, nv, basis, overrides) = teccl_bench::warm_vs_cold_fixture();
    h.bench_function("lp/simplex_warm_vs_cold", || {
        let sol = teccl_lp::solve_standard_form_from(&sf, nv, &overrides, Some(&basis)).unwrap();
        assert!(sol.has_solution());
    });
    h.bench_function("lp/simplex_cold_resolve", || {
        let sol = teccl_lp::solve_standard_form_from(&sf, nv, &overrides, None).unwrap();
        assert!(sol.has_solution());
    });
}

/// Dual-simplex re-solve after tightening an *active* bound (real pivots),
/// and the degenerate ALLTOALL cold solve guarded by its iteration budget.
fn bench_dual_and_degenerate(h: &mut Harness) {
    let (sf, nv, basis, overrides) = teccl_bench::dual_resolve_fixture();
    h.bench_function("lp/dual_resolve", || {
        let sol = teccl_lp::solve_standard_form_from(&sf, nv, &overrides, Some(&basis)).unwrap();
        assert!(sol.has_solution());
        assert_eq!(sol.stats.warm_starts, 1);
    });
    let (gsf, gnv, budget) = teccl_bench::degenerate_alltoall_fixture();
    h.bench_function("lp/degenerate_alltoall", || {
        let sol = teccl_lp::solve_standard_form(&gsf, gnv).unwrap();
        assert!(!sol.stats.iteration_limit_hit);
        assert!(sol.stats.simplex_iterations <= budget);
    });
}

/// The 8-GPU internal1(2) ALLTOALL copy-free LP, solved monolithically.
fn bench_internal1x2_alltoall(h: &mut Harness) {
    let form = teccl_bench::internal1x2_alltoall_fixture();
    h.bench_function("lp/internal1x2_alltoall", || {
        let sol = form.model.solve_lp_relaxation().unwrap();
        assert_eq!(sol.status, teccl_lp::SolveStatus::Optimal);
    });
}

/// The eta-accumulation → fill-triggered-refactorization cycle on the
/// degenerate instance's optimal basis: identity column replacements grow the
/// eta file until [`teccl_lp::LuFactors::needs_refactor`] fires, then the
/// basis is refactorized from scratch (the Gilbert–Peierls path).
fn bench_lu_refactor(h: &mut Harness) {
    let (m, basis_cols) = teccl_bench::lu_refactor_fixture();
    h.bench_function("lp/lu_refactor_fill", || {
        let mut lu = teccl_lp::LuFactors::factorize(m, &basis_cols).unwrap();
        let mut r = 0usize;
        while !lu.needs_refactor() {
            let mut w = vec![0.0; m];
            for (pos, &i) in basis_cols[r].indices.iter().enumerate() {
                w[i] = basis_cols[r].values[pos];
            }
            lu.ftran(&mut w);
            lu.update(&teccl_lp::IndexedVec::from_dense(w), r).unwrap();
            r = (r + 1) % m;
        }
        let fresh = teccl_lp::LuFactors::factorize(m, &basis_cols).unwrap();
        assert!(fresh.fill_nnz() > 0);
    });
}

/// A* cross-round warm starts with presolve on (the layout-preserving
/// presolve keeps the carried root basis valid): rounds must stay on the warm
/// path.
fn bench_presolve_warm_rounds(h: &mut Harness) {
    let (scenario, config) = teccl_bench::warm_rounds_fixture();
    h.bench_function("lp/presolve_warm_rounds", || {
        let warm = run_teccl(&scenario, &config, Method::AStar).unwrap();
        assert!(warm.warm_starts > 0, "A* rounds fell off the warm path");
        assert!(warm.cold_starts <= 1, "only the first round may start cold");
    });
}

/// Schedule-service benches: steady-state hit latency (which must never
/// fall off the no-solve path) and request throughput at a fixed hit ratio
/// (one evicted key per 64-request batch → exactly one solve per batch).
fn bench_service(h: &mut Harness) {
    use teccl_service::CacheStatus;
    let (svc, pool) = teccl_bench::service_bench_fixture();
    // Pre-solve every key once so hits are hits.
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
        "cache hits must not invoke the solver"
    );

    // The same hit with what the wire adds to it: the request line parsed
    // and the reply rendered, as a connection thread does per request.
    let (wire_svc, wire_line) = teccl_bench::wire_hit_fixture();
    let mut wire_reply = String::new();
    h.bench_function("service/wire_hit", || {
        teccl_bench::wire_hit(&wire_svc, &wire_line, &mut wire_reply);
    });
    wire_svc.shutdown();

    let cold_key = pool[0].key().hash;
    h.bench_function("service/throughput", || {
        // 64 requests over 8 keys, one of which was just evicted: exactly
        // one solve, the rest in-memory hits (or coalesced with that solve).
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
    // instant baseline — without a single simplex pivot.
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

fn bench_baselines(h: &mut Harness) {
    let topo = teccl_topology::dgx1();
    let gpus: Vec<NodeId> = topo.gpus().collect();
    let demand = DemandMatrix::all_gather(topo.num_nodes(), &gpus, 1);
    h.bench_function("baselines/sccl_like_dgx1_allgather", || {
        sccl_like_schedule(&topo, &demand, 25e3).unwrap();
    });
    h.bench_function("baselines/taccl_like_dgx1_allgather", || {
        taccl_like_schedule(
            &topo,
            &demand,
            25e3,
            &TacclConfig {
                attempts: 2,
                ..Default::default()
            },
        )
        .unwrap();
    });
}

fn bench_simulator(h: &mut Harness) {
    let topo = teccl_topology::dgx1();
    let gpus: Vec<NodeId> = topo.gpus().collect();
    let demand = DemandMatrix::all_gather(topo.num_nodes(), &gpus, 1);
    let ring_order: Vec<NodeId> = [0usize, 1, 2, 3, 7, 6, 5, 4]
        .iter()
        .map(|&i| gpus[i])
        .collect();
    let schedule = teccl_baselines::ring_all_gather(&topo, &ring_order, 1, 1e6).unwrap();
    h.bench_function("simulator/dgx1_ring_allgather", || {
        simulate(&topo, &demand, &schedule).unwrap();
    });
}

fn main() {
    let mut h = Harness::new(BenchConfig {
        measurement_time: Duration::from_secs(8),
        sample_count: 10,
        ..Default::default()
    });
    bench_lp_alltoall(&mut h);
    bench_milp_allgather(&mut h);
    teccl_bench::bench_milp_dgx1_allgather(&mut h);
    bench_astar_allgather(&mut h);
    teccl_bench::bench_astar_internal2x8_allgather(&mut h);
    bench_simplex_warm_vs_cold(&mut h);
    bench_dual_and_degenerate(&mut h);
    bench_internal1x2_alltoall(&mut h);
    bench_lu_refactor(&mut h);
    teccl_bench::bench_dual_pivot_rows(&mut h);
    bench_presolve_warm_rounds(&mut h);
    bench_service(&mut h);
    bench_baselines(&mut h);
    bench_simulator(&mut h);
}
