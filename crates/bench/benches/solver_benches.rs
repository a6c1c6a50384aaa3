//! Micro-benchmarks for the quantities behind the paper's solver-time results
//! (Figures 5, 6, 8, 9, Table 4): the LP form, the general MILP, the A*
//! rounds, the baselines, the alpha-beta simulator, and the warm- vs
//! cold-started simplex. Runs on the in-tree harness
//! ([`teccl_bench::microbench`]; the offline toolchain has no criterion) via
//! `cargo bench -p teccl-bench`. Every row `bench_lp_json` also records is
//! defined once, by a `teccl_bench::bench_*` function both targets call.

use std::time::Duration;

use teccl_baselines::{sccl_like_schedule, taccl_like_schedule, TacclConfig};
use teccl_bench::microbench::{BenchConfig, Harness};
use teccl_bench::{quick_config, run_teccl, Method, Scenario};
use teccl_collective::{CollectiveKind, DemandMatrix};
use teccl_schedule::simulate;
use teccl_topology::NodeId;

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
    teccl_bench::bench_lp_form_alltoall(&mut h);
    teccl_bench::bench_milp_form_allgather(&mut h);
    teccl_bench::bench_milp_dgx1_allgather(&mut h);
    bench_astar_allgather(&mut h);
    teccl_bench::bench_astar_internal2x8_allgather(&mut h);
    teccl_bench::bench_simplex_resolves(&mut h);
    teccl_bench::bench_dual_resolve(&mut h);
    teccl_bench::bench_degenerate_alltoall(&mut h);
    teccl_bench::bench_internal1x2_alltoall(&mut h);
    teccl_bench::bench_lu_refactor_fill(&mut h);
    teccl_bench::bench_dual_pivot_rows(&mut h);
    teccl_bench::bench_presolve_warm_rounds(&mut h);
    teccl_bench::bench_service(&mut h);
    bench_baselines(&mut h);
    bench_simulator(&mut h);
}
