//! Which phase 1 a cold solve takes. The dual phase 1 runs when at most a
//! quarter of the rows start out of bounds at the slack basis; the
//! artificial primal phase 1 takes the rest. Each route is one workload's
//! path, so both stay: copy-free ALLTOALL LPs take the primal route, cold
//! A\* ALLGATHER roots the dual one. A cold solve's only dual pivots are the
//! dual phase 1's, so the dual iteration count tells the routes apart.

use teccl_collective::{CollectiveKind, CollectiveSizing, DemandMatrix};
use teccl_core::astar::RoundState;
use teccl_core::epochs::epoch_duration;
use teccl_core::milp_form::MilpFormulation;
use teccl_core::{SolverConfig, TeCcl};
use teccl_lp::{SolveStats, SolveStatus};
use teccl_topology::{NodeId, Topology};

/// internal2(2) at a 16 MB output buffer: the demand and its chunk size.
fn internal2x2_16mb(kind: CollectiveKind) -> (Topology, DemandMatrix, f64) {
    let topo = teccl_topology::internal2(2);
    let gpus: Vec<NodeId> = topo.gpus().collect();
    let demand = DemandMatrix::for_collective(kind, topo.num_nodes(), &gpus, 1);
    let chunk_bytes = CollectiveSizing::new(kind, gpus.len())
        .transfer_bytes_for_output_buffer(16.0 * 1024.0 * 1024.0);
    (topo, demand, chunk_bytes)
}

fn assert_cold(stats: &SolveStats) {
    assert_eq!(
        (stats.cold_starts, stats.warm_starts),
        (1, 0),
        "one cold solve expected: {stats:?}"
    );
}

#[test]
fn copy_free_alltoall_lp_takes_the_primal_phase1() {
    let (topo, demand, chunk_bytes) = internal2x2_16mb(CollectiveKind::AllToAll);
    let out = TeCcl::new(topo, SolverConfig::default())
        .solve_lp(&demand, chunk_bytes)
        .unwrap();
    assert_eq!(out.status, SolveStatus::Optimal);
    assert_cold(&out.stats);
    assert!(out.stats.simplex_iterations > 0, "{:?}", out.stats);
    assert_eq!(
        out.stats.dual_iterations, 0,
        "the dual phase 1 ran on an ALLTOALL LP: {:?}",
        out.stats
    );
}

#[test]
fn astar_allgather_cold_root_takes_the_dual_phase1() {
    let (topo, demand, chunk_bytes) = internal2x2_16mb(CollectiveKind::AllGather);
    let config = SolverConfig::default();
    let tau = epoch_duration(&topo, chunk_bytes, &config);
    let state = RoundState::new(&topo, &demand, chunk_bytes, &config, tau);
    let (remaining, _) = state.remaining(&demand);
    let options = state.build_options(&topo, &demand, &remaining, &config);
    let form = MilpFormulation::build(
        &topo,
        &demand,
        chunk_bytes,
        &config,
        state.epochs_per_round,
        tau,
        &options,
    )
    .unwrap();
    let root = form.model.solve_lp_relaxation().unwrap();
    assert_eq!(root.status, SolveStatus::Optimal);
    assert_cold(&root.stats);
    assert!(
        root.stats.dual_iterations > 0,
        "the A* root skipped the dual phase 1: {:?}",
        root.stats
    );
}
