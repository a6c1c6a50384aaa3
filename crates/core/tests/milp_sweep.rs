//! The MILP solve end to end on copy-free demands: internal2 x2 / x3 ×
//! ALLTOALL / GATHER / SCATTER × 64 KB / 16 MB, default configuration.
//!
//! Every row that solves must hand back a schedule that validates and
//! simulates, at a horizon no shorter than the proven lower bound
//! (`epochs::horizon_lower_bound`) and at most one rung of the horizon ladder
//! (+2) above the first horizon tried. Three tiers:
//!
//! * the six internal2 x2 rows (0.3 s together in a debug build) run in
//!   tier-1;
//! * the internal2 x3 rows that solve (ALLTOALL 64 KB 30 s, GATHER 64 KB
//!   0.03 s and GATHER 16 MB 165 s in a *release* build) are
//!   `#[ignore = "release-only"]` and run in CI with
//!   `--release -- --ignored release_only`;
//! * three internal2 x3 rows are **known limits** of branch and bound inside
//!   its 120 s limit (EXPERIMENTS.md "Known limits"): ALLTOALL 16 MB returns
//!   `no feasible schedule found within limits` after ~131 s; SCATTER 16 MB
//!   returns the same after ~213 s (B&B refutes K = 9 in ~85 s, then finds no
//!   incumbent at K = 11); SCATTER 64 KB finds a schedule at K = 11 after
//!   ~315 s — an answer that depends on how much B&B fits inside a
//!   wall-clock limit, so not one CI can hold anyone to. All three are
//!   `#[ignore]`d with their reason and expect `Ok`.

use teccl_collective::{CollectiveKind, CollectiveSizing, DemandMatrix};
use teccl_core::epochs::{epoch_duration, estimate_num_epochs, horizon_lower_bound};
use teccl_core::symmetry::SymmetryGroup;
use teccl_core::{RequestMethod, SolverConfig, TeCcl};
use teccl_schedule::{simulate, validate};
use teccl_topology::{internal2, NodeId};

const KB64: f64 = 65536.0;
const MB16: f64 = 16.0 * 1048576.0;

/// Solves one row through the MILP and checks the answer.
fn sweep_row(chassis: usize, kind: CollectiveKind, output_buffer: f64) {
    let topo = internal2(chassis);
    let what = format!("{} {kind:?} @ {output_buffer}", topo.name);
    let gpus: Vec<NodeId> = topo.gpus().collect();
    let demand = DemandMatrix::for_collective(kind, topo.num_nodes(), &gpus, 1);
    let chunk_bytes =
        CollectiveSizing::new(kind, gpus.len()).transfer_bytes_for_output_buffer(output_buffer);
    let config = SolverConfig::default();
    let tau = epoch_duration(&topo, chunk_bytes, &config);
    let group = SymmetryGroup::find(&topo, &demand, chunk_bytes, tau, None).unwrap();
    let bound = horizon_lower_bound(&topo, &demand, chunk_bytes, tau, &group, None)
        .unwrap_or_else(|e| panic!("{what}: bound LP: {e}"));
    let first = estimate_num_epochs(&topo, &demand, chunk_bytes, tau);
    let out = TeCcl::new(topo, config)
        .solve(&demand, chunk_bytes, RequestMethod::Milp, None)
        .unwrap_or_else(|e| panic!("{what}: {e}"));
    let report = validate(&out.topology_used, &demand, &out.schedule, false);
    assert!(report.is_valid(), "{what}: {:?}", report.errors);
    let sim = simulate(&out.topology_used, &demand, &out.schedule)
        .unwrap_or_else(|e| panic!("{what}: {e:?}"));
    assert!(sim.transfer_time > 0.0, "{what}: empty schedule");
    assert!(
        out.num_epochs >= bound,
        "{what}: solved at {} epochs, below the proven bound {bound}",
        out.num_epochs
    );
    // The first horizon or the next rung (+2): the ladder never doubles.
    assert!(
        out.num_epochs <= first + 3,
        "{what}: solved at {} epochs, first horizon {first}",
        out.num_epochs
    );
}

#[test]
fn internal2x2_alltoall_64kb() {
    sweep_row(2, CollectiveKind::AllToAll, KB64);
}

#[test]
fn internal2x2_alltoall_16mb() {
    sweep_row(2, CollectiveKind::AllToAll, MB16);
}

#[test]
fn internal2x2_gather_64kb() {
    sweep_row(2, CollectiveKind::Gather, KB64);
}

#[test]
fn internal2x2_gather_16mb() {
    sweep_row(2, CollectiveKind::Gather, MB16);
}

#[test]
fn internal2x2_scatter_64kb() {
    sweep_row(2, CollectiveKind::Scatter, KB64);
}

#[test]
fn internal2x2_scatter_16mb() {
    sweep_row(2, CollectiveKind::Scatter, MB16);
}

#[test]
#[ignore = "release-only"]
fn release_only_internal2x3_alltoall_64kb() {
    sweep_row(3, CollectiveKind::AllToAll, KB64);
}

#[test]
#[ignore = "release-only"]
fn release_only_internal2x3_gather_64kb() {
    sweep_row(3, CollectiveKind::Gather, KB64);
}

#[test]
#[ignore = "release-only"]
fn release_only_internal2x3_gather_16mb() {
    sweep_row(3, CollectiveKind::Gather, MB16);
}

#[test]
#[ignore = "known limit: no feasible schedule found within limits after 120 s"]
fn known_limit_internal2x3_alltoall_16mb() {
    sweep_row(3, CollectiveKind::AllToAll, MB16);
}

#[test]
#[ignore = "known limit: ~315 s, and only if B&B beats the 120 s limit at K = 11"]
fn known_limit_internal2x3_scatter_64kb() {
    sweep_row(3, CollectiveKind::Scatter, KB64);
}

#[test]
#[ignore = "known limit: no incumbent within the 120 s limit at K = 11 (~213 s in all)"]
fn known_limit_internal2x3_scatter_16mb() {
    sweep_row(3, CollectiveKind::Scatter, MB16);
}
