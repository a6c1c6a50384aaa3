//! Pins of the LP models `LpFormulation::build_over` lays out, hashed to the
//! bit as `milp_model_pins.rs` hashes the MILP models: every variable's
//! bounds, objective and integrality and every row's operator, right-hand
//! side and terms. The hashes were recorded before the formulations shared
//! one variable index, so a refactor of the layout that moves any bound,
//! rhs, weight, coefficient or the order of a variable or a row fails here.
//!
//! Shapes: ALLTOALL with 2 chunks at a 16 MiB output buffer on dgx1, on
//! internal1 x2 and on internal1 x2 with one ring link at α = 0 (the fault
//! instance, which has no symmetry), each over the trivial group and over
//! the group `SymmetryGroup::find` returns, at the solver's first horizon.

mod common;

use common::model_hash;
use teccl_collective::{CollectiveKind, CollectiveSizing, DemandMatrix};
use teccl_core::epochs::{epoch_duration, horizon_lower_bound};
use teccl_core::lp_form::LpFormulation;
use teccl_core::symmetry::SymmetryGroup;
use teccl_core::SolverConfig;
use teccl_topology::{dgx1, internal1, NodeId, Topology};

/// The hashes of the 2-chunk 16 MiB ALLTOALL LP on `topo`, over the trivial
/// group and over the found group, at the first horizon the solver tries
/// (one epoch above the bound), and the found group's order.
fn hashes(topo: &Topology) -> (u64, u64, usize) {
    let config = SolverConfig::default();
    let kind = CollectiveKind::AllToAll;
    let gpus: Vec<NodeId> = topo.gpus().collect();
    let demand = DemandMatrix::for_collective(kind, topo.num_nodes(), &gpus, 2);
    let chunk_bytes = CollectiveSizing::new(kind, gpus.len())
        .transfer_bytes_for_output_buffer(16.0 * 1024.0 * 1024.0)
        / 2.0;
    let tau = epoch_duration(topo, chunk_bytes, &config);
    let found = SymmetryGroup::find(topo, &demand, chunk_bytes, tau, None).unwrap();
    let k = horizon_lower_bound(topo, &demand, chunk_bytes, tau, &found, None).unwrap() + 1;
    let order = found.order();
    let hash = |group| {
        let form =
            LpFormulation::build_over(topo, &demand, chunk_bytes, &config, k, tau, group, None)
                .unwrap();
        model_hash(&form.model)
    };
    (hash(SymmetryGroup::trivial(topo)), hash(found), order)
}

#[test]
fn dgx1_alltoall_models_are_pinned() {
    assert_eq!(
        hashes(&dgx1()),
        (14484196523429069473, 4254859593173713183, 8)
    );
}

#[test]
fn internal1x2_alltoall_models_are_pinned() {
    assert_eq!(
        hashes(&internal1(2)),
        (233105334697828936, 3802629320757687674, 8)
    );
}

/// The fault instance: `find` returns the trivial group, so both builds are
/// the full model.
#[test]
fn asymmetric_internal1x2_alltoall_models_are_pinned() {
    let mut topo = internal1(2);
    topo.links[0].alpha = 0.0;
    assert_eq!(
        hashes(&topo),
        (12093866780275428146, 12093866780275428146, 1)
    );
}
