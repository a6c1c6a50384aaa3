//! Pins of the MILP models `MilpFormulation::build` lays out: every
//! variable's bounds and objective and every row's operator, right-hand side
//! and terms, hashed to the bit. The hashes were recorded before the build
//! and the A\* round update shared one round writer, so a refactor of either
//! that moves any bound, rhs, reward or coefficient fails here — which a
//! comparison of an updated model against a fresh build (both from the same
//! writer) no longer could.
//!
//! Shapes: internal2 x2 ALLGATHER at 16 MB (α on every link, κ = 2 on the
//! switch links) under the default options, limited buffers,
//! no-store-and-forward, non-copy switches and the hyper-edge transform; the
//! round-1 options of the in-place update test on a 4-GPU line; and round 1
//! of the A\* loop on internal2 x2 rebuilt through `RoundState`. Over the
//! group `SymmetryGroup::find_per_chunk` returns: A\* rounds 0 and 1 on
//! internal1 x2, with unlimited and with limited buffers, and the dgx1
//! ALLGATHER MILP at its copy bound.

mod common;

use common::model_hash;
use teccl_collective::{CollectiveKind, CollectiveSizing, DemandMatrix};
use teccl_core::astar::RoundState;
use teccl_core::epochs::{copy_horizon_bound, epoch_duration};
use teccl_core::milp_form::{MilpBuildOptions, MilpFormulation};
use teccl_core::switch::hyperedge_transform;
use teccl_core::symmetry::SymmetryGroup;
use teccl_core::{BufferMode, SolverConfig, SwitchModel};
use teccl_topology::{dgx1, internal1, internal2, line_topology, NodeId, Topology};

/// internal2 x2 ALLGATHER at a 16 MB output buffer, with `config`'s switch
/// model applied: topology, demand, chunk size, τ and hyper-edge options.
fn internal2x2_allgather(
    config: &SolverConfig,
) -> (Topology, DemandMatrix, f64, f64, MilpBuildOptions) {
    let topo = internal2(2);
    let gpus: Vec<NodeId> = topo.gpus().collect();
    let kind = CollectiveKind::AllGather;
    let demand = DemandMatrix::for_collective(kind, topo.num_nodes(), &gpus, 1);
    let chunk_bytes = CollectiveSizing::new(kind, gpus.len())
        .transfer_bytes_for_output_buffer(16.0 * 1024.0 * 1024.0);
    let (topo, hyperedge_groups) = match config.switch_model {
        SwitchModel::HyperEdge => hyperedge_transform(&topo),
        _ => (topo, Vec::new()),
    };
    let tau = epoch_duration(&topo, chunk_bytes, config);
    let options = MilpBuildOptions {
        hyperedge_groups,
        ..Default::default()
    };
    (topo, demand, chunk_bytes, tau, options)
}

fn internal2x2_hash(config: &SolverConfig) -> u64 {
    let (topo, demand, chunk_bytes, tau, options) = internal2x2_allgather(config);
    let form =
        MilpFormulation::build(&topo, &demand, chunk_bytes, config, 6, tau, &options).unwrap();
    model_hash(&form.model)
}

/// Two chunks from GPU 0 on a 4-GPU line, to every other GPU or (`relay`)
/// to GPUs 2 and 3 only, so GPU 1 holds chunk 0 and receives chunk 1 as a
/// relay.
fn line_demand(relay: bool) -> DemandMatrix {
    let mut demand = DemandMatrix::new(4, 2);
    let first = if relay { 2 } else { 1 };
    for c in 0..2 {
        for d in first..4 {
            demand.set(NodeId(0), c, NodeId(d));
        }
    }
    demand
}

/// `demand` on the 4-GPU line under round-1 state: extra holders, an
/// in-flight chunk, terminal rewards and a frozen commodity.
fn line_round1_hash(config: &SolverConfig, demand: &DemandMatrix) -> u64 {
    let topo = line_topology(4, 1e9, 0.0);
    let round1 = MilpBuildOptions {
        relax_completion: true,
        extra_initial: vec![(NodeId(0), 0, NodeId(1))],
        in_flight: vec![(NodeId(0), 1, NodeId(1), 1)],
        terminal_rewards: vec![
            (NodeId(0), 0, NodeId(2), 0.5),
            (NodeId(0), 1, NodeId(3), 0.125),
        ],
        frozen: vec![(NodeId(0), 1)],
        ..Default::default()
    };
    let form = MilpFormulation::build(&topo, demand, 1e6, config, 4, 1e-3, &round1).unwrap();
    model_hash(&form.model)
}

#[test]
fn default_options_model_is_pinned() {
    assert_eq!(
        internal2x2_hash(&SolverConfig::default()),
        14489392443685401874,
        "default options"
    );
}

#[test]
fn round1_options_model_is_pinned() {
    let config = SolverConfig::default();
    assert_eq!(
        line_round1_hash(&config, &line_demand(false)),
        2798410647367582221
    );
    assert_eq!(
        line_round1_hash(&config, &line_demand(true)),
        8009293903779898229
    );
}

#[test]
fn limited_buffer_model_is_pinned() {
    let config = SolverConfig::default().with_buffer_mode(BufferMode::LimitedChunks(2));
    assert_eq!(internal2x2_hash(&config), 3850637253579806891);
}

#[test]
fn no_store_and_forward_models_are_pinned() {
    let config = SolverConfig::default().with_buffer_mode(BufferMode::NoStoreAndForward);
    // Only holders and destinations are buffered: GPU 1 holds chunk 0 but
    // only relays the in-flight chunk 1, and GPU 2 holds neither.
    assert_eq!(
        line_round1_hash(&config, &line_demand(true)),
        15609347127384658429
    );
}

#[test]
fn switch_models_are_pinned() {
    let non_copy = SolverConfig {
        switch_model: SwitchModel::NonCopy,
        ..Default::default()
    };
    assert_eq!(internal2x2_hash(&non_copy), 11311831670173911894);
    let hyper = SolverConfig {
        switch_model: SwitchModel::HyperEdge,
        ..Default::default()
    };
    assert_eq!(internal2x2_hash(&hyper), 2244854936664921438);
}

#[test]
fn astar_round1_model_is_pinned() {
    let config = SolverConfig::default();
    let (topo, demand, chunk_bytes, tau, _) = internal2x2_allgather(&config);
    let mut state = RoundState::new(&topo, &demand, chunk_bytes, &config, tau);
    let build = |state: &RoundState| {
        let (remaining, _) = state.remaining(&demand);
        let options = state.build_options(&topo, &demand, &remaining, &config);
        MilpFormulation::build(
            &topo,
            &demand,
            chunk_bytes,
            &config,
            state.epochs_per_round,
            tau,
            &options,
        )
        .unwrap()
    };
    let round0 = build(&state);
    let sol = round0.solve_budgeted(&config, None, None).unwrap();
    state.absorb(&topo, &round0.sends(&sol));
    let round1 = build(&state);
    assert_eq!(
        (model_hash(&round0.model), model_hash(&round1.model)),
        (11005451624717317037, 16877532526095070901)
    );
}

/// ALLGATHER on `topo` at a 16 MB output buffer: demand, chunk size, τ and
/// the group `SymmetryGroup::find_per_chunk` lays its MILPs out over.
fn allgather_over_its_group(
    topo: &Topology,
    config: &SolverConfig,
) -> (DemandMatrix, f64, f64, SymmetryGroup) {
    let gpus: Vec<NodeId> = topo.gpus().collect();
    let kind = CollectiveKind::AllGather;
    let demand = DemandMatrix::for_collective(kind, topo.num_nodes(), &gpus, 1);
    let chunk_bytes = CollectiveSizing::new(kind, gpus.len())
        .transfer_bytes_for_output_buffer(16.0 * 1024.0 * 1024.0);
    let tau = epoch_duration(topo, chunk_bytes, config);
    let group = SymmetryGroup::find_per_chunk(topo, &demand, chunk_bytes, tau, None).unwrap();
    (demand, chunk_bytes, tau, group)
}

/// The hashes of A\* rounds 0 and 1 on internal1 x2 laid out over its group,
/// round 1 after round 0's quotient sends, and the group's order.
fn internal1x2_quotient_round_hashes(config: &SolverConfig) -> (u64, u64, usize) {
    let topo = internal1(2);
    let (demand, chunk_bytes, tau, group) = allgather_over_its_group(&topo, config);
    let mut state = RoundState::new(&topo, &demand, chunk_bytes, config, tau);
    let mut hashes = [0; 2];
    for hash in &mut hashes {
        let (remaining, _) = state.remaining(&demand);
        let options = state.build_options(&topo, &demand, &remaining, config);
        let round = MilpFormulation::build_over(
            &topo,
            &demand,
            chunk_bytes,
            config,
            state.epochs_per_round,
            tau,
            &options,
            group.clone(),
            None,
        )
        .unwrap();
        *hash = model_hash(&round.model);
        let sol = round.solve_budgeted(config, None, None).unwrap();
        state.absorb(&topo, &round.sends(&sol));
    }
    (hashes[0], hashes[1], group.order())
}

/// The orbit-folded rows (capacity per link orbit, buffer limit per node
/// orbit) and the `|G|`-weighted rewards, which the trivial-group pins above
/// never lay out.
#[test]
fn quotient_astar_round_models_are_pinned() {
    assert_eq!(
        internal1x2_quotient_round_hashes(&SolverConfig::default()),
        (15897221165372884921, 13024004964274557622, 8)
    );
    let limited = SolverConfig::default().with_buffer_mode(BufferMode::LimitedChunks(2));
    assert_eq!(
        internal1x2_quotient_round_hashes(&limited),
        (15842825666658364733, 3349954758729658378, 8)
    );
}

#[test]
fn quotient_dgx1_allgather_model_is_pinned() {
    let topo = dgx1();
    let config = SolverConfig::default();
    let (demand, chunk_bytes, tau, group) = allgather_over_its_group(&topo, &config);
    let found = SymmetryGroup::find(&topo, &demand, chunk_bytes, tau, None).unwrap();
    let k = copy_horizon_bound(&topo, &demand, chunk_bytes, tau, &found, None).unwrap();
    let form = MilpFormulation::build_over(
        &topo,
        &demand,
        chunk_bytes,
        &config,
        k,
        tau,
        &MilpBuildOptions::default(),
        group.clone(),
        None,
    )
    .unwrap();
    assert_eq!(
        (model_hash(&form.model), k, group.order()),
        (4220109336725593258, 4, 8)
    );
}
