//! Integration tests spanning all workspace crates: topologies → demands →
//! TE-CCL formulations → schedules → validation → α–β simulation → metrics,
//! plus cross-checks against the baseline schedulers.

use te_ccl::baselines::{
    ring_all_gather, sccl_like_schedule, shortest_path_schedule, taccl_like_schedule, TacclConfig,
};
use te_ccl::collective::CollectiveKind;
use te_ccl::prelude::*;

/// Helper: validate + simulate a schedule and return the transfer time.
fn check_and_time(topo: &Topology, demand: &DemandMatrix, schedule: &Schedule) -> f64 {
    let report = validate(topo, demand, schedule, false);
    assert!(
        report.is_valid(),
        "schedule `{}` invalid: {:?}",
        schedule.name,
        report.errors
    );
    simulate(topo, demand, schedule)
        .expect("simulation failed")
        .transfer_time
}

#[test]
fn allgather_internal1_teccl_beats_or_matches_shortest_path() {
    let topo = te_ccl::topology::internal1(1);
    let gpus: Vec<NodeId> = topo.gpus().collect();
    let demand = DemandMatrix::all_gather(topo.num_nodes(), &gpus, 1);
    let chunk = 1.0e6;

    let solver = TeCcl::new(topo.clone(), SolverConfig::early_stop().with_max_epochs(8));
    let ours = solver
        .solve(&demand, chunk, RequestMethod::Auto, None)
        .unwrap();
    let t_ours = check_and_time(&topo, &demand, &ours.schedule);

    let sp = shortest_path_schedule(&topo, &demand, chunk);
    let t_sp = check_and_time(&topo, &demand, &sp);

    // TE-CCL leverages copy and pipelining: it must not lose to the
    // shortest-path unicast baseline.
    assert!(
        t_ours <= t_sp * 1.05 + 1e-9,
        "TE-CCL {t_ours} vs shortest-path {t_sp}"
    );
}

#[test]
fn alltoall_ring_lp_matches_demand_exactly() {
    let topo = te_ccl::topology::ring_topology(4, 25.0e9, 0.7e-6);
    let gpus: Vec<NodeId> = topo.gpus().collect();
    let demand = DemandMatrix::all_to_all(topo.num_nodes(), &gpus, 1);
    let chunk = 1.0e6;

    let solver = TeCcl::new(topo.clone(), SolverConfig::default().with_max_epochs(12));
    let ours = solver
        .solve(&demand, chunk, RequestMethod::Auto, None)
        .unwrap();
    assert_eq!(ours.formulation, te_ccl::core::solver::FormulationKind::Lp);
    let t = check_and_time(&topo, &demand, &ours.schedule);
    assert!(t > 0.0);
    // Every demanded chunk is carried by at least one send (possibly a relay
    // hop rather than a direct delivery to `d`).
    for (s, c, d) in demand.iter() {
        assert!(
            ours.schedule
                .sends
                .iter()
                .any(|snd| snd.chunk.source == s && snd.chunk.chunk == c),
            "no send for ({s:?}, {c}, {d:?})"
        );
    }
}

#[test]
fn broadcast_copy_halves_upstream_traffic_vs_no_copy() {
    // Figure 1c end-to-end: with copy the relay link carries each chunk once;
    // the shortest-path (copy-free) baseline carries it once per destination.
    let topo = te_ccl::topology::fig1c(1.0e9);
    let mut demand = DemandMatrix::new(topo.num_nodes(), 1);
    for d in 2..5 {
        demand.set(NodeId(0), 0, NodeId(d));
    }
    let chunk = 1.0e6;

    let solver = TeCcl::new(topo.clone(), SolverConfig::default().with_max_epochs(6));
    let ours = solver
        .solve(&demand, chunk, RequestMethod::Auto, None)
        .unwrap();
    check_and_time(&topo, &demand, &ours.schedule);
    let ours_upstream = ours
        .schedule
        .sends
        .iter()
        .filter(|s| s.from == NodeId(0) && s.to == NodeId(1))
        .count();

    let sp = shortest_path_schedule(&topo, &demand, chunk);
    let sp_upstream = sp
        .sends
        .iter()
        .filter(|s| s.from == NodeId(0) && s.to == NodeId(1))
        .count();

    assert_eq!(
        ours_upstream, 1,
        "copy-aware schedule sends the chunk upstream once"
    );
    assert_eq!(
        sp_upstream, 3,
        "unicast baseline duplicates the chunk per destination"
    );
}

#[test]
fn ring_baseline_and_teccl_agree_on_ring_topology_allgather() {
    // On a pure ring the optimal ALLGATHER *is* the ring schedule; TE-CCL's
    // schedule should finish within a small factor of it.
    let topo = te_ccl::topology::ring_topology(4, 25.0e9, 0.7e-6);
    let gpus: Vec<NodeId> = topo.gpus().collect();
    let demand = DemandMatrix::all_gather(topo.num_nodes(), &gpus, 1);
    let chunk = 1.0e6;

    let ring = ring_all_gather(&topo, &gpus, 1, chunk).unwrap();
    let t_ring = check_and_time(&topo, &demand, &ring);

    let solver = TeCcl::new(topo.clone(), SolverConfig::early_stop().with_max_epochs(8));
    let ours = solver
        .solve(&demand, chunk, RequestMethod::Auto, None)
        .unwrap();
    let t_ours = check_and_time(&topo, &demand, &ours.schedule);

    assert!(
        t_ours <= t_ring * 1.5 + 1e-9,
        "TE-CCL {t_ours} vs ring {t_ring}"
    );
}

#[test]
fn sccl_like_barrier_is_slower_than_teccl_pipelining_on_multichunk() {
    // Table 3's effect: with several chunks, the barrier-per-round baseline
    // pays the (large) α cost every round while TE-CCL pipelines chunks into
    // the α shadow of earlier ones.
    let topo = te_ccl::topology::line_topology(3, 1.0e9, 5.0e-3); // α = 5 * β
    let gpus: Vec<NodeId> = topo.gpus().collect();
    let demand = DemandMatrix::broadcast(topo.num_nodes(), &gpus, gpus[0], 3);
    let chunk = 1.0e6;

    let sccl = sccl_like_schedule(&topo, &demand, chunk).unwrap();

    let solver = TeCcl::new(topo.clone(), SolverConfig::default().with_max_epochs(10));
    let ours = solver
        .solve(&demand, chunk, RequestMethod::Auto, None)
        .unwrap();
    let t_ours = check_and_time(&topo, &demand, &ours.schedule);

    assert!(
        t_ours < sccl.transfer_time,
        "TE-CCL ({t_ours}) should beat the barrier baseline ({})",
        sccl.transfer_time
    );
}

#[test]
fn taccl_like_is_valid_but_not_better_than_teccl_on_internal1() {
    let topo = te_ccl::topology::internal1(1);
    let gpus: Vec<NodeId> = topo.gpus().collect();
    let demand = DemandMatrix::all_gather(topo.num_nodes(), &gpus, 1);
    let chunk = 1.0e6;

    let taccl = taccl_like_schedule(&topo, &demand, chunk, &TacclConfig::default()).unwrap();
    let t_taccl = check_and_time(&topo, &demand, &taccl.schedule);

    let solver = TeCcl::new(topo.clone(), SolverConfig::early_stop().with_max_epochs(8));
    let ours = solver
        .solve(&demand, chunk, RequestMethod::Auto, None)
        .unwrap();
    let t_ours = check_and_time(&topo, &demand, &ours.schedule);

    // TE-CCL co-optimizes routing and scheduling, but its schedules are
    // quantized to epoch boundaries while the TACCL-like baseline is purely
    // dependency-paced, so each relay hop can cost up to one extra epoch in
    // the simulator. Allow that quantization penalty (the schedule here is
    // epoch-optimal: exactly one epoch above the continuous time).
    let tau = ours.epoch_duration;
    assert!(
        t_ours <= t_taccl + 1.5 * tau + 1e-9,
        "TE-CCL {t_ours} vs TACCL-like {t_taccl} (tau {tau})"
    );
}

#[test]
fn reduce_scatter_and_gather_demands_solve_via_lp() {
    let topo = te_ccl::topology::internal2(2);
    let gpus: Vec<NodeId> = topo.gpus().collect();
    let chunk = 1.0e6;
    for kind in [
        CollectiveKind::ReduceScatter,
        CollectiveKind::Gather,
        CollectiveKind::Scatter,
    ] {
        let demand = DemandMatrix::for_collective(kind, topo.num_nodes(), &gpus, 1);
        let solver = TeCcl::new(topo.clone(), SolverConfig::default().with_max_epochs(16));
        let out = solver
            .solve(&demand, chunk, RequestMethod::Auto, None)
            .unwrap_or_else(|e| panic!("{kind:?}: {e}"));
        assert_eq!(
            out.formulation,
            te_ccl::core::solver::FormulationKind::Lp,
            "{kind:?}"
        );
        check_and_time(&topo, &demand, &out.schedule);
    }
}

#[test]
fn schedules_are_deterministic_across_runs() {
    let topo = te_ccl::topology::internal2(2);
    let gpus: Vec<NodeId> = topo.gpus().collect();
    let demand = DemandMatrix::all_gather(topo.num_nodes(), &gpus, 1);
    let chunk = 1.0e6;
    let solve = || {
        TeCcl::new(topo.clone(), SolverConfig::default().with_max_epochs(8))
            .solve(&demand, chunk, RequestMethod::Auto, None)
            .unwrap()
            .schedule
            .sorted_sends()
    };
    assert_eq!(
        solve(),
        solve(),
        "TE-CCL must be deterministic (§6: 'produces the same solution in each run')"
    );
}

#[test]
fn msccl_export_roundtrips_through_json() {
    let topo = te_ccl::topology::line_topology(3, 1.0e9, 0.0);
    let gpus: Vec<NodeId> = topo.gpus().collect();
    let demand = DemandMatrix::broadcast(topo.num_nodes(), &gpus, gpus[0], 1);
    let solver = TeCcl::new(topo.clone(), SolverConfig::default().with_max_epochs(6));
    let out = solver
        .solve(&demand, 1.0e6, RequestMethod::Auto, None)
        .unwrap();
    let json = out.schedule.to_msccl_json();
    let text = json.to_json();
    let back = te_ccl::prelude::JsonValue::parse(&text).unwrap();
    assert_eq!(
        back.get("gpus")
            .and_then(te_ccl::prelude::JsonValue::as_arr)
            .unwrap()
            .len(),
        3
    );
}

#[test]
fn alpha_modeling_matters_for_small_transfers() {
    // Figure 2's qualitative claim: ignoring α under-estimates the finish time
    // badly for small transfers and barely matters for large ones.
    let topo = te_ccl::topology::fig2_topology();
    let gpus: Vec<NodeId> = topo.gpus().collect();
    let demand = DemandMatrix::all_gather(topo.num_nodes(), &gpus, 1);

    let small_chunk = 1.0e3; // 1 KB
    let large_chunk = 16.0e6; // 16 MB

    for (chunk, expect_large_error) in [(small_chunk, true), (large_chunk, false)] {
        let solver = TeCcl::new(topo.clone(), SolverConfig::early_stop().with_max_epochs(8));
        let out = solver
            .solve(&demand, chunk, RequestMethod::AStar, None)
            .unwrap();
        let with_alpha = simulate(&topo, &demand, &out.schedule)
            .unwrap()
            .transfer_time;
        let no_alpha_topo = topo.with_alpha_scaled(0.0);
        let without_alpha = simulate(&no_alpha_topo, &demand, &out.schedule)
            .unwrap()
            .transfer_time;
        let rel_error = (with_alpha - without_alpha) / with_alpha * 100.0;
        if expect_large_error {
            // Epoch pacing absorbs part of the α into the schedule itself, so
            // the measured gap sits below the paper's raw-α figure; what
            // matters is the order-of-magnitude split versus large transfers.
            assert!(
                rel_error > 10.0,
                "small transfers should be α-dominated, error {rel_error}%"
            );
        } else {
            assert!(
                rel_error < 5.0,
                "large transfers should be β-dominated, error {rel_error}%"
            );
        }
    }
}
