//! The MILP and the A\* rounds laid out over their symmetry group
//! (`MilpFormulation::build_over`, `teccl_core::symmetry`).
//!
//! The quotient is a *restriction* of the paper's model, so it is checked
//! against that model, built over the trivial group:
//! * the root relaxation of A\* round 0 and round 1 over the quotient has the
//!   full round model's optimum, to 1e-9 relative (the averaging argument),
//!   and both relaxations, solved on the raw standard form (no presolve),
//!   pass `Model::certify`;
//! * each quotient round's integral optimum, unrolled through the group,
//!   is a feasible point of the full round model with the same objective;
//! * an instance without symmetry gets the trivial group and the same A\*
//!   sends as before the quotient existed;
//! * the dgx1 ALLGATHER MILP over its group ends `Optimal` at the full
//!   model's objective, and `TeCcl::solve` takes that answer;
//! * a quotient MILP that is infeasible hands the horizon to the full model.
//!
//! The 16-GPU rows take seconds in release and minutes in debug, so they are
//! `#[ignore]`d and run in CI with `--release -- --ignored`.

mod common;

use common::assert_raw_optimum_certifies;
use teccl_collective::{CollectiveKind, CollectiveSizing, DemandMatrix};
use teccl_core::astar::{solve_astar_budgeted, RoundState};
use teccl_core::epochs::{epoch_duration, estimate_num_epochs};
use teccl_core::milp_form::{MilpBuildOptions, MilpFormulation};
use teccl_core::symmetry::SymmetryGroup;
use teccl_core::{BufferMode, RequestMethod, SolverConfig, TeCcl};
use teccl_lp::SolveStatus;
use teccl_topology::{dgx1, dgx2, internal1, internal2, NodeId, Topology};
use teccl_util::StableHasher;

const SIXTEEN_MB: f64 = 16.0 * 1024.0 * 1024.0;

/// One ALLGATHER instance sized the way the service sizes a request at a
/// 16 MiB output buffer.
struct Instance {
    topo: Topology,
    demand: DemandMatrix,
    chunk_bytes: f64,
    tau: f64,
    config: SolverConfig,
}

impl Instance {
    fn new(topo: Topology, config: SolverConfig) -> Self {
        let gpus: Vec<NodeId> = topo.gpus().collect();
        let kind = CollectiveKind::AllGather;
        let demand = DemandMatrix::for_collective(kind, topo.num_nodes(), &gpus, 1);
        let chunk_bytes =
            CollectiveSizing::new(kind, gpus.len()).transfer_bytes_for_output_buffer(SIXTEEN_MB);
        let tau = epoch_duration(&topo, chunk_bytes, &config);
        Self {
            topo,
            demand,
            chunk_bytes,
            tau,
            config,
        }
    }

    fn group(&self) -> SymmetryGroup {
        SymmetryGroup::find_per_chunk(&self.topo, &self.demand, self.chunk_bytes, self.tau, None)
            .unwrap()
    }

    /// The model of one round (or of the whole MILP) over `group`.
    fn build(
        &self,
        num_epochs: usize,
        options: &MilpBuildOptions,
        group: SymmetryGroup,
    ) -> MilpFormulation {
        MilpFormulation::build_over(
            &self.topo,
            &self.demand,
            self.chunk_bytes,
            &self.config,
            num_epochs,
            self.tau,
            options,
            group,
            None,
        )
        .unwrap()
    }
}

fn assert_close(what: &str, quotient: f64, full: f64) {
    let scale = full.abs().max(1.0);
    assert!(
        (quotient - full).abs() <= 1e-9 * scale,
        "{what}: quotient {quotient} vs full {full}"
    );
}

/// A\* rounds 0 and 1 of `inst`: the quotient's root relaxation against the
/// full round model's, and the quotient's integral round optimum unrolled
/// onto the full round model. Round 1 starts from round 0's unrolled sends,
/// as the solver's does.
fn check_rounds(name: &str, inst: &Instance, order: usize) {
    let group = inst.group();
    assert_eq!(group.order(), order, "{name}: group order");
    let mut state = RoundState::new(
        &inst.topo,
        &inst.demand,
        inst.chunk_bytes,
        &inst.config,
        inst.tau,
    );
    for round in 0..2 {
        let what = format!("{name} round {round}");
        let (remaining, open) = state.remaining(&inst.demand);
        assert!(open > 0, "{what}: nothing left to schedule");
        let options = state.build_options(&inst.topo, &inst.demand, &remaining, &inst.config);
        let k = state.epochs_per_round;
        let full = inst.build(k, &options, SymmetryGroup::trivial(&inst.topo));
        let quotient = inst.build(k, &options, group.clone());
        assert!(quotient.model.num_vars() * order <= full.model.num_vars() + order);

        let relax = |name: &str, form: &MilpFormulation| {
            let sol = form.model.solve_lp_relaxation_budgeted(None, None).unwrap();
            assert_eq!(sol.status, SolveStatus::Optimal, "{what}");
            assert_raw_optimum_certifies(&format!("{what} {name}"), &form.model);
            sol.objective
        };
        assert_close(
            &format!("{what}: root bound"),
            relax("quotient", &quotient),
            relax("full", &full),
        );

        let sol = quotient
            .solve_budgeted(&inst.config, None, None)
            .unwrap_or_else(|e| panic!("{what}: {e}"));
        let x = quotient.unroll(&sol, &full);
        assert!(full.model.is_feasible(&x, 1e-7), "{what}: unrolled point");
        assert_close(
            &format!("{what}: unrolled objective"),
            full.model.eval_objective(&x),
            sol.objective,
        );
        state.absorb(&inst.topo, &quotient.sends(&sol));
    }
}

#[test]
fn astar_rounds_over_the_quotient_internal1x2() {
    check_rounds(
        "internal1x2",
        &Instance::new(internal1(2), SolverConfig::default()),
        8,
    );
}

#[test]
fn astar_rounds_over_the_quotient_internal2x2() {
    check_rounds(
        "internal2x2",
        &Instance::new(internal2(2), SolverConfig::default()),
        4,
    );
}

#[test]
fn astar_rounds_over_the_quotient_dgx1() {
    // The default 4-epoch round delivers everything at once on dgx1; rounds
    // of 2 epochs leave work, and chunks in flight, for round 1.
    let config = SolverConfig {
        astar_epochs_per_round: Some(2),
        ..Default::default()
    };
    check_rounds("dgx1", &Instance::new(dgx1(), config), 8);
}

#[test]
fn astar_rounds_over_the_quotient_with_limited_buffers() {
    let config = SolverConfig::default().with_buffer_mode(BufferMode::LimitedChunks(2));
    check_rounds(
        "internal2x2 buffers 2",
        &Instance::new(internal2(2), config),
        4,
    );
}

#[test]
#[ignore = "release-only"]
fn astar_rounds_over_the_quotient_16_gpus() {
    check_rounds("dgx2", &Instance::new(dgx2(1), SolverConfig::default()), 16);
    check_rounds(
        "internal1x4",
        &Instance::new(internal1(4), SolverConfig::default()),
        16,
    );
}

/// internal1(2) with the α of one ring link set to 0, the instance of the
/// LP's fault-injection tests: no symmetry survives it.
fn asymmetric_internal1x2() -> Topology {
    let mut topo = internal1(2);
    topo.links[0].alpha = 0.0;
    topo
}

#[test]
fn an_asymmetric_instance_keeps_the_full_astar_rounds() {
    let inst = Instance::new(asymmetric_internal1x2(), SolverConfig::default());
    assert!(inst.group().is_trivial());
    let out = solve_astar_budgeted(
        &inst.topo,
        &inst.demand,
        inst.chunk_bytes,
        &inst.config,
        inst.tau,
        None,
        None,
    )
    .unwrap();
    let mut h = StableHasher::new();
    for s in &out.sends {
        h.write_usize(s.epoch)
            .write_usize(s.from.0)
            .write_usize(s.to.0)
            .write_usize(s.chunk.source.0)
            .write_usize(s.chunk.chunk);
    }
    // Recorded on the solver before rounds were laid out over a group.
    assert_eq!(
        (out.rounds, out.sends.len(), h.finish()),
        (ASYMMETRIC_ROUNDS, ASYMMETRIC_SENDS, ASYMMETRIC_SENDS_HASH)
    );
}

const ASYMMETRIC_ROUNDS: usize = 4;
const ASYMMETRIC_SENDS: usize = 291;
const ASYMMETRIC_SENDS_HASH: u64 = 2547171019749822892;

#[test]
fn dgx1_allgather_milp_over_its_group_is_exact() {
    let inst = Instance::new(dgx1(), SolverConfig::default());
    let k = estimate_num_epochs(&inst.topo, &inst.demand, inst.chunk_bytes, inst.tau);
    let options = MilpBuildOptions::default();
    let solve = |group| {
        let form = inst.build(k, &options, group);
        form.solve_budgeted(&inst.config, None, None).unwrap()
    };
    let full = solve(SymmetryGroup::trivial(&inst.topo));
    let quotient = solve(inst.group());
    for sol in [&full, &quotient] {
        assert_eq!(sol.status, SolveStatus::Optimal);
    }
    assert_eq!(quotient.stats.nodes_explored, 1, "a root-only tree");
    assert_close("dgx1 MILP objective", quotient.objective, full.objective);

    // The product takes the quotient's answer: its statistics are the
    // quotient's alone.
    let out = TeCcl::new(inst.topo.clone(), inst.config.clone())
        .solve(&inst.demand, inst.chunk_bytes, RequestMethod::Milp, None)
        .unwrap();
    assert_eq!(out.status, SolveStatus::Optimal);
    assert_eq!(
        (out.num_epochs, out.stats.simplex_iterations),
        (k, quotient.stats.simplex_iterations)
    );
}

/// Two GPUs `a` and `b` swap one chunk over a relay path `a, b → r1 → r2 →
/// a, b` of one-epoch links, the middle one shared and carrying one chunk
/// per epoch. The swap `a ↔ b` is a symmetry that fixes `r1 → r2`.
fn shared_relay() -> (Topology, DemandMatrix) {
    let mut topo = Topology::new("shared relay link");
    let a = topo.add_gpu("a", 0);
    let b = topo.add_gpu("b", 0);
    let r1 = topo.add_gpu("r1", 0);
    let r2 = topo.add_gpu("r2", 0);
    for (src, dst) in [(a, r1), (b, r1), (r1, r2), (r2, a), (r2, b)] {
        topo.add_link(src, dst, 1e9, 0.0);
    }
    let mut demand = DemandMatrix::new(topo.num_nodes(), 1);
    demand.set(a, 0, b);
    demand.set(b, 0, a);
    (topo, demand)
}

/// A schedule invariant under the swap sends both chunks over `r1 → r2` in
/// the same epoch, which its capacity of one chunk forbids, so the quotient
/// is infeasible at every horizon. The solve must run the full model at the
/// first horizon and never climb for the quotient's sake.
#[test]
fn an_infeasible_quotient_falls_back_to_the_full_model() {
    let (topo, demand) = shared_relay();
    let (chunk_bytes, tau) = (1e6, 1e-3);
    let config = SolverConfig::default();
    let group = SymmetryGroup::find_per_chunk(&topo, &demand, chunk_bytes, tau, None).unwrap();
    assert_eq!(group.order(), 2);

    let options = MilpBuildOptions::default();
    let full_at = |k| {
        MilpFormulation::build(&topo, &demand, chunk_bytes, &config, k, tau, &options)
            .unwrap()
            .solve_budgeted(&config, None, None)
    };
    // The copy bound is tight for the full model here.
    let k = estimate_num_epochs(&topo, &demand, chunk_bytes, tau);
    assert!(full_at(k).is_ok());
    let quotient = MilpFormulation::build_over(
        &topo,
        &demand,
        chunk_bytes,
        &config,
        k,
        tau,
        &options,
        group,
        None,
    )
    .unwrap();
    assert!(quotient.solve_budgeted(&config, None, None).is_err());

    let out = TeCcl::new(topo.clone(), config.clone())
        .solve(&demand, chunk_bytes, RequestMethod::Milp, None)
        .unwrap();
    assert_eq!(out.num_epochs, k, "the horizon the full model needs");
    assert_eq!(out.status, SolveStatus::Optimal);
    let report = teccl_schedule::validate(&topo, &demand, &out.schedule, false);
    assert!(report.is_valid(), "{:?}", report.errors);
}

/// [`shared_relay`] plus direct links `a ↔ b` six epochs slow, at a horizon
/// both fit in. The quotient is feasible: both chunks go direct. Its orbit
/// row of the fixed link `r1 → r2` reads `2 F ≤ 1`, which presolve rounds to
/// `F ≤ 0`, so its root bound is below the full model's and a root-only
/// `Optimal` quotient is a worse schedule than the full optimum, which
/// sends both chunks through the relays one epoch apart. A group that fixes
/// a link must not be taken for the MILP.
#[test]
fn a_group_that_fixes_a_link_is_not_taken_for_the_milp() {
    let (mut topo, demand) = shared_relay();
    let (a, b, r1, r2) = (NodeId(0), NodeId(1), NodeId(2), NodeId(3));
    topo.add_link(a, b, 1e9 / 6.0, 0.0);
    topo.add_link(b, a, 1e9 / 6.0, 0.0);
    let (chunk_bytes, tau) = (1e6, 1e-3);
    let config = SolverConfig {
        max_epochs: Some(8),
        ..SolverConfig::default()
    };
    let group = SymmetryGroup::find_per_chunk(&topo, &demand, chunk_bytes, tau, None).unwrap();
    assert_eq!(group.order(), 2);
    assert!(group.fixes_a_link_or_gpu(&topo));

    let options = MilpBuildOptions::default();
    let solve = |group| {
        MilpFormulation::build_over(
            &topo,
            &demand,
            chunk_bytes,
            &config,
            8,
            tau,
            &options,
            group,
            None,
        )
        .unwrap()
        .solve_budgeted(&config, None, None)
        .unwrap()
    };
    let full = solve(SymmetryGroup::trivial(&topo));
    let quotient = solve(group);
    assert_eq!(quotient.status, SolveStatus::Optimal);
    assert_eq!(quotient.stats.nodes_explored, 1, "a root-only tree");
    assert!(
        quotient.objective < full.objective - 1e-6,
        "quotient {} vs full {}",
        quotient.objective,
        full.objective
    );

    let out = TeCcl::new(topo.clone(), config.clone())
        .solve(&demand, chunk_bytes, RequestMethod::Milp, None)
        .unwrap();
    assert_eq!(out.status, SolveStatus::Optimal);
    let report = teccl_schedule::validate(&topo, &demand, &out.schedule, false);
    assert!(report.is_valid(), "{:?}", report.errors);
    let relayed = |sends: &[teccl_schedule::Send]| {
        sends.iter().filter(|s| (s.from, s.to) == (r1, r2)).count()
    };
    assert_eq!(relayed(&out.schedule.sends), 2, "the full model's optimum");
    assert_eq!(out.stats.simplex_iterations, full.stats.simplex_iterations);
}
