//! The proven epoch-horizon bounds: `epochs::horizon_lower_bound` for the
//! copy-free LP and `epochs::copy_horizon_bound` for the MILP with copy.
//!
//! Five properties, each on real shapes: the bound is *valid* (the LP or
//! MILP built one epoch below it is infeasible — on the builtin topologies
//! and, for the LP, on seeded random ones), the first horizon tried is
//! *feasible* on the Table-4 ALLTOALL shapes (no wasted attempt, and within
//! three epochs of the completion epoch), the MILP's first horizon schedules
//! exactly what the Appendix-E over-estimate it replaced did, a configured
//! `max_epochs` below the bound is raised to it before anything is built, and
//! the retry ladder grows the horizon by increments instead of doubling it.
//! The rows too slow for a debug build are `#[ignore]`d and run in CI with
//! `--release -- --ignored`.

use teccl_collective::{CollectiveKind, CollectiveSizing, DemandMatrix};
use teccl_core::epochs::{
    copy_horizon_bound, epoch_duration, estimate_num_epochs, horizon_lower_bound,
};
use teccl_core::lp_form::LpFormulation;
use teccl_core::milp_form::{MilpBuildOptions, MilpFormulation};
use teccl_core::switch::hyperedge_transform;
use teccl_core::{
    BufferMode, RequestMethod, SolveOutcome, SolverConfig, SwitchModel, TeCcl, TeCclError,
};
use teccl_schedule::{simulate, validate};
use teccl_topology::{dgx1, internal1, internal2, ndv2, NodeId, Topology};
use teccl_util::Rng64;

const COPY_FREE: [CollectiveKind; 3] = [
    CollectiveKind::AllToAll,
    CollectiveKind::Scatter,
    CollectiveKind::Gather,
];

/// Demand and chunk size of `kind` on `topo` at `output_buffer` bytes, sized
/// the way the service sizes a request.
fn shape(
    topo: &Topology,
    kind: CollectiveKind,
    chunks: usize,
    output_buffer: f64,
) -> (DemandMatrix, f64) {
    let gpus: Vec<NodeId> = topo.gpus().collect();
    let demand = DemandMatrix::for_collective(kind, topo.num_nodes(), &gpus, chunks);
    let sizing = CollectiveSizing::new(kind, gpus.len());
    let chunk_bytes = sizing.transfer_bytes_for_output_buffer(output_buffer) / chunks as f64;
    (demand, chunk_bytes)
}

fn bound_of(
    topo: &Topology,
    demand: &DemandMatrix,
    chunk_bytes: f64,
    config: &SolverConfig,
) -> usize {
    let tau = epoch_duration(topo, chunk_bytes, config);
    horizon_lower_bound(topo, demand, chunk_bytes, tau, None).expect("bound LP solves")
}

/// The LP one epoch below the bound must be refuted, never scheduled.
fn assert_refuted_below_bound(
    what: &str,
    topo: &Topology,
    demand: &DemandMatrix,
    chunk_bytes: f64,
    config: &SolverConfig,
) {
    let bound = bound_of(topo, demand, chunk_bytes, config);
    if bound < 2 {
        return; // no horizon below one epoch to refute
    }
    let tau = epoch_duration(topo, chunk_bytes, config);
    let form = LpFormulation::build(topo, demand, chunk_bytes, config, bound - 1, tau).unwrap();
    match form.solve_budgeted(None, None) {
        Err(TeCclError::InfeasibleWithEpochs(k)) => assert_eq!(k, bound - 1),
        other => panic!(
            "{what}: K = {} is below the bound {bound} yet gave {other:?}",
            bound - 1
        ),
    }
}

fn assert_valid_on_builtin(topo: &Topology, chunk_counts: &[usize]) {
    let config = SolverConfig::default();
    for kind in COPY_FREE {
        for &chunks in chunk_counts {
            // 64 KB: α spans several epochs; 16 MB: bandwidth decides.
            for buffer in [65536.0, 16.0 * 1048576.0] {
                let (demand, chunk_bytes) = shape(topo, kind, chunks, buffer);
                let what = format!("{} {kind:?} x{chunks} @ {buffer}", topo.name);
                assert_refuted_below_bound(&what, topo, &demand, chunk_bytes, &config);
            }
        }
    }
}

#[test]
fn bound_is_valid_on_builtin_topologies() {
    for topo in [
        dgx1(),
        ndv2(1),
        internal1(1),
        internal2(1),
        internal2(2),
        internal2(3),
    ] {
        assert_valid_on_builtin(&topo, &[1, 2]);
    }
}

#[test]
#[ignore = "debug builds take tens of seconds; CI runs it with --release"]
fn bound_is_valid_on_the_larger_builtin_topologies() {
    assert_valid_on_builtin(&internal1(2), &[1, 2]);
    assert_valid_on_builtin(&internal2(4), &[1, 2]);
}

/// A strongly connected topology of 3–5 GPUs (a directed ring, random chords,
/// sometimes a switch) with link speeds 1/2/4 GB/s and α of 0–5 epochs, and
/// a copy-free demand on it: ALLTOALL, SCATTER, GATHER or random pairs.
fn random_case(seed: u64) -> (Topology, DemandMatrix) {
    let mut rng = Rng64::seed_from_u64(seed);
    let n = 3 + rng.gen_range_usize(3);
    let mut topo = Topology::new(format!("random{seed}"));
    let gpus: Vec<NodeId> = (0..n).map(|i| topo.add_gpu(format!("g{i}"), 0)).collect();
    let link = |topo: &mut Topology, rng: &mut Rng64, a: NodeId, b: NodeId| {
        let capacity = 1e9 * [1.0, 2.0, 4.0][rng.gen_range_usize(3)];
        let alpha = [0.0, 0.3e-3, 0.6e-3, 1.1e-3][rng.gen_range_usize(4)];
        topo.add_link(a, b, capacity, alpha);
    };
    for i in 0..n {
        link(&mut topo, &mut rng, gpus[i], gpus[(i + 1) % n]);
    }
    if rng.gen_bool(0.4) {
        let sw = topo.add_switch("sw", 0);
        for &g in &gpus {
            if rng.gen_bool(0.6) {
                link(&mut topo, &mut rng, g, sw);
                link(&mut topo, &mut rng, sw, g);
            }
        }
    }
    for _ in 0..rng.gen_range_usize(2 * n) {
        let (a, b) = (gpus[rng.gen_range_usize(n)], gpus[rng.gen_range_usize(n)]);
        if a != b && topo.link_between(a, b).is_none() {
            link(&mut topo, &mut rng, a, b);
        }
    }
    let chunks = 1 + rng.gen_range_usize(2);
    let nodes = topo.num_nodes();
    let demand = match rng.gen_range_usize(4) {
        0 => DemandMatrix::all_to_all(nodes, &gpus, chunks),
        1 => DemandMatrix::scatter(nodes, &gpus, gpus[rng.gen_range_usize(n)], chunks),
        2 => DemandMatrix::gather(nodes, &gpus, gpus[rng.gen_range_usize(n)], chunks),
        _ => {
            let mut d = DemandMatrix::new(nodes, chunks);
            d.set(gpus[0], 0, gpus[1]);
            for &s in &gpus {
                for c in 0..chunks {
                    let to = gpus[rng.gen_range_usize(n)];
                    if to != s && rng.gen_bool(0.7) {
                        d.set(s, c, to);
                    }
                }
            }
            d
        }
    };
    (topo, demand)
}

#[test]
fn bound_is_valid_on_random_topologies() {
    let mut loose = 0;
    for seed in 0..40 {
        let (topo, demand) = random_case(seed);
        // Buffer limits only take schedules away, so the bound must hold
        // under each mode; the limit leaves room for every source's own data.
        let mode = [
            BufferMode::Unlimited,
            BufferMode::NoStoreAndForward,
            BufferMode::LimitedChunks(demand.total_demands()),
        ][seed as usize % 3];
        let config = SolverConfig::default().with_buffer_mode(mode);
        let what = format!("random seed {seed} {mode:?}");
        assert_refuted_below_bound(&what, &topo, &demand, 1e6, &config);

        // ... and the ladder that starts from it reaches a valid schedule.
        let bound = bound_of(&topo, &demand, 1e6, &config);
        let out = TeCcl::new(topo.clone(), config.clone())
            .solve(&demand, 1e6, RequestMethod::Lp, None)
            .unwrap_or_else(|e| panic!("{what}: {e}"));
        let report = validate(&out.topology_used, &demand, &out.schedule, false);
        assert!(report.is_valid(), "{what}: {:?}", report.errors);
        assert!(out.num_epochs >= bound && out.num_epochs < 2 * (bound + 1));
        loose += usize::from(out.num_epochs > bound + 1);
    }
    // The set exercises the retry path too, not only first-attempt successes.
    assert!(loose > 0, "no random case needed a second horizon");
}

/// The LP solve at the default horizon: the first attempt is the last one, and
/// the horizon is within three epochs of the completion epoch.
fn assert_first_horizon_feasible(topo: &Topology, chunks: usize) {
    let config = SolverConfig::default();
    let (demand, chunk_bytes) = shape(topo, CollectiveKind::AllToAll, chunks, 16.0 * 1048576.0);
    let tau = epoch_duration(topo, chunk_bytes, &config);
    let first = estimate_num_epochs(topo, &demand, chunk_bytes, tau);
    let out = TeCcl::new(topo.clone(), config)
        .solve(&demand, chunk_bytes, RequestMethod::Lp, None)
        .unwrap();
    assert_eq!(
        out.num_epochs, first,
        "{} x{chunks}: first horizon was refuted",
        topo.name
    );
    // `schedule.num_epochs` is the completion epoch + 1.
    assert!(
        out.num_epochs <= out.schedule.num_epochs + 2,
        "{} x{chunks}: horizon {} for a schedule of {} epochs",
        topo.name,
        out.num_epochs,
        out.schedule.num_epochs
    );
}

#[test]
fn first_horizon_is_feasible_on_alltoall() {
    for topo in [dgx1(), ndv2(1), internal2(3)] {
        assert_first_horizon_feasible(&topo, 1);
    }
    assert_first_horizon_feasible(&dgx1(), 2);
}

#[test]
#[ignore = "debug builds take minutes; CI runs it with --release"]
fn first_horizon_is_feasible_on_the_larger_alltoall_rows() {
    for topo in [ndv2(1), internal2(3), internal1(2), internal2(4)] {
        assert_first_horizon_feasible(&topo, 2);
    }
    for topo in [internal1(2), internal2(4)] {
        assert_first_horizon_feasible(&topo, 1);
    }
}

/// Bound − 1 is refuted and the bound itself schedules: the bound is the
/// smallest feasible horizon.
fn assert_bound_is_tight(topo: &Topology, chunks: usize) {
    let (demand, chunk_bytes) = shape(topo, CollectiveKind::AllToAll, chunks, 16.0 * 1048576.0);
    let config = SolverConfig::default();
    let bound = bound_of(topo, &demand, chunk_bytes, &config);
    assert_refuted_below_bound(&topo.name, topo, &demand, chunk_bytes, &config);
    let out = TeCcl::new(topo.clone(), config.with_max_epochs(bound))
        .solve(&demand, chunk_bytes, RequestMethod::Lp, None)
        .unwrap();
    assert_eq!(
        out.num_epochs, bound,
        "{}: the bound itself was refuted",
        topo.name
    );
}

#[test]
fn bound_is_tight_on_the_small_benchmark_key() {
    assert_bound_is_tight(&dgx1(), 2);
}

#[test]
#[ignore = "debug builds take tens of seconds; CI runs it with --release"]
fn bound_is_tight_on_the_larger_benchmark_keys() {
    assert_bound_is_tight(&internal2(3), 2);
    assert_bound_is_tight(&internal1(2), 2);
}

#[test]
fn max_epochs_below_the_bound_is_raised_to_it() {
    let topo = dgx1();
    let (demand, chunk_bytes) = shape(&topo, CollectiveKind::AllToAll, 1, 16.0 * 1048576.0);
    let bound = bound_of(&topo, &demand, chunk_bytes, &SolverConfig::default());
    assert!(bound > 2);
    let solve = |max_epochs| {
        TeCcl::new(
            topo.clone(),
            SolverConfig::default().with_max_epochs(max_epochs),
        )
        .solve(&demand, chunk_bytes, RequestMethod::Lp, None)
        .unwrap()
    };
    // Had K = 2 been built and refuted first, its pivots would be counted.
    let (raised, exact) = (solve(2), solve(bound));
    assert_eq!(raised.num_epochs, bound);
    assert_eq!(exact.num_epochs, bound);
    assert_eq!(
        raised.stats.simplex_iterations,
        exact.stats.simplex_iterations
    );
    // A horizon above the bound is the caller's to choose.
    assert_eq!(solve(bound + 4).num_epochs, bound + 4);
}

#[test]
fn retry_ladder_grows_by_increments_not_by_doubling() {
    // Directed ring with no relay buffers. g1's chunk for g0 stands at g2
    // after 14 epochs and then crosses a link of a quarter chunk per epoch:
    // the volume bound sees that link idle from epoch 0 (g2 is a source
    // itself), so it stops at the 22 epochs of latency; 25 are needed.
    let mut topo = Topology::new("slow-last-hop");
    let g: Vec<NodeId> = (0..3).map(|i| topo.add_gpu(format!("g{i}"), 0)).collect();
    topo.add_link(g[0], g[1], 4e9, 1.7e-3);
    topo.add_link(g[1], g[2], 4e9, 3.2e-3);
    topo.add_link(g[2], g[0], 1e9, 1.7e-3);
    let mut demand = DemandMatrix::new(3, 2);
    demand.set(g[0], 0, g[1]);
    demand.set(g[0], 1, g[2]);
    demand.set(g[1], 1, g[0]);
    demand.set(g[2], 0, g[1]);
    let config = SolverConfig::default().with_buffer_mode(BufferMode::NoStoreAndForward);
    let bound = bound_of(&topo, &demand, 1e6, &config);
    assert_eq!(bound, 22);

    let tau = epoch_duration(&topo, 1e6, &config);
    let feasible_at = |k| {
        LpFormulation::build(&topo, &demand, 1e6, &config, k, tau)
            .unwrap()
            .solve_budgeted(None, None)
            .is_ok()
    };
    assert!(
        !feasible_at(bound + 1),
        "the first horizon must be refuted here"
    );
    assert!(!feasible_at(bound + 2));

    // 23 refuted, 23 + 2 feasible — doubling would have built K = 46.
    let out = TeCcl::new(topo.clone(), config)
        .solve(&demand, 1e6, RequestMethod::Lp, None)
        .unwrap();
    assert_eq!(out.num_epochs, bound + 3);
    let report = validate(&out.topology_used, &demand, &out.schedule, false);
    assert!(report.is_valid(), "{:?}", report.errors);
}

const COPY: [CollectiveKind; 2] = [CollectiveKind::AllGather, CollectiveKind::Broadcast];

/// The MILP one epoch below the copy bound must be refuted, never scheduled.
/// The bound is taken on the topology the MILP is built on (hyper-edge
/// transformed, when the config says so).
fn assert_milp_refuted_below_bound(
    topo: &Topology,
    kind: CollectiveKind,
    chunks: usize,
    output_buffer: f64,
    config: &SolverConfig,
) {
    let what = format!("{} {kind:?} x{chunks} @ {output_buffer}", topo.name);
    let (demand, chunk_bytes) = shape(topo, kind, chunks, output_buffer);
    let (topo, hyperedge_groups) = match config.switch_model {
        SwitchModel::HyperEdge => hyperedge_transform(topo),
        _ => (topo.clone(), Vec::new()),
    };
    let tau = epoch_duration(&topo, chunk_bytes, config);
    let bound = copy_horizon_bound(&topo, &demand, chunk_bytes, tau, None).expect("bound LPs");
    assert!(
        bound >= 2,
        "{what}: nothing below the bound {bound} to refute"
    );
    let options = MilpBuildOptions {
        hyperedge_groups,
        ..Default::default()
    };
    let form = MilpFormulation::build(
        &topo,
        &demand,
        chunk_bytes,
        config,
        bound - 1,
        tau,
        &options,
    )
    .unwrap();
    match form.solve_budgeted(config, None, None) {
        Err(TeCclError::InfeasibleWithEpochs(k)) => assert_eq!(k, bound - 1),
        other => panic!(
            "{what}: K = {} is below the copy bound {bound} yet gave {:?}",
            bound - 1,
            other.map(|sol| sol.status)
        ),
    }
}

fn assert_copy_bound_valid(topo: &Topology, config: &SolverConfig) {
    for kind in COPY {
        for chunks in [1, 2] {
            for buffer in [65536.0, 16.0 * 1048576.0] {
                assert_milp_refuted_below_bound(topo, kind, chunks, buffer, config);
            }
        }
    }
}

#[test]
fn copy_bound_is_valid_on_builtin_topologies() {
    for topo in [dgx1(), ndv2(1), internal1(1), internal2(2), internal1(2)] {
        assert_copy_bound_valid(&topo, &SolverConfig::default());
    }
}

#[test]
fn copy_bound_is_valid_under_hyperedges_and_buffer_limits() {
    assert_copy_bound_valid(&internal2(2), &SolverConfig::taccl_comparable());
    // Room for a source's own chunks plus one relayed chunk.
    for chunks in [1, 2] {
        let config =
            SolverConfig::default().with_buffer_mode(BufferMode::LimitedChunks(chunks + 1));
        for kind in COPY {
            for buffer in [65536.0, 16.0 * 1048576.0] {
                assert_milp_refuted_below_bound(&dgx1(), kind, chunks, buffer, &config);
            }
        }
    }
}

/// The MILP solve on an ALLGATHER at its first horizon and at `old_k`, the
/// horizon the Appendix-E over-estimate used to give: the first horizon is
/// not refuted, and both simulate to the same transfer time, to the bit.
fn assert_first_horizon_schedules_like(
    topo: &Topology,
    chunks: usize,
    output_buffer: f64,
    old_k: usize,
) {
    let what = format!("{} x{chunks} @ {output_buffer}", topo.name);
    let config = SolverConfig::default();
    let (demand, chunk_bytes) = shape(topo, CollectiveKind::AllGather, chunks, output_buffer);
    let tau = epoch_duration(topo, chunk_bytes, &config);
    let first = estimate_num_epochs(topo, &demand, chunk_bytes, tau);
    assert!(first < old_k, "{what}: first horizon {first}");
    let solve = |config: SolverConfig| {
        TeCcl::new(topo.clone(), config)
            .solve(&demand, chunk_bytes, RequestMethod::Milp, None)
            .unwrap_or_else(|e| panic!("{what}: {e}"))
    };
    let (new, old) = (solve(config.clone()), solve(config.with_max_epochs(old_k)));
    assert_eq!(new.num_epochs, first, "{what}: first horizon was refuted");
    assert_eq!(old.num_epochs, old_k);
    let transfer = |out: &SolveOutcome| {
        simulate(&out.topology_used, &demand, &out.schedule)
            .unwrap_or_else(|e| panic!("{what}: {e:?}"))
            .transfer_time
    };
    assert_eq!(
        transfer(&new).to_bits(),
        transfer(&old).to_bits(),
        "{what}: K = {first} and K = {old_k} schedule differently"
    );
}

#[test]
fn first_milp_horizon_schedules_the_churn_family_unchanged() {
    // The `service_churn` MILP family: internal1, 2 chunks, eight
    // half-octave sizes from 1 MB, each built at K = 11 before.
    for half_octaves in 0..8 {
        let mb = 2f64.powf(f64::from(half_octaves) / 2.0);
        assert_first_horizon_schedules_like(&internal1(1), 2, mb * 1048576.0, 11);
    }
}

#[test]
#[ignore = "the K = 9 solve takes ~10 s in a debug build; CI runs it with --release"]
fn first_milp_horizon_schedules_the_dgx1_allgather_key_unchanged() {
    // The `allgather_copy` MILP key, built at K = 9 before.
    assert_first_horizon_schedules_like(&dgx1(), 1, 16.0 * 1048576.0, 9);
}
