//! The orbit-reduced copy-free LP (`teccl_core::symmetry`): the group each
//! builtin topology gets, that non-symmetries are refused, that the quotient
//! LP is exact, and that the trivial group still lays out the full model bit
//! for bit.
//!
//! Exactness is checked against the full model (the same instance built over
//! the trivial group) at the solver's first horizon: the same objective to
//! 1e-9 relative (or the same refutation), the reduced optimum unrolled
//! through the group satisfies every row and bound of the full model at the
//! full optimum's objective, and the extracted schedule validates. At 16 MiB
//! both optima also pass `Model::certify` when solved on the raw standard
//! form (no presolve). The rows
//! that solve full 8-GPU LPs take seconds in release and minutes in debug,
//! so they are `#[ignore]`d and run in CI with `--release -- --ignored`.

mod common;

use std::time::Instant;

use common::{assert_raw_optimum_certifies, model_hash};
use teccl_collective::{CollectiveKind, CollectiveSizing, DemandMatrix};
use teccl_core::epochs::{epoch_duration, horizon_lower_bound};
use teccl_core::extract::schedule_from_sends;
use teccl_core::lp_form::LpFormulation;
use teccl_core::symmetry::SymmetryGroup;
use teccl_core::{BufferMode, RequestMethod, SolverConfig, TeCcl, TeCclError};
use teccl_schedule::{simulate, validate};
use teccl_topology::{dgx1, dgx2, internal1, internal2, ndv2, NodeId, Topology, GBPS};

const SIXTEEN_MB: f64 = 16.0 * 1024.0 * 1024.0;
const SIZES: [f64; 2] = [64.0 * 1024.0, SIXTEEN_MB];
const KINDS: [CollectiveKind; 3] = [
    CollectiveKind::AllToAll,
    CollectiveKind::Scatter,
    CollectiveKind::Gather,
];

/// Demand, chunk size and τ of `kind` on `topo` at `output_buffer` bytes,
/// sized the way the service sizes a request.
fn shape(
    topo: &Topology,
    kind: CollectiveKind,
    chunks: usize,
    output_buffer: f64,
    config: &SolverConfig,
) -> (DemandMatrix, f64, f64) {
    let gpus: Vec<NodeId> = topo.gpus().collect();
    let demand = DemandMatrix::for_collective(kind, topo.num_nodes(), &gpus, chunks);
    let chunk_bytes = CollectiveSizing::new(kind, gpus.len())
        .transfer_bytes_for_output_buffer(output_buffer)
        / chunks as f64;
    let tau = epoch_duration(topo, chunk_bytes, config);
    (demand, chunk_bytes, tau)
}

fn group_of(topo: &Topology, kind: CollectiveKind) -> SymmetryGroup {
    let (demand, chunk_bytes, tau) = shape(topo, kind, 1, SIXTEEN_MB, &SolverConfig::default());
    SymmetryGroup::find(topo, &demand, chunk_bytes, tau, None).unwrap()
}

/// internal1(2) with the α of one ring link set to 0: its δ of 0 epochs
/// (every other link has 1) breaks every symmetry of the ALLTOALL LP.
fn asymmetric_internal1x2() -> Topology {
    let mut topo = internal1(2);
    topo.links[0].alpha = 0.0;
    topo
}

#[test]
fn builtin_topologies_get_their_group_orders() {
    let expected = [
        ("dgx1", dgx1(), 8),
        ("ndv2", ndv2(1), 8),
        ("internal1x2", internal1(2), 8),
        ("internal2x2", internal2(2), 4),
        ("internal2x3", internal2(3), 6),
        ("internal1x4", internal1(4), 16),
        // Not fixed by the design, recorded: dgx2's 16 GPUs behind one
        // NVSwitch get a regular group; on ndv2 x2 only GPUs 0 and 1 of each
        // chassis reach the switch, so the first source's orbit is those 4.
        ("dgx2", dgx2(1), 16),
        ("ndv2x2", ndv2(2), 4),
    ];
    for (name, topo, order) in expected {
        assert_eq!(
            group_of(&topo, CollectiveKind::AllToAll).order(),
            order,
            "{name}"
        );
    }
}

#[test]
fn asymmetric_topology_and_single_source_demands_get_the_trivial_group() {
    let topo = asymmetric_internal1x2();
    assert!(group_of(&topo, CollectiveKind::AllToAll).is_trivial());
    // SCATTER has one source, which every symmetry of the demand fixes.
    for topo in [dgx1(), internal1(2), internal2(3)] {
        assert!(group_of(&topo, CollectiveKind::Scatter).is_trivial());
    }
}

#[test]
fn non_symmetries_are_rejected() {
    // ndv2's two NVLink speeds on a 4-ring: 0-1 and 2-3 at 50 GB/s, 1-2 and
    // 3-0 at 25 GB/s. Rotating by one keeps adjacency but not capacity;
    // rotating by two keeps both. (ndv2 itself admits no such permutation:
    // every automorphism of its quad-plus-cross wiring keeps the quads.)
    let mut ring = Topology::new("ndv2-speed ring");
    let gpus: Vec<NodeId> = (0..4).map(|i| ring.add_gpu(format!("gpu{i}"), 0)).collect();
    for i in 0..4 {
        let cap = if i % 2 == 0 { 50.0 } else { 25.0 } * GBPS;
        ring.add_bilink(gpus[i], gpus[(i + 1) % 4], cap, 0.7e-6);
    }
    let (demand, chunk_bytes, tau) = shape(
        &ring,
        CollectiveKind::AllToAll,
        1,
        SIXTEEN_MB,
        &SolverConfig::default(),
    );
    let rotation = |step: usize| vec![(0..4).map(|i| NodeId((i + step) % 4)).collect()];
    assert!(SymmetryGroup::generated_by(&ring, &demand, chunk_bytes, tau, &rotation(1)).is_none());
    let half_turn = SymmetryGroup::generated_by(&ring, &demand, chunk_bytes, tau, &rotation(2));
    assert_eq!(half_turn.map(|g| g.order()), Some(2));

    // On dgx1, swapping GPUs 1 and 2 in both quads is a symmetry of the LP,
    // but it fixes the source GPU 0: the action would not be free.
    let topo = dgx1();
    let (demand, chunk_bytes, tau) = shape(
        &topo,
        CollectiveKind::AllToAll,
        1,
        SIXTEEN_MB,
        &SolverConfig::default(),
    );
    let swap: Vec<NodeId> = [0, 2, 1, 3, 4, 6, 5, 7].map(NodeId).to_vec();
    assert!(SymmetryGroup::generated_by(&topo, &demand, chunk_bytes, tau, &[swap]).is_none());
}

/// The reduced LP of `kind` on `topo` against the full one at the solver's
/// first horizon. A trivial group builds the full model itself, so only the
/// schedule is checked.
fn assert_exact(name: &str, topo: &Topology, kind: CollectiveKind, chunks: usize, bytes: f64) {
    let what = format!("{name} {kind:?} c{chunks} {bytes} B");
    let config = SolverConfig::default();
    let (demand, chunk_bytes, tau) = shape(topo, kind, chunks, bytes, &config);
    let group = SymmetryGroup::find(topo, &demand, chunk_bytes, tau, None).unwrap();
    let k = horizon_lower_bound(topo, &demand, chunk_bytes, tau, &group, None).unwrap() + 1;
    let reduced = LpFormulation::build(topo, &demand, chunk_bytes, &config, k, tau).unwrap();
    let solved = reduced.solve_budgeted(None, None);
    // The raw path walks the full LPs without presolve, seconds each in a
    // debug build: it is checked at the 16 MiB sizes.
    let certify = bytes == SIXTEEN_MB;
    if certify && solved.is_ok() {
        assert_raw_optimum_certifies(&what, &reduced.model);
    }
    if !reduced.group().is_trivial() {
        let full = LpFormulation::build_over(
            topo,
            &demand,
            chunk_bytes,
            &config,
            k,
            tau,
            SymmetryGroup::trivial(topo),
            None,
        )
        .unwrap();
        match (&solved, full.solve_budgeted(None, None)) {
            (Ok(r), Ok(f)) => {
                if certify {
                    assert_raw_optimum_certifies(&format!("{what} full"), &full.model);
                }
                let scale = f.objective.abs().max(1.0);
                assert!(
                    (r.objective - f.objective).abs() <= 1e-9 * scale,
                    "{what}: reduced {} vs full {}",
                    r.objective,
                    f.objective
                );
                let x = reduced.unroll(r, &full);
                assert!(full.model.is_feasible(&x, 1e-7), "{what}: unrolled point");
                let unrolled = full.model.eval_objective(&x);
                assert!(
                    (unrolled - f.objective).abs() <= 1e-9 * scale,
                    "{what}: unrolled objective {unrolled} vs {}",
                    f.objective
                );
            }
            (
                Err(TeCclError::InfeasibleWithEpochs(a)),
                Err(TeCclError::InfeasibleWithEpochs(b)),
            ) => {
                assert_eq!(*a, b, "{what}")
            }
            (r, f) => panic!(
                "{what}: reduced {:?} vs full {:?}",
                r.as_ref().err(),
                f.err()
            ),
        }
    }
    let Ok(sol) = solved else {
        return;
    };
    let sends = reduced.extract_sends(&sol, &demand);
    let schedule = schedule_from_sends("lp", chunk_bytes, tau, sends, 0.0);
    let report = validate(topo, &demand, &schedule, false);
    assert!(report.is_valid(), "{what}: {:?}", report.errors);
}

fn assert_exact_sweep(topologies: &[(&str, Topology)]) {
    for (name, topo) in topologies {
        for kind in KINDS {
            for chunks in [1, 2] {
                for bytes in SIZES {
                    assert_exact(name, topo, kind, chunks, bytes);
                }
            }
        }
    }
}

#[test]
fn reduced_lp_is_exact_on_small_topologies() {
    assert_exact_sweep(&[
        ("internal1", internal1(1)),
        ("internal2x2", internal2(2)),
        ("dgx1", dgx1()),
    ]);
}

#[test]
#[ignore = "full 8-GPU LPs: seconds in release; run with --release -- --ignored"]
fn reduced_lp_is_exact_on_eight_gpu_topologies() {
    assert_exact_sweep(&[
        ("ndv2", ndv2(1)),
        ("internal2x3", internal2(3)),
        ("internal1x2", internal1(2)),
        ("internal2x4", internal2(4)),
    ]);
}

/// The 16-GPU Table-4 ALLTOALL row: 143 577 pivots and ~300 s over the
/// full LP; its order-16 group leaves a few hundred.
#[test]
#[ignore = "release-only; run with --release -- --ignored"]
fn sixteen_gpu_alltoall_solves_over_its_group() {
    let topo = internal1(4);
    let config = SolverConfig::default();
    let (demand, chunk_bytes, _) = shape(&topo, CollectiveKind::AllToAll, 1, SIXTEEN_MB, &config);
    let start = Instant::now();
    let out = TeCcl::new(topo.clone(), config)
        .solve(&demand, chunk_bytes, RequestMethod::Lp, None)
        .unwrap();
    let elapsed = start.elapsed();
    let report = validate(&out.topology_used, &demand, &out.schedule, false);
    assert!(report.is_valid(), "{:?}", report.errors);
    let transfer = simulate(&out.topology_used, &demand, &out.schedule)
        .unwrap()
        .transfer_time;
    assert!(transfer <= 1970.0e-6, "transfer {transfer}");
    assert!(
        out.stats.simplex_iterations < 5_000,
        "{} pivots in {elapsed:?}",
        out.stats.simplex_iterations
    );
}

/// The model of `kind` on `topo` at horizon `k` over the trivial group.
fn trivial_hash(
    topo: Topology,
    kind: CollectiveKind,
    chunks: usize,
    bytes: f64,
    config: SolverConfig,
    k: usize,
) -> u64 {
    let (demand, chunk_bytes, tau) = shape(&topo, kind, chunks, bytes, &config);
    let group = SymmetryGroup::trivial(&topo);
    let form = LpFormulation::build_over(&topo, &demand, chunk_bytes, &config, k, tau, group, None)
        .unwrap();
    model_hash(&form.model)
}

/// Hashes recorded from `LpFormulation::build` before it built quotient
/// models: over the trivial group the model must not move a bit.
#[test]
fn trivial_group_models_are_pinned() {
    use CollectiveKind::{AllToAll, Gather, Scatter};
    let default = SolverConfig::default;
    assert_eq!(
        trivial_hash(dgx1(), AllToAll, 2, SIXTEEN_MB, default(), 8),
        15442762413620053711
    );
    let limited = default().with_buffer_mode(BufferMode::LimitedChunks(2));
    assert_eq!(
        trivial_hash(internal2(2), AllToAll, 1, SIXTEEN_MB, limited, 6),
        14778749456492610926
    );
    let no_store = default().with_buffer_mode(BufferMode::NoStoreAndForward);
    assert_eq!(
        trivial_hash(internal2(2), AllToAll, 1, SIXTEEN_MB, no_store, 6),
        12852919236289301862
    );
    assert_eq!(
        trivial_hash(internal1(2), Scatter, 1, 1024.0 * 1024.0, default(), 8),
        8408161562962002683
    );
    assert_eq!(
        trivial_hash(ndv2(1), Gather, 2, 64.0 * 1024.0, default(), 6),
        13024233966615389036
    );
}
