//! The eight `allgather_copy` and the three `alltoall_lp` benchmark shapes,
//! solved the way the service solves a cold request, with their pivot counts
//! pinned: the A* and MILP rows pin the dual-heavy warm walk, the LP rows the
//! primal phase-1 / phase-2 walk of a cold copy-free ALLTOALL.
//!
//! The sparse FTRAN/BTRAN kernels, the shared pivot-row gather and the
//! incremental dual row pricing are admitted on one condition: they change
//! what a pivot costs, never which pivot is taken. A schedule that still
//! validates would not notice a changed walk; these counts do. A change that
//! is *meant* to alter the walk re-pins them and says so.
//!
//! The `dgx1` MILP row was re-pinned when its horizon stopped coming from the
//! Appendix-E over-estimate (`K = 9`, 6 492 / 5 782 / 1 / 98) and started at
//! the proven copy bound (`epochs::copy_horizon_bound`, `K = 4`): a smaller
//! model, the same simulated transfer time (`core/tests/horizon.rs`). The
//! seven A* rows size their own rounds and did not move.
//!
//! The schedule is pinned too, not only the walk: each shape's send count
//! and its simulated transfer time to the bit.
//!
//! The `alltoall_lp` rows were recorded on the solver before the simplex's
//! one start ladder, which had to reproduce them, and re-pinned when the LP
//! became the quotient by its symmetry group (`teccl_core::symmetry`) and
//! its schedule the images of the representatives' paths. Each is a smaller
//! LP with the same optimum whose walk ends at another optimal vertex, and
//! each must schedule at least as fast as the full LP did
//! ([`FULL_LP_TRANSFER`]):
//! * `dgx1`: order-8 group, 1 567 → 154 pivots; 179 → 192 sends at the same
//!   transfer time to the bit (480.0 µs).
//! * `internal2x3`: order-6 group, 2 951 → 274 pivots; 170 → 168 sends,
//!   1 746.3 → 1 477.9 µs.
//! * `internal1x2`: order-8 group, 5 951 → 382 pivots; 329 → 280 sends,
//!   1 296.3 → 960.2 µs.
//!
//! Release-only (tens of seconds in a debug build, ~2 s in release); CI runs
//! it with `--release -- --ignored`.

use teccl_collective::CollectiveKind;
use teccl_core::TeCcl;
use teccl_schedule::{simulate, validate};
use teccl_service::{builtin_topology, RequestMethod, SolveRequest};

/// `(collective, topology, chunks, method, [iterations, dual iterations, B&B
/// nodes, factorizations], sends, simulated transfer time as f64 bits)` at a
/// 16 MiB output buffer.
type Shape = (
    CollectiveKind,
    &'static str,
    usize,
    RequestMethod,
    [usize; 4],
    usize,
    u64,
);

const AG: CollectiveKind = CollectiveKind::AllGather;
const A2A: CollectiveKind = CollectiveKind::AllToAll;

#[rustfmt::skip]
const SHAPES: [Shape; 11] = [
    (AG, "internal1x2", 1, RequestMethod::AStar, [763, 644, 5, 11], 64, 0x3f5c4912de0a35b8),
    (AG, "internal1x2", 2, RequestMethod::AStar, [1730, 1474, 10, 22], 128, 0x3f5ddb2e4992e179),
    (AG, "internal1x3", 1, RequestMethod::AStar, [2015, 1589, 8, 19], 144, 0x3f5dffbc6a9f4e2f),
    (AG, "internal2x4", 2, RequestMethod::AStar, [1544, 1134, 14, 29], 128, 0x3f653604d2ec1fc3),
    (AG, "internal2x8", 1, RequestMethod::AStar, [3712, 2844, 15, 36], 256, 0x3f65436c234e8be3),
    (AG, "dgx2", 1, RequestMethod::AStar, [5978, 4750, 6, 32], 256, 0x3f29d906046709da),
    (AG, "internal1x4", 1, RequestMethod::AStar, [4543, 3968, 11, 35], 256, 0x3f5ecc71f07e7bbb),
    (AG, "dgx1", 1, RequestMethod::Milp, [491, 398, 1, 4], 56, 0x3f32e507848bbf9f),
    (A2A, "dgx1", 2, RequestMethod::Lp, [154, 0, 0, 5], 192, 0x3f3f75e2e0d11dab),
    (A2A, "internal2x3", 2, RequestMethod::Lp, [274, 0, 0, 5], 168, 0x3f5836bdae7b6610),
    (A2A, "internal1x2", 2, RequestMethod::Lp, [382, 0, 0, 5], 280, 0x3f4f76b9a065f390),
];

/// The `alltoall_lp` rows' simulated transfer times (f64 bits) over the full
/// LP, before the orbit reduction.
const FULL_LP_TRANSFER: [(&str, u64); 3] = [
    ("dgx1", 0x3f3f75e2e0d11dab),
    ("internal2x3", 0x3f5c9ca40ec6e095),
    ("internal1x2", 0x3f553d41074fd49f),
];

#[test]
#[ignore = "release-only"]
fn benchmark_shapes_keep_their_pivot_counts() {
    for (collective, name, chunks, method, pinned, sends, transfer_bits) in SHAPES {
        let topology = builtin_topology(name).expect("builtin topology");
        let request = SolveRequest::new(topology, collective, chunks, 16.0 * 1024.0 * 1024.0)
            .with_method(method);
        let demand = request.demand();
        let solver = TeCcl::new(request.topology.clone(), request.config.clone());
        let outcome = solver
            .solve(&demand, request.chunk_bytes(), method, None)
            .unwrap_or_else(|e| panic!("{name} c{chunks}: {e}"));
        let report = validate(&outcome.topology_used, &demand, &outcome.schedule, false);
        assert!(report.is_valid(), "{name} c{chunks}: {report:?}");
        let sim = simulate(&outcome.topology_used, &demand, &outcome.schedule)
            .unwrap_or_else(|e| panic!("{name} c{chunks}: {e:?}"));
        let full_lp = FULL_LP_TRANSFER
            .iter()
            .find(|(n, _)| method == RequestMethod::Lp && *n == name);
        if let Some(&(_, full)) = full_lp {
            assert!(
                sim.transfer_time <= f64::from_bits(full),
                "{name} c{chunks}: slower than the full LP's schedule"
            );
        }
        assert_eq!(
            (outcome.schedule.sends.len(), sim.transfer_time.to_bits()),
            (sends, transfer_bits),
            "{name} c{chunks}: the schedule moved (sends, transfer time {})",
            sim.transfer_time
        );
        let stats = &outcome.stats;
        assert_eq!(
            [
                stats.simplex_iterations,
                stats.dual_iterations,
                stats.nodes_explored,
                stats.factorizations,
            ],
            pinned,
            "{name} c{chunks}: iterations / dual / nodes / factorizations moved"
        );
    }
}
