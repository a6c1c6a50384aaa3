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
//! So is each shape's number of epochs: the A\* rows' rounds times the
//! epochs per round, the MILP and LP rows' horizon. A round loop that adds
//! or drops a round then fails on that column, not only through the pivot
//! totals.
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
//! The `allgather_copy` rows were re-pinned when the A\* rounds and the MILP
//! were laid out over the instance's symmetry group (`teccl_core::symmetry`):
//! each round is a smaller model whose sends are unrolled through the group,
//! so the rounds walk other vertices and choose other, symmetric, schedules.
//! Each A\* row must schedule at least as fast as the full rounds did
//! ([`FULL_ASTAR_TRANSFER`]), and the MILP row exactly as fast:
//! * `internal1x2` 1 chunk: order-8 group, 763 → 105 pivots; 64 sends either
//!   way, 1 726.4 → 959.4 µs.
//! * `internal1x2` 2 chunks: order 8, 1 730 → 242 pivots; 128 sends,
//!   1 822.3 → 1 055.3 µs.
//! * `internal1x3`: order 12, 2 015 → 219 pivots; 144 sends, 1 831.0 →
//!   854.9 µs.
//! * `internal2x4` 2 chunks: order 8, 1 544 → 228 pivots; 128 sends,
//!   2 589.2 → 1 774.2 µs.
//! * `internal2x8`: order 16, 3 712 → 251 pivots; 256 sends, 2 595.6 →
//!   1 477.0 µs.
//! * `dgx2`: order 16, 5 978 → 383 pivots; 256 sends at the same transfer
//!   time to the bit (197.2 µs).
//! * `internal1x4`: order 16, 4 543 → 344 pivots; 256 sends, 1 879.8 →
//!   806.1 µs.
//! * `dgx1` MILP: order-8 group, 491 → 54 pivots in a root-only tree that
//!   ends `Optimal`, so the quotient's answer is taken; 56 sends at the same
//!   transfer time to the bit (288.3 µs).
//!
//! The factorization column was re-pinned when a solve started handing the
//! factorization it ended on to the next warm start over the same matrix
//! (`teccl_lp::SimplexBasis::factors`). Such a start adopts those factors
//! instead of factorizing the same basis again. So each row also pins the
//! adoptions, and their sum with the factorizations is the count before
//! ([`FACTORIZED_BEFORE_CARRY`]):
//! * the seven A\* rows: round 0 starts cold and each of the other rounds
//!   adopts the factors the previous round's root ended on, one
//!   factorization fewer per warm round (6 → 4, 12 → 7, 8 → 5, 20 → 11,
//!   18 → 10, 23 → 14, 11 → 7);
//! * the `dgx1` MILP row and the three LP rows: one cold solve with no warm
//!   start, unchanged.
//!
//! Release-only (tens of seconds in a debug build, ~2 s in release); CI runs
//! it with `--release -- --ignored`.

use teccl_collective::CollectiveKind;
use teccl_core::TeCcl;
use teccl_schedule::{simulate, validate};
use teccl_service::{builtin_topology, RequestMethod, SolveRequest};

/// `(collective, topology, chunks, method, epochs, [iterations, dual
/// iterations, B&B nodes, factorizations, adopted factors], sends, simulated
/// transfer time as f64 bits)` at a 16 MiB output buffer.
type Shape = (
    CollectiveKind,
    &'static str,
    usize,
    RequestMethod,
    usize,
    [usize; 5],
    usize,
    u64,
);

const AG: CollectiveKind = CollectiveKind::AllGather;
const A2A: CollectiveKind = CollectiveKind::AllToAll;

#[rustfmt::skip]
const SHAPES: [Shape; 11] = [
    (AG, "internal1x2", 1, RequestMethod::AStar, 12, [105, 88, 3, 4, 2], 64, 0x3f4f706f0389af57),
    (AG, "internal1x2", 2, RequestMethod::AStar, 24, [242, 116, 6, 7, 5], 128, 0x3f514a52ed4d836d),
    (AG, "internal1x3", 1, RequestMethod::AStar, 16, [219, 137, 4, 5, 3], 144, 0x3f4c031bea5f7e6c),
    (AG, "internal2x4", 2, RequestMethod::AStar, 40, [228, 110, 10, 11, 9], 128, 0x3f5d117f841eeb2c),
    (AG, "internal2x8", 1, RequestMethod::AStar, 36, [251, 139, 9, 10, 8], 256, 0x3f5832f7505da388),
    (AG, "dgx2", 1, RequestMethod::AStar, 24, [383, 308, 10, 14, 9], 256, 0x3f29d906046709da),
    (AG, "internal1x4", 1, RequestMethod::AStar, 20, [344, 252, 5, 7, 4], 256, 0x3f4a69b0dea12353),
    (AG, "dgx1", 1, RequestMethod::Milp, 4, [54, 41, 1, 3, 0], 56, 0x3f32e507848bbf9f),
    (A2A, "dgx1", 2, RequestMethod::Lp, 10, [154, 0, 0, 5, 0], 192, 0x3f3f75e2e0d11dab),
    (A2A, "internal2x3", 2, RequestMethod::Lp, 20, [274, 0, 0, 5, 0], 168, 0x3f5836bdae7b6610),
    (A2A, "internal1x2", 2, RequestMethod::Lp, 20, [382, 0, 0, 5, 0], 280, 0x3f4f76b9a065f390),
];

/// Each row's factorizations before a solve carried its factors out: the
/// pinned factorizations plus adoptions must add up to these.
const FACTORIZED_BEFORE_CARRY: [usize; 11] = [6, 12, 8, 20, 18, 23, 11, 3, 5, 5, 5];

/// The `allgather_copy` rows' simulated transfer times (f64 bits) over the
/// full round models and the full MILP, before they were laid out over a
/// group: `(topology, chunks, method, bits)`.
const FULL_ASTAR_TRANSFER: [(&str, usize, RequestMethod, u64); 8] = [
    ("internal1x2", 1, RequestMethod::AStar, 0x3f5c4912de0a35b8),
    ("internal1x2", 2, RequestMethod::AStar, 0x3f5ddb2e4992e179),
    ("internal1x3", 1, RequestMethod::AStar, 0x3f5dffbc6a9f4e2f),
    ("internal2x4", 2, RequestMethod::AStar, 0x3f653604d2ec1fc3),
    ("internal2x8", 1, RequestMethod::AStar, 0x3f65436c234e8be3),
    ("dgx2", 1, RequestMethod::AStar, 0x3f29d906046709da),
    ("internal1x4", 1, RequestMethod::AStar, 0x3f5ecc71f07e7bbb),
    ("dgx1", 1, RequestMethod::Milp, 0x3f32e507848bbf9f),
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
    for ((collective, name, chunks, method, epochs, pinned, sends, transfer_bits), before) in
        SHAPES.into_iter().zip(FACTORIZED_BEFORE_CARRY)
    {
        let topology = builtin_topology(name).expect("builtin topology");
        let request = SolveRequest::new(topology, collective, chunks, 16.0 * 1024.0 * 1024.0)
            .with_method(method);
        let demand = request.demand();
        let solver = TeCcl::new((*request.topology).clone(), request.config.clone());
        let outcome = solver
            .solve(&demand, request.chunk_bytes(), method, None)
            .unwrap_or_else(|e| panic!("{name} c{chunks}: {e}"));
        assert_eq!(
            outcome.num_epochs, epochs,
            "{name} c{chunks}: the number of epochs moved"
        );
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
        let full_copy = FULL_ASTAR_TRANSFER
            .iter()
            .find(|&&(n, c, m, _)| (n, c, m) == (name, chunks, method));
        match full_copy {
            Some(&(_, _, RequestMethod::Milp, full)) => assert_eq!(
                sim.transfer_time.to_bits(),
                full,
                "{name} c{chunks}: the MILP's transfer time moved"
            ),
            Some(&(_, _, _, full)) => assert!(
                sim.transfer_time <= f64::from_bits(full),
                "{name} c{chunks}: slower than the full A* rounds' schedule"
            ),
            None => assert_eq!(collective, A2A, "{name} c{chunks}: no full-model pin"),
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
                stats.factors_adopted,
            ],
            pinned,
            "{name} c{chunks}: iterations / dual / nodes / factorizations / adoptions moved"
        );
        assert_eq!(
            stats.factorizations + stats.factors_adopted,
            before,
            "{name} c{chunks}: an adoption must replace exactly one factorization"
        );
    }
}
