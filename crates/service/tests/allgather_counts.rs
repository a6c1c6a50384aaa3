//! The eight `allgather_copy` benchmark shapes, solved the way the service
//! solves a cold request, with their pivot counts pinned.
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
//! Release-only (~6 s in a debug build, under 1 s in release); CI runs it
//! with `--release -- --ignored`.

use teccl_collective::CollectiveKind;
use teccl_core::TeCcl;
use teccl_schedule::{simulate, validate};
use teccl_service::{builtin_topology, RequestMethod, SolveRequest};

/// `(topology, chunks, method, [iterations, dual iterations, B&B nodes,
/// factorizations], sends, simulated transfer time as f64 bits)` at a 16 MiB
/// output buffer.
type Shape = (&'static str, usize, RequestMethod, [usize; 4], usize, u64);

#[rustfmt::skip]
const SHAPES: [Shape; 8] = [
    ("internal1x2", 1, RequestMethod::AStar, [763, 644, 5, 11], 64, 0x3f5c4912de0a35b8),
    ("internal1x2", 2, RequestMethod::AStar, [1730, 1474, 10, 22], 128, 0x3f5ddb2e4992e179),
    ("internal1x3", 1, RequestMethod::AStar, [2015, 1589, 8, 19], 144, 0x3f5dffbc6a9f4e2f),
    ("internal2x4", 2, RequestMethod::AStar, [1544, 1134, 14, 29], 128, 0x3f653604d2ec1fc3),
    ("internal2x8", 1, RequestMethod::AStar, [3712, 2844, 15, 36], 256, 0x3f65436c234e8be3),
    ("dgx2", 1, RequestMethod::AStar, [5978, 4750, 6, 32], 256, 0x3f29d906046709da),
    ("internal1x4", 1, RequestMethod::AStar, [4543, 3968, 11, 35], 256, 0x3f5ecc71f07e7bbb),
    ("dgx1", 1, RequestMethod::Milp, [491, 398, 1, 4], 56, 0x3f32e507848bbf9f),
];

#[test]
#[ignore = "release-only"]
fn allgather_copy_shapes_keep_their_pivot_counts() {
    for (name, chunks, method, pinned, sends, transfer_bits) in SHAPES {
        let topology = builtin_topology(name).expect("builtin topology");
        let request = SolveRequest::new(
            topology,
            CollectiveKind::AllGather,
            chunks,
            16.0 * 1024.0 * 1024.0,
        )
        .with_method(method);
        let demand = request.demand();
        let solver = TeCcl::new(request.topology.clone(), request.config.clone());
        let outcome = match method {
            RequestMethod::Milp => solver.solve_milp(&demand, request.chunk_bytes()),
            _ => solver.solve_astar(&demand, request.chunk_bytes()),
        }
        .unwrap_or_else(|e| panic!("{name} c{chunks}: {e}"));
        let report = validate(&outcome.topology_used, &demand, &outcome.schedule, false);
        assert!(report.is_valid(), "{name} c{chunks}: {report:?}");
        let sim = simulate(&outcome.topology_used, &demand, &outcome.schedule)
            .unwrap_or_else(|e| panic!("{name} c{chunks}: {e:?}"));
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
