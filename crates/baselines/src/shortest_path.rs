//! Shortest-path unicast schedules (the approach of Zhao et al. \[31\]).
//!
//! Every `(source, chunk, destination)` demand is routed independently along
//! the α-shortest path and the resulting hops are list-scheduled per link.
//! Because the same chunk headed to several destinations is sent separately
//! for each of them, this baseline "fails to leverage copy" (§2.1) — the gap
//! Figure 1c / Figure 7 quantify.

use std::collections::HashMap;

use teccl_collective::DemandMatrix;
use teccl_schedule::{ChunkId, Schedule};
use teccl_topology::{floyd_warshall, NodeId, Topology};

/// Builds a shortest-path unicast schedule for `demand`.
///
/// Epochs are logical steps (epoch pacing is not used; the α–β simulator
/// derives the actual timing), assigned by list scheduling: a hop is placed in
/// the first epoch after the chunk is available at the hop's source in which
/// the link has not yet been used by this schedule.
pub fn shortest_path_schedule(
    topo: &Topology,
    demand: &DemandMatrix,
    chunk_bytes: f64,
) -> Schedule {
    // Weight: α plus transmission time of one chunk — the per-hop latency.
    let pm = floyd_warshall(topo, |l| l.alpha + chunk_bytes / l.capacity);
    let mut schedule = Schedule::new("shortest-path", chunk_bytes);

    // Per-link occupancy per epoch: link id -> set of used epochs (count).
    let mut link_used: HashMap<(usize, usize), Vec<bool>> = HashMap::new();
    // Availability epoch of (chunk, node) — per (s,c,d) path we treat each
    // copy independently (no sharing across destinations: that is the point
    // of this baseline), but within one path hops chain causally.
    let horizon = 8 * (topo.num_nodes() + demand.total_demands());

    let mut triples: Vec<(NodeId, usize, NodeId)> = demand.iter().collect();
    triples.sort();
    for (s, c, d) in triples {
        let path = match pm.path(s, d) {
            Some(p) => p,
            None => continue,
        };
        let mut available = 0usize;
        for hop in path.windows(2) {
            let (from, to) = (hop[0], hop[1]);
            let used = link_used
                .entry((from.0, to.0))
                .or_insert_with(|| vec![false; horizon]);
            let mut epoch = available;
            while epoch < used.len() && used[epoch] {
                epoch += 1;
            }
            if epoch >= used.len() {
                used.resize(epoch + 1, false);
            }
            used[epoch] = true;
            schedule.push(ChunkId::new(s, c), from, to, epoch);
            available = epoch + 1;
        }
    }
    schedule
}

#[cfg(test)]
mod tests {
    use super::*;
    use teccl_schedule::{simulate, validate};
    use teccl_topology::{fig1c, line_topology, ring_topology};

    #[test]
    fn broadcast_without_copy_duplicates_upstream_traffic() {
        // Figure 1c: without copy, the s->h link carries the chunk once per
        // destination (3 times) instead of once.
        let topo = fig1c(1e9);
        let mut demand = DemandMatrix::new(5, 1);
        for d in 2..5 {
            demand.set(NodeId(0), 0, NodeId(d));
        }
        let schedule = shortest_path_schedule(&topo, &demand, 1e6);
        let upstream = schedule
            .sends
            .iter()
            .filter(|s| s.from == NodeId(0) && s.to == NodeId(1))
            .count();
        assert_eq!(upstream, 3);
        let report = validate(&topo, &demand, &schedule, false);
        assert!(report.is_valid(), "{:?}", report.errors);
        // The wasted upstream bandwidth is 3x: 3 MB cross the s->h link instead
        // of 1 MB (Figure 1c's "without copy" flow model charges 4 s vs 2 s for
        // exactly this duplication). The simulator still lets the first copy
        // serve all fan-out hops, so the finish time here is 2 ms, but the
        // bytes-on-wire waste is visible.
        let sim = simulate(&topo, &demand, &schedule).unwrap();
        assert!(
            (sim.transfer_time - 2e-3).abs() < 1e-9,
            "{}",
            sim.transfer_time
        );
        assert_eq!(schedule.num_sends(), 6); // copy-aware schedules need only 4
    }

    #[test]
    fn alltoall_on_ring_is_valid() {
        let topo = ring_topology(4, 1e9, 1e-6);
        let gpus: Vec<NodeId> = topo.gpus().collect();
        let demand = DemandMatrix::all_to_all(4, &gpus, 1);
        let schedule = shortest_path_schedule(&topo, &demand, 1e6);
        let report = validate(&topo, &demand, &schedule, false);
        assert!(report.is_valid(), "{:?}", report.errors);
        assert!(simulate(&topo, &demand, &schedule).is_ok());
    }

    #[test]
    fn relay_hops_follow_the_line() {
        let topo = line_topology(3, 1e9, 0.0);
        let mut demand = DemandMatrix::new(3, 1);
        demand.set(NodeId(0), 0, NodeId(2));
        let schedule = shortest_path_schedule(&topo, &demand, 1e6);
        assert_eq!(schedule.num_sends(), 2);
        let report = validate(&topo, &demand, &schedule, false);
        assert!(report.is_valid());
    }

    #[test]
    fn deterministic_output() {
        let topo = ring_topology(5, 1e9, 0.0);
        let gpus: Vec<NodeId> = topo.gpus().collect();
        let demand = DemandMatrix::all_to_all(5, &gpus, 1);
        let a = shortest_path_schedule(&topo, &demand, 1e6);
        let b = shortest_path_schedule(&topo, &demand, 1e6);
        assert_eq!(a.sends, b.sends);
    }
}
