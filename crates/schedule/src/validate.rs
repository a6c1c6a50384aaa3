//! Schedule validation: causality, capacity and demand satisfaction.
//!
//! The validator replays a schedule epoch by epoch: a node may forward a chunk
//! in epoch `k` only if it is the chunk's source or received the chunk in an
//! earlier epoch (accounting for each link's α-delay in epochs, matching the
//! flow-conservation constraints of §3.1); link usage must fit the link's
//! capacity; and at the end every `(s, c, d)` demand must be satisfied.

use std::fmt;

use teccl_collective::DemandMatrix;
use teccl_topology::{NodeId, Topology};

use crate::schedule::{ChunkId, ChunkSlots, Schedule};

/// A single validation failure.
#[derive(Debug, Clone, PartialEq)]
pub enum ValidationError {
    /// A send uses a link that does not exist in the topology.
    NoSuchLink {
        from: NodeId,
        to: NodeId,
        epoch: usize,
    },
    /// A node sent a chunk it did not hold at that epoch.
    CausalityViolation {
        node: NodeId,
        chunk: ChunkId,
        epoch: usize,
    },
    /// More sends start on a link in the `κ` epochs ending at `epoch` than
    /// it can carry (Appendix F's window; `κ` is 1 on a link that moves a
    /// chunk in one epoch).
    CapacityExceeded {
        from: NodeId,
        to: NodeId,
        epoch: usize,
        chunks: usize,
        capacity_chunks: usize,
    },
    /// A demanded chunk never reached its destination.
    DemandUnsatisfied { chunk: ChunkId, destination: NodeId },
    /// The same send appears twice.
    DuplicateSend {
        chunk: ChunkId,
        from: NodeId,
        to: NodeId,
        epoch: usize,
    },
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::NoSuchLink { from, to, epoch } => {
                write!(f, "epoch {epoch}: no link {from}->{to} in the topology")
            }
            ValidationError::CausalityViolation { node, chunk, epoch } => write!(
                f,
                "epoch {epoch}: node {node} forwards chunk ({}, {}) before holding it",
                chunk.source, chunk.chunk
            ),
            ValidationError::CapacityExceeded { from, to, epoch, chunks, capacity_chunks } => write!(
                f,
                "epoch {epoch}: link {from}->{to} starts {chunks} chunks in its window but only {capacity_chunks} fit"
            ),
            ValidationError::DemandUnsatisfied { chunk, destination } => write!(
                f,
                "demand unsatisfied: chunk ({}, {}) never delivered to {destination}",
                chunk.source, chunk.chunk
            ),
            ValidationError::DuplicateSend { chunk, from, to, epoch } => write!(
                f,
                "duplicate send of chunk ({}, {}) on {from}->{to} at epoch {epoch}",
                chunk.source, chunk.chunk
            ),
        }
    }
}

/// The outcome of validating a schedule.
#[derive(Debug, Clone, Default)]
pub struct ValidationReport {
    /// All problems found (empty = valid).
    pub errors: Vec<ValidationError>,
}

impl ValidationReport {
    /// `true` if the schedule passed all checks.
    pub fn is_valid(&self) -> bool {
        self.errors.is_empty()
    }
}

/// Validates `schedule` against `topology` and `demand`.
///
/// `check_capacity` controls whether the capacity check runs; it requires
/// `schedule.epoch_duration > 0` (baselines that only provide causal step
/// ordering skip it). A link that takes `κ = ⌈(chunk / capacity) / τ⌉`
/// epochs to move a chunk may start at most `⌊κ · capacity · τ / chunk⌋`
/// sends in any `κ` consecutive epochs (Appendix F); for `κ = 1` that is the
/// chunks one epoch carries.
///
/// One cursor walks the sorted sends. A node holds a chunk from the first
/// epoch it is visible there (a dense `(chunk, node)` table): 0 at its
/// source, `k + ⌈α/τ⌉ + 1` after a send in epoch `k` (§3.1). Errors come in
/// replay order: an epoch's sends, then the links by `(from, to)` whose
/// window ending there is over capacity; the unsatisfied demands last.
pub fn validate(
    topology: &Topology,
    demand: &DemandMatrix,
    schedule: &Schedule,
    check_capacity: bool,
) -> ValidationReport {
    let mut report = ValidationReport::default();
    let sends = schedule.sorted_sends();
    let n = topology.num_nodes();
    let slots = ChunkSlots::new(demand, &sends, n);
    let mut visible = vec![usize::MAX; slots.len()];
    // Sources hold their own chunks from the start.
    for &chunk in slots.sourced.iter().filter(|ch| ch.source.0 < n) {
        visible[slots.slot(chunk, chunk.source)] = 0;
    }
    let paced = schedule.epoch_duration > 0.0;
    // Sends per link in the current epoch, and the links carrying any, in
    // `(from, to)` order — the order the sorted sends reach them in.
    let mut load = vec![0usize; topology.links.len()];
    let mut loaded: Vec<usize> = Vec::new();
    // Per link, `(epoch, sends)` for each epoch it carried any, in order.
    let mut history: Vec<Vec<(usize, usize)>> = vec![Vec::new(); topology.links.len()];
    let mut at = 0;
    while at < sends.len() {
        let epoch = sends[at].epoch;
        let end = at + sends[at..].iter().take_while(|s| s.epoch == epoch).count();
        for k in at..end {
            let snd = &sends[k];
            // Sorted sends put a duplicate right after its twin.
            if k > at && sends[k - 1] == *snd {
                report.errors.push(ValidationError::DuplicateSend {
                    chunk: snd.chunk,
                    from: snd.from,
                    to: snd.to,
                    epoch,
                });
                continue;
            }
            let Some(link) = topology.link_between(snd.from, snd.to) else {
                report.errors.push(ValidationError::NoSuchLink {
                    from: snd.from,
                    to: snd.to,
                    epoch,
                });
                continue;
            };
            if visible[slots.slot(snd.chunk, snd.from)] > epoch {
                report.errors.push(ValidationError::CausalityViolation {
                    node: snd.from,
                    chunk: snd.chunk,
                    epoch,
                });
            }
            let l = link.id.0;
            if load[l] == 0 {
                loaded.push(l);
            }
            load[l] += 1;
            let delta_epochs = if paced {
                (link.alpha / schedule.epoch_duration).ceil() as usize
            } else {
                0
            };
            let arrival = &mut visible[slots.slot(snd.chunk, snd.to)];
            *arrival = (*arrival).min(epoch.saturating_add(delta_epochs).saturating_add(1));
        }
        for &l in &loaded {
            let chunks = std::mem::take(&mut load[l]);
            if !(check_capacity && paced) {
                continue;
            }
            let link = &topology.links[l];
            let tau = schedule.epoch_duration;
            let kappa = ((schedule.chunk_bytes / link.capacity) / tau)
                .ceil()
                .max(1.0) as usize;
            let per_epoch = link.capacity * tau / schedule.chunk_bytes;
            let cap_chunks = (kappa as f64 * per_epoch + 1e-9).floor() as usize;
            history[l].push((epoch, chunks));
            let in_window = history[l]
                .iter()
                .rev()
                .take_while(|&&(e, _)| e + kappa > epoch)
                .map(|&(_, n)| n)
                .sum();
            if in_window > cap_chunks {
                report.errors.push(ValidationError::CapacityExceeded {
                    from: link.src,
                    to: link.dst,
                    epoch,
                    chunks: in_window,
                    capacity_chunks: cap_chunks,
                });
            }
        }
        loaded.clear();
        at = end;
    }

    // Demand satisfaction: every arrival counts, however late.
    for (s, c, d) in demand.iter() {
        let chunk = ChunkId::new(s, c);
        // A destination outside the topology is never reached.
        if d.0 >= n || visible[slots.slot(chunk, d)] == usize::MAX {
            report.errors.push(ValidationError::DemandUnsatisfied {
                chunk,
                destination: d,
            });
        }
    }

    report
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::schedule::Schedule;
    use std::collections::{BTreeMap, BTreeSet};
    use teccl_topology::line_topology;

    /// The replay over ordered maps and sets, scanning every send each epoch:
    /// the oracle the dense replay must reproduce.
    pub(crate) fn btree_validate(
        topology: &Topology,
        demand: &DemandMatrix,
        schedule: &Schedule,
        check_capacity: bool,
    ) -> ValidationReport {
        let mut report = ValidationReport::default();
        let sends = schedule.sorted_sends();
        let num_epochs = schedule
            .num_epochs
            .max(sends.iter().map(|s| s.epoch + 1).max().unwrap_or(0));

        // holdings[node] = set of chunks the node holds *at the start of the
        // current epoch*; arrivals become visible only after their α-delay.
        let mut holdings: Vec<BTreeSet<ChunkId>> = vec![BTreeSet::new(); topology.num_nodes()];
        // Sources hold their own chunks from the start.
        for (s, holding) in holdings.iter_mut().enumerate().take(demand.num_nodes) {
            for c in 0..demand.num_chunks {
                if demand.chunk_in_use(NodeId(s), c) {
                    holding.insert(ChunkId::new(NodeId(s), c));
                }
            }
        }
        // pending[(epoch_visible, node)] -> chunks that become available then.
        let mut pending: BTreeMap<(usize, usize), Vec<ChunkId>> = BTreeMap::new();
        let mut seen_sends: BTreeSet<(usize, usize, usize, usize, usize)> = BTreeSet::new();
        // Sends per (link, epoch), for the capacity windows.
        let mut started: BTreeMap<(usize, usize, usize), usize> = BTreeMap::new();

        // A very long schedule tail is allowed: chunks may still be in flight
        // after the last send epoch; extend the replay horizon accordingly.
        let horizon = num_epochs + topology.num_nodes() + 8;

        for epoch in 0..horizon {
            // Materialize arrivals that become visible at this epoch.
            if let Some(chunks) = pending.remove(&(epoch, usize::MAX)) {
                // unreachable sentinel bucket; kept for completeness
                drop(chunks);
            }
            let keys: Vec<(usize, usize)> = pending
                .range((epoch, 0)..(epoch, usize::MAX))
                .map(|(k, _)| *k)
                .collect();
            for key in keys {
                if let Some(chunks) = pending.remove(&key) {
                    for ch in chunks {
                        holdings[key.1].insert(ch);
                    }
                }
            }

            // Process this epoch's sends.
            let mut link_load: BTreeMap<(usize, usize), usize> = BTreeMap::new();
            for snd in sends.iter().filter(|s| s.epoch == epoch) {
                let key = (
                    snd.epoch,
                    snd.from.0,
                    snd.to.0,
                    snd.chunk.source.0,
                    snd.chunk.chunk,
                );
                if !seen_sends.insert(key) {
                    report.errors.push(ValidationError::DuplicateSend {
                        chunk: snd.chunk,
                        from: snd.from,
                        to: snd.to,
                        epoch: snd.epoch,
                    });
                    continue;
                }
                let link = match topology.link_between(snd.from, snd.to) {
                    Some(l) => l,
                    None => {
                        report.errors.push(ValidationError::NoSuchLink {
                            from: snd.from,
                            to: snd.to,
                            epoch: snd.epoch,
                        });
                        continue;
                    }
                };
                if !holdings[snd.from.0].contains(&snd.chunk) {
                    report.errors.push(ValidationError::CausalityViolation {
                        node: snd.from,
                        chunk: snd.chunk,
                        epoch: snd.epoch,
                    });
                }
                *link_load.entry((snd.from.0, snd.to.0)).or_insert(0) += 1;

                // The chunk becomes usable at `to` after the link's α-delay in
                // epochs (it arrives by the end of epoch k + ceil(δ), so it can be
                // forwarded from epoch k + ceil(δ) + 1 onwards — §3.1).
                let delta_epochs = if schedule.epoch_duration > 0.0 {
                    (link.alpha / schedule.epoch_duration).ceil() as usize
                } else {
                    0
                };
                let visible = epoch + delta_epochs + 1;
                pending
                    .entry((visible, snd.to.0))
                    .or_default()
                    .push(snd.chunk);
            }

            // Capacity check: the sends in the κ epochs ending here.
            if check_capacity && schedule.epoch_duration > 0.0 {
                for ((from, to), chunks) in link_load {
                    let link = topology
                        .link_between(NodeId(from), NodeId(to))
                        .expect("checked above");
                    started.insert((from, to, epoch), chunks);
                    let seconds_per_chunk = schedule.chunk_bytes / link.capacity;
                    let kappa = (seconds_per_chunk / schedule.epoch_duration)
                        .ceil()
                        .max(1.0) as usize;
                    let cap_chunks = (kappa as f64 * link.capacity * schedule.epoch_duration
                        / schedule.chunk_bytes
                        + 1e-9)
                        .floor() as usize;
                    let first = (epoch + 1).saturating_sub(kappa);
                    let chunks: usize = started
                        .range((from, to, first)..=(from, to, epoch))
                        .map(|(_, n)| n)
                        .sum();
                    if chunks > cap_chunks {
                        report.errors.push(ValidationError::CapacityExceeded {
                            from: NodeId(from),
                            to: NodeId(to),
                            epoch,
                            chunks,
                            capacity_chunks: cap_chunks,
                        });
                    }
                }
            }
        }

        // Flush any remaining pending arrivals (visible after the horizon —
        // holdings are only used for the demand check below at this point).
        for ((_, node), chunks) in pending {
            for ch in chunks {
                holdings[node].insert(ch);
            }
        }

        // Demand satisfaction.
        for (s, c, d) in demand.iter() {
            let chunk = ChunkId::new(s, c);
            if !holdings[d.0].contains(&chunk) {
                report.errors.push(ValidationError::DemandUnsatisfied {
                    chunk,
                    destination: d,
                });
            }
        }

        report
    }

    fn line3() -> Topology {
        line_topology(3, 1e9, 0.0)
    }

    fn broadcast_demand() -> DemandMatrix {
        // Node 0 broadcasts one chunk to nodes 1 and 2.
        let gpus: Vec<NodeId> = (0..3).map(NodeId).collect();
        DemandMatrix::broadcast(3, &gpus, NodeId(0), 1)
    }

    #[test]
    fn valid_relay_schedule() {
        let topo = line3();
        let demand = broadcast_demand();
        let mut sch = Schedule::new("relay", 1e6);
        sch.epoch_duration = 1e-3;
        let ch = ChunkId::new(NodeId(0), 0);
        sch.push(ch, NodeId(0), NodeId(1), 0);
        sch.push(ch, NodeId(1), NodeId(2), 1);
        let report = validate(&topo, &demand, &sch, true);
        assert!(report.is_valid(), "{:?}", report.errors);
    }

    #[test]
    fn causality_violation_detected() {
        let topo = line3();
        let demand = broadcast_demand();
        let mut sch = Schedule::new("bad", 1e6);
        sch.epoch_duration = 1e-3;
        let ch = ChunkId::new(NodeId(0), 0);
        // Node 1 forwards in the SAME epoch it receives → violation.
        sch.push(ch, NodeId(0), NodeId(1), 0);
        sch.push(ch, NodeId(1), NodeId(2), 0);
        let report = validate(&topo, &demand, &sch, true);
        assert!(report
            .errors
            .iter()
            .any(|e| matches!(e, ValidationError::CausalityViolation { .. })));
    }

    #[test]
    fn unsatisfied_demand_detected() {
        let topo = line3();
        let demand = broadcast_demand();
        let mut sch = Schedule::new("partial", 1e6);
        sch.epoch_duration = 1e-3;
        sch.push(ChunkId::new(NodeId(0), 0), NodeId(0), NodeId(1), 0);
        let report = validate(&topo, &demand, &sch, true);
        assert!(report
            .errors
            .iter()
            .any(|e| matches!(e, ValidationError::DemandUnsatisfied { destination, .. } if *destination == NodeId(2))));
    }

    #[test]
    fn missing_link_detected() {
        let topo = line3();
        let demand = broadcast_demand();
        let mut sch = Schedule::new("teleport", 1e6);
        sch.epoch_duration = 1e-3;
        // There is no direct 0 -> 2 link on a line.
        sch.push(ChunkId::new(NodeId(0), 0), NodeId(0), NodeId(2), 0);
        sch.push(ChunkId::new(NodeId(0), 0), NodeId(0), NodeId(1), 0);
        let report = validate(&topo, &demand, &sch, true);
        assert!(report
            .errors
            .iter()
            .any(|e| matches!(e, ValidationError::NoSuchLink { .. })));
    }

    #[test]
    fn capacity_violation_detected() {
        let topo = line3();
        // Two chunks from node 0 to node 1 in the same epoch, but the epoch
        // only fits one chunk.
        let gpus: Vec<NodeId> = (0..3).map(NodeId).collect();
        let demand = DemandMatrix::all_gather(3, &gpus, 2);
        let mut sch = Schedule::new("overload", 1e6);
        sch.epoch_duration = 1e-3; // 1 GB/s * 1 ms = 1 MB = exactly 1 chunk
        for c in 0..2 {
            sch.push(ChunkId::new(NodeId(0), c), NodeId(0), NodeId(1), 0);
        }
        let report = validate(&topo, &demand, &sch, true);
        assert!(report
            .errors
            .iter()
            .any(|e| matches!(e, ValidationError::CapacityExceeded { .. })));
        // Without the capacity check those sends are fine (causality holds).
        let report2 = validate(&topo, &demand, &sch, false);
        assert!(!report2
            .errors
            .iter()
            .any(|e| matches!(e, ValidationError::CapacityExceeded { .. })));
    }

    /// A link at half the epoch's speed (κ = 2) may start one send in any
    /// two consecutive epochs.
    #[test]
    fn a_half_speed_link_starts_one_send_per_two_epochs() {
        let mut topo = Topology::new("half");
        let a = topo.add_gpu("a", 0);
        let b = topo.add_gpu("b", 0);
        topo.add_bilink(a, b, 1e9, 0.0);
        let demand = DemandMatrix::broadcast(2, &[a, b], a, 3);
        let with_sends = |epochs: [usize; 3]| {
            let mut sch = Schedule::new("half", 1e6);
            sch.epoch_duration = 0.5e-3; // 1 MB at 1 GB/s takes two epochs
            for (c, epoch) in epochs.into_iter().enumerate() {
                sch.push(ChunkId::new(a, c), a, b, epoch);
            }
            sch
        };
        let every_other = with_sends([0, 2, 4]);
        for check in [validate, btree_validate] {
            let report = check(&topo, &demand, &every_other, true);
            assert!(report.is_valid(), "{:?}", report.errors);
        }
        let adjacent = with_sends([0, 2, 3]);
        let over = ValidationError::CapacityExceeded {
            from: a,
            to: b,
            epoch: 3,
            chunks: 2,
            capacity_chunks: 1,
        };
        for check in [validate, btree_validate] {
            let report = check(&topo, &demand, &adjacent, true);
            assert_eq!(report.errors, std::slice::from_ref(&over));
            assert!(check(&topo, &demand, &adjacent, false).is_valid());
        }
    }

    #[test]
    fn duplicate_send_detected() {
        let topo = line3();
        let demand = broadcast_demand();
        let mut sch = Schedule::new("dup", 1e6);
        sch.epoch_duration = 1e-3;
        let ch = ChunkId::new(NodeId(0), 0);
        sch.push(ch, NodeId(0), NodeId(1), 0);
        sch.push(ch, NodeId(0), NodeId(1), 0);
        sch.push(ch, NodeId(1), NodeId(2), 1);
        let report = validate(&topo, &demand, &sch, true);
        assert!(report
            .errors
            .iter()
            .any(|e| matches!(e, ValidationError::DuplicateSend { .. })));
    }

    #[test]
    fn alpha_delay_respected_in_causality() {
        // Link with large alpha: 2 epochs of delay; forwarding too early fails.
        let mut topo = Topology::new("slow");
        let a = topo.add_gpu("a", 0);
        let b = topo.add_gpu("b", 0);
        let c = topo.add_gpu("c", 0);
        topo.add_bilink(a, b, 1e9, 2.5e-3); // alpha = 2.5 epochs at 1 ms epochs
        topo.add_bilink(b, c, 1e9, 0.0);
        let gpus = vec![a, b, c];
        let demand = DemandMatrix::broadcast(3, &gpus, a, 1);
        let ch = ChunkId::new(a, 0);

        let mut too_early = Schedule::new("early", 1e6);
        too_early.epoch_duration = 1e-3;
        too_early.push(ch, a, b, 0);
        too_early.push(ch, b, c, 2); // needs epoch >= 0 + ceil(2.5) + 1 = 4
        let report = validate(&topo, &demand, &too_early, true);
        assert!(report
            .errors
            .iter()
            .any(|e| matches!(e, ValidationError::CausalityViolation { .. })));

        let mut ok = Schedule::new("ok", 1e6);
        ok.epoch_duration = 1e-3;
        ok.push(ch, a, b, 0);
        ok.push(ch, b, c, 4);
        assert!(validate(&topo, &demand, &ok, true).is_valid());
    }

    #[test]
    fn error_display_strings() {
        let e = ValidationError::DemandUnsatisfied {
            chunk: ChunkId::new(NodeId(1), 2),
            destination: NodeId(3),
        };
        assert!(e.to_string().contains("never delivered"));
    }
}
