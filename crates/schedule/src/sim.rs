//! Event-driven α–β simulator.
//!
//! Plays a schedule out on a topology under the α–β cost model (§2.1): every
//! link transmits one chunk at a time, a chunk occupies the link for
//! `chunk_bytes / capacity` seconds (the β term) and becomes available at the
//! receiver an additional `α` seconds later. A send cannot start before its
//! chunk is available at the sender and before the link has finished its
//! previous send (per-link FIFO in schedule order). When the schedule is
//! epoch-paced (`epoch_duration > 0`), a send also cannot start before its
//! epoch begins.
//!
//! The resulting collective finish time is the paper's **transfer time**
//! metric; dividing the output buffer size by it gives the **algorithmic
//! bandwidth** (§6).

use std::collections::BTreeMap;
use std::fmt;

use teccl_collective::DemandMatrix;
use teccl_topology::{Link, NodeId, Topology};

use crate::schedule::{ChunkId, ChunkSlots, Schedule};

/// Simulation failure.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// A send references a link not present in the topology.
    NoSuchLink { from: NodeId, to: NodeId },
    /// The schedule deadlocked: some sends could never start because their
    /// chunk never became available at the sender.
    Stuck { unstarted_sends: usize },
    /// The schedule finished but some demands were never delivered.
    DemandUnsatisfied { missing: usize },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::NoSuchLink { from, to } => write!(f, "no link {from}->{to} in topology"),
            SimError::Stuck { unstarted_sends } => {
                write!(
                    f,
                    "schedule deadlocked with {unstarted_sends} sends never able to start"
                )
            }
            SimError::DemandUnsatisfied { missing } => {
                write!(f, "{missing} demands not delivered by the schedule")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Result of simulating a schedule.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Collective finish time in seconds: the time the last demanded chunk
    /// arrives at its destination.
    pub transfer_time: f64,
    /// Per-send completion times (arrival at the receiver), in schedule order.
    pub send_completion_times: Vec<f64>,
    /// Total bytes transmitted.
    pub bytes_on_wire: f64,
    /// Time each (chunk, node) pair first became available, for debugging and
    /// for metrics that need per-destination arrival times.
    pub availability: BTreeMap<(ChunkId, NodeId), f64>,
}

impl SimReport {
    /// Algorithmic bandwidth for a given output buffer size (bytes):
    /// `output_buffer / transfer_time` (§6, borrowed from TACCL).
    pub fn algorithmic_bandwidth(&self, output_buffer_bytes: f64) -> f64 {
        output_buffer_bytes / self.transfer_time
    }
}

/// Simulates `schedule` over `topology`, checking that `demand` is satisfied.
///
/// Availability and the link queues live in dense tables; the queues are
/// drained in `(from, to)` order, pass after pass, while a head's chunk is
/// available.
pub fn simulate(
    topology: &Topology,
    demand: &DemandMatrix,
    schedule: &Schedule,
) -> Result<SimReport, SimError> {
    let sends = schedule.sorted_sends();
    let nodes = topology.num_nodes().max(demand.num_nodes);
    let slots = ChunkSlots::new(demand, &sends, nodes);

    // Availability time of each chunk at each node; sources start at t = 0.
    let mut avail: Vec<Option<f64>> = vec![None; slots.len()];
    for &chunk in &slots.sourced {
        avail[slots.slot(chunk, chunk.source)] = Some(0.0);
    }

    // Per-link FIFO queues in schedule order, in `(from, to)` order: the
    // link, its sends, the next one to start and when the link frees.
    let mut queue_of = vec![usize::MAX; topology.links.len()];
    let mut queues: Vec<(&Link, Vec<usize>, usize, f64)> = Vec::new();
    for (i, snd) in sends.iter().enumerate() {
        let Some(link) = topology.link_between(snd.from, snd.to) else {
            let (from, to) = (snd.from, snd.to);
            return Err(SimError::NoSuchLink { from, to });
        };
        if queue_of[link.id.0] == usize::MAX {
            queue_of[link.id.0] = queues.len();
            queues.push((link, Vec::new(), 0, 0.0));
        }
        queues[queue_of[link.id.0]].1.push(i);
    }
    queues.sort_by_key(|q| (q.0.src, q.0.dst));

    let mut completion = vec![f64::NAN; sends.len()];
    let mut remaining = sends.len();

    // Relaxation loop: repeatedly start every head-of-queue send whose chunk is
    // already available. Each pass starts at least one send if the schedule is
    // causally consistent.
    loop {
        let mut progressed = false;
        for (link, queue, pos, link_free) in queues.iter_mut() {
            while let Some(&i) = queue.get(*pos) {
                let snd = &sends[i];
                let Some(chunk_avail) = avail[slots.slot(snd.chunk, snd.from)] else {
                    break; // head-of-line blocked: chunk not yet available
                };
                let epoch_start = if schedule.epoch_duration > 0.0 {
                    snd.epoch as f64 * schedule.epoch_duration
                } else {
                    0.0
                };
                let start = chunk_avail.max(*link_free).max(epoch_start);
                let tx_done = start + schedule.chunk_bytes / link.capacity;
                let arrival = tx_done + link.alpha;
                *link_free = tx_done;
                completion[i] = arrival;
                let entry = avail[slots.slot(snd.chunk, snd.to)].get_or_insert(f64::INFINITY);
                if arrival < *entry {
                    *entry = arrival;
                }
                *pos += 1;
                remaining -= 1;
                progressed = true;
            }
        }
        if remaining == 0 {
            break;
        }
        if !progressed {
            return Err(SimError::Stuck {
                unstarted_sends: remaining,
            });
        }
    }

    // Determine the collective finish time from the demands.
    let mut finish: f64 = 0.0;
    let mut missing = 0usize;
    for (s, c, d) in demand.iter() {
        match avail[slots.slot(ChunkId::new(s, c), d)] {
            Some(t) if t.is_finite() => finish = finish.max(t),
            _ => missing += 1,
        }
    }
    if missing > 0 {
        return Err(SimError::DemandUnsatisfied { missing });
    }

    Ok(SimReport {
        transfer_time: finish,
        send_completion_times: completion,
        bytes_on_wire: schedule.total_bytes_on_wire(),
        availability: slots
            .keys()
            .zip(avail)
            .filter_map(|(key, t)| Some((key, t?)))
            .collect(),
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::schedule::Schedule;
    use std::collections::HashSet;
    use teccl_topology::{line_topology, Topology};

    /// The simulation over ordered maps: the oracle the dense tables must
    /// reproduce.
    pub(crate) fn btree_simulate(
        topology: &Topology,
        demand: &DemandMatrix,
        schedule: &Schedule,
    ) -> Result<SimReport, SimError> {
        let sends = schedule.sorted_sends();

        // Availability time of each chunk at each node; sources start at t = 0.
        let mut avail: BTreeMap<(ChunkId, NodeId), f64> = BTreeMap::new();
        for s in 0..demand.num_nodes {
            for c in 0..demand.num_chunks {
                if demand.chunk_in_use(NodeId(s), c) {
                    avail.insert((ChunkId::new(NodeId(s), c), NodeId(s)), 0.0);
                }
            }
        }

        // Per-link FIFO queues in schedule order.
        let mut queues: BTreeMap<(usize, usize), Vec<usize>> = BTreeMap::new();
        for (i, snd) in sends.iter().enumerate() {
            if topology.link_between(snd.from, snd.to).is_none() {
                return Err(SimError::NoSuchLink {
                    from: snd.from,
                    to: snd.to,
                });
            }
            queues.entry((snd.from.0, snd.to.0)).or_default().push(i);
        }
        let mut queue_pos: BTreeMap<(usize, usize), usize> =
            queues.keys().map(|&k| (k, 0)).collect();
        let mut link_free: BTreeMap<(usize, usize), f64> =
            queues.keys().map(|&k| (k, 0.0)).collect();

        let mut completion = vec![f64::NAN; sends.len()];
        let mut remaining = sends.len();

        // Relaxation loop: repeatedly start every head-of-queue send whose chunk is
        // already available. Each pass starts at least one send if the schedule is
        // causally consistent.
        loop {
            let mut progressed = false;
            for (&link_key, indices) in queues.iter() {
                let pos = queue_pos.get_mut(&link_key).unwrap();
                while *pos < indices.len() {
                    let i = indices[*pos];
                    let snd = &sends[i];
                    let chunk_avail = match avail.get(&(snd.chunk, snd.from)) {
                        Some(&t) => t,
                        None => break, // head-of-line blocked: chunk not yet available
                    };
                    let link = topology.link_between(snd.from, snd.to).expect("checked");
                    let epoch_start = if schedule.epoch_duration > 0.0 {
                        snd.epoch as f64 * schedule.epoch_duration
                    } else {
                        0.0
                    };
                    let start = chunk_avail
                        .max(*link_free.get(&link_key).unwrap())
                        .max(epoch_start);
                    let tx_done = start + schedule.chunk_bytes / link.capacity;
                    let arrival = tx_done + link.alpha;
                    link_free.insert(link_key, tx_done);
                    completion[i] = arrival;
                    let entry = avail.entry((snd.chunk, snd.to)).or_insert(f64::INFINITY);
                    if arrival < *entry {
                        *entry = arrival;
                    }
                    *pos += 1;
                    remaining -= 1;
                    progressed = true;
                }
            }
            if remaining == 0 {
                break;
            }
            if !progressed {
                return Err(SimError::Stuck {
                    unstarted_sends: remaining,
                });
            }
        }

        // Determine the collective finish time from the demands.
        let mut finish: f64 = 0.0;
        let mut missing = 0usize;
        for (s, c, d) in demand.iter() {
            match avail.get(&(ChunkId::new(s, c), d)) {
                Some(&t) if t.is_finite() => finish = finish.max(t),
                _ => missing += 1,
            }
        }
        if missing > 0 {
            return Err(SimError::DemandUnsatisfied { missing });
        }

        Ok(SimReport {
            transfer_time: finish,
            send_completion_times: completion,
            bytes_on_wire: schedule.total_bytes_on_wire(),
            availability: avail,
        })
    }

    /// A random topology of 2–7 nodes: a directed ring (so every node can
    /// reach every other) plus random extra links with varied capacities and
    /// α, some of them zero.
    fn random_topology(rng: &mut teccl_util::Rng64) -> Topology {
        let n = 2 + rng.gen_range_usize(6);
        let mut topo = Topology::new("fuzz");
        let ids: Vec<NodeId> = (0..n).map(|i| topo.add_gpu(format!("g{i}"), 0)).collect();
        let link = |topo: &mut Topology, a: usize, b: usize, rng: &mut teccl_util::Rng64| {
            let cap = [1e9, 2e9, 0.5e9][rng.gen_range_usize(3)];
            let alpha = [0.0, 0.4e-3, 1.5e-3, 2e-6][rng.gen_range_usize(4)];
            topo.add_link(ids[a], ids[b], cap, alpha);
        };
        for i in 0..n {
            link(&mut topo, i, (i + 1) % n, rng);
        }
        for _ in 0..rng.gen_range_usize(2 * n) {
            let (a, b) = (rng.gen_range_usize(n), rng.gen_range_usize(n));
            if a != b && topo.link_between(ids[a], ids[b]).is_none() {
                link(&mut topo, a, b, rng);
            }
        }
        topo
    }

    /// A random demand: each `(s, c, d)` with `s != d` wanted with
    /// probability one half.
    fn random_demand(rng: &mut teccl_util::Rng64, n: usize) -> DemandMatrix {
        let chunks = 1 + rng.gen_range_usize(3);
        let mut demand = DemandMatrix::new(n, chunks);
        for s in 0..n {
            for c in 0..chunks {
                for d in (0..n).filter(|&d| d != s) {
                    if rng.gen_bool(0.5) {
                        demand.set(NodeId(s), c, NodeId(d));
                    }
                }
            }
        }
        demand
    }

    /// A causal flood: epoch by epoch, every holder forwards each chunk it
    /// holds over a random subset of its links, mostly to nodes that lack
    /// it, with arrivals visible `⌈α/τ⌉ + 1` epochs later (τ = 1 ms).
    fn flood(topo: &Topology, demand: &DemandMatrix, rng: &mut teccl_util::Rng64) -> Schedule {
        let mut sch = Schedule::new("flood", 1e6);
        sch.epoch_duration = 1e-3;
        let n = topo.num_nodes();
        let mut visible: BTreeMap<(ChunkId, usize), usize> = BTreeMap::new();
        for s in 0..n {
            for c in 0..demand.num_chunks {
                if demand.chunk_in_use(NodeId(s), c) {
                    visible.insert((ChunkId::new(NodeId(s), c), s), 0);
                }
            }
        }
        for epoch in 0..4 + rng.gen_range_usize(8) {
            let held: Vec<(ChunkId, usize)> = visible
                .iter()
                .filter(|&(_, &at)| at <= epoch)
                .map(|(&k, _)| k)
                .collect();
            for (chunk, node) in held {
                for link in topo.out_links(NodeId(node)) {
                    // Now and then a second copy to a node that has one, so
                    // the simulator's first-arrival bookkeeping is exercised.
                    let had = visible.contains_key(&(chunk, link.dst.0));
                    if link.dst.0 == chunk.source.0 || !rng.gen_bool(if had { 0.1 } else { 0.4 }) {
                        continue;
                    }
                    sch.push(chunk, NodeId(node), link.dst, epoch);
                    let delay = (link.alpha / sch.epoch_duration).ceil() as usize;
                    let at = visible.entry((chunk, link.dst.0)).or_insert(usize::MAX);
                    *at = (*at).min(epoch + delay + 1);
                }
            }
        }
        sch
    }

    /// One corruption of a schedule: a duplicated send, a send over a
    /// missing link, a send moved before its chunk arrives, a send by a node
    /// that never gets the chunk, or dropped sends.
    fn corrupt(sch: &mut Schedule, topo: &Topology, rng: &mut teccl_util::Rng64) {
        let n = topo.num_nodes();
        let pick =
            |rng: &mut teccl_util::Rng64, sch: &Schedule| rng.gen_range_usize(sch.sends.len());
        match rng.gen_range_usize(5) {
            _ if sch.sends.is_empty() => {}
            0 => {
                let snd = sch.sends[pick(rng, sch)];
                sch.sends.push(snd);
            }
            1 => {
                let snd = sch.sends[pick(rng, sch)];
                if let Some(to) = (0..n)
                    .find(|&t| t != snd.from.0 && topo.link_between(snd.from, NodeId(t)).is_none())
                {
                    sch.push(snd.chunk, snd.from, NodeId(to), snd.epoch);
                }
            }
            2 => {
                let i = pick(rng, sch);
                sch.sends[i].epoch = sch.sends[i]
                    .epoch
                    .saturating_sub(1 + rng.gen_range_usize(3));
            }
            3 => {
                let snd = sch.sends[pick(rng, sch)];
                let chunk = ChunkId::new(snd.chunk.source, snd.chunk.chunk + 7);
                sch.push(chunk, snd.from, snd.to, snd.epoch);
            }
            _ => {
                for _ in 0..1 + rng.gen_range_usize(3) {
                    if !sch.sends.is_empty() {
                        let i = pick(rng, sch);
                        sch.sends.remove(i);
                    }
                }
            }
        }
    }

    fn assert_same_simulation(
        what: &str,
        got: &Result<SimReport, SimError>,
        want: &Result<SimReport, SimError>,
    ) {
        match (got, want) {
            (Ok(a), Ok(b)) => {
                let bits = |r: &SimReport| {
                    let times: Vec<u64> = r
                        .send_completion_times
                        .iter()
                        .map(|t| t.to_bits())
                        .collect();
                    let avail: Vec<((ChunkId, NodeId), u64)> = r
                        .availability
                        .iter()
                        .map(|(&k, t)| (k, t.to_bits()))
                        .collect();
                    (
                        r.transfer_time.to_bits(),
                        r.bytes_on_wire.to_bits(),
                        times,
                        avail,
                    )
                };
                assert_eq!(bits(a), bits(b), "{what}");
            }
            (Err(a), Err(b)) => assert_eq!(a, b, "{what}"),
            _ => panic!("{what}: {got:?} vs {want:?}"),
        }
    }

    /// The dense `validate` and `simulate` against their ordered-map
    /// oracles on `cases` random topologies, demands and flood schedules,
    /// half of them corrupted, paced and unpaced: the same error lists, the
    /// same transfer time, completion times and availability to the bit.
    pub(crate) fn assert_dense_replays_match(seed: u64, cases: usize) {
        use crate::validate::tests::btree_validate;
        use crate::validate::validate;
        let mut rng = teccl_util::Rng64::seed_from_u64(seed);
        let (mut valid, mut simulated, mut kinds) = (0usize, 0usize, HashSet::new());
        for case in 0..cases {
            let topo = random_topology(&mut rng);
            let demand = random_demand(&mut rng, topo.num_nodes());
            let mut sch = flood(&topo, &demand, &mut rng);
            if case % 2 == 1 {
                corrupt(&mut sch, &topo, &mut rng);
            }
            if case % 5 == 0 {
                sch.epoch_duration = 0.0;
            }
            for check_capacity in [false, true] {
                let got = validate(&topo, &demand, &sch, check_capacity);
                let want = btree_validate(&topo, &demand, &sch, check_capacity);
                assert_eq!(
                    got.errors, want.errors,
                    "case {case} capacity {check_capacity}"
                );
                valid += usize::from(got.is_valid());
                kinds.extend(got.errors.iter().map(std::mem::discriminant));
            }
            let got = simulate(&topo, &demand, &sch);
            assert_same_simulation(
                &format!("case {case}"),
                &got,
                &btree_simulate(&topo, &demand, &sch),
            );
            simulated += usize::from(got.is_ok());
        }
        assert!(
            valid * 10 > cases && simulated * 5 > cases,
            "{valid} valid, {simulated} simulated"
        );
        assert_eq!(kinds.len(), 5, "every kind of validation error occurs");
    }

    #[test]
    fn dense_replays_match_the_ordered_map_oracles() {
        assert_dense_replays_match(0x5c4e_d01e, 2_000);
    }

    #[test]
    #[ignore = "release-size"]
    fn dense_replays_match_the_ordered_map_oracles_release_size() {
        assert_dense_replays_match(0xd01e_5c4e, 100_000);
    }

    const MB: f64 = 1e6;

    #[test]
    fn single_hop_time_is_alpha_plus_beta() {
        let mut topo = Topology::new("pair");
        let a = topo.add_gpu("a", 0);
        let b = topo.add_gpu("b", 0);
        topo.add_bilink(a, b, 1e9, 5e-6);
        let gpus = vec![a, b];
        let demand = DemandMatrix::broadcast(2, &gpus, a, 1);
        let mut sch = Schedule::new("one", MB);
        sch.push(ChunkId::new(a, 0), a, b, 0);
        let rep = simulate(&topo, &demand, &sch).unwrap();
        // 1 MB / 1 GB/s = 1 ms, + 5 µs alpha.
        assert!((rep.transfer_time - (1e-3 + 5e-6)).abs() < 1e-12);
        assert!((rep.algorithmic_bandwidth(MB) - MB / (1e-3 + 5e-6)).abs() < 1.0);
    }

    #[test]
    fn pipeline_overlaps_hops() {
        // Two chunks relayed over a 3-node line: with pipelining the second
        // hop of chunk 0 overlaps the first hop of chunk 1.
        let topo = line_topology(3, 1e9, 0.0);
        let gpus: Vec<NodeId> = (0..3).map(NodeId).collect();
        let demand = DemandMatrix::broadcast(3, &gpus, NodeId(0), 2);
        let mut sch = Schedule::new("pipe", MB);
        for c in 0..2 {
            sch.push(ChunkId::new(NodeId(0), c), NodeId(0), NodeId(1), c);
            sch.push(ChunkId::new(NodeId(0), c), NodeId(1), NodeId(2), c + 1);
        }
        let rep = simulate(&topo, &demand, &sch).unwrap();
        // Without pipelining it would be 4 ms; with pipelining 3 ms.
        assert!(
            (rep.transfer_time - 3e-3).abs() < 1e-9,
            "{}",
            rep.transfer_time
        );
    }

    #[test]
    fn link_serialization_is_respected() {
        // Two chunks on the same link cannot overlap.
        let mut topo = Topology::new("pair");
        let a = topo.add_gpu("a", 0);
        let b = topo.add_gpu("b", 0);
        topo.add_bilink(a, b, 1e9, 0.0);
        let gpus = vec![a, b];
        let demand = DemandMatrix::broadcast(2, &gpus, a, 2);
        let mut sch = Schedule::new("serial", MB);
        sch.push(ChunkId::new(a, 0), a, b, 0);
        sch.push(ChunkId::new(a, 1), a, b, 0);
        let rep = simulate(&topo, &demand, &sch).unwrap();
        assert!((rep.transfer_time - 2e-3).abs() < 1e-9);
    }

    #[test]
    fn stuck_schedule_is_detected() {
        let topo = line_topology(3, 1e9, 0.0);
        let gpus: Vec<NodeId> = (0..3).map(NodeId).collect();
        let demand = DemandMatrix::broadcast(3, &gpus, NodeId(0), 1);
        let mut sch = Schedule::new("stuck", MB);
        // Node 1 forwards a chunk it never receives.
        sch.push(ChunkId::new(NodeId(0), 0), NodeId(1), NodeId(2), 0);
        let err = simulate(&topo, &demand, &sch).unwrap_err();
        assert!(matches!(err, SimError::Stuck { .. }));
    }

    #[test]
    fn missing_demand_is_detected() {
        let topo = line_topology(3, 1e9, 0.0);
        let gpus: Vec<NodeId> = (0..3).map(NodeId).collect();
        let demand = DemandMatrix::broadcast(3, &gpus, NodeId(0), 1);
        let mut sch = Schedule::new("partial", MB);
        sch.push(ChunkId::new(NodeId(0), 0), NodeId(0), NodeId(1), 0);
        let err = simulate(&topo, &demand, &sch).unwrap_err();
        assert!(matches!(err, SimError::DemandUnsatisfied { missing: 1 }));
    }

    #[test]
    fn missing_link_is_detected() {
        let topo = line_topology(3, 1e9, 0.0);
        let gpus: Vec<NodeId> = (0..3).map(NodeId).collect();
        let demand = DemandMatrix::broadcast(3, &gpus, NodeId(0), 1);
        let mut sch = Schedule::new("nolink", MB);
        sch.push(ChunkId::new(NodeId(0), 0), NodeId(0), NodeId(2), 0);
        let err = simulate(&topo, &demand, &sch).unwrap_err();
        assert!(matches!(err, SimError::NoSuchLink { .. }));
    }

    #[test]
    fn out_of_order_issue_resolves_via_relaxation() {
        // The second hop is scheduled on a link whose queue is examined before
        // the first hop's link; the relaxation loop must still resolve it.
        let topo = line_topology(3, 1e9, 0.0);
        let gpus: Vec<NodeId> = (0..3).map(NodeId).collect();
        let demand = DemandMatrix::broadcast(3, &gpus, NodeId(0), 1);
        let mut sch = Schedule::new("ooo", MB);
        sch.push(ChunkId::new(NodeId(0), 0), NodeId(1), NodeId(2), 1);
        sch.push(ChunkId::new(NodeId(0), 0), NodeId(0), NodeId(1), 0);
        let rep = simulate(&topo, &demand, &sch).unwrap();
        assert!((rep.transfer_time - 2e-3).abs() < 1e-9);
    }

    #[test]
    fn epoch_pacing_delays_sends() {
        // With a 10 ms epoch duration, a send in epoch 1 cannot start before
        // t = 10 ms even though the link and chunk are ready earlier.
        let mut topo = Topology::new("pair");
        let a = topo.add_gpu("a", 0);
        let b = topo.add_gpu("b", 0);
        topo.add_bilink(a, b, 1e9, 0.0);
        let gpus = vec![a, b];
        let demand = DemandMatrix::broadcast(2, &gpus, a, 1);
        let mut sch = Schedule::new("paced", MB);
        sch.epoch_duration = 10e-3;
        sch.push(ChunkId::new(a, 0), a, b, 1);
        let rep = simulate(&topo, &demand, &sch).unwrap();
        assert!((rep.transfer_time - 11e-3).abs() < 1e-9);
    }

    #[test]
    fn copy_fanout_from_relay() {
        // Relay duplicates the chunk to two destinations (Figure 1c shape).
        let topo = teccl_topology::fig1c(1e9);
        let gpus: Vec<NodeId> = (0..5).map(NodeId).collect();
        let mut demand = DemandMatrix::new(5, 1);
        for d in 2..5 {
            demand.set(NodeId(0), 0, NodeId(d));
        }
        let _ = gpus;
        let mut sch = Schedule::new("fanout", MB);
        let ch = ChunkId::new(NodeId(0), 0);
        sch.push(ch, NodeId(0), NodeId(1), 0);
        for d in 2..5 {
            sch.push(ch, NodeId(1), NodeId(d), 1);
        }
        let rep = simulate(&topo, &demand, &sch).unwrap();
        // s->h takes 1 ms; the three copies go out on three separate links in
        // parallel, each 1 ms → total 2 ms.
        assert!((rep.transfer_time - 2e-3).abs() < 1e-9);
        assert_eq!(rep.bytes_on_wire, 4.0 * MB);
    }
}
