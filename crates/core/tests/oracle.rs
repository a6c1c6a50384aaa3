//! Ground truth on small instances: an exhaustive schedule oracle.
//!
//! The oracle searches the epoch model of §3.1 breadth first, one epoch per
//! layer, and returns the fewest epochs `K*` in which any schedule meets the
//! demand, with one schedule that does. It shares no code with the
//! formulations: it reads each link's capacity, α and β from the
//! `Topology` and τ from `epochs::epoch_duration`, and derives the model's
//! rules itself:
//!
//! * a link carries chunks of `chunk_bytes` at `capacity · τ / chunk_bytes`
//!   chunks per epoch; one chunk takes `κ = ⌈(chunk / capacity) / τ⌉`
//!   epochs, and at most `⌊κ · cap⌋` sends may start in any `κ` consecutive
//!   epochs;
//! * a chunk sent in epoch `k` over a link with `δ = ⌈α / τ⌉` joins the
//!   receiver's buffer at epoch `k + δ + κ`, from which it can be sent on;
//! * sources hold their chunks at epoch 0, and the demand is met at `K` when
//!   every destination holds its chunks at epoch `K`.
//!
//! A state is who holds which chunk, the chunks in flight with the epoch
//! they land, and each link's sends in the epochs its window still counts.
//! A layer's states are expanded link by link into every set of sends the
//! windows allow, each chunk sent at most once into each node that neither
//! holds it nor has it coming; equal states are merged. With copy a sender
//! keeps what it sends; without copy (ALLTOALL: every chunk has one
//! destination, so copy gains nothing) the chunk leaves it.
//!
//! The family checked here is every strongly connected digraph on 3 GPUs,
//! with one chunk, under three link settings, for ALLGATHER and BROADCAST
//! with copy and ALLTOALL without. For every instance:
//! * the proven horizon bound (`copy_horizon_bound` with copy,
//!   `horizon_lower_bound` without), over the trivial group and over the
//!   group `SymmetryGroup::find` returns, is at most `K*`, and without copy
//!   the LP over either group is feasible at `K*`;
//! * the MILP built at `K*` is feasible and the one at `K* − 1` is not, over
//!   the trivial group and over the instance's group where the product
//!   would use it;
//! * A\*'s schedule completes at `K*` or later, and so does the served MILP
//!   schedule;
//! * the oracle's schedule validates and simulates to `K*`.

use std::collections::{HashMap, HashSet};

use teccl_collective::{CollectiveKind, DemandMatrix};
use teccl_core::epochs::{copy_horizon_bound, epoch_duration, horizon_lower_bound};
use teccl_core::lp_form::LpFormulation;
use teccl_core::milp_form::{MilpBuildOptions, MilpFormulation};
use teccl_core::symmetry::SymmetryGroup;
use teccl_core::{RequestMethod, SolverConfig, TeCcl, TeCclError};
use teccl_schedule::{simulate, validate, ChunkId, Schedule, Send};
use teccl_topology::{NodeId, Topology};

/// One link as the oracle reads it.
#[derive(Debug, Clone, Copy)]
struct Wire {
    from: usize,
    to: usize,
    /// Sends that may start in any `kappa` consecutive epochs.
    per_window: usize,
    kappa: usize,
    /// Epochs from a send to the epoch the chunk joins the receiver's buffer.
    lands_after: usize,
}

fn wires(topo: &Topology, chunk_bytes: f64, tau: f64) -> Vec<Wire> {
    topo.links
        .iter()
        .map(|l| {
            let chunks_per_epoch = l.capacity * tau / chunk_bytes;
            let kappa = ((chunk_bytes / l.capacity / tau).ceil() as usize).max(1);
            let delta = if l.alpha > 0.0 {
                (l.alpha / tau).ceil() as usize
            } else {
                0
            };
            Wire {
                from: l.src.0,
                to: l.dst.0,
                per_window: (kappa as f64 * chunks_per_epoch + 1e-9).floor() as usize,
                kappa,
                lands_after: delta + kappa,
            }
        })
        .collect()
}

/// Who holds which chunk at the start of an epoch, what is in flight, and
/// each link's sends in its window's earlier epochs.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct State {
    /// Per chunk, the nodes holding it (a bit per node).
    held: Vec<u32>,
    /// `(chunk, node, epoch it lands)`, sorted.
    flight: Vec<(usize, usize, usize)>,
    /// Per link, its sends in each of the last `kappa - 1` epochs, oldest
    /// first.
    recent: Vec<Vec<usize>>,
}

/// One send the oracle chose: `(chunk, link, epoch)`.
type Choice = (usize, usize, usize);

struct Oracle<'a> {
    wires: Vec<Wire>,
    /// The fewest epochs from a chunk being held at one node to its landing
    /// at another (`usize::MAX` when it cannot).
    dist: Vec<Vec<usize>>,
    /// The chunks in use, `(source, chunk)`.
    chunks: Vec<(NodeId, usize)>,
    /// Per chunk, the nodes that want it (a bit per node).
    wanted: Vec<u32>,
    copy: bool,
    demand: &'a DemandMatrix,
}

impl<'a> Oracle<'a> {
    fn new(topo: &Topology, demand: &'a DemandMatrix, chunk_bytes: f64, tau: f64) -> Self {
        let mut chunks: Vec<(NodeId, usize)> = Vec::new();
        let mut wanted = Vec::new();
        for (s, c, d) in demand.iter() {
            let i = match chunks.iter().position(|&x| x == (s, c)) {
                Some(i) => i,
                None => {
                    chunks.push((s, c));
                    wanted.push(0);
                    chunks.len() - 1
                }
            };
            wanted[i] |= 1 << d.0;
        }
        let wires = wires(topo, chunk_bytes, tau);
        let n = topo.num_nodes();
        let mut dist = vec![vec![usize::MAX; n]; n];
        for (i, row) in dist.iter_mut().enumerate() {
            row[i] = 0;
        }
        for w in &wires {
            dist[w.from][w.to] = dist[w.from][w.to].min(w.lands_after);
        }
        for m in 0..n {
            for i in 0..n {
                for j in 0..n {
                    let via = dist[i][m].saturating_add(dist[m][j]);
                    if via < dist[i][j] {
                        dist[i][j] = via;
                    }
                }
            }
        }
        Oracle {
            wires,
            dist,
            chunks,
            wanted,
            copy: demand.benefits_from_copy(),
            demand,
        }
    }

    fn start(&self) -> State {
        State {
            held: self.chunks.iter().map(|&(s, _)| 1 << s.0).collect(),
            flight: Vec::new(),
            recent: self.wires.iter().map(|w| vec![0; w.kappa - 1]).collect(),
        }
    }

    fn done(&self, state: &State) -> bool {
        state
            .held
            .iter()
            .zip(&self.wanted)
            .all(|(&held, &wanted)| held & wanted == wanted)
    }

    /// Whether chunk `i` is, or will be, at `node` without another send.
    fn coming(&self, state: &State, i: usize, node: usize) -> bool {
        state.held[i] >> node & 1 == 1 || state.flight.iter().any(|&(j, n, _)| (j, n) == (i, node))
    }

    /// Every state one epoch on from `state` (sends in epoch `k`), each with
    /// the sends that lead there.
    fn expand(&self, state: &State, k: usize, out: &mut Vec<(State, Vec<Choice>)>) {
        let mut chosen = Vec::new();
        self.expand_from(state, k, 0, &mut chosen, out);
    }

    /// Chooses the sends of link `l` and those after it.
    fn expand_from(
        &self,
        state: &State,
        k: usize,
        l: usize,
        chosen: &mut Vec<Choice>,
        out: &mut Vec<(State, Vec<Choice>)>,
    ) {
        if l == self.wires.len() {
            out.push((self.advance(state, k, chosen), chosen.clone()));
            return;
        }
        let w = self.wires[l];
        let room = w.per_window - state.recent[l].iter().sum::<usize>().min(w.per_window);
        // The chunks this link may usefully carry now.
        let candidates: Vec<usize> = (0..self.chunks.len())
            .filter(|&i| state.held[i] >> w.from & 1 == 1)
            .filter(|&i| !self.coming(state, i, w.to))
            .filter(|&i| {
                !chosen
                    .iter()
                    .any(|&(j, m, _)| j == i && self.wires[m].to == w.to)
            })
            // Without copy a chunk leaves on one link at most.
            .filter(|&i| self.copy || !chosen.iter().any(|&(j, _, _)| j == i))
            .collect();
        self.subsets(state, k, l, &candidates, room, chosen, out);
    }

    /// Chooses at most `room` of `candidates` for link `l`, each set
    /// followed by the links after it.
    #[allow(clippy::too_many_arguments)]
    fn subsets(
        &self,
        state: &State,
        k: usize,
        l: usize,
        candidates: &[usize],
        room: usize,
        chosen: &mut Vec<Choice>,
        out: &mut Vec<(State, Vec<Choice>)>,
    ) {
        self.expand_from(state, k, l + 1, chosen, out);
        if room == 0 {
            return;
        }
        for (at, &i) in candidates.iter().enumerate() {
            chosen.push((i, l, k));
            self.subsets(state, k, l, &candidates[at + 1..], room - 1, chosen, out);
            chosen.pop();
        }
    }

    /// The state at epoch `k + 1` after `sends` in epoch `k`.
    fn advance(&self, state: &State, k: usize, sends: &[Choice]) -> State {
        let mut next = state.clone();
        for &(i, l, _) in sends {
            let w = self.wires[l];
            if !self.copy {
                next.held[i] &= !(1 << w.from);
            }
            next.flight.push((i, w.to, k + w.lands_after));
        }
        next.flight.retain(|&(i, node, lands)| {
            let landed = lands <= k + 1;
            if landed {
                next.held[i] |= 1 << node;
            }
            !landed
        });
        next.flight.sort_unstable();
        for (l, recent) in next.recent.iter_mut().enumerate() {
            if !recent.is_empty() {
                recent.remove(0);
                recent.push(sends.iter().filter(|&&(_, m, _)| m == l).count());
            }
        }
        next
    }

    /// The earliest epoch at which `state`, at epoch `k`, can meet the
    /// demand: every wanted chunk travels its shortest path from the nearest
    /// place it is or lands, with no link shared.
    fn earliest_finish(&self, state: &State, k: usize) -> usize {
        let mut finish = k;
        for (i, &wanted) in self.wanted.iter().enumerate() {
            for d in (0..self.dist.len()).filter(|&d| wanted >> d & 1 == 1) {
                let held = (0..self.dist.len())
                    .filter(|&h| state.held[i] >> h & 1 == 1)
                    .map(|h| k.saturating_add(self.dist[h][d]));
                let landing = state
                    .flight
                    .iter()
                    .filter(|&&(j, _, _)| j == i)
                    .map(|&(_, n, lands)| lands.saturating_add(self.dist[n][d]));
                finish = finish.max(held.chain(landing).min().unwrap_or(usize::MAX));
            }
        }
        finish
    }

    /// `K*` and a schedule that meets the demand in `K*` epochs, or `None`
    /// when no schedule does within `max_epochs`. Deepens the horizon one
    /// epoch at a time from the distance bound; a search to horizon `h`
    /// drops every state that cannot finish by `h` ([`Oracle::earliest_finish`]).
    fn solve(&self, max_epochs: usize) -> Option<(usize, Vec<Choice>)> {
        let start = self.earliest_finish(&self.start(), 0);
        (start..=max_epochs).find_map(|h| self.search(h).map(|sends| (h, sends)))
    }

    /// A schedule that meets the demand at epoch `h`, the search's horizon,
    /// and at no earlier epoch, or `None`.
    fn search(&self, h: usize) -> Option<Vec<Choice>> {
        // Per layer: each state, its parent in the layer before and the sends
        // from there.
        let mut layers: Vec<Vec<(State, usize, Vec<Choice>)>> =
            vec![vec![(self.start(), 0, Vec::new())]];
        for k in 0..=h {
            let layer = &layers[k];
            if let Some(at) = layer.iter().position(|(s, _, _)| self.done(s)) {
                let mut sends = Vec::new();
                let mut at = at;
                for layer in layers.iter().rev() {
                    let (_, parent, step) = &layer[at];
                    sends.extend_from_slice(step);
                    at = *parent;
                }
                sends.sort_unstable_by_key(|&(i, l, e)| (e, l, i));
                // A shorter horizon found nothing, so `k` is `h`.
                return Some(sends);
            }
            if k == h {
                return None;
            }
            let mut seen: HashSet<State> = HashSet::new();
            let mut next = Vec::new();
            let mut succ = Vec::new();
            for (parent, (state, _, _)) in layer.iter().enumerate() {
                succ.clear();
                self.expand(state, k, &mut succ);
                for (s, sends) in succ.drain(..) {
                    if self.earliest_finish(&s, k + 1) <= h && seen.insert(s.clone()) {
                        next.push((s, parent, sends));
                    }
                }
            }
            layers.push(next);
        }
        None
    }

    /// The oracle's sends as a [`Schedule`].
    fn schedule(&self, sends: &[Choice], chunk_bytes: f64, tau: f64, k: usize) -> Schedule {
        let mut schedule = Schedule::new("oracle", chunk_bytes);
        schedule.epoch_duration = tau;
        schedule.num_epochs = k;
        for &(i, l, epoch) in sends {
            let (s, c) = self.chunks[i];
            schedule.sends.push(Send {
                chunk: ChunkId::new(s, c),
                from: NodeId(self.wires[l].from),
                to: NodeId(self.wires[l].to),
                epoch,
            });
        }
        schedule
    }

    /// The epoch at which `sends` meet the demand under the oracle's rules:
    /// the latest first arrival of a demanded chunk.
    fn completion(&self, topo: &Topology, sends: &[Send]) -> usize {
        self.demand
            .iter()
            .map(|(s, c, d)| {
                sends
                    .iter()
                    .filter(|x| x.chunk == ChunkId::new(s, c) && x.to == d)
                    .map(|x| {
                        let l = topo.link_between(x.from, x.to).expect("a send on a link");
                        x.epoch + self.wires[l.id.0].lands_after
                    })
                    .min()
                    .unwrap_or(usize::MAX)
            })
            .max()
            .unwrap_or(0)
    }
}

const CHUNK_BYTES: f64 = 1024.0 * 1024.0;
const CAPACITY: f64 = 25e9;

/// The link settings each digraph is checked under: every link alike; the
/// links out of GPU 0 twice as fast, which halves τ (the default epoch is
/// the fastest link's), so every other link takes two epochs a chunk
/// (κ = 2); and the links out of GPU 0 with one epoch of α (δ = 1).
#[derive(Debug, Clone, Copy)]
enum Links {
    Uniform,
    FastFromFirst,
    SlowFromFirst,
}

/// Every strongly connected digraph on 3 GPUs, as its arc mask over the
/// ordered pairs `(0,1), (0,2), (1,0), (1,2), (2,0), (2,1)`.
fn strongly_connected_masks() -> Vec<u32> {
    let arcs = arcs();
    (0u32..1 << arcs.len())
        .filter(|&mask| {
            let reach = |from: usize| {
                let mut seen = 1u32 << from;
                for _ in 0..3 {
                    for (a, &(u, v)) in arcs.iter().enumerate() {
                        if mask >> a & 1 == 1 && seen >> u & 1 == 1 {
                            seen |= 1 << v;
                        }
                    }
                }
                seen
            };
            (0..3).all(|n| reach(n) == 0b111)
        })
        .collect()
}

fn arcs() -> [(usize, usize); 6] {
    [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]
}

fn digraph(mask: u32, links: Links) -> Topology {
    let mut t = Topology::new(format!("g3-{mask:02x}-{links:?}"));
    let gpus: Vec<NodeId> = (0..3).map(|i| t.add_gpu(format!("gpu{i}"), 0)).collect();
    for (a, &(u, v)) in arcs().iter().enumerate() {
        if mask >> a & 1 == 0 {
            continue;
        }
        let (capacity, alpha) = match links {
            Links::FastFromFirst if u == 0 => (2.0 * CAPACITY, 0.0),
            // Exactly one epoch: τ is this quotient too.
            Links::SlowFromFirst if u == 0 => (CAPACITY, CHUNK_BYTES / CAPACITY),
            _ => (CAPACITY, 0.0),
        };
        t.add_link(gpus[u], gpus[v], capacity, alpha);
    }
    t
}

/// Whether the MILP over `group` at `k` epochs has a feasible point.
fn milp_feasible(
    topo: &Topology,
    demand: &DemandMatrix,
    tau: f64,
    k: usize,
    group: SymmetryGroup,
) -> bool {
    let config = SolverConfig::default();
    let form = MilpFormulation::build_over(
        topo,
        demand,
        CHUNK_BYTES,
        &config,
        k,
        tau,
        &MilpBuildOptions::default(),
        group,
        None,
    )
    .unwrap();
    match form.solve_budgeted(&config, None, None) {
        Ok(_) => true,
        Err(TeCclError::InfeasibleWithEpochs(_)) => false,
        Err(e) => panic!("{}: MILP at {k}: {e}", topo.name),
    }
}

/// A served schedule's completion epoch by the oracle's rules.
fn served_completion(
    oracle: &Oracle<'_>,
    topo: &Topology,
    demand: &DemandMatrix,
    method: RequestMethod,
) -> usize {
    let solver = TeCcl::new(topo.clone(), SolverConfig::default());
    let outcome = solver
        .solve(demand, CHUNK_BYTES, method, None)
        .unwrap_or_else(|e| panic!("{}: {method:?}: {e}", topo.name));
    oracle.completion(topo, &outcome.schedule.sends)
}

#[test]
fn every_strongly_connected_3_gpu_digraph_meets_the_oracle() {
    let masks = strongly_connected_masks();
    assert_eq!(
        masks.len(),
        18,
        "strongly connected labelled digraphs on 3 nodes"
    );
    let kinds = [
        CollectiveKind::AllGather,
        CollectiveKind::Broadcast,
        CollectiveKind::AllToAll,
    ];
    // Per collective: instances, and the summed K*, A* and served-MILP
    // completions.
    let mut totals: HashMap<&str, [usize; 4]> = HashMap::new();
    let started = std::time::Instant::now();
    let mut in_oracle = std::time::Duration::ZERO;
    for links in [Links::Uniform, Links::FastFromFirst, Links::SlowFromFirst] {
        for &mask in &masks {
            let topo = digraph(mask, links);
            let gpus: Vec<NodeId> = topo.gpus().collect();
            for kind in kinds {
                let demand = DemandMatrix::for_collective(kind, topo.num_nodes(), &gpus, 1);
                let tau = epoch_duration(&topo, CHUNK_BYTES, &SolverConfig::default());
                let oracle = Oracle::new(&topo, &demand, CHUNK_BYTES, tau);
                let name = format!("{} {kind:?}", topo.name);
                let searched = std::time::Instant::now();
                let (k_star, sends) = oracle.solve(12).unwrap_or_else(|| panic!("{name}"));
                in_oracle += searched.elapsed();
                assert!(k_star >= 1, "{name}");

                // The witness validates and simulates to K*.
                let witness = oracle.schedule(&sends, CHUNK_BYTES, tau, k_star);
                // The validator counts capacity one epoch at a time, which
                // only fits links that carry a chunk per epoch (κ = 1).
                let per_epoch = oracle.wires.iter().all(|w| w.kappa == 1);
                let report = validate(&topo, &demand, &witness, per_epoch);
                assert!(report.is_valid(), "{name}: {:?}", report.errors);
                let sim = simulate(&topo, &demand, &witness).unwrap();
                let epochs = sim.transfer_time / tau;
                assert!(
                    epochs > (k_star - 1) as f64 + 1e-9 && epochs <= k_star as f64 + 1e-9,
                    "{name}: simulated {epochs} epochs, K* {k_star}"
                );
                assert_eq!(oracle.completion(&topo, &witness.sends), k_star, "{name}");

                // The proven bounds.
                let found = SymmetryGroup::find(&topo, &demand, CHUNK_BYTES, tau, None).unwrap();
                for group in [SymmetryGroup::trivial(&topo), found.clone()] {
                    let bound = if oracle.copy {
                        copy_horizon_bound(&topo, &demand, CHUNK_BYTES, tau, &group, None)
                    } else {
                        horizon_lower_bound(&topo, &demand, CHUNK_BYTES, tau, &group, None)
                    }
                    .unwrap();
                    assert!(bound <= k_star, "{name}: bound {bound} > K* {k_star}");
                    // Without copy, the LP (continuous flows, κ = 1) is a
                    // relaxation of the epoch model: feasible at K*.
                    if !oracle.copy {
                        let order = group.order();
                        let config = SolverConfig::default();
                        let lp = LpFormulation::build_over(
                            &topo,
                            &demand,
                            CHUNK_BYTES,
                            &config,
                            k_star,
                            tau,
                            group,
                            None,
                        )
                        .unwrap();
                        assert!(
                            lp.solve_budgeted(None, None).is_ok(),
                            "{name}: LP over |G| {order} infeasible at K* {k_star}"
                        );
                    }
                }

                // The MILP is feasible at K* and not below, full and quotient.
                let mut groups = vec![SymmetryGroup::trivial(&topo)];
                if !found.is_trivial()
                    && found.keeps_chunks(&demand)
                    && !found.fixes_a_link_or_gpu(&topo)
                {
                    groups.push(found);
                }
                for group in groups {
                    let order = group.order();
                    assert!(
                        milp_feasible(&topo, &demand, tau, k_star, group.clone()),
                        "{name}: MILP over |G| {order} infeasible at K* {k_star}"
                    );
                    if k_star > 1 {
                        assert!(
                            !milp_feasible(&topo, &demand, tau, k_star - 1, group),
                            "{name}: MILP over |G| {order} feasible below K* {k_star}"
                        );
                    }
                }

                // A* and the served MILP finish no earlier than K*.
                let astar = served_completion(&oracle, &topo, &demand, RequestMethod::AStar);
                assert!(astar >= k_star, "{name}: A* at {astar} < K* {k_star}");
                let milp = served_completion(&oracle, &topo, &demand, RequestMethod::Milp);
                assert!(milp >= k_star, "{name}: MILP at {milp} < K* {k_star}");

                let t = totals.entry(kind_name(kind)).or_default();
                t[0] += 1;
                t[1] += k_star;
                t[2] += astar;
                t[3] += milp;
            }
        }
    }
    println!(
        "{:.2} s, {:.2} s of it in the oracle",
        started.elapsed().as_secs_f64(),
        in_oracle.as_secs_f64()
    );
    let mut rows: Vec<_> = totals.into_iter().collect();
    rows.sort();
    for (kind, [n, k_star, astar, milp]) in rows {
        println!(
            "{kind}: {n} instances, sum K* {k_star}, A* {astar} ({:.3}x), served MILP {milp} ({:.3}x)",
            astar as f64 / k_star as f64,
            milp as f64 / k_star as f64
        );
    }
}

fn kind_name(kind: CollectiveKind) -> &'static str {
    match kind {
        CollectiveKind::AllGather => "all_gather",
        CollectiveKind::Broadcast => "broadcast",
        CollectiveKind::AllToAll => "all_to_all",
        _ => "other",
    }
}

/// The oracle on instances whose answer is known by hand.
#[test]
fn the_oracle_answers_known_instances() {
    let known = |topo: &Topology, kind: CollectiveKind| {
        let gpus: Vec<NodeId> = topo.gpus().collect();
        let tau = epoch_duration(topo, CHUNK_BYTES, &SolverConfig::default());
        let demand = DemandMatrix::for_collective(kind, topo.num_nodes(), &gpus, 1);
        Oracle::new(topo, &demand, CHUNK_BYTES, tau)
            .solve(8)
            .map(|(k, _)| k)
    };
    // The directed 3-cycle 0 → 1 → 2 → 0. ALLGATHER is the ring: two
    // chunks per link. BROADCAST from GPU 0 takes two hops. ALLTOALL puts
    // three chunks on every link (its own two and one passing through).
    let cycle = 1 | 1 << 3 | 1 << 4;
    let ring = digraph(cycle, Links::Uniform);
    assert_eq!(ring.links.len(), 3);
    assert_eq!(known(&ring, CollectiveKind::AllGather), Some(2));
    assert_eq!(known(&ring, CollectiveKind::Broadcast), Some(2));
    assert_eq!(known(&ring, CollectiveKind::AllToAll), Some(3));
    // The complete digraph: every chunk on its own link in the first epoch.
    let complete = digraph(0b11_1111, Links::Uniform);
    for kind in [
        CollectiveKind::AllGather,
        CollectiveKind::Broadcast,
        CollectiveKind::AllToAll,
    ] {
        assert_eq!(known(&complete, kind), Some(1), "{kind:?}");
    }
    // One epoch of α on 0 → 1: GPU 0's chunk lands at GPU 1 in epoch 2
    // and at GPU 2 in epoch 3.
    let slow = digraph(cycle, Links::SlowFromFirst);
    assert_eq!(known(&slow, CollectiveKind::AllGather), Some(3));
    // Twice the capacity on 0 → 1 halves τ (the default sizes the epoch by
    // the fastest link), so 1 → 2 and 2 → 0 take two epochs a chunk (κ = 2)
    // and 1 → 2 still carries three.
    let fast = digraph(cycle, Links::FastFromFirst);
    assert_eq!(known(&fast, CollectiveKind::AllToAll), Some(6));
}
