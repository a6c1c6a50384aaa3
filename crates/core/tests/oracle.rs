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
//! holds it nor has it coming; states equal but for the labels of
//! interchangeable chunks (one source, one set of destinations) are merged.
//! A search to a horizon drops every state that cannot finish by it: by
//! shortest paths, or because a node cannot take in, or send out, the
//! chunks it must through its links' windows in time. With copy a sender
//! keeps what it sends; without copy (ALLTOALL, SCATTER, GATHER: every
//! chunk has one destination, so copy gains nothing) the chunk leaves it.
//!
//! The family checked here is every strongly connected digraph on 3 GPUs,
//! with one chunk, under three link settings, for ALLGATHER and BROADCAST
//! with copy and ALLTOALL, SCATTER and GATHER without; an ignored release
//! sweep checks the same with two chunks. For every instance:
//! * the proven horizon bound (`copy_horizon_bound` with copy,
//!   `horizon_lower_bound` without), over the trivial group and over the
//!   group `SymmetryGroup::find` returns, is at most `K*`, and without copy
//!   the LP over either group is feasible at `K*`;
//! * the MILP built at `K*` is feasible and the one at `K* − 1` is not, over
//!   the trivial group and over the instance's group where the product
//!   would use it (the two-chunk sweep cuts each MILP at one second and
//!   counts the ones left undecided);
//! * A\*'s schedule completes at `K*` or later, and so does the served MILP
//!   schedule. For ALLGATHER, BROADCAST and ALLTOALL with one chunk both
//!   must answer; elsewhere an error (A\* stalling, say) is counted, not
//!   refused;
//! * the oracle's schedule validates, capacity windows included, and
//!   simulates to `K*`.

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

/// A state a search layer reached: the state, its parent's place in the
/// layer before, the sends from there (in the parent's labels) and the
/// relabelling from the parent's labels to the state's.
type Reached = (State, usize, Vec<Choice>, Vec<usize>);

struct Oracle<'a> {
    wires: Vec<Wire>,
    /// The fewest epochs from a chunk being held at one node to its landing
    /// at another (`usize::MAX` when it cannot).
    dist: Vec<Vec<usize>>,
    /// The chunks in use, `(source, chunk)`.
    chunks: Vec<(NodeId, usize)>,
    /// Per chunk, the nodes that want it (a bit per node).
    wanted: Vec<u32>,
    /// The chunks with one source and one set of destinations, which are
    /// interchangeable, in classes of two or more.
    classes: Vec<Vec<usize>>,
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
        let mut classes: Vec<Vec<usize>> = Vec::new();
        for i in 0..chunks.len() {
            let class = |c: usize| (chunks[c].0, wanted[c]);
            match classes.iter().position(|c| class(c[0]) == class(i)) {
                Some(at) => classes[at].push(i),
                None => classes.push(vec![i]),
            }
        }
        classes.retain(|c| c.len() > 1);
        Oracle {
            wires,
            dist,
            chunks,
            wanted,
            classes,
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
    /// demand. Every wanted chunk travels its shortest path from the nearest
    /// place it is or lands, with no link shared; every node takes in the
    /// wanted chunks it has not got coming through its in-links; and every
    /// node sends out, once each, the wanted chunks only it holds. A link
    /// starts at most `per_window` sends per `kappa` epochs.
    fn earliest_finish(&self, state: &State, k: usize) -> usize {
        let n = self.dist.len();
        let mut finish = k;
        for (i, &wanted) in self.wanted.iter().enumerate() {
            for d in (0..n).filter(|&d| wanted >> d & 1 == 1) {
                let held = (0..n)
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
        if finish == usize::MAX {
            return finish;
        }
        for node in 0..n {
            let lacking = (0..self.chunks.len())
                .filter(|&i| self.wanted[i] >> node & 1 == 1 && !self.coming(state, i, node))
                .count();
            let sole = (0..self.chunks.len())
                .filter(|&i| state.held[i] == 1 << node && self.wanted[i] & !(1 << node) != 0)
                .filter(|&i| !state.flight.iter().any(|&(j, _, _)| j == i))
                .count();
            for (needed, into) in [(lacking, true), (sole, false)] {
                if needed == 0 {
                    continue;
                }
                let wires: Vec<&Wire> = self
                    .wires
                    .iter()
                    .filter(|w| if into { w.to == node } else { w.from == node })
                    .collect();
                if wires.is_empty() {
                    return usize::MAX;
                }
                // A send landing by `h` starts in epochs `k..=h - lands_after`.
                let room = |h: usize| -> usize {
                    wires
                        .iter()
                        .map(|w| {
                            let epochs = (h + 1).saturating_sub(w.lands_after).saturating_sub(k);
                            epochs.div_ceil(w.kappa) * w.per_window
                        })
                        .sum()
                };
                while room(finish) < needed {
                    finish += 1;
                }
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
        let start = (0..self.chunks.len()).collect();
        let mut layers: Vec<Vec<Reached>> = vec![vec![(self.start(), 0, Vec::new(), start)]];
        for k in 0..=h {
            let layer = &layers[k];
            if let Some(at) = layer.iter().position(|(s, ..)| self.done(s)) {
                let mut steps = Vec::new();
                let mut at = at;
                for layer in layers.iter().rev() {
                    let (_, parent, sends, perm) = &layer[at];
                    steps.push((sends, perm));
                    at = *parent;
                }
                // Back to the chunks' own labels, layer by layer.
                let mut own: Vec<usize> = (0..self.chunks.len()).collect();
                let mut sends = Vec::new();
                for (step, perm) in steps.into_iter().rev() {
                    sends.extend(step.iter().map(|&(i, l, e)| (own[i], l, e)));
                    let mut next = own.clone();
                    for (i, &to) in perm.iter().enumerate() {
                        next[to] = own[i];
                    }
                    own = next;
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
            for (parent, (state, ..)) in layer.iter().enumerate() {
                succ.clear();
                self.expand(state, k, &mut succ);
                for (s, sends) in succ.drain(..) {
                    if self.earliest_finish(&s, k + 1) > h {
                        continue;
                    }
                    let (s, perm) = self.canonical(s);
                    if seen.insert(s.clone()) {
                        next.push((s, parent, sends, perm));
                    }
                }
            }
            layers.push(next);
        }
        None
    }

    /// `state` with each class of interchangeable chunks relabelled in one
    /// order of where they are (who holds them, where and when they land),
    /// so that states equal but for those labels merge; and the
    /// relabelling, chunk `i` becoming chunk `perm[i]`.
    fn canonical(&self, state: State) -> (State, Vec<usize>) {
        let mut perm: Vec<usize> = (0..self.chunks.len()).collect();
        for class in &self.classes {
            let mut places: Vec<(u32, Vec<_>, usize)> = class
                .iter()
                .map(|&i| {
                    let flight = state.flight.iter().filter(|f| f.0 == i);
                    (state.held[i], flight.map(|f| (f.1, f.2)).collect(), i)
                })
                .collect();
            places.sort_unstable();
            for (&to, &(_, _, from)) in class.iter().zip(&places) {
                perm[from] = to;
            }
        }
        let mut held = state.held.clone();
        for (i, &to) in perm.iter().enumerate() {
            held[to] = state.held[i];
        }
        let mut flight: Vec<_> = state
            .flight
            .iter()
            .map(|&(i, n, lands)| (perm[i], n, lands))
            .collect();
        flight.sort_unstable();
        let recent = state.recent;
        (
            State {
                held,
                flight,
                recent,
            },
            perm,
        )
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

/// Whether the MILP over `group` at `k` epochs has a feasible point, or
/// `None` when `config`'s time limit ends the search first.
fn milp_feasible(
    topo: &Topology,
    demand: &DemandMatrix,
    tau: f64,
    k: usize,
    group: SymmetryGroup,
    config: &SolverConfig,
) -> Option<bool> {
    let form = MilpFormulation::build_over(
        topo,
        demand,
        CHUNK_BYTES,
        config,
        k,
        tau,
        &MilpBuildOptions::default(),
        group,
        None,
    )
    .unwrap();
    match form.solve_budgeted(config, None, None) {
        Ok(_) => Some(true),
        Err(TeCclError::InfeasibleWithEpochs(_)) => Some(false),
        Err(TeCclError::NoSolution) => None,
        Err(e) => panic!("{}: MILP at {k}: {e}", topo.name),
    }
}

/// A served schedule's completion epoch by the oracle's rules, or the
/// solver's error.
fn served_completion(
    oracle: &Oracle<'_>,
    topo: &Topology,
    demand: &DemandMatrix,
    method: RequestMethod,
    config: &SolverConfig,
) -> Result<usize, TeCclError> {
    let solver = TeCcl::new(topo.clone(), config.clone());
    let outcome = solver.solve(demand, CHUNK_BYTES, method, None)?;
    Ok(oracle.completion(topo, &outcome.schedule.sends))
}

/// One served method's record for a collective: instances answered, their
/// summed completions and K*, and the errors by kind.
#[derive(Default)]
struct Served {
    answered: usize,
    completion: usize,
    k_star: usize,
    errors: std::collections::BTreeMap<String, usize>,
}

impl Served {
    /// Records one answer, which must not beat K*; an error is counted
    /// unless `must_answer`.
    fn record(
        &mut self,
        name: &str,
        k_star: usize,
        got: Result<usize, TeCclError>,
        must_answer: bool,
    ) {
        match got {
            Ok(completion) => {
                assert!(
                    completion >= k_star,
                    "{name}: done at {completion} < K* {k_star}"
                );
                self.answered += 1;
                self.completion += completion;
                self.k_star += k_star;
            }
            Err(e) if !must_answer => {
                let kind = format!("{e:?}");
                let kind = kind.split([' ', '(', '{']).next().unwrap_or_default();
                *self.errors.entry(kind.to_string()).or_default() += 1;
            }
            Err(e) => panic!("{name}: {e}"),
        }
    }
}

impl std::fmt::Display for Served {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} answered, sum {} against K* {} ({:.3}x)",
            self.answered,
            self.completion,
            self.k_star,
            self.completion as f64 / self.k_star.max(1) as f64
        )?;
        for (kind, n) in &self.errors {
            write!(f, ", {n} {kind}")?;
        }
        Ok(())
    }
}

/// The collectives every instance is checked for.
const KINDS: [CollectiveKind; 5] = [
    CollectiveKind::AllGather,
    CollectiveKind::Broadcast,
    CollectiveKind::AllToAll,
    CollectiveKind::Scatter,
    CollectiveKind::Gather,
];

#[test]
fn every_strongly_connected_3_gpu_digraph_meets_the_oracle() {
    // Every MILP decides, and the first three collectives' served solves
    // answer every instance.
    sweep(1, 12, None, &KINDS[..3]);
}

#[test]
#[ignore = "release-only: two chunks"]
fn every_strongly_connected_3_gpu_digraph_meets_the_oracle_with_two_chunks() {
    // Some MILPs at K* search for minutes and gigabytes without an integral
    // point, so each solve is cut at one second.
    sweep(2, 24, Some(std::time::Duration::from_secs(1)), &[]);
}

/// Per collective: instances, summed K*, MILP decisions the time limit cut
/// off, and what A* and the served MILP made of the instances.
#[derive(Default)]
struct Tally {
    instances: usize,
    k_star: usize,
    undecided: usize,
    astar: Served,
    milp: Served,
}

/// Checks every instance of [`KINDS`] with `chunks` chunks, the oracle
/// searching up to `max_epochs`, and prints a [`Tally`] per collective.
/// With `milp_limit` every MILP solve stops there and a MILP left undecided
/// is counted; without it each must decide. Only the collectives in
/// `must_answer` fail on a served solve's error.
fn sweep(
    chunks: usize,
    max_epochs: usize,
    milp_limit: Option<std::time::Duration>,
    must_answer: &[CollectiveKind],
) {
    let config = match milp_limit {
        Some(limit) => SolverConfig::default().with_time_limit(limit),
        None => SolverConfig::default(),
    };
    let masks = strongly_connected_masks();
    assert_eq!(
        masks.len(),
        18,
        "strongly connected labelled digraphs on 3 nodes"
    );
    let mut totals: HashMap<&str, Tally> = HashMap::new();
    let started = std::time::Instant::now();
    let mut in_oracle = std::time::Duration::ZERO;
    for links in [Links::Uniform, Links::FastFromFirst, Links::SlowFromFirst] {
        for &mask in &masks {
            let topo = digraph(mask, links);
            let gpus: Vec<NodeId> = topo.gpus().collect();
            for kind in KINDS {
                let demand = DemandMatrix::for_collective(kind, topo.num_nodes(), &gpus, chunks);
                let tau = epoch_duration(&topo, CHUNK_BYTES, &SolverConfig::default());
                let oracle = Oracle::new(&topo, &demand, CHUNK_BYTES, tau);
                let name = format!("{} {kind:?} x{chunks}", topo.name);
                let searched = std::time::Instant::now();
                let (k_star, sends) = oracle.solve(max_epochs).unwrap_or_else(|| panic!("{name}"));
                in_oracle += searched.elapsed();
                assert!(k_star >= 1, "{name}");

                // The witness validates, capacity windows included, and
                // simulates to K*.
                let witness = oracle.schedule(&sends, CHUNK_BYTES, tau, k_star);
                let report = validate(&topo, &demand, &witness, true);
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
                let t = totals.entry(kind_name(kind)).or_default();
                for group in groups {
                    let order = group.order();
                    let at = milp_feasible(&topo, &demand, tau, k_star, group.clone(), &config);
                    assert_ne!(
                        at,
                        Some(false),
                        "{name}: MILP over |G| {order} infeasible at K* {k_star}"
                    );
                    let below = match k_star {
                        1 => Some(false),
                        _ => milp_feasible(&topo, &demand, tau, k_star - 1, group, &config),
                    };
                    assert_ne!(
                        below,
                        Some(true),
                        "{name}: MILP over |G| {order} feasible below K* {k_star}"
                    );
                    let cut = usize::from(at.is_none()) + usize::from(below.is_none());
                    assert!(milp_limit.is_some() || cut == 0, "{name}: MILP undecided");
                    t.undecided += cut;
                }

                // A* and the served MILP finish no earlier than K*.
                let must = must_answer.contains(&kind);
                t.instances += 1;
                t.k_star += k_star;
                let method = RequestMethod::AStar;
                let astar = served_completion(&oracle, &topo, &demand, method, &config);
                t.astar.record(&format!("{name} A*"), k_star, astar, must);
                let method = RequestMethod::Milp;
                let milp = served_completion(&oracle, &topo, &demand, method, &config);
                t.milp.record(&format!("{name} MILP"), k_star, milp, must);
            }
        }
    }
    println!(
        "{chunks} chunk(s): {:.2} s, {:.2} s of it in the oracle",
        started.elapsed().as_secs_f64(),
        in_oracle.as_secs_f64()
    );
    let mut rows: Vec<_> = totals.into_iter().collect();
    rows.sort_by_key(|row| row.0);
    for (kind, t) in rows {
        println!(
            "{kind}: {} instances, sum K* {}, {} MILPs undecided; A* {}; served MILP {}",
            t.instances, t.k_star, t.undecided, t.astar, t.milp
        );
    }
}

fn kind_name(kind: CollectiveKind) -> &'static str {
    match kind {
        CollectiveKind::AllGather => "all_gather",
        CollectiveKind::Broadcast => "broadcast",
        CollectiveKind::AllToAll => "all_to_all",
        CollectiveKind::Scatter => "scatter",
        CollectiveKind::Gather => "gather",
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
