//! Ground truth on small instances: an exhaustive schedule oracle.
//!
//! The oracle searches the epoch model of §3.1 exhaustively, one horizon at
//! a time from a lower bound up, and returns the fewest epochs `K*` in
//! which any schedule meets the demand, with one schedule that does. It
//! shares no code with the formulations: it reads each link's capacity, α
//! and β from the `Topology` and τ from `epochs::epoch_duration`, and
//! derives the model's rules itself:
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
//! The search to a horizon is depth first, one epoch per level, the
//! successors with the most sends first. A state is expanded link by link
//! into every set of sends the windows allow, each chunk sent at most once
//! into each node that neither holds it nor has it coming, and only
//! towards a node that lacks it and can still get it from there in time;
//! without copy a chunk at its destination stays. A state found unable to
//! finish is remembered up to the labels of interchangeable chunks (wanted
//! by the same nodes: where a chunk started no longer matters once the
//! state says where it is), so no state is searched twice. Every state
//! that cannot finish by the horizon is dropped, by a lower bound on its
//! finish that counts, for each chunk, its shortest path; for each set of
//! nodes, the sends out of it that the chunks only in it and wanted outside
//! need; and for each link, the sends of the chunks that cannot reach a
//! node wanting them in time on the other links. Each chunk crosses no
//! sooner than it can reach the set's edge or the link and soon enough to
//! go on to a node that wants it, and the crossings must fit the links'
//! windows. With copy a sender keeps what it sends; without copy
//! (ALLTOALL, SCATTER, GATHER: every chunk has one destination, so copy
//! gains nothing) the chunk leaves it.
//!
//! Two families are checked, for ALLGATHER and BROADCAST with copy and
//! ALLTOALL, SCATTER and GATHER without: every strongly connected digraph
//! on 3 GPUs, with one chunk, under three link settings (an ignored release
//! sweep checks the same with two chunks); and seeded random strongly
//! connected digraphs on 4 GPUs, with one chunk, each link's δ drawn from
//! {0, 1, 2} and its κ from {1, 2} (an ignored release sweep checks a
//! larger seeded set). For every instance:
//! * the proven horizon bound (`copy_horizon_bound` with copy,
//!   `horizon_lower_bound` without), over the trivial group and over the
//!   group `SymmetryGroup::find` returns, is at most `K*`, and without copy
//!   the LP over either group is feasible at `K*`;
//! * the MILP built at `K*` is feasible and the one at `K* − 1` is not, over
//!   the trivial group and over the instance's group where the product
//!   would use it (the two-chunk and 4-GPU sweeps cut each MILP short and
//!   count the ones left undecided);
//! * A\*'s schedule completes at `K*` or later, and so does the served MILP
//!   schedule. For ALLGATHER, BROADCAST and ALLTOALL on the 3-GPU family
//!   with one chunk both must answer; elsewhere an error (A\* stalling, or
//!   the 4-GPU sweeps' deadline on a served solve) is counted, not refused;
//! * the oracle's schedule validates, capacity windows included, and
//!   simulates to `K*`.

use std::cmp::Reverse;
use std::collections::{HashMap, HashSet};
use std::time::Duration;

use teccl_collective::{CollectiveKind, DemandMatrix};
use teccl_core::epochs::{
    copy_horizon_bound, delta_epochs, epoch_duration, horizon_lower_bound, kappa_epochs,
};
use teccl_core::lp_form::LpFormulation;
use teccl_core::milp_form::{MilpBuildOptions, MilpFormulation};
use teccl_core::symmetry::SymmetryGroup;
use teccl_core::{RequestMethod, SolverConfig, TeCcl, TeCclError};
use teccl_schedule::{simulate, validate, ChunkId, Schedule, Send};
use teccl_topology::{NodeId, Topology};
use teccl_util::{Rng64, SolveBudget};

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

/// The fewest epochs from a chunk being held at one node to its landing at
/// another over `wires` (`usize::MAX` when it cannot).
fn distances(n: usize, wires: &[Wire]) -> Vec<Vec<usize>> {
    let mut dist = vec![vec![usize::MAX; n]; n];
    for (i, row) in dist.iter_mut().enumerate() {
        row[i] = 0;
    }
    for w in wires {
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
    dist
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
    /// Per link, `dist` over the other links.
    without: Vec<Vec<Vec<usize>>>,
    /// Per set of nodes (a bit per node, every non-empty proper subset),
    /// the links out of it.
    cuts: Vec<(u32, Vec<Wire>)>,
    /// The chunks in use, `(source, chunk)`.
    chunks: Vec<(NodeId, usize)>,
    /// Per chunk, the nodes that want it (a bit per node).
    wanted: Vec<u32>,
    /// The chunks wanted by the same nodes, which are interchangeable in
    /// any state, in classes of two or more.
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
        let dist = distances(n, &wires);
        let without = (0..wires.len())
            .map(|l| {
                let mut others = wires.clone();
                others.remove(l);
                distances(n, &others)
            })
            .collect();
        let cuts = (1u32..(1 << n) - 1)
            .map(|set| {
                let out = wires
                    .iter()
                    .filter(|w| set >> w.from & 1 == 1 && set >> w.to & 1 == 0);
                (set, out.copied().collect())
            })
            .collect();
        let mut classes: Vec<Vec<usize>> = Vec::new();
        for i in 0..chunks.len() {
            match classes.iter().position(|c| wanted[c[0]] == wanted[i]) {
                Some(at) => classes[at].push(i),
                None => classes.push(vec![i]),
            }
        }
        classes.retain(|c| c.len() > 1);
        Oracle {
            wires,
            dist,
            without,
            cuts,
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

    /// Every state one epoch on from `state` (sends in epoch `k`) that a
    /// schedule meeting the demand by epoch `h` may pass through, each with
    /// the sends that lead there.
    fn expand(&self, state: &State, k: usize, h: usize, out: &mut Vec<(State, Vec<Choice>)>) {
        let mut chosen = Vec::new();
        self.expand_from(state, (k, h), 0, &mut chosen, out);
    }

    /// Chooses the sends of link `l` and those after it.
    fn expand_from(
        &self,
        state: &State,
        (k, h): (usize, usize),
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
        // The chunks this link may usefully carry now: from where they are,
        // to where they are not and will not be, towards a node that lacks
        // them and that they can reach from there by `h` (a send that helps
        // no such node can be left out of any schedule that meets the
        // demand by `h`). Without copy, a chunk at its destination stays.
        let candidates: Vec<usize> = (0..self.chunks.len())
            .filter(|&i| state.held[i] >> w.from & 1 == 1)
            .filter(|&i| self.copy || self.wanted[i] >> w.from & 1 == 0)
            .filter(|&i| !self.coming(state, i, w.to))
            .filter(|&i| {
                (0..self.dist.len()).any(|d| {
                    self.wanted[i] >> d & 1 == 1
                        && !self.coming(state, i, d)
                        && k + w.lands_after + self.dist[w.to][d] <= h
                })
            })
            .filter(|&i| {
                !chosen
                    .iter()
                    .any(|&(j, m, _)| j == i && self.wires[m].to == w.to)
            })
            // Without copy a chunk leaves on one link at most.
            .filter(|&i| self.copy || !chosen.iter().any(|&(j, _, _)| j == i))
            .collect();
        self.subsets(state, (k, h), l, &candidates, room, chosen, out);
    }

    /// Chooses at most `room` of `candidates` for link `l`, each set
    /// followed by the links after it.
    #[allow(clippy::too_many_arguments)]
    fn subsets(
        &self,
        state: &State,
        (k, h): (usize, usize),
        l: usize,
        candidates: &[usize],
        room: usize,
        chosen: &mut Vec<Choice>,
        out: &mut Vec<(State, Vec<Choice>)>,
    ) {
        self.expand_from(state, (k, h), l + 1, chosen, out);
        if room == 0 {
            return;
        }
        for (at, &i) in candidates.iter().enumerate() {
            chosen.push((i, l, k));
            self.subsets(
                state,
                (k, h),
                l,
                &candidates[at + 1..],
                room - 1,
                chosen,
                out,
            );
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

    /// A lower bound on the epoch at which `state`, at epoch `k`, can meet
    /// the demand, or some epoch past `cap` when that bound is. Every wanted
    /// chunk travels its shortest path from the nearest place it is or
    /// lands, with no link shared; every set of nodes sends out, once each,
    /// the wanted chunks only it has; and every link carries, once each, the
    /// chunks that cannot reach a node wanting them in time without it. A
    /// link starts at most `per_window` sends per `kappa` epochs.
    fn earliest_finish(&self, state: &State, k: usize, cap: usize) -> usize {
        let n = self.dist.len();
        let mut finish = k;
        for (i, &wanted) in self.wanted.iter().enumerate() {
            for d in (0..n).filter(|&d| wanted >> d & 1 == 1) {
                let soonest = self
                    .places(state, i, k)
                    .map(|(p, t)| t.saturating_add(self.dist[p][d]));
                finish = finish.max(soonest.min().unwrap_or(usize::MAX));
            }
            if finish > cap {
                return finish;
            }
        }
        if finish == usize::MAX {
            return finish;
        }
        // Each set of nodes sends out, once each, the chunks that are only
        // in it (held or landing there) and that a node outside it wants.
        // Chunk `i` can cross no sooner than `release` and must cross by
        // `h - tail` to reach a node outside that wants it by `h`.
        let mut crossings = Vec::with_capacity(self.chunks.len());
        for (set, wires) in &self.cuts {
            crossings.clear();
            for (i, &wanted) in self.wanted.iter().enumerate() {
                let at = self.places(state, i, k).fold(0, |at, (p, _)| at | 1 << p);
                if at & !set != 0 || wanted & !set == 0 {
                    continue;
                }
                let release = self
                    .places(state, i, k)
                    .flat_map(|(p, t)| {
                        wires
                            .iter()
                            .map(move |w| t.saturating_add(self.dist[p][w.from]))
                    })
                    .min()
                    .unwrap_or(usize::MAX);
                let tail = (0..n)
                    .filter(|&d| wanted >> d & 1 == 1 && set >> d & 1 == 0)
                    .flat_map(|d| wires.iter().map(move |w| (d, w)))
                    .map(|(d, w)| w.lands_after.saturating_add(self.dist[w.to][d]))
                    .min()
                    .unwrap_or(usize::MAX);
                if release == usize::MAX || tail == usize::MAX {
                    return usize::MAX;
                }
                crossings.push((release, tail));
            }
            while !fits(wires, &mut crossings, finish) {
                finish += 1;
                if finish > cap {
                    return finish;
                }
            }
        }
        // Link `l` carries chunk `i` when some node lacking it cannot get it
        // by `finish` on routes that avoid `l`; it must then cross `l` in
        // time for the farthest such node. Fewer chunks need `l` as
        // `finish` grows, so the set is drawn again at each.
        for (l, w) in self.wires.iter().enumerate() {
            loop {
                crossings.clear();
                for (i, &wanted) in self.wanted.iter().enumerate() {
                    let tail = (0..n)
                        .filter(|&d| wanted >> d & 1 == 1 && !self.coming(state, i, d))
                        .filter(|&d| {
                            self.places(state, i, k)
                                .all(|(p, t)| t.saturating_add(self.without[l][p][d]) > finish)
                        })
                        .map(|d| w.lands_after.saturating_add(self.dist[w.to][d]))
                        .max();
                    if let Some(tail) = tail {
                        let release = self
                            .places(state, i, k)
                            .map(|(p, t)| t.saturating_add(self.dist[p][w.from]))
                            .min()
                            .unwrap_or(usize::MAX);
                        crossings.push((release, tail));
                    }
                }
                if fits(std::slice::from_ref(w), &mut crossings, finish) {
                    break;
                }
                finish += 1;
                if finish > cap {
                    return finish;
                }
            }
        }
        finish
    }

    /// Where chunk `i` is in `state` at epoch `k`, with the epoch it is
    /// held there from: each node holding it (from `k`) and each node it is
    /// landing at.
    fn places<'s>(
        &self,
        state: &'s State,
        i: usize,
        k: usize,
    ) -> impl Iterator<Item = (usize, usize)> + Clone + 's {
        let held = state.held[i];
        (0..self.dist.len())
            .filter(move |&p| held >> p & 1 == 1)
            .map(move |p| (p, k))
            .chain(
                state
                    .flight
                    .iter()
                    .filter(move |f| f.0 == i)
                    .map(|f| (f.1, f.2)),
            )
    }

    /// `K*` and a schedule that meets the demand in `K*` epochs, or `None`
    /// when no schedule does within `max_epochs`. Deepens the horizon one
    /// epoch at a time from the distance bound; a search to horizon `h`
    /// drops every state that cannot finish by `h` ([`Oracle::earliest_finish`]).
    fn solve(&self, max_epochs: usize) -> Option<(usize, Vec<Choice>)> {
        let start = self.earliest_finish(&self.start(), 0, usize::MAX);
        (start..=max_epochs).find_map(|h| self.search(h).map(|sends| (h, sends)))
    }

    /// A schedule that meets the demand by epoch `h`, the search's
    /// horizon, or `None`. [`Oracle::solve`] tries each horizon from a
    /// lower bound up, so the first that has one is `K*`.
    fn search(&self, h: usize) -> Option<Vec<Choice>> {
        let mut dead = HashSet::new();
        let mut sends = Vec::new();
        self.reach(&self.start(), 0, h, &mut dead, &mut sends)
            .then(|| {
                sends.sort_unstable_by_key(|&(i, l, e)| (e, l, i));
                sends
            })
    }

    /// Whether `state`, at epoch `k`, can meet the demand by `h`, depth
    /// first; when it can, the sends that do are appended to `sends`.
    /// `dead` holds the states, up to relabelling interchangeable chunks,
    /// found unable to, with their epochs, so that no state is searched
    /// twice.
    fn reach(
        &self,
        state: &State,
        k: usize,
        h: usize,
        dead: &mut HashSet<(usize, State)>,
        sends: &mut Vec<Choice>,
    ) -> bool {
        if self.done(state) {
            return true;
        }
        if k == h {
            return false;
        }
        let mut succ = Vec::new();
        self.expand(state, k, h, &mut succ);
        // The most sends first; the bound is checked as each is reached.
        succ.sort_by_key(|(_, step)| Reverse(step.len()));
        for (next, step) in succ {
            let key = (k + 1, self.canonical(next.clone()).0);
            if dead.contains(&key) || self.earliest_finish(&next, k + 1, h) > h {
                continue;
            }
            let len = sends.len();
            sends.extend_from_slice(&step);
            if self.reach(&next, k + 1, h, dead, sends) {
                return true;
            }
            sends.truncate(len);
            dead.insert(key);
        }
        false
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

/// Whether chunks that must each be sent once over `wires` can be, all
/// landing in time for epoch `h`: chunk `(release, tail)` is sent no sooner
/// than `release` and no later than `h - tail`. Every interval of epochs
/// from a release to a deadline must have room for the chunks it has to
/// hold; the room ignores sends already made.
fn fits(wires: &[Wire], crossings: &mut [(usize, usize)], h: usize) -> bool {
    // Sends over `wires` in epochs `a..=b` that land by `h`.
    let room = |a: usize, b: usize| -> usize {
        wires
            .iter()
            .map(|w| {
                let last = b.min(h.saturating_sub(w.lands_after));
                let epochs = (last + 1).saturating_sub(a);
                epochs.div_ceil(w.kappa) * w.per_window
            })
            .sum()
    };
    // By release: the chunks released from `crossings[j].0` on are
    // `crossings[j..]`.
    crossings.sort_unstable();
    let mut tails = Vec::with_capacity(crossings.len());
    for (j, &(a, _)) in crossings.iter().enumerate() {
        if j > 0 && crossings[j - 1].0 == a {
            continue;
        }
        tails.clear();
        tails.extend(crossings[j..].iter().map(|&(_, tail)| tail));
        tails.sort_unstable_by_key(|&tail| Reverse(tail));
        // The `m + 1` chunks due soonest must fit by the last's deadline.
        for (m, &tail) in tails.iter().enumerate() {
            if a.saturating_add(tail) > h || m + 1 > room(a, h - tail) {
                return false;
            }
        }
    }
    true
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
            let chosen: Vec<_> = (0..arcs.len()).filter(|a| mask >> a & 1 == 1).collect();
            strongly_connected(3, &chosen.iter().map(|&a| arcs[a]).collect::<Vec<_>>())
        })
        .collect()
}

/// Whether every node of `0..n` reaches every other over `arcs`.
fn strongly_connected(n: usize, arcs: &[(usize, usize)]) -> bool {
    let reach = |from: usize| {
        let mut seen = 1u32 << from;
        for _ in 0..n {
            for &(u, v) in arcs {
                if seen >> u & 1 == 1 {
                    seen |= 1 << v;
                }
            }
        }
        seen
    };
    (0..n).all(|from| reach(from) == (1 << n) - 1)
}

fn arcs() -> [(usize, usize); 6] {
    [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]
}

/// The 3-GPU family: every strongly connected digraph under each link
/// setting.
fn three_gpu_family() -> Vec<Topology> {
    let masks = strongly_connected_masks();
    assert_eq!(
        masks.len(),
        18,
        "strongly connected labelled digraphs on 3 nodes"
    );
    [Links::Uniform, Links::FastFromFirst, Links::SlowFromFirst]
        .into_iter()
        .flat_map(|links| masks.iter().map(move |&mask| digraph(mask, links)))
        .collect()
}

/// `count` random strongly connected digraphs on 4 GPUs drawn from `seed`.
/// Each of the 12 arcs is present with probability ½, and a draw that is
/// not strongly connected is drawn again. Each link takes κ ∈ {1, 2} epochs
/// a chunk (capacity `CAPACITY / κ`; τ is the fastest link's chunk time, as
/// the default epoch is) and δ ∈ {0, 1, 2} epochs of α (α = δ τ exactly).
fn random_4_gpu_digraphs(seed: u64, count: usize) -> Vec<Topology> {
    let all: Vec<(usize, usize)> = (0..4)
        .flat_map(|u| (0..4).filter(move |&v| v != u).map(move |v| (u, v)))
        .collect();
    let mut rng = Rng64::seed_from_u64(seed);
    let mut out = Vec::new();
    while out.len() < count {
        let arcs: Vec<_> = all.iter().copied().filter(|_| rng.gen_bool(0.5)).collect();
        if !strongly_connected(4, &arcs) {
            continue;
        }
        let kappas: Vec<usize> = arcs.iter().map(|_| 1 + rng.gen_range_usize(2)).collect();
        let fastest = CAPACITY / *kappas.iter().min().unwrap() as f64;
        let tau = CHUNK_BYTES / fastest;
        let mut t = Topology::new(format!("g4-{seed}-{}", out.len()));
        let gpus: Vec<NodeId> = (0..4).map(|i| t.add_gpu(format!("gpu{i}"), 0)).collect();
        for (&(u, v), &kappa) in arcs.iter().zip(&kappas) {
            let delta = rng.gen_range_usize(3);
            t.add_link(
                gpus[u],
                gpus[v],
                CAPACITY / kappa as f64,
                delta as f64 * tau,
            );
        }
        // The draw is what it says, by the solver's own rules.
        let tau = epoch_duration(&t, CHUNK_BYTES, &SolverConfig::default());
        for l in &t.links {
            assert!(delta_epochs(l, tau) <= 2, "{}", t.name);
            assert!(
                (1..=2).contains(&kappa_epochs(l, CHUNK_BYTES, tau)),
                "{}",
                t.name
            );
        }
        out.push(t);
    }
    out
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
/// solver's error. A `deadline` stops the whole solve there, as a
/// request's deadline does.
fn served_completion(
    oracle: &Oracle<'_>,
    topo: &Topology,
    demand: &DemandMatrix,
    method: RequestMethod,
    config: &SolverConfig,
    deadline: Option<std::time::Duration>,
) -> Result<usize, TeCclError> {
    let mut solver = TeCcl::new(topo.clone(), config.clone());
    if let Some(deadline) = deadline {
        solver = solver.with_budget(SolveBudget::with_deadline(deadline));
    }
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
    sweep(&three_gpu_family(), 1, 12, Limits::default(), &KINDS[..3]);
}

#[test]
#[ignore = "release-only: two chunks"]
fn every_strongly_connected_3_gpu_digraph_meets_the_oracle_with_two_chunks() {
    // Some MILPs at K* search for minutes and gigabytes without an integral
    // point, so each solve is cut at one second.
    let limits = Limits {
        milp: Some(Duration::from_secs(1)),
        served: None,
    };
    sweep(&three_gpu_family(), 2, 24, limits, &[]);
}

/// The seed of the 4-GPU family. The tier-1 test checks the first
/// `N_4_GPU` digraphs it draws, the release sweep the first
/// `N_4_GPU_RELEASE`.
const SEED_4_GPU: u64 = 4;
const N_4_GPU: usize = 4;
const N_4_GPU_RELEASE: usize = 40;

#[test]
fn seeded_strongly_connected_4_gpu_digraphs_meet_the_oracle() {
    // A 4-GPU ALLTOALL MILP near K* may search for seconds, and the served
    // MILP climbs its horizons one MILP after another, so every MILP and
    // every served solve is cut short; a cut MILP is counted.
    let limits = Limits {
        milp: Some(Duration::from_millis(500)),
        served: Some(Duration::from_millis(500)),
    };
    sweep(
        &random_4_gpu_digraphs(SEED_4_GPU, N_4_GPU),
        1,
        30,
        limits,
        &[],
    );
}

#[test]
#[ignore = "release-only: a larger seeded set"]
fn more_seeded_strongly_connected_4_gpu_digraphs_meet_the_oracle() {
    let limits = Limits {
        milp: Some(Duration::from_secs(2)),
        served: Some(Duration::from_secs(2)),
    };
    let family = random_4_gpu_digraphs(SEED_4_GPU, N_4_GPU_RELEASE);
    sweep(&family, 1, 30, limits, &[]);
}

/// How a sweep bounds the solves it checks: each MILP decision stops at
/// `milp` and one left undecided is counted (without it each must decide),
/// and each served solve stops at `served`, as under a request deadline.
#[derive(Clone, Copy, Default)]
struct Limits {
    milp: Option<Duration>,
    served: Option<Duration>,
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

/// Checks every instance for each of [`KINDS`] with `chunks` chunks, the
/// oracle searching up to `max_epochs`, under `limits`, and prints a
/// [`Tally`] per collective. Only the collectives in `must_answer` fail on
/// a served solve's error.
fn sweep(
    instances: &[Topology],
    chunks: usize,
    max_epochs: usize,
    limits: Limits,
    must_answer: &[CollectiveKind],
) {
    let config = match limits.milp {
        Some(limit) => SolverConfig::default().with_time_limit(limit),
        None => SolverConfig::default(),
    };
    let mut totals: HashMap<&str, Tally> = HashMap::new();
    let started = std::time::Instant::now();
    let mut in_oracle = Duration::ZERO;
    for topo in instances {
        let gpus: Vec<NodeId> = topo.gpus().collect();
        for kind in KINDS {
            let demand = DemandMatrix::for_collective(kind, topo.num_nodes(), &gpus, chunks);
            let tau = epoch_duration(topo, CHUNK_BYTES, &SolverConfig::default());
            let oracle = Oracle::new(topo, &demand, CHUNK_BYTES, tau);
            let name = format!("{} {kind:?} x{chunks}", topo.name);
            let searched = std::time::Instant::now();
            let (k_star, sends) = oracle.solve(max_epochs).unwrap_or_else(|| panic!("{name}"));
            in_oracle += searched.elapsed();
            assert!(k_star >= 1, "{name}");

            // The witness validates, capacity windows included, and
            // simulates to K*.
            let witness = oracle.schedule(&sends, CHUNK_BYTES, tau, k_star);
            let report = validate(topo, &demand, &witness, true);
            assert!(report.is_valid(), "{name}: {:?}", report.errors);
            let sim = simulate(topo, &demand, &witness).unwrap();
            let epochs = sim.transfer_time / tau;
            assert!(
                epochs > (k_star - 1) as f64 + 1e-9 && epochs <= k_star as f64 + 1e-9,
                "{name}: simulated {epochs} epochs, K* {k_star}"
            );
            assert_eq!(oracle.completion(topo, &witness.sends), k_star, "{name}");

            // The proven bounds.
            let found = SymmetryGroup::find(topo, &demand, CHUNK_BYTES, tau, None).unwrap();
            for group in [SymmetryGroup::trivial(topo), found.clone()] {
                let bound = if oracle.copy {
                    copy_horizon_bound(topo, &demand, CHUNK_BYTES, tau, &group, None)
                } else {
                    horizon_lower_bound(topo, &demand, CHUNK_BYTES, tau, &group, None)
                }
                .unwrap();
                assert!(bound <= k_star, "{name}: bound {bound} > K* {k_star}");
                // Without copy, the LP (continuous flows, κ = 1) is a
                // relaxation of the epoch model: feasible at K*.
                if !oracle.copy {
                    let order = group.order();
                    let lp = LpFormulation::build_over(
                        topo,
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
            let mut groups = vec![SymmetryGroup::trivial(topo)];
            if !found.is_trivial()
                && found.keeps_chunks(&demand)
                && !found.fixes_a_link_or_gpu(topo)
            {
                groups.push(found);
            }
            let t = totals.entry(kind_name(kind)).or_default();
            for group in groups {
                let order = group.order();
                let at = milp_feasible(topo, &demand, tau, k_star, group.clone(), &config);
                assert_ne!(
                    at,
                    Some(false),
                    "{name}: MILP over |G| {order} infeasible at K* {k_star}"
                );
                let below = match k_star {
                    1 => Some(false),
                    _ => milp_feasible(topo, &demand, tau, k_star - 1, group, &config),
                };
                assert_ne!(
                    below,
                    Some(true),
                    "{name}: MILP over |G| {order} feasible below K* {k_star}"
                );
                let cut = usize::from(at.is_none()) + usize::from(below.is_none());
                assert!(limits.milp.is_some() || cut == 0, "{name}: MILP undecided");
                t.undecided += cut;
            }

            // A* and the served MILP finish no earlier than K*.
            let must = must_answer.contains(&kind);
            t.instances += 1;
            t.k_star += k_star;
            for (method, served) in [
                (RequestMethod::AStar, &mut t.astar),
                (RequestMethod::Milp, &mut t.milp),
            ] {
                let got = served_completion(&oracle, topo, &demand, method, &config, limits.served);
                served.record(&format!("{name} {method:?}"), k_star, got, must);
            }
        }
    }
    println!(
        "{} instances, {chunks} chunk(s): {:.2} s, {:.2} s of it in the oracle",
        instances.len(),
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
