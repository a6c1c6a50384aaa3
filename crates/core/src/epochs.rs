//! Epoch-duration selection and the epoch horizon `K` (§5, Appendix E).
//!
//! # Horizons start at a proven lower bound
//!
//! The LP of §4.1 ([`crate::lp_form`]) and the MILP of §3.1
//! ([`crate::milp_form`]) grow with the horizon `K`, and the paper leaves `K`
//! to an estimate (Appendix E sweeps coarse epoch grids). Both formulations
//! find the earliest completion by themselves, so `K` changes what a solve
//! costs, not its answer. This module computes a *proven* lower bound
//! instead — [`horizon_lower_bound`] for copy-free demands,
//! [`copy_horizon_bound`] for the MILP with copy — and every solve starts
//! at or just above it; the coarse sweep of Algorithm 1 and the analytic
//! over-estimate are gone.
//!
//! # The copy-free LP is bounded below by a static flow
//!
//! **Validity.** Take any feasible point of the time-expanded LP with `K`
//! epochs; `F[s,l,k]` is what source `s` puts on link `l` in epoch `k`.
//!
//! 1. *Mass balance ⇒ no junk flow.* Source `s` injects exactly the sum of its
//!    destinations' demands at epoch 0, and the destination rows force exactly
//!    that much to be read in epochs `0..K`. So nothing is left in a buffer at
//!    `K`, and nothing is in flight past it: every unit on every link is part
//!    of a path from `s` that some destination reads inside the horizon.
//! 2. *Per-link windows.* A unit sent on `l` in epoch `k` is at `l.dst` at
//!    `k + δ_l` and can leave it at `k + δ_l + 1` — a hop costs `δ + 1`, and a
//!    path of cost `D` is read no earlier than epoch `D − 1`. With `reach_l`
//!    the cheapest path from any source to `l.src` and `drain_l` the cheapest
//!    from `l.dst` to any destination, step 1 confines the flow on `l` to
//!    epochs `reach_l ..= K − 1 − δ_l − drain_l`: `K − w_l` usable epochs
//!    with dead time `w_l = reach_l + δ_l + drain_l`.
//! 3. *Static flow.* Sum over time: `f[s,l] = Σ_k F[s,l,k]`. Conservation per
//!    epoch sums to conservation per node (supply at `s`, the demands at its
//!    destinations), and the per-epoch capacity rows sum over the window to
//!    `Σ_s f[s,l] ≤ cap_l · (K − w_l)`. So `T = K` is feasible for
//!    *minimise `T` s.t. conservation, `Σ_s f[s,l] ≤ cap_l · (T − w_l)`*,
//!    hence `K ≥ ⌈T*⌉`. The worst demanded pair's path cost is a second floor,
//!    `K ≥ L`; `w_l` is capped at `L` in the rows, which keeps them valid for
//!    links too far out of the way to be used at all (`K − w_l < 0`).
//!
//! Buffer limits only remove feasible points, so the bound holds under every
//! [`crate::config::BufferMode`]. It does **not** hold for a demand that
//! benefits from copy in the MILP: one transmission then serves several
//! destinations, and the static flow counts it once per destination.
//!
//! **Tightness** (7 builtin topologies × {ALLTOALL, SCATTER, GATHER} ×
//! {1, 2} chunks × {64 KB, 1, 4, 16, 64 MB}, 210 shapes; the LP is ≤ 2.3 ms on
//! 8 GPUs; "smallest feasible `K` − bound"):
//!
//! | collective | shapes | +0 | +1 | +2 | +4 |
//! |---|---|---|---|---|---|
//! | ALLTOALL | 70 | 69 | 1 | | |
//! | SCATTER | 70 | 60 | 10 | | |
//! | GATHER | 70 | 53 | 14 | 2 | 1 |
//!
//! `K − 1` was refuted on all 210. The first horizon tried (bound + 1) is
//! feasible on 207 and is within one epoch of the completion epoch + 1 on
//! all of those; the three misses are GATHERs at 64 KB, where α is several
//! epochs and arrivals at the root stagger — the LP solve of
//! [`crate::TeCcl::solve`] then grows the horizon by 2, 4, 8, … epochs
//! rather than doubling it.
//!
//! # With copy, one destination at a time
//!
//! One destination gains nothing from copy, so [`copy_horizon_bound`] is the
//! largest [`horizon_lower_bound`] of the demand restricted to a single
//! destination. **Validity.** Take any feasible point of the MILP with `K`
//! epochs and a destination `d`.
//!
//! 1. *Trace back.* Each chunk `(s, c)` that `d` reads was sent into `d`
//!    on some link in some epoch. The sender's flow row (its conservation
//!    row, at a non-copy switch) covers that send by an earlier arrival of
//!    the same chunk, unless the sender is `s`, which holds it from epoch 0.
//!    Following arrivals backwards gives a walk from `s` to `d` made of
//!    sends of the solution, one walk per chunk `d` reads. Distinct chunks
//!    are distinct commodities, so no send lies on two walks.
//! 2. *Windows.* A MILP hop costs `δ + κ ≥ δ + 1` epochs: a send in epoch `k`
//!    joins `l.dst`'s buffer at `k + δ + κ` and can be forwarded from there.
//!    A chunk in the buffer at `r + 1` can be read in epoch `r`, and every read
//!    happens by `K − 1`. So a walk's send on `l` lies in the LP's window
//!    `reach_l ..= K − 1 − δ_l − drain_l`, shortened by `κ_l − 1` at its end.
//! 3. *Capacity.* Appendix F's window rows allow `κ · cap` chunks in any `κ`
//!    consecutive epochs. `W − κ + 1` usable epochs fit in
//!    `⌈(W − κ + 1)/κ⌉` windows, which carry at most `W · cap` chunks — the
//!    static row's capacity over a window of `W` epochs.
//!
//! So the walks sum to a feasible static flow for the copy-free demand
//! restricted to `d`, and `K ≥` its [`horizon_lower_bound`]. On a copy-free
//! demand no chunk has two destinations, so the walks of *all* destinations
//! share no send, and the same argument makes [`horizon_lower_bound`] of the
//! whole demand a MILP bound too. Buffer limits, hyper-edge port rows
//! (Appendix C) and non-copy switches only remove feasible points. The
//! A* rounds size their own horizons (`epochs_per_round`) and use neither.
//!
//! **Tightness** (`dgx1`, `ndv2`, `internal1`, `internal2` x2, `internal1`
//! x2 × {ALLGATHER, BROADCAST} × {1, 2} chunks × {64 KB, 16 MB}, 40 shapes;
//! the bound LPs take ≤ 18 ms on 8 GPUs; "smallest feasible `K` − bound",
//! release build, a 10 s B&B limit per horizon):
//!
//! | collective | shapes | +0 | +1 | +2 | +3 | no incumbent |
//! |---|---|---|---|---|---|---|
//! | ALLGATHER | 20 | 8 | 2 | 4 | 1 | 5 |
//! | BROADCAST | 20 | 10 | 6 | 2 | 2 | |
//!
//! `K = bound − 1` was refuted on all 40, in ≤ 25 ms on 39 of them. The
//! five "no incumbent" shapes are 2-chunk ALLGATHERs on `ndv2`, `internal2`
//! x2 and `internal1` x2: every horizon tried was either refuted (up to
//! bound + 3 on `internal1` x2 at 64 KB) or ended its time limit without an
//! incumbent. The copy bound is the MILP's first horizon (no slack): it is
//! feasible on 18 of the 40, and the MILP solve of [`crate::TeCcl::solve`]
//! climbs the same +2, +4, … ladder as the LP from there.

use teccl_collective::DemandMatrix;
use teccl_lp::{ConstraintOp, Model, Sense, SolveStatus, VarId};
use teccl_topology::{floyd_warshall, Link, NodeId, PathMatrix, Topology};
use teccl_util::SolveBudget;

use crate::config::{EpochStrategy, SolverConfig};
use crate::error::TeCclError;

/// Computes the epoch duration τ for a topology, chunk size and strategy,
/// including the epoch multiplier (EM).
///
/// * [`EpochStrategy::SlowestLink`]: τ = chunk / slowest-link capacity — every
///   link fits at least one chunk per epoch (§5 option a).
/// * [`EpochStrategy::FastestLink`]: τ = chunk / fastest-link capacity — finer
///   schedules; slower links need the Appendix-F windowed capacity constraint
///   (§5 option b).
///
/// Following §6 ("In the cases where α > 200·τ we increase the epoch duration
/// by 5× to avoid large models"), the duration is stretched when the largest α
/// dwarfs it.
pub fn epoch_duration(topo: &Topology, chunk_bytes: f64, config: &SolverConfig) -> f64 {
    let cap = match config.epoch_strategy {
        EpochStrategy::SlowestLink => topo.slowest_link_capacity(),
        EpochStrategy::FastestLink => topo.fastest_link_capacity(),
    };
    let mut tau = chunk_bytes / cap * config.epoch_multiplier;
    let max_alpha = topo.max_alpha();
    if max_alpha > 200.0 * tau {
        tau *= 5.0;
    }
    tau
}

/// Number of epochs of α-delay on a link: ⌈α / τ⌉ (the δ of Table 1).
pub fn delta_epochs(link: &Link, tau: f64) -> usize {
    if link.alpha <= 0.0 {
        0
    } else {
        (link.alpha / tau).ceil() as usize
    }
}

/// Number of epochs needed to transmit one chunk over a link: ⌈(S/C) / τ⌉
/// (the κ of Appendix F; 1 when the epoch was sized by this or a slower link).
pub fn kappa_epochs(link: &Link, chunk_bytes: f64, tau: f64) -> usize {
    ((chunk_bytes / link.capacity) / tau).ceil().max(1.0) as usize
}

/// Fractional link capacity in chunks per epoch: T·τ expressed in chunks.
pub fn capacity_chunks_per_epoch(link: &Link, chunk_bytes: f64, tau: f64) -> f64 {
    link.capacity * tau / chunk_bytes
}

/// The time-expanded grid of the MILP (§3.1, Appendix F) and its A\*
/// rounds (§4.2): each link's effective delay δ + κ − 1 in epochs — a chunk
/// sent on a link in epoch `k` joins the far end's buffer at
/// `k + delay + 1` — and the all-pairs distances over those hop costs.
/// Reachability pins, the A\* distance reward, in-flight arrivals and send
/// pruning all read the delays and distances from here.
///
/// The copy-free LP ([`crate::lp_form`]) has no κ window and prices a hop
/// at δ + 1 with [`delta_epochs`], so it does not use this grid.
#[derive(Debug, Clone)]
pub struct EpochGrid {
    delays: Vec<usize>,
    paths: PathMatrix,
}

impl EpochGrid {
    /// The grid of `topo` for chunks of `chunk_bytes` and epochs of `tau`.
    pub fn new(topo: &Topology, chunk_bytes: f64, tau: f64) -> Self {
        let delays: Vec<usize> = topo
            .links
            .iter()
            .map(|l| delta_epochs(l, tau) + kappa_epochs(l, chunk_bytes, tau) - 1)
            .collect();
        let paths = floyd_warshall(topo, |l| (delays[l.id.0] + 1) as f64);
        Self { delays, paths }
    }

    /// The effective delay of `link` in epochs.
    pub fn delay(&self, link: &Link) -> usize {
        self.delays[link.id.0]
    }

    /// The effective delay of the link `from -> to` of `topo` (the topology
    /// the grid was built for); 0 when there is no such link.
    pub fn delay_between(&self, topo: &Topology, from: NodeId, to: NodeId) -> usize {
        topo.link_between(from, to).map_or(0, |l| self.delay(l))
    }

    /// The fewest epochs a chunk needs from `from` to `to`, counting one
    /// epoch to issue each send (`f64::INFINITY` when unreachable).
    pub fn distance(&self, from: NodeId, to: NodeId) -> f64 {
        self.paths.distance(from, to)
    }

    /// The largest effective delay of any link (0 without links).
    pub fn max_delay(&self) -> usize {
        self.delays.iter().copied().max().unwrap_or(0)
    }
}

/// Epochs added to [`horizon_lower_bound`] for the first horizon tried on a
/// copy-free demand: the bound counts volume, the time-expanded LP also has
/// to stagger it over whole epochs, which costs at most this on 207 of the
/// 210 shapes measured (module docs).
pub(crate) const HORIZON_SLACK: usize = 1;

/// A proven lower bound on the epoch horizon `K` of the copy-free LP
/// ([`crate::lp_form::LpFormulation`]): the formulation is infeasible at
/// every `K` below the returned value (validity argument in the module docs).
///
/// Solves the static max-concurrent-flow LP — one aggregate flow per
/// (source, link) on the plain topology plus the horizon `T` — under `budget`.
/// A budget stop, or a budget already spent on entry, is
/// [`TeCclError::Budget`]: a stopped `T` is not a bound.
pub fn horizon_lower_bound(
    topo: &Topology,
    demand: &DemandMatrix,
    chunk_bytes: f64,
    tau: f64,
    budget: Option<&SolveBudget>,
) -> Result<usize, TeCclError> {
    if let Some(cause) = budget.and_then(SolveBudget::exceeded) {
        return Err(TeCclError::Budget(cause));
    }
    // Hop cost of the LP formulation: sent at epoch k on l, forwardable from
    // l.dst at epoch k + δ + 1.
    let pm = floyd_warshall(topo, |l| (delta_epochs(l, tau) + 1) as f64);
    let sources: Vec<NodeId> = topo
        .gpus()
        .filter(|&s| demand.demand_of_source(s) > 0)
        .collect();
    let nodes = || (0..topo.num_nodes()).map(NodeId);
    // wanted[i][d]: chunks destination d reads from sources[i].
    let mut wanted = vec![vec![0usize; topo.num_nodes()]; sources.len()];
    // reach[v]: cheapest path from any source to v; drain[v]: from v to any
    // destination.
    let mut reach = vec![f64::INFINITY; topo.num_nodes()];
    let mut drain = vec![f64::INFINITY; topo.num_nodes()];
    // Latency floor: a path of cost D is read at epoch D - 1 at the earliest.
    // Unreachable pairs are left to the formulation, which rejects them at
    // every horizon.
    let mut latency: f64 = 1.0;
    for (i, &s) in sources.iter().enumerate() {
        for v in nodes() {
            reach[v.0] = reach[v.0].min(pm.distance(s, v));
        }
        for d in topo.gpus() {
            wanted[i][d.0] = (0..demand.num_chunks)
                .filter(|&c| demand.wants(s, c, d))
                .count();
            if wanted[i][d.0] == 0 {
                continue;
            }
            for v in nodes() {
                drain[v.0] = drain[v.0].min(pm.distance(v, d));
            }
            if pm.distance(s, d).is_finite() {
                latency = latency.max(pm.distance(s, d));
            }
        }
    }

    let mut model = Model::new(Sense::Minimize);
    let t = model.add_var("T", latency, f64::INFINITY, 1.0, false);
    let mut flow = vec![Vec::with_capacity(topo.links.len()); sources.len()];
    for link in &topo.links {
        // Dead time of the link: nothing is on it before reach[src], and
        // nothing sent on it later than δ (to cross) + drain[dst] before the
        // end is read in time.
        let dead = reach[link.src.0] + delta_epochs(link, tau) as f64 + drain[link.dst.0];
        // A link no source reaches or no destination drains carries nothing.
        let ub = if dead.is_finite() { f64::INFINITY } else { 0.0 };
        let mut terms = vec![];
        for (i, s) in sources.iter().enumerate() {
            let f = model.add_var(
                format!("f[{s},{}->{}]", link.src, link.dst),
                0.0,
                ub,
                0.0,
                false,
            );
            flow[i].push(f);
            terms.push((f, 1.0));
        }
        if dead.is_finite() {
            // Σ_s f[s,l] ≤ cap·(T − w) with w = min(dead, latency): K ≥ latency
            // always, so the usable window max(0, K − dead) never exceeds
            // K − w, and the row never asks for T ≥ dead on its own.
            let cap = capacity_chunks_per_epoch(link, chunk_bytes, tau);
            terms.push((t, -cap));
            model.add_cons(
                format!("cap[{}->{}]", link.src, link.dst),
                &terms,
                ConstraintOp::Le,
                -cap * dead.min(latency),
            );
        }
    }
    for (i, &s) in sources.iter().enumerate() {
        for n in nodes() {
            let mut terms: Vec<(VarId, f64)> =
                topo.out_links(n).map(|l| (flow[i][l.id.0], 1.0)).collect();
            terms.extend(topo.in_links(n).map(|l| (flow[i][l.id.0], -1.0)));
            let injected = if n == s {
                demand.demand_of_source(s)
            } else {
                0
            };
            model.add_cons(
                format!("cons[{s},{n}]"),
                &terms,
                ConstraintOp::Eq,
                injected as f64 - wanted[i][n.0] as f64,
            );
        }
    }

    let sol = model.solve_lp_relaxation_budgeted(None, budget)?;
    if let Some(cause) = sol.stats.budget_stop {
        return Err(TeCclError::Budget(cause));
    }
    let volume = match sol.status {
        SolveStatus::Optimal => (sol.values[t.index()] - 1e-6).ceil(),
        // Infeasible: some demand is unreachable; the formulation says so.
        _ => 0.0,
    };
    Ok(volume.max(latency) as usize)
}

/// A proven lower bound on the epoch horizon `K` of the MILP
/// ([`crate::milp_form::MilpFormulation`]) that holds with copy: the largest
/// [`horizon_lower_bound`] of the demand restricted to one destination
/// (validity argument in the module docs). Solves one small LP per
/// destination under `budget`; a budget stop is [`TeCclError::Budget`].
pub fn copy_horizon_bound(
    topo: &Topology,
    demand: &DemandMatrix,
    chunk_bytes: f64,
    tau: f64,
    budget: Option<&SolveBudget>,
) -> Result<usize, TeCclError> {
    let mut bound = 1;
    for d in topo.gpus() {
        let mut only_d = DemandMatrix::new(demand.num_nodes, demand.num_chunks);
        for (s, c, _) in demand.iter().filter(|&(_, _, to)| to == d) {
            only_d.set(s, c, d);
        }
        if !only_d.is_empty() {
            bound = bound.max(horizon_lower_bound(
                topo,
                &only_d,
                chunk_bytes,
                tau,
                budget,
            )?);
        }
    }
    Ok(bound)
}

/// The MILP's proven horizon bound and the first horizon it tries, computed
/// under `budget`:
///
/// * copy-free demands: [`horizon_lower_bound`], first tried
///   [`HORIZON_SLACK`] above it;
/// * copy demands: [`copy_horizon_bound`], first tried at the bound itself —
///   the smallest feasible horizon on most shapes measured (module docs).
pub(crate) fn milp_horizon(
    topo: &Topology,
    demand: &DemandMatrix,
    chunk_bytes: f64,
    tau: f64,
    budget: Option<&SolveBudget>,
) -> Result<(usize, usize), TeCclError> {
    if demand.benefits_from_copy() {
        let bound = copy_horizon_bound(topo, demand, chunk_bytes, tau, budget)?;
        Ok((bound, bound))
    } else {
        let bound = horizon_lower_bound(topo, demand, chunk_bytes, tau, budget)?;
        Ok((bound, bound + HORIZON_SLACK))
    }
}

/// The first horizon the MILP solve of [`crate::TeCcl::solve`] tries when the
/// caller does not provide `max_epochs`, computed without a budget: the proven
/// bound plus one epoch of slack for copy-free demands, the [`copy_horizon_bound`] for
/// copy demands. 1 if a bound LP fails, which the solve itself then reports.
pub fn estimate_num_epochs(
    topo: &Topology,
    demand: &DemandMatrix,
    chunk_bytes: f64,
    tau: f64,
) -> usize {
    milp_horizon(topo, demand, chunk_bytes, tau, None).map_or(1, |(_, first)| first)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SolverConfig;
    use teccl_topology::{line_topology, ndv2};

    #[test]
    fn epoch_duration_strategies() {
        let topo = ndv2(1); // 50 and 25 GB/s links
        let chunk = 1.0e6;
        let fast = epoch_duration(&topo, chunk, &SolverConfig::default());
        let slow = epoch_duration(
            &topo,
            chunk,
            &SolverConfig::default().with_epoch_strategy(EpochStrategy::SlowestLink),
        );
        assert!((fast - chunk / 50e9).abs() < 1e-15);
        assert!((slow - chunk / 25e9).abs() < 1e-15);
        assert!(slow > fast);
    }

    #[test]
    fn epoch_multiplier_scales_duration() {
        let topo = line_topology(3, 1e9, 0.0);
        let base = epoch_duration(&topo, 1e6, &SolverConfig::default());
        let doubled = epoch_duration(
            &topo,
            1e6,
            &SolverConfig::default().with_epoch_multiplier(2.0),
        );
        assert!((doubled - 2.0 * base).abs() < 1e-15);
    }

    #[test]
    fn tiny_epochs_with_huge_alpha_get_stretched() {
        // 1 KB chunks on 25 GB/s: tau = 40 ns, alpha = 0.7 us > 200 * tau? No
        // (200*40ns = 8us). Use 100-byte chunks: tau = 4 ns, 200*4ns = 0.8 us
        // with alpha 1.3us on NDv2 uplinks → stretched by 5x.
        let topo = ndv2(2);
        let tau = epoch_duration(&topo, 100.0, &SolverConfig::default());
        assert!((tau - 5.0 * 100.0 / 50e9).abs() < 1e-18);
    }

    #[test]
    fn delta_and_kappa() {
        let topo = line_topology(2, 1e9, 2.5e-6);
        let link = topo.link_between(NodeId(0), NodeId(1)).unwrap();
        assert_eq!(delta_epochs(link, 1e-6), 3);
        assert_eq!(delta_epochs(link, 1e-5), 1);
        // chunk of 1 MB over 1 GB/s = 1 ms; with tau = 0.25 ms, kappa = 4.
        assert_eq!(kappa_epochs(link, 1e6, 0.25e-3), 4);
        assert_eq!(kappa_epochs(link, 1e6, 1e-3), 1);
        assert!((capacity_chunks_per_epoch(link, 1e6, 1e-3) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_alpha_has_zero_delta() {
        let topo = line_topology(2, 1e9, 0.0);
        let link = topo.link_between(NodeId(0), NodeId(1)).unwrap();
        assert_eq!(delta_epochs(link, 1e-6), 0);
    }

    #[test]
    fn epoch_estimate_scales_with_demand() {
        // A 4-GPU line, 1 chunk per epoch per link: the far end reads the
        // root's chunks after 3 hops, one per epoch behind each other.
        let topo = line_topology(4, 1e9, 0.0);
        let gpus: Vec<NodeId> = topo.gpus().collect();
        let tau = 1e-3;
        for chunks in [1, 8] {
            let demand = DemandMatrix::broadcast(4, &gpus, NodeId(0), chunks);
            let bound = copy_horizon_bound(&topo, &demand, 1e6, tau, None).unwrap();
            assert_eq!(bound, 3 + chunks - 1);
            assert_eq!(estimate_num_epochs(&topo, &demand, 1e6, tau), bound);
            // Without copy the root would push 3 × chunks over one link.
            let no_copy = horizon_lower_bound(&topo, &demand, 1e6, tau, None).unwrap();
            assert!(no_copy >= 3 * chunks, "{no_copy}");
        }
    }

    #[test]
    fn bound_lps_stop_on_a_spent_budget() {
        let topo = line_topology(4, 1e9, 0.0);
        let gpus: Vec<NodeId> = topo.gpus().collect();
        let budget = SolveBudget::unlimited();
        budget.cancel();
        for demand in [
            DemandMatrix::all_gather(4, &gpus, 2),
            DemandMatrix::all_to_all(4, &gpus, 2),
        ] {
            assert!(matches!(
                milp_horizon(&topo, &demand, 1e6, 1e-3, Some(&budget)),
                Err(TeCclError::Budget(_))
            ));
        }
    }
}
