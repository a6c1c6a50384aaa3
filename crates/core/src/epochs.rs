//! Epoch-duration selection and the epoch horizon `K` (§5, Appendix E).
//!
//! # The horizon of the copy-free LP is bounded below by a static flow
//!
//! The LP of §4.1 ([`crate::lp_form`]) grows linearly with the horizon `K`,
//! and the paper leaves `K` to an estimate (Appendix E sweeps coarse epoch
//! grids). For copy-free demands this module computes a *proven* lower bound
//! instead, [`horizon_lower_bound`], and [`estimate_num_epochs`] starts one
//! epoch above it; the coarse sweep of Algorithm 1 is gone — the bound
//! supersedes it.
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
//! [`crate::config::BufferMode`]. It does **not** hold
//! for the MILP and A* forms when a demand benefits from copy — one
//! transmission then serves several destinations — which keep the analytic
//! over-estimate.
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
//! epochs and arrivals at the root stagger — [`crate::TeCcl::solve_lp_from`]
//! then grows the horizon by 2, 4, 8, … epochs rather than doubling it.

use teccl_collective::DemandMatrix;
use teccl_lp::{ConstraintOp, Model, Sense, SolveStatus, VarId};
use teccl_topology::{floyd_warshall, Link, NodeId, Topology};
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
/// A budget stop is [`TeCclError::Budget`]: a stopped `T` is not a bound.
pub fn horizon_lower_bound(
    topo: &Topology,
    demand: &DemandMatrix,
    chunk_bytes: f64,
    tau: f64,
    budget: Option<&SolveBudget>,
) -> Result<usize, TeCclError> {
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

/// Number of epochs given to a formulation when the caller does not provide
/// `max_epochs`.
///
/// * Copy-free demands: [`horizon_lower_bound`]` + 1` — one epoch above the
///   proven bound, feasible on 207 of the 210 shapes measured (module docs).
/// * Copy demands (the bound does not hold when one transmission can serve
///   several destinations): an analytic over-estimate combining (1) a
///   bandwidth term — the most loaded destination's demand divided by its
///   incoming capacity per epoch, and the most loaded source's injection
///   divided by its outgoing capacity, (2) a latency term — the worst α+hop
///   distance between any demanded (source, destination) pair in epochs — and
///   a small slack. The optimization finds the earliest completion by itself
///   (§5/Appendix E); a tight value is only a model-size optimization.
pub fn estimate_num_epochs(
    topo: &Topology,
    demand: &DemandMatrix,
    chunk_bytes: f64,
    tau: f64,
) -> usize {
    if !demand.benefits_from_copy() {
        if let Ok(bound) = horizon_lower_bound(topo, demand, chunk_bytes, tau, None) {
            return bound + HORIZON_SLACK;
        }
    }
    let mut worst_bw_epochs: f64 = 1.0;
    // Destination side.
    for d in topo.gpus() {
        let needed = demand.demand_of_destination(d) as f64;
        if needed == 0.0 {
            continue;
        }
        let in_cap: f64 = topo
            .in_links(d)
            .map(|l| capacity_chunks_per_epoch(l, chunk_bytes, tau))
            .sum();
        if in_cap > 0.0 {
            worst_bw_epochs = worst_bw_epochs.max(needed / in_cap);
        }
    }
    // Source side.
    for s in topo.gpus() {
        let injected = demand.demand_of_source(s) as f64;
        if injected == 0.0 {
            continue;
        }
        let out_cap: f64 = topo
            .out_links(s)
            .map(|l| capacity_chunks_per_epoch(l, chunk_bytes, tau))
            .sum();
        if out_cap > 0.0 {
            worst_bw_epochs = worst_bw_epochs.max(injected / out_cap);
        }
    }

    // Latency term: worst (hops + Σδ) over demanded pairs, computed on the
    // per-link cost of crossing it once (κ epochs of transmission + δ of α).
    let pm = floyd_warshall(topo, |l| {
        (kappa_epochs(l, chunk_bytes, tau) + delta_epochs(l, tau)) as f64
    });
    let mut worst_latency_epochs: f64 = 0.0;
    for (s, _c, d) in demand.iter() {
        let dist = pm.distance(s, d);
        if dist.is_finite() {
            worst_latency_epochs = worst_latency_epochs.max(dist);
        }
    }

    let est = worst_bw_epochs * 1.5 + worst_latency_epochs + 2.0;
    (est.ceil() as usize).max(2)
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
        let topo = line_topology(4, 1e9, 0.0);
        let gpus: Vec<NodeId> = topo.gpus().collect();
        let small = DemandMatrix::broadcast(4, &gpus, NodeId(0), 1);
        let large = DemandMatrix::broadcast(4, &gpus, NodeId(0), 8);
        let tau = 1e-3;
        let k_small = estimate_num_epochs(&topo, &small, 1e6, tau);
        let k_large = estimate_num_epochs(&topo, &large, 1e6, tau);
        assert!(k_large > k_small);
        assert!(k_small >= 3); // at least the 3-hop latency term
    }
}
