//! The A*-inspired time-partitioned solver (§4.2, Appendix D).
//!
//! Instead of one MILP over the whole horizon, the problem is split into
//! *rounds* of a few epochs each. Every round solves a smaller MILP whose
//! objective rewards (a) demands satisfied inside the round and (b) chunks
//! moving closer to their destinations — the latter uses Floyd–Warshall
//! α-distances as the heuristic, which is where the A* analogy comes from.
//! State (which node holds which chunk, plus chunks still in flight because of
//! α-delays) is carried from round to round until every demand is met.
//!
//! The result is sub-optimal but dramatically cheaper than the monolithic
//! MILP, and it still supports copy (unlike the LP form).
//!
//! # Rounds over the symmetry quotient
//!
//! Every warm round is laid out over one [`SymmetryGroup`], found once per
//! solve: one representative per source orbit, its sends unrolled through
//! the group. The first round's holders are invariant under the group and
//! unrolled sends keep them so, which is why every later round may be laid
//! out over the same group ([`crate::symmetry`]). An asymmetric instance gets
//! the trivial group, and with it the full round model.
//!
//! # Stalls
//!
//! A round *stalls* when none of its sends brings a chunk to a node that
//! neither holds it nor has it in flight: the state after it is the state
//! before it. A stalled round is dropped — no idle round enters the
//! schedule — and the same round is solved again from a cold start, because
//! a carried basis can lead the dual simplex back to the same vertex round
//! after round. A second stall in a row is
//! [`TeCclError::AStarDidNotConverge`].
//!
//! [`crate::TeCcl::solve`] starts every A\* solve cold and publishes none of
//! its bases, so its schedule is a function of the request alone; the
//! `initial_basis` of [`solve_astar_budgeted`] is for callers that chain
//! solves on purpose.

use std::collections::HashMap;
use std::time::Instant;

use teccl_collective::DemandMatrix;
use teccl_lp::{SimplexBasis, SolveStats};
use teccl_schedule::Send;
use teccl_topology::{NodeId, Topology};

use crate::config::{BufferMode, SolverConfig};
use crate::epochs::EpochGrid;
use crate::error::TeCclError;
use crate::milp_form::{Holders, MilpBuildOptions, MilpFormulation};
use crate::symmetry::{Orbits, SymmetryGroup};
use crate::time_expanded::source_orbits;

/// Result of an A* solve.
#[derive(Debug, Clone)]
pub struct AStarOutcome {
    /// All sends, with epochs numbered globally across rounds.
    pub sends: Vec<Send>,
    /// Number of rounds used.
    pub rounds: usize,
    /// Epochs per round.
    pub epochs_per_round: usize,
    /// Total wall-clock solver time in seconds (sum over rounds).
    pub solver_time: f64,
    /// Initial holders per commodity (for pruning).
    pub initial_holders: HashMap<(usize, usize), Vec<NodeId>>,
    /// Solver statistics aggregated across every round's MILP (simplex
    /// iterations, B&B nodes, factorizations, warm/cold starts).
    pub stats: SolveStats,
    /// The last round's root-relaxation basis: a caller chaining solves on
    /// purpose can start a same-shaped first round from it via
    /// [`solve_astar_budgeted`]. [`crate::TeCcl::solve`] never does.
    pub final_basis: Option<SimplexBasis>,
}

/// Whether consecutive rounds share one model layout and carry the root
/// relaxation's basis from round to round: the model is built from the full
/// demand every round (delivered commodities get their flows *bound-pinned*,
/// not removed) and presolve is layout-preserving, so round `t+1`
/// re-optimizes dually from round `t`'s basis through the normal pipeline.
/// The no-store-and-forward buffer mode derives its variable set from the
/// round state, so it alone keeps per-round (remaining-demand, cold) builds.
fn warm_rounds(config: &SolverConfig) -> bool {
    !matches!(config.buffer_mode, BufferMode::NoStoreAndForward)
}

/// What A* carries from round to round — who holds which chunk, what is still
/// on the wire — and the two things a round does with it: derive the build
/// options of its MILP, and absorb the sends that MILP chose. Public so one
/// round can be rebuilt outside the solver (the `lp/dual_pivot_astar_round`
/// bench re-solves round 1 from round 0's basis this way).
#[derive(Debug, Clone)]
pub struct RoundState {
    /// Epochs per round: large enough that a chunk sent in a round arrives at
    /// most one round later (§4.2 "we set the number of epochs such that
    /// chunks do not arrive later than one round in the future").
    pub epochs_per_round: usize,
    /// Link delays (in-flight arrivals) and distances (the heuristic
    /// reward) in epochs.
    grid: EpochGrid,
    holders: Holders,
    /// `(source, chunk, node, epochs into the next round)` per flying chunk.
    in_flight: Vec<(NodeId, usize, NodeId, usize)>,
    /// `reached[(s · chunks + c) · nodes + n]`: node `n` holds chunk `c` of
    /// `s` or has it in flight. Both only grow, so neither does this.
    reached: Vec<bool>,
    nodes: usize,
    chunks: usize,
    /// The sources whose terminal rewards and frozen flags a round's model
    /// reads: every GPU, or the source-orbit representatives once the
    /// rounds are laid out over a group ([`RoundState::lay_out_over`]).
    sources: Vec<NodeId>,
}

impl RoundState {
    /// The state before the first round: every source holds its own chunks.
    pub fn new(
        topology: &Topology,
        demand: &DemandMatrix,
        chunk_bytes: f64,
        config: &SolverConfig,
        tau: f64,
    ) -> Self {
        let grid = EpochGrid::new(topology, chunk_bytes, tau);
        let epochs_per_round = config
            .astar_epochs_per_round
            .unwrap_or((grid.max_delay() + 2).max(4));
        let (nodes, chunks) = (topology.num_nodes(), demand.num_chunks);
        let mut state = RoundState {
            epochs_per_round,
            grid,
            holders: Holders::new(nodes, chunks),
            in_flight: Vec::new(),
            reached: vec![false; nodes * chunks * nodes],
            nodes,
            chunks,
            sources: topology.gpus().collect(),
        };
        for (s, c, _d) in demand.iter() {
            state.hold(s, c, s);
        }
        state
    }

    /// Narrows the sources whose rewards and frozen flags
    /// [`RoundState::build_options`] lists to the representatives of
    /// `orbits`: a round laid out over its group has no commodity for any
    /// other source, so it reads nothing of theirs.
    pub(crate) fn lay_out_over(&mut self, orbits: &Orbits) {
        self.sources.retain(|&s| orbits.is_representative(s));
    }

    /// Makes `n` a holder of chunk `c` of `s`.
    fn hold(&mut self, s: NodeId, c: usize, n: NodeId) {
        self.holders.add(s, c, n);
        self.reached[(s.0 * self.chunks + c) * self.nodes + n.0] = true;
    }

    /// The demands still open — a triple is satisfied once the destination
    /// holds the chunk (or it is in flight towards it) — and their count.
    pub fn remaining(&self, demand: &DemandMatrix) -> (DemandMatrix, usize) {
        let mut remaining = DemandMatrix::new(demand.num_nodes, demand.num_chunks);
        let mut remaining_count = 0usize;
        for (s, c, d) in demand.iter() {
            if !self.reached(s, c, d) {
                remaining.set(s, c, d);
                remaining_count += 1;
            }
        }
        (remaining, remaining_count)
    }

    /// The build options of this round's MILP.
    pub fn build_options(
        &self,
        topology: &Topology,
        demand: &DemandMatrix,
        remaining: &DemandMatrix,
        config: &SolverConfig,
    ) -> MilpBuildOptions {
        // Terminal rewards: for every unsatisfied commodity and every GPU,
        // reward ending the round with the chunk near a destination. Warm
        // rounds keep every commodity in the model, so pin the flows of
        // fully-delivered ones to zero: the layout stays identical (the
        // carried basis survives) while presolve eliminates their columns
        // from the actual solve — late rounds then cost what the shrinking
        // remaining-demand builds used to, without re-shaping the model.
        let mut terminal_rewards = Vec::new();
        let mut frozen: Vec<(NodeId, usize)> = Vec::new();
        let mut dests: Vec<NodeId> = Vec::new();
        for &s in &self.sources {
            for c in 0..demand.num_chunks {
                dests.clear();
                dests.extend(
                    (0..remaining.num_nodes)
                        .map(NodeId)
                        .filter(|&d| remaining.wants(s, c, d)),
                );
                if dests.is_empty() {
                    if warm_rounds(config) && demand.chunk_in_use(s, c) {
                        frozen.push((s, c));
                    }
                    continue;
                }
                for n in topology.gpus() {
                    let dist = dests
                        .iter()
                        .map(|&d| self.grid.distance(n, d))
                        .fold(f64::INFINITY, f64::min);
                    if dist.is_finite() {
                        let w = config.astar_gamma / (1.0 + dist);
                        terminal_rewards.push((s, c, n, w));
                    }
                }
            }
        }

        // Extra initial holders: everything beyond the original source.
        let mut extra_initial = Vec::new();
        for (s, c, hs) in self.holders.iter() {
            for &h in hs {
                if h != s {
                    extra_initial.push((s, c, h));
                }
            }
        }
        MilpBuildOptions {
            relax_completion: true,
            extra_initial,
            in_flight: self.in_flight.clone(),
            terminal_rewards,
            hyperedge_groups: Vec::new(),
            frozen,
        }
    }

    /// Whether a round's sends bring some chunk to a node that neither holds
    /// it nor has it in flight (module docs, "Stalls").
    pub fn advances(&self, round_sends: &[Send]) -> bool {
        round_sends
            .iter()
            .any(|snd| !self.reached(snd.chunk.source, snd.chunk.chunk, snd.to))
    }

    /// Whether node `n` holds chunk `c` of source `s` or has it in flight.
    fn reached(&self, s: NodeId, c: usize, n: NodeId) -> bool {
        self.reached[(s.0 * self.chunks + c) * self.nodes + n.0]
    }

    /// Applies a round's sends (epochs local to the round): what was in
    /// flight has landed, sends that arrive inside the round land too, the
    /// rest are in flight for the next one.
    pub fn absorb(&mut self, topology: &Topology, round_sends: &[Send]) {
        for (s, c, n, _vis) in std::mem::take(&mut self.in_flight) {
            self.hold(s, c, n);
        }
        for snd in round_sends {
            let link = topology
                .link_between(snd.from, snd.to)
                .expect("send uses a topology link");
            let arrival = snd.epoch + self.grid.delay(link) + 1;
            let (s, c) = (snd.chunk.source, snd.chunk.chunk);
            if arrival <= self.epochs_per_round {
                self.hold(s, c, snd.to);
            } else {
                self.reached[(s.0 * self.chunks + c) * self.nodes + snd.to.0] = true;
                self.in_flight
                    .push((s, c, snd.to, arrival - self.epochs_per_round));
            }
        }
    }
}

/// Solves `demand` with the A* technique (`tau` is the epoch duration) under
/// a cooperative [`teccl_util::SolveBudget`], with an externally supplied
/// basis for the first round's root relaxation (later rounds carry their own
/// basis as usual). A basis whose shape does not match the first round's
/// model silently falls back to a cold start inside the LP layer.
///
/// The budget is checked by the symmetry search, at the top of every round
/// and inside every round's MILP pivots. A* has no usable partial result — a
/// prefix of rounds leaves demands unsatisfied — so an exhausted budget
/// always surfaces as [`TeCclError::Budget`]; the serving layer degrades to a
/// cached or baseline schedule instead.
#[allow(clippy::too_many_arguments)]
pub fn solve_astar_budgeted(
    topology: &Topology,
    demand: &DemandMatrix,
    chunk_bytes: f64,
    config: &SolverConfig,
    tau: f64,
    initial_basis: Option<&SimplexBasis>,
    budget: Option<&teccl_util::SolveBudget>,
) -> Result<AStarOutcome, TeCclError> {
    if demand.is_empty() {
        return Err(TeCclError::EmptyDemand);
    }
    let start = Instant::now();

    let mut state = RoundState::new(topology, demand, chunk_bytes, config, tau);
    let epochs_per_round = state.epochs_per_round;
    let initial_holders = state.holders.to_map();
    let mut all_sends: Vec<Send> = Vec::new();
    let mut stalls = 0usize;
    let mut stats = SolveStats::default();

    // Cross-round warm starting (see [`warm_rounds`]): built from the full
    // demand, every round's MILP has the same shape — the builder always
    // creates the complete variable set (reachability pruning is bound
    // fixing) — so only bounds, right-hand sides, and objective weights
    // change between rounds. Those rounds are laid out over the instance's
    // symmetry group (module docs).
    let warm = warm_rounds(config);
    let group = if warm {
        SymmetryGroup::find_per_chunk(topology, demand, chunk_bytes, tau, budget)?
    } else {
        SymmetryGroup::trivial(topology)
    };
    state.lay_out_over(&source_orbits(topology, demand, group.clone()));
    let mut carried_basis: Option<SimplexBasis> = initial_basis.cloned();
    let mut final_basis: Option<SimplexBasis> = None;
    let mut cached_form: Option<MilpFormulation> = None;

    let mut round = 0;
    while round < config.astar_max_rounds {
        // Budget check once per round (the per-pivot checks inside the
        // round's MILP cover cancellation mid-round).
        if let Some(b) = budget {
            if let Some(cause) = b.exceeded() {
                return Err(TeCclError::Budget(cause));
            }
        }
        let (remaining, remaining_count) = state.remaining(demand);
        if remaining_count == 0 {
            return Ok(AStarOutcome {
                sends: all_sends,
                rounds: round,
                epochs_per_round,
                solver_time: start.elapsed().as_secs_f64(),
                initial_holders,
                stats,
                final_basis,
            });
        }
        let options = state.build_options(topology, demand, &remaining, config);
        // Under warm rounds the model is built from the *full* demand so the
        // commodity set (and with it the layout) never changes; demands that
        // are already satisfied only contribute constant reward terms (their
        // destination buffers are initial holders, so the reads are free).
        // The identical layout also means later rounds skip the build
        // entirely: the first round's formulation is cached and only its
        // bounds / rhs / objective are rewritten in place.
        let build_demand = if warm { demand } else { &remaining };
        let reused = warm
            && cached_form
                .as_mut()
                .is_some_and(|f| f.update_round(build_demand, config, &options));
        if !reused {
            cached_form = Some(MilpFormulation::build_over(
                topology,
                build_demand,
                chunk_bytes,
                config,
                epochs_per_round,
                tau,
                &options,
                group.clone(),
                budget,
            )?);
        }
        let form = cached_form.as_ref().expect("formulation built above");
        let sol = form.solve_budgeted(config, carried_basis.as_ref(), budget)?;
        // A budget-stopped round solution is an uncertified relaxation point
        // — its sends may be empty or wasteful and later rounds would build
        // on them. Treat it like an exhausted budget instead.
        if let Some(cause) = sol.stats.budget_stop {
            return Err(TeCclError::Budget(cause));
        }
        stats.absorb(&sol.stats);
        let round_sends = form.sends(&sol);

        if !state.advances(&round_sends) {
            // A stall: drop the round and solve it again cold.
            stalls += 1;
            if stalls >= 2 {
                return Err(TeCclError::AStarDidNotConverge {
                    rounds: round + 1,
                    remaining_demands: remaining_count,
                });
            }
            carried_basis = None;
            continue;
        }
        stalls = 0;
        if warm {
            // A round that produced no basis (e.g. a presolve-trivial or
            // basis-less outcome) keeps the previous one rather than dropping
            // the warm chain for the rest of the run.
            if sol.basis.is_some() {
                carried_basis = sol.basis.clone();
            }
        } else {
            // Without warm rounds the externally supplied basis only applies
            // to the first round — later rounds are differently shaped
            // (remaining-demand builds), so retrying it would just burn a
            // failed warm attempt per round.
            carried_basis = None;
        }
        if sol.basis.is_some() {
            final_basis = sol.basis.clone();
        }

        // Update state and record sends with global epoch numbers.
        state.absorb(topology, &round_sends);
        all_sends.extend(round_sends.iter().map(|snd| Send {
            chunk: snd.chunk,
            from: snd.from,
            to: snd.to,
            epoch: snd.epoch + round * epochs_per_round,
        }));
        round += 1;
    }

    // Final check after exhausting rounds.
    let (_, remaining_count) = state.remaining(demand);
    if remaining_count == 0 {
        Ok(AStarOutcome {
            sends: all_sends,
            rounds: config.astar_max_rounds,
            epochs_per_round,
            solver_time: start.elapsed().as_secs_f64(),
            initial_holders,
            stats,
            final_basis,
        })
    } else {
        Err(TeCclError::AStarDidNotConverge {
            rounds: config.astar_max_rounds,
            remaining_demands: remaining_count,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SolverConfig;
    use teccl_collective::{CollectiveKind, CollectiveSizing};
    use teccl_topology::{line_topology, ring_topology};

    #[test]
    fn broadcast_line_converges_over_rounds() {
        // 4-node line, small rounds so the far node needs more than one round.
        let topo = line_topology(4, 1e9, 0.0);
        let gpus: Vec<NodeId> = topo.gpus().collect();
        let demand = DemandMatrix::broadcast(4, &gpus, NodeId(0), 1);
        let config = SolverConfig {
            astar_epochs_per_round: Some(2),
            ..Default::default()
        };
        let out = solve_astar_budgeted(&topo, &demand, 1e6, &config, 1e-3, None, None).unwrap();
        assert!(
            out.rounds >= 2,
            "expected at least 2 rounds, got {}",
            out.rounds
        );
        // Every destination received the chunk.
        for d in 1..4 {
            assert!(out
                .sends
                .iter()
                .any(|s| s.to == NodeId(d) && s.chunk.source == NodeId(0)));
        }
        // Global epochs grow across rounds.
        let max_epoch = out.sends.iter().map(|s| s.epoch).max().unwrap();
        assert!(max_epoch >= 2);
    }

    #[test]
    fn single_round_when_demand_fits() {
        let topo = ring_topology(3, 1e9, 0.0);
        let gpus: Vec<NodeId> = topo.gpus().collect();
        let demand = DemandMatrix::broadcast(3, &gpus, NodeId(0), 1);
        let config = SolverConfig::default();
        let out = solve_astar_budgeted(&topo, &demand, 1e6, &config, 1e-3, None, None).unwrap();
        assert_eq!(out.rounds, 1);
    }

    #[test]
    fn produces_valid_schedule_after_pruning() {
        let topo = line_topology(4, 1e9, 0.0);
        let gpus: Vec<NodeId> = topo.gpus().collect();
        let demand = DemandMatrix::all_gather(4, &gpus, 1);
        let config = SolverConfig {
            astar_epochs_per_round: Some(3),
            ..Default::default()
        };
        let out = solve_astar_budgeted(&topo, &demand, 1e6, &config, 1e-3, None, None).unwrap();
        assert_valid(&topo, &demand, 1e6, 1e-3, &out);
    }

    /// Prunes and validates an A* outcome's sends against `demand`.
    fn assert_valid(
        topo: &Topology,
        demand: &DemandMatrix,
        chunk_bytes: f64,
        tau: f64,
        out: &AStarOutcome,
    ) {
        let grid = EpochGrid::new(topo, chunk_bytes, tau);
        let pruned =
            crate::extract::prune_sends(&out.sends, demand, &out.initial_holders, |a, b| {
                grid.delay_between(topo, a, b)
            });
        let schedule =
            crate::extract::schedule_from_sends("astar", chunk_bytes, tau, pruned, out.solver_time);
        let report = teccl_schedule::validate(topo, demand, &schedule, false);
        assert!(report.is_valid(), "{:?}", report.errors);
    }

    /// The chained-basis stall: internal2 x4 ALLGATHER (1 chunk, a
    /// 1 482 773 B output buffer) re-solved from its own last basis, ten
    /// times over. One link of the chain meets a warm round that only
    /// re-sends chunks to nodes that hold them, which a rule counting only
    /// empty rounds as stalls repeats until the round limit. It is solved
    /// again cold — the one way a solve that starts warm records a cold
    /// start — and every solve converges to a valid schedule with no idle
    /// round.
    #[test]
    fn a_stalled_round_is_solved_again_cold() {
        let topo = teccl_topology::internal2(4);
        let gpus: Vec<NodeId> = topo.gpus().collect();
        let kind = CollectiveKind::AllGather;
        let demand = DemandMatrix::for_collective(kind, topo.num_nodes(), &gpus, 1);
        let chunk_bytes =
            CollectiveSizing::new(kind, gpus.len()).transfer_bytes_for_output_buffer(1_482_773.0);
        let config = SolverConfig::default();
        let tau = crate::epochs::epoch_duration(&topo, chunk_bytes, &config);
        let mut basis: Option<SimplexBasis> = None;
        let mut cold_retries = 0;
        for link in 0..10 {
            let out = solve_astar_budgeted(
                &topo,
                &demand,
                chunk_bytes,
                &config,
                tau,
                basis.as_ref(),
                None,
            )
            .unwrap_or_else(|e| panic!("link {link}: {e}"));
            if basis.is_some() {
                cold_retries += out.stats.cold_starts;
            }
            for round in 0..out.rounds {
                assert!(
                    out.sends
                        .iter()
                        .any(|s| s.epoch / out.epochs_per_round == round),
                    "link {link}: round {round} is idle"
                );
            }
            assert_valid(&topo, &demand, chunk_bytes, tau, &out);
            basis = out.final_basis;
        }
        assert!(cold_retries > 0, "no link of the chain stalled");
    }

    #[test]
    fn warm_rounds_reuse_basis_and_still_satisfy_demand() {
        // With the stable layout, round 2+ must warm-start from the previous
        // round's root basis (dual re-solve) and still deliver everything.
        let topo = line_topology(4, 1e9, 0.0);
        let gpus: Vec<NodeId> = topo.gpus().collect();
        let demand = DemandMatrix::all_gather(4, &gpus, 1);
        let config = SolverConfig {
            astar_epochs_per_round: Some(2),
            ..Default::default()
        };
        let out = solve_astar_budgeted(&topo, &demand, 1e6, &config, 1e-3, None, None).unwrap();
        assert!(out.rounds >= 2, "need several rounds, got {}", out.rounds);
        assert!(
            out.stats.warm_starts > 0 && out.stats.cold_starts <= 1,
            "round 2+ must warm-start (stats: {:?})",
            out.stats
        );
        assert_valid(&topo, &demand, 1e6, 1e-3, &out);
    }

    #[test]
    fn no_store_and_forward_rounds_build_and_solve_cold() {
        // The one buffer mode whose variable set follows the round state:
        // every round is a fresh remaining-demand build whose root starts
        // cold (no round here branches, so nothing re-solves warm), and the
        // schedule still validates.
        let topo = line_topology(4, 1e9, 0.0);
        let gpus: Vec<NodeId> = topo.gpus().collect();
        let demand = DemandMatrix::all_gather(4, &gpus, 1);
        let config = SolverConfig {
            astar_epochs_per_round: Some(2),
            buffer_mode: BufferMode::NoStoreAndForward,
            ..Default::default()
        };
        assert!(!warm_rounds(&config));
        let out = solve_astar_budgeted(&topo, &demand, 1e6, &config, 1e-3, None, None).unwrap();
        assert!(out.rounds >= 2, "need several rounds, got {}", out.rounds);
        assert!(
            out.stats.warm_starts == 0 && out.stats.cold_starts == out.rounds,
            "every round's root must start cold (stats: {:?})",
            out.stats
        );
        assert_valid(&topo, &demand, 1e6, 1e-3, &out);
    }

    #[test]
    fn empty_demand_rejected() {
        let topo = line_topology(2, 1e9, 0.0);
        let demand = DemandMatrix::new(2, 1);
        assert!(matches!(
            solve_astar_budgeted(
                &topo,
                &demand,
                1e6,
                &SolverConfig::default(),
                1e-3,
                None,
                None
            ),
            Err(TeCclError::EmptyDemand)
        ));
    }
}
