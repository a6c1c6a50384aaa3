//! The top-level TE-CCL solver: formulation selection, epoch estimation,
//! schedule extraction and post-processing.

use std::time::{Duration, Instant};

use teccl_collective::{DemandMatrix, TenantDemand};
use teccl_lp::{SimplexBasis, SolveStats, SolveStatus};
use teccl_schedule::Schedule;
use teccl_topology::Topology;

use teccl_util::SolveBudget;

use crate::astar::solve_astar_budgeted;
use crate::config::{SolverConfig, SwitchModel};
use crate::epochs::{
    epoch_duration, lower_bound_and_pivots, milp_horizon, EpochGrid, MilpHorizon, HORIZON_SLACK,
};
use crate::error::{check_budget, TeCclError};
use crate::extract::{prune_sends, schedule_from_sends};
use crate::lp_form::LpFormulation;
use crate::milp_form::{MilpBuildOptions, MilpFormulation};
use crate::switch::hyperedge_transform;
use crate::symmetry::SymmetryGroup;

/// Which formulation produced a schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FormulationKind {
    /// The general MILP (§3.1) — supports copy, optimal.
    GeneralMilp,
    /// The LP for copy-free demands (§4.1) — optimal, scalable.
    Lp,
    /// The A* time-partitioned solver (§4.2) — copy, scalable, sub-optimal.
    AStar,
}

/// The solver a request asks [`TeCcl::solve`] for; [`RequestMethod::Auto`]
/// lets it choose. The resolved choice is the outcome's [`FormulationKind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RequestMethod {
    /// Automatic dispatch: the LP for copy-free demands, otherwise the MILP
    /// on topologies of up to 12 GPUs and A* above.
    #[default]
    Auto,
    /// The general MILP (§3.1).
    Milp,
    /// The copy-free LP (§4.1).
    Lp,
    /// The A* time-partitioned solver (§4.2).
    AStar,
}

impl RequestMethod {
    /// Stable wire / hash name.
    pub fn name(self) -> &'static str {
        match self {
            RequestMethod::Auto => "auto",
            RequestMethod::Milp => "milp",
            RequestMethod::Lp => "lp",
            RequestMethod::AStar => "astar",
        }
    }

    /// Parses the wire name.
    pub fn from_name(s: &str) -> Option<RequestMethod> {
        Some(match s {
            "auto" => RequestMethod::Auto,
            "milp" => RequestMethod::Milp,
            "lp" => RequestMethod::Lp,
            "astar" => RequestMethod::AStar,
            _ => return None,
        })
    }
}

/// The result of a TE-CCL solve.
#[derive(Debug, Clone)]
pub struct SolveOutcome {
    /// The schedule (already pruned of useless flows).
    pub schedule: Schedule,
    /// The topology the schedule refers to — identical to the input topology
    /// unless the hyper-edge switch model transformed it.
    pub topology_used: Topology,
    /// Which formulation was used.
    pub formulation: FormulationKind,
    /// The underlying solver status (Optimal / Feasible for early stop).
    pub status: SolveStatus,
    /// Wall-clock solver time.
    pub solver_time: Duration,
    /// Number of epochs given to the formulation.
    pub num_epochs: usize,
    /// Epoch duration τ in seconds.
    pub epoch_duration: f64,
    /// Relative MIP gap at termination (0 for LPs / proven optima).
    pub mip_gap: f64,
    /// Underlying solver statistics (simplex iterations, B&B nodes, LU
    /// factorizations, warm/cold starts) aggregated over the whole solve —
    /// across rounds for A*.
    pub stats: SolveStats,
    /// The final warm-start basis the solve published (the root relaxation's
    /// basis for MILPs, the final LP basis for LPs; never one for A*), if
    /// any: the schedule service feeds it back into [`TeCcl::solve`] so a
    /// cache-adjacent request (same topology and collective, neighbouring
    /// buffer-size bucket) re-optimizes from it instead of starting cold.
    pub basis: Option<SimplexBasis>,
}

/// The TE-CCL collective communication optimizer.
///
/// Construct it once per topology and call [`TeCcl::solve`] per demand; with
/// [`RequestMethod::Auto`] the solver picks the right formulation (LP for
/// copy-free demands, MILP for copy-friendly demands on small topologies, A*
/// on larger ones), following the paper's usage of its three algorithms.
#[derive(Debug, Clone)]
pub struct TeCcl {
    topology: Topology,
    config: SolverConfig,
    /// Cooperative budget threaded into every solve this instance runs. Kept
    /// out of [`SolverConfig`] on purpose: a deadline is a property of one
    /// request, not of the problem, and must not perturb the content-
    /// addressed cache keys the service derives from the config.
    budget: Option<SolveBudget>,
}

/// GPU count above which the automatic dispatcher prefers A* over the
/// monolithic MILP for copy-friendly demands (the paper switches to A* on
/// multi-chassis topologies for the same reason, §4.2/§6.2).
const ASTAR_GPU_THRESHOLD: usize = 12;

/// Horizons [`TeCcl::climb_horizons`] tries before giving up: the last is
/// the first + 62 epochs.
const HORIZON_ATTEMPTS: usize = 6;

impl TeCcl {
    /// Creates a solver for a topology.
    pub fn new(topology: Topology, config: SolverConfig) -> Self {
        Self {
            topology,
            config,
            budget: None,
        }
    }

    /// Attaches a cooperative [`SolveBudget`] (deadline / cancel flag /
    /// iteration cap) checked inside every pivot, branch-and-bound node and
    /// A* round of every solve run through this instance. When it trips:
    /// MILP/LP solves return their best incumbent with `stats.budget_stop`
    /// set, or [`TeCclError::Budget`] when no feasible point exists yet; A*
    /// always returns [`TeCclError::Budget`] (a prefix of rounds is not a
    /// schedule).
    pub fn with_budget(mut self, budget: SolveBudget) -> Self {
        self.budget = Some(budget);
        self
    }

    /// The attached budget, if any.
    pub fn budget(&self) -> Option<&SolveBudget> {
        self.budget.as_ref()
    }

    /// The configuration in use.
    pub fn config(&self) -> &SolverConfig {
        &self.config
    }

    /// The topology in use.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Prepares the (possibly hyper-edge transformed) topology and the epoch
    /// duration for a demand.
    fn prepare(&self, chunk_bytes: f64) -> (Topology, Vec<crate::switch::HyperEdgeGroup>, f64) {
        let (topo, groups) = match self.config.switch_model {
            SwitchModel::HyperEdge => hyperedge_transform(&self.topology),
            _ => (self.topology.clone(), Vec::new()),
        };
        let tau = epoch_duration(&topo, chunk_bytes, &self.config);
        (topo, groups, tau)
    }

    /// Solves a demand with `method`. [`RequestMethod::Auto`] chooses the
    /// formulation: copy-free demands use the LP; copy-friendly demands use
    /// the MILP on small topologies and A* on larger ones.
    ///
    /// `warm` is handed to the root relaxation of the LP or the MILP — the
    /// re-entrant entry point the schedule service uses from its worker
    /// threads. A basis of the wrong shape (from a different size bucket
    /// whose epoch count differs, say) silently falls back to a cold start
    /// inside the LP layer, so a stale hint can cost a failed warm attempt
    /// but never correctness. A* ignores `warm` and publishes no basis: its
    /// rounds' answer would otherwise depend on which request came first.
    pub fn solve(
        &self,
        demand: &DemandMatrix,
        chunk_bytes: f64,
        method: RequestMethod,
        warm: Option<&SimplexBasis>,
    ) -> Result<SolveOutcome, TeCclError> {
        let mut outcome = match method {
            RequestMethod::Lp => self.solve_lp(demand, chunk_bytes, warm),
            RequestMethod::Auto if !demand.benefits_from_copy() => {
                self.solve_lp(demand, chunk_bytes, warm)
            }
            RequestMethod::AStar => self.solve_astar(demand, chunk_bytes),
            RequestMethod::Auto if self.topology.num_gpus() > ASTAR_GPU_THRESHOLD => {
                self.solve_astar(demand, chunk_bytes)
            }
            RequestMethod::Milp | RequestMethod::Auto => self.solve_milp(demand, chunk_bytes, warm),
        }?;
        // The factors serve only warm starts inside this solve; a published
        // basis leaves without them, so no book or disk entry holds factors.
        if let Some(basis) = &mut outcome.basis {
            basis.factors = None;
        }
        Ok(outcome)
    }

    /// Runs `attempt` at the horizon `first` and, while it is refuted
    /// ([`TeCclError::InfeasibleWithEpochs`]), at horizons grown by a doubling
    /// *increment* — `first + 2`, `+ 6`, `+ 14`, … — so a miss costs a few
    /// epochs, not a model of twice the size. `first` is never below the
    /// method's proven bound: the callers raise a smaller `max_epochs` to it.
    fn climb_horizons(
        &self,
        first: usize,
        mut attempt: impl FnMut(usize) -> Result<SolveOutcome, TeCclError>,
    ) -> Result<SolveOutcome, TeCclError> {
        let (mut k, mut step) = (first, 2);
        let mut last_err = TeCclError::NoSolution;
        for _attempt in 0..HORIZON_ATTEMPTS {
            check_budget(self.budget.as_ref())?;
            match attempt(k) {
                Err(TeCclError::InfeasibleWithEpochs(_)) => {
                    last_err = TeCclError::InfeasibleWithEpochs(k);
                    k += step;
                    step *= 2;
                }
                done => return done,
            }
        }
        Err(last_err)
    }

    /// The general MILP formulation (§3.1). The instance's symmetry group is
    /// searched once, and the horizon bound is computed over it: the horizon
    /// starts at [`crate::epochs::copy_horizon_bound`] for copy demands, one
    /// epoch above [`crate::epochs::horizon_lower_bound`] otherwise (or at `max_epochs`,
    /// never below the bound), and climbs like the LP's while the MILP is
    /// infeasible.
    ///
    /// At each horizon the root node of the MILP over that group is solved
    /// first (the trivial group under hyper-edges, when the group does not
    /// keep the demand's chunks, or when an element fixes a link or a GPU).
    /// Its answer is taken when the root ends `Optimal` — its incumbent
    /// within `rel_gap` of the root bound — or when the budget stopped it
    /// with an incumbent; the root bound bounds the full model
    /// ([`crate::symmetry`]), so the answer is
    /// exact. Otherwise, a quotient refuted at this horizon included, the
    /// full model is solved at the same horizon.
    fn solve_milp(
        &self,
        demand: &DemandMatrix,
        chunk_bytes: f64,
        warm: Option<&SimplexBasis>,
    ) -> Result<SolveOutcome, TeCclError> {
        let start = Instant::now();
        let (topo, groups, tau) = self.prepare(chunk_bytes);
        let options = MilpBuildOptions {
            hyperedge_groups: groups,
            ..Default::default()
        };
        let budget = self.budget.as_ref();
        let MilpHorizon {
            bound,
            first,
            group,
            pivots: bound_pivots,
        } = milp_horizon(&topo, demand, chunk_bytes, tau, budget)?;
        let first = self.config.max_epochs.map_or(first, |k| k.max(bound));
        // The bound LPs read only link coefficients and wanted counts; the
        // MILP keeps chunks apart and has hyper-edge port rows. Over a group
        // that fixes a link or a GPU, presolve may cut the quotient's root
        // below the full model's optimum, so its root bound proves nothing
        // ([`crate::symmetry`]).
        let group = if options.hyperedge_groups.is_empty()
            && group.keeps_chunks(demand)
            && !group.fixes_a_link_or_gpu(&topo)
        {
            group
        } else {
            SymmetryGroup::trivial(&topo)
        };
        let build = |k, group| {
            MilpFormulation::build_over(
                &topo,
                demand,
                chunk_bytes,
                &self.config,
                k,
                tau,
                &options,
                group,
                budget,
            )
        };
        // The quotient's answer is only taken from its root node, so it
        // solves nothing else: a zero time limit stops its tree after the
        // root, `Optimal` when the root's incumbent is within `rel_gap` of
        // the root bound.
        let root_only = SolverConfig {
            time_limit: Some(Duration::ZERO),
            ..self.config.clone()
        };
        self.climb_horizons(first, |k| {
            // Work spent on a quotient whose answer was not taken.
            let mut spent = SolveStats::default();
            let mut taken = None;
            if !group.is_trivial() {
                let form = build(k, group.clone())?;
                match form.solve_budgeted(&root_only, warm, budget) {
                    Ok(sol)
                        if sol.status == SolveStatus::Optimal
                            || sol.stats.budget_stop.is_some() =>
                    {
                        taken = Some((form, sol));
                    }
                    Ok(sol) => spent = sol.stats,
                    Err(TeCclError::InfeasibleWithEpochs(_) | TeCclError::NoSolution) => {}
                    Err(e) => return Err(e),
                }
            }
            let (form, mut sol) = match taken {
                Some(taken) => taken,
                None => {
                    let form = build(k, SymmetryGroup::trivial(&topo))?;
                    let sol = form.solve_budgeted(&self.config, warm, budget)?;
                    (form, sol)
                }
            };
            sol.stats.absorb(&spent);
            sol.stats.bound_iterations = bound_pivots;
            let sends = form.sends(&sol);
            let pruned = prune_sends(&sends, demand, form.initial_holders(), |a, b| {
                form.delta_of(a, b)
            });
            let mut schedule = schedule_from_sends(
                "te-ccl-milp",
                chunk_bytes,
                tau,
                pruned,
                start.elapsed().as_secs_f64(),
            );
            schedule.num_epochs = schedule.num_epochs.max(k);
            Ok(SolveOutcome {
                schedule,
                topology_used: topo.clone(),
                formulation: FormulationKind::GeneralMilp,
                status: sol.status,
                solver_time: start.elapsed(),
                num_epochs: k,
                epoch_duration: tau,
                mip_gap: sol.stats.mip_gap,
                stats: sol.stats,
                basis: sol.basis,
            })
        })
    }

    /// The LP formulation (§4.1) — intended for copy-free demands. The
    /// instance's symmetry group is searched once; the bound and every
    /// horizon's LP are laid out over it. The horizon starts at
    /// [`crate::epochs::horizon_lower_bound`]` + 1` (or at `max_epochs`, never below the
    /// bound) and grows by 2, 4, 8, … epochs while the LP is infeasible.
    fn solve_lp(
        &self,
        demand: &DemandMatrix,
        chunk_bytes: f64,
        warm: Option<&SimplexBasis>,
    ) -> Result<SolveOutcome, TeCclError> {
        let start = Instant::now();
        let (topo, _groups, tau) = self.prepare(chunk_bytes);

        // The group depends on τ and the chunk size, not on the horizon.
        let group = SymmetryGroup::find(&topo, demand, chunk_bytes, tau, self.budget.as_ref())?;
        // The horizon starts one epoch above the proven bound, and a
        // configured `max_epochs` below the bound is raised to it: no model
        // is ever built where the LP is known to be infeasible. (A demand
        // that copy would help gets the "without copy" LP of Figure 7, for
        // which the bound holds all the same.)
        let (bound, bound_pivots) = lower_bound_and_pivots(
            &topo,
            demand,
            chunk_bytes,
            tau,
            &group,
            self.budget.as_ref(),
        )?;
        let first = self
            .config
            .max_epochs
            .unwrap_or(bound + HORIZON_SLACK)
            .max(bound);
        self.climb_horizons(first, |k| {
            let form = LpFormulation::build_over(
                &topo,
                demand,
                chunk_bytes,
                &self.config,
                k,
                tau,
                group.clone(),
                self.budget.as_ref(),
            )?;
            let mut sol = form.solve_budgeted(warm, self.budget.as_ref())?;
            sol.stats.bound_iterations = bound_pivots;
            let sends = form.extract_sends(&sol, demand);
            let mut schedule = schedule_from_sends(
                "te-ccl-lp",
                chunk_bytes,
                tau,
                sends,
                start.elapsed().as_secs_f64(),
            );
            schedule.num_epochs = schedule.num_epochs.max(form.completion_epoch(&sol) + 1);
            Ok(SolveOutcome {
                schedule,
                topology_used: topo.clone(),
                formulation: FormulationKind::Lp,
                status: sol.status,
                solver_time: start.elapsed(),
                num_epochs: k,
                epoch_duration: tau,
                mip_gap: 0.0,
                stats: sol.stats,
                basis: sol.basis,
            })
        })
    }

    /// The A* technique (§4.2), always from a cold first round.
    fn solve_astar(
        &self,
        demand: &DemandMatrix,
        chunk_bytes: f64,
    ) -> Result<SolveOutcome, TeCclError> {
        let start = Instant::now();
        let (topo, _groups, tau) = self.prepare(chunk_bytes);
        let out = solve_astar_budgeted(
            &topo,
            demand,
            chunk_bytes,
            &self.config,
            tau,
            None,
            self.budget.as_ref(),
        )?;
        let grid = EpochGrid::new(&topo, chunk_bytes, tau);
        let pruned = prune_sends(&out.sends, demand, &out.initial_holders, |a, b| {
            grid.delay_between(&topo, a, b)
        });
        let schedule = schedule_from_sends(
            "te-ccl-astar",
            chunk_bytes,
            tau,
            pruned,
            start.elapsed().as_secs_f64(),
        );
        Ok(SolveOutcome {
            schedule,
            topology_used: topo,
            formulation: FormulationKind::AStar,
            status: SolveStatus::Feasible,
            solver_time: start.elapsed(),
            num_epochs: out.rounds * out.epochs_per_round,
            epoch_duration: tau,
            mip_gap: f64::NAN,
            stats: out.stats,
            basis: None,
        })
    }

    /// Solves a multi-tenant problem (§5): the per-tenant demands are summed
    /// into one demand matrix (disjoint chunk-id ranges) and the tenants'
    /// priorities weight the objective terms of their chunks.
    pub fn solve_multi_tenant(
        &self,
        tenants: &[TenantDemand],
        chunk_bytes: f64,
    ) -> Result<SolveOutcome, TeCclError> {
        if tenants.is_empty() {
            return Err(TeCclError::EmptyDemand);
        }
        let demands: Vec<DemandMatrix> = tenants.iter().map(|t| t.demand.clone()).collect();
        let (combined, ranges) = DemandMatrix::combine(&demands);
        let mut priorities = vec![1.0; combined.num_chunks];
        for (tenant, range) in tenants.iter().zip(ranges.iter()) {
            for c in range.clone() {
                priorities[c] = tenant.priority;
            }
        }
        let mut solver = self.clone();
        solver.config.chunk_priorities = Some(priorities);
        solver.solve(&combined, chunk_bytes, RequestMethod::Auto, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use teccl_collective::CollectiveKind;
    use teccl_schedule::{simulate, validate};
    use teccl_topology::{internal2, line_topology, ring_topology, NodeId};
    use teccl_util::BudgetExceeded;

    fn check_outcome(outcome: &SolveOutcome, demand: &DemandMatrix) {
        let report = validate(&outcome.topology_used, demand, &outcome.schedule, false);
        assert!(report.is_valid(), "schedule invalid: {:?}", report.errors);
        let sim = simulate(&outcome.topology_used, demand, &outcome.schedule).unwrap();
        assert!(sim.transfer_time > 0.0);
    }

    #[test]
    fn auto_dispatch_allgather_uses_milp_small() {
        let topo = ring_topology(3, 1e9, 0.0);
        let gpus: Vec<NodeId> = topo.gpus().collect();
        let demand = DemandMatrix::all_gather(3, &gpus, 1);
        let solver = TeCcl::new(topo, SolverConfig::default());
        let out = solver
            .solve(&demand, 1e6, RequestMethod::Auto, None)
            .unwrap();
        assert_eq!(out.formulation, FormulationKind::GeneralMilp);
        check_outcome(&out, &demand);
    }

    #[test]
    fn auto_dispatch_alltoall_uses_lp() {
        let topo = ring_topology(4, 1e9, 0.0);
        let gpus: Vec<NodeId> = topo.gpus().collect();
        let demand = DemandMatrix::all_to_all(4, &gpus, 1);
        let solver = TeCcl::new(topo, SolverConfig::default());
        let out = solver
            .solve(&demand, 1e6, RequestMethod::Auto, None)
            .unwrap();
        assert_eq!(out.formulation, FormulationKind::Lp);
        check_outcome(&out, &demand);
    }

    /// Above [`ASTAR_GPU_THRESHOLD`] GPUs a copy-friendly demand goes to A*:
    /// the guard in the one `match` of [`TeCcl::solve`] that no other test
    /// reaches.
    #[test]
    fn auto_dispatch_allgather_uses_astar_above_the_threshold() {
        let topo = ring_topology(ASTAR_GPU_THRESHOLD + 1, 1e9, 0.0);
        let gpus: Vec<NodeId> = topo.gpus().collect();
        let demand = DemandMatrix::all_gather(gpus.len(), &gpus, 1);
        let solver = TeCcl::new(topo, SolverConfig::default());
        let out = solver
            .solve(&demand, 1e6, RequestMethod::Auto, None)
            .unwrap();
        assert_eq!(out.formulation, FormulationKind::AStar);
        check_outcome(&out, &demand);
    }

    #[test]
    fn broadcast_line_schedule_is_relay() {
        let topo = line_topology(3, 1e9, 1e-6);
        let gpus: Vec<NodeId> = topo.gpus().collect();
        let demand = DemandMatrix::broadcast(3, &gpus, NodeId(0), 1);
        let solver = TeCcl::new(topo, SolverConfig::default());
        let out = solver
            .solve(&demand, 1e6, RequestMethod::Auto, None)
            .unwrap();
        check_outcome(&out, &demand);
        // Pruned schedule should be exactly the 2-hop relay.
        assert_eq!(out.schedule.num_sends(), 2);
    }

    #[test]
    fn explicit_astar_solves_allgather() {
        let topo = line_topology(4, 1e9, 0.0);
        let gpus: Vec<NodeId> = topo.gpus().collect();
        let demand = DemandMatrix::all_gather(4, &gpus, 1);
        let config = SolverConfig {
            astar_epochs_per_round: Some(3),
            ..Default::default()
        };
        let solver = TeCcl::new(topo, config);
        let out = solver
            .solve(&demand, 1e6, RequestMethod::AStar, None)
            .unwrap();
        assert_eq!(out.formulation, FormulationKind::AStar);
        check_outcome(&out, &demand);
    }

    #[test]
    fn hyperedge_switch_model_produces_runnable_schedule() {
        // Internal2 x2 has a switch; with the hyper-edge model the schedule
        // runs over the transformed topology.
        let topo = internal2(2);
        let gpus: Vec<NodeId> = topo.gpus().collect();
        let demand = DemandMatrix::broadcast(topo.num_nodes(), &gpus, gpus[0], 1);
        let solver = TeCcl::new(topo, SolverConfig::taccl_comparable().with_max_epochs(6));
        let out = solver
            .solve(&demand, 1e6, RequestMethod::Milp, None)
            .unwrap();
        // The switch is bypassed: direct cross-chassis hyper-edges exist and
        // no link touches the switch node anymore.
        let sw = solver.topology().switches().next().unwrap();
        assert_eq!(out.topology_used.out_links(sw).count(), 0);
        assert!(out.topology_used.link_between(gpus[0], gpus[2]).is_some());
        check_outcome(&out, &demand);
    }

    #[test]
    fn multi_tenant_combines_and_prioritizes() {
        let topo = ring_topology(3, 1e9, 0.0);
        let gpus: Vec<NodeId> = topo.gpus().collect();
        let t1 = TenantDemand::new("hi", DemandMatrix::all_gather(3, &gpus, 1)).with_priority(4.0);
        let t2 = TenantDemand::new("lo", DemandMatrix::all_gather(3, &gpus, 1));
        let solver = TeCcl::new(topo, SolverConfig::default().with_max_epochs(8));
        let out = solver.solve_multi_tenant(&[t1, t2], 1e6).unwrap();
        // Both tenants' demands are in the combined matrix and must be valid.
        let demands: Vec<DemandMatrix> = vec![
            DemandMatrix::all_gather(3, &gpus, 1),
            DemandMatrix::all_gather(3, &gpus, 1),
        ];
        let (combined, _) = DemandMatrix::combine(&demands);
        check_outcome(&out, &combined);
    }

    #[test]
    fn milp_max_epochs_below_the_bound_is_raised_to_it() {
        // max_epochs = 1 is not enough for a 2-hop broadcast: the MILP starts
        // at the proven bound, 2, instead of building K = 1 first.
        let topo = line_topology(3, 1e9, 0.0);
        let gpus: Vec<NodeId> = topo.gpus().collect();
        let demand = DemandMatrix::broadcast(3, &gpus, NodeId(0), 1);
        let solve = |k| {
            TeCcl::new(topo.clone(), SolverConfig::default().with_max_epochs(k))
                .solve(&demand, 1e6, RequestMethod::Milp, None)
                .unwrap()
        };
        let (raised, exact) = (solve(1), solve(2));
        assert_eq!(raised.num_epochs, 2);
        assert_eq!(
            raised.stats.simplex_iterations,
            exact.stats.simplex_iterations
        );
        check_outcome(&raised, &demand);
    }

    #[test]
    fn milp_on_a_spent_budget_is_a_budget_error() {
        let topo = ring_topology(4, 1e9, 0.0);
        let gpus: Vec<NodeId> = topo.gpus().collect();
        let budget = SolveBudget::unlimited();
        budget.cancel();
        let solver = TeCcl::new(topo, SolverConfig::default()).with_budget(budget);
        for demand in [
            DemandMatrix::all_gather(4, &gpus, 1),
            DemandMatrix::gather(4, &gpus, NodeId(0), 1),
        ] {
            assert!(matches!(
                solver.solve(&demand, 1e6, RequestMethod::Milp, None),
                Err(TeCclError::Budget(BudgetExceeded::Cancelled))
            ));
        }
    }

    /// The horizon-bound LPs' pivots are reported apart from the
    /// formulation's walk.
    #[test]
    fn dgx1_allgather_milp_reports_its_bound_pivots() {
        use teccl_collective::CollectiveSizing;
        let topo = teccl_topology::dgx1();
        let gpus: Vec<NodeId> = topo.gpus().collect();
        let kind = CollectiveKind::AllGather;
        let demand = DemandMatrix::for_collective(kind, topo.num_nodes(), &gpus, 1);
        let chunk_bytes = CollectiveSizing::new(kind, gpus.len())
            .transfer_bytes_for_output_buffer(16.0 * 1024.0 * 1024.0);
        let out = TeCcl::new(topo, SolverConfig::default())
            .solve(&demand, chunk_bytes, RequestMethod::Milp, None)
            .unwrap();
        assert_eq!(out.formulation, FormulationKind::GeneralMilp);
        assert!(out.stats.bound_iterations > 0);
        assert!(out.stats.simplex_iterations > 0);
        check_outcome(&out, &demand);
    }

    #[test]
    fn gather_collective_via_kind_builder() {
        let topo = line_topology(3, 1e9, 0.0);
        let gpus: Vec<NodeId> = topo.gpus().collect();
        let demand = DemandMatrix::for_collective(CollectiveKind::Gather, 3, &gpus, 1);
        let solver = TeCcl::new(topo, SolverConfig::default());
        let out = solver
            .solve(&demand, 1e6, RequestMethod::Auto, None)
            .unwrap();
        assert_eq!(out.formulation, FormulationKind::Lp);
        check_outcome(&out, &demand);
    }

    #[test]
    fn empty_tenant_list_rejected() {
        let topo = line_topology(2, 1e9, 0.0);
        let solver = TeCcl::new(topo, SolverConfig::default());
        assert!(matches!(
            solver.solve_multi_tenant(&[], 1e6),
            Err(TeCclError::EmptyDemand)
        ));
    }
}
