//! The solve pipeline walked by hand, one span per layer.
//!
//! This mirrors what a cold `miss` does inside the service for the default
//! `SolverConfig` (`service::solve_job` -> `TeCcl::solve_*_from` ->
//! `Model::solve_lp_relaxation_*`), calling each crate's public functions
//! directly so that every stage can be timed from outside. The wire reply of
//! the same request is the reference: `trace.mirror_share` is the share of
//! walked requests that reproduced its pivot count and transfer time, so a
//! change to the product's orchestration that this file has not followed
//! shows up as a share below 1.

use std::sync::Arc;
use std::time::Instant;

use teccl_core::astar::solve_astar_budgeted;
use teccl_core::epochs::{delta_epochs, epoch_duration, estimate_num_epochs, kappa_epochs};
use teccl_core::extract::{prune_sends, schedule_from_sends};
use teccl_core::lp_form::LpFormulation;
use teccl_core::milp_form::{MilpBuildOptions, MilpFormulation};
use teccl_core::SwitchModel;
use teccl_lp::presolve::presolve;
use teccl_lp::{solve_standard_form_budgeted, SimplexBasis, SolveStats, SolveStatus, StandardForm};
use teccl_schedule::{simulate, validate, CollectiveMetrics, Schedule, ScheduleOutput};
use teccl_service::protocol::solve_response;
use teccl_service::{
    CacheEntry, CacheStatus, Quality, RequestMethod, ServedSchedule, SolveRequest,
};

use crate::trace::Tracer;

/// Work counted at the layer boundaries of the walked requests.
#[derive(Debug, Default, Clone)]
pub struct Counters {
    pub horizon_attempts: usize,
    /// Seconds spent in horizon attempts that ended infeasible.
    pub wasted_s: f64,
    pub lp_rows: usize,
    pub lp_cols: usize,
    pub lp_nnz: usize,
    pub milp_rows: usize,
    pub milp_cols: usize,
    pub milp_int_vars: usize,
    pub astar_rounds: usize,
    pub cols_fixed: usize,
    pub rows_freed: usize,
    /// Primal-simplex runs of the LP path only (B&B pivots are in `milp`).
    pub simplex_iterations: usize,
    pub simplex_factorizations: usize,
    /// `SolveStats` summed over MILP and A* solves.
    pub milp: SolveStats,
    pub extract_sends: usize,
    pub bytes_on_wire: f64,
}

/// The largest LP a walk solved, kept for the `lp.basis` measurements.
pub struct SolvedLp {
    pub form: StandardForm,
    pub basis: SimplexBasis,
}

#[derive(Default)]
pub struct Walker {
    pub counters: Counters,
    pub largest_lp: Option<SolvedLp>,
}

struct Solved {
    schedule: Schedule,
    tau: f64,
    stats: SolveStats,
    /// What the service would publish to its basis book and disk store.
    basis: Option<SimplexBasis>,
}

impl Walker {
    /// Demand -> horizon -> formulate -> solve -> extract -> validate ->
    /// simulate -> cache entry, for an already parsed request.
    pub fn solve(
        &mut self,
        tr: &mut Tracer,
        request: &SolveRequest,
    ) -> Result<(CacheEntry, Option<SimplexBasis>), String> {
        let config = &request.config;
        if config.switch_model == SwitchModel::HyperEdge || config.max_epochs.is_some() {
            return Err("the walk covers the default SolverConfig only".into());
        }
        let started = Instant::now();
        let topo = &request.topology;
        let (demand, chunk_bytes) = tr.span("collective.demand", |_| {
            (request.demand(), request.chunk_bytes())
        });
        let (tau, k0) = tr.span("core.epochs", |_| {
            let tau = epoch_duration(topo, chunk_bytes, config);
            (tau, estimate_num_epochs(topo, &demand, chunk_bytes, tau))
        });

        let solved = match request.method {
            RequestMethod::Lp => self.solve_lp(tr, request, &demand, chunk_bytes, tau, k0)?,
            RequestMethod::Milp => self.solve_milp(tr, request, &demand, chunk_bytes, tau, k0)?,
            RequestMethod::AStar => self.solve_astar(tr, request, &demand, chunk_bytes, tau)?,
            RequestMethod::Auto => return Err("workloads name their method".into()),
        };
        let solver_time = started.elapsed().as_secs_f64();
        self.counters.extract_sends += solved.schedule.num_sends();

        let report = tr.span("schedule.validate", |_| {
            validate(topo, &demand, &solved.schedule, false)
        });
        if !report.is_valid() {
            return Err(format!("walked schedule invalid: {:?}", report.errors));
        }
        let sim = tr
            .span("schedule.sim", |_| {
                simulate(topo, &demand, &solved.schedule)
            })
            .map_err(|e| e.to_string())?;
        self.counters.bytes_on_wire += sim.bytes_on_wire;
        let entry = CacheEntry {
            key: request.key(),
            output: ScheduleOutput {
                metrics: CollectiveMetrics {
                    solver: solved.schedule.name.clone(),
                    epoch_duration: solved.tau,
                    transfer_time: sim.transfer_time,
                    solver_time,
                    output_buffer_bytes: request.output_buffer,
                    bytes_on_wire: sim.bytes_on_wire,
                },
                schedule: solved.schedule,
            },
            topology_used: topo.clone(),
            chunk_bytes,
            stats: solved.stats,
            quality: Quality::Exact,
        };
        Ok((entry, solved.basis))
    }

    /// `TeCcl::solve_lp_from` + `Model::solve_lp_relaxation_threaded` at
    /// `threads = 1`: build, presolve, standard form, primal simplex, recover;
    /// double the horizon while the LP is infeasible.
    fn solve_lp(
        &mut self,
        tr: &mut Tracer,
        request: &SolveRequest,
        demand: &teccl_collective::DemandMatrix,
        chunk_bytes: f64,
        tau: f64,
        k0: usize,
    ) -> Result<Solved, String> {
        let started = Instant::now();
        let (topo, config) = (&request.topology, &request.config);
        let mut k = k0.max(2);
        for _ in 0..3 {
            let attempt = Instant::now();
            self.counters.horizon_attempts += 1;
            let form = tr
                .span("core.lp_form.build", |_| {
                    LpFormulation::build(topo, demand, chunk_bytes, config, k, tau)
                })
                .map_err(|e| e.to_string())?;
            let (tightened, post) = tr
                .span("lp.presolve", |_| presolve(&form.model))
                .map_err(|e| e.to_string())?;
            let mut sol = match post.trivial_outcome() {
                Some(early) => early,
                None => {
                    let sf = tr.span("lp.standard.build", |_| {
                        let mut sf = StandardForm::from_model(&tightened);
                        post.relax_free_rows(&mut sf);
                        sf
                    });
                    let sol = tr
                        .span("lp.simplex", |_| {
                            solve_standard_form_budgeted(&sf, tightened.num_vars(), &[], None, None)
                        })
                        .map_err(|e| e.to_string())?;
                    self.counters.simplex_iterations += sol.stats.simplex_iterations;
                    self.counters.simplex_factorizations += sol.stats.factorizations;
                    if sol.status == SolveStatus::Optimal {
                        self.counters.lp_rows += sf.num_rows();
                        self.counters.lp_cols += sf.num_cols();
                        self.counters.lp_nnz += sf.a.nnz();
                        let largest = self.largest_lp.as_ref().map_or(0, |l| l.form.num_rows());
                        if let (true, Some(basis)) = (sf.num_rows() > largest, &sol.basis) {
                            self.largest_lp = Some(SolvedLp {
                                form: sf,
                                basis: basis.clone(),
                            });
                        }
                    }
                    sol
                }
            };
            sol = tr.span("lp.presolve.recover", |_| post.recover(sol, &form.model));
            self.counters.cols_fixed += sol.stats.cols_fixed;
            self.counters.rows_freed += sol.stats.rows_freed;
            match sol.status {
                SolveStatus::Infeasible => {
                    self.counters.wasted_s += attempt.elapsed().as_secs_f64();
                    k *= 2;
                }
                SolveStatus::Unbounded | SolveStatus::LimitReached => {
                    return Err(format!("LP ended {:?}", sol.status))
                }
                SolveStatus::Optimal | SolveStatus::Feasible => {
                    let schedule = tr.span("core.extract", |_| {
                        let sends = form.extract_sends(&sol, demand);
                        let mut schedule = schedule_from_sends(
                            "te-ccl-lp",
                            chunk_bytes,
                            tau,
                            sends,
                            started.elapsed().as_secs_f64(),
                        );
                        schedule.num_epochs =
                            schedule.num_epochs.max(form.completion_epoch(&sol) + 1);
                        schedule
                    });
                    return Ok(Solved {
                        schedule,
                        tau,
                        stats: sol.stats,
                        basis: sol.basis,
                    });
                }
            }
        }
        Err(format!("LP infeasible up to {k} epochs"))
    }

    /// `TeCcl::solve_milp_from`: build, branch and bound as one span, extract.
    fn solve_milp(
        &mut self,
        tr: &mut Tracer,
        request: &SolveRequest,
        demand: &teccl_collective::DemandMatrix,
        chunk_bytes: f64,
        tau: f64,
        k0: usize,
    ) -> Result<Solved, String> {
        let started = Instant::now();
        let (topo, config) = (&request.topology, &request.config);
        let options = MilpBuildOptions::default();
        let mut k = k0.max(2);
        for _ in 0..3 {
            let attempt = Instant::now();
            self.counters.horizon_attempts += 1;
            let form = tr
                .span("core.milp_form.build", |_| {
                    MilpFormulation::build(topo, demand, chunk_bytes, config, k, tau, &options)
                })
                .map_err(|e| e.to_string())?;
            match tr.span("lp.milp", |_| form.solve_budgeted(config, None, None)) {
                Ok(sol) => {
                    self.counters.milp_rows += form.model.num_cons();
                    self.counters.milp_cols += form.model.num_vars();
                    self.counters.milp_int_vars += form.num_integer_vars();
                    self.counters.milp.absorb(&sol.stats);
                    let schedule = tr.span("core.extract", |_| {
                        let pruned = prune_sends(
                            &form.sends(&sol),
                            demand,
                            form.initial_holders(),
                            |a, b| form.delta_of(a, b),
                        );
                        let mut schedule = schedule_from_sends(
                            "te-ccl-milp",
                            chunk_bytes,
                            tau,
                            pruned,
                            started.elapsed().as_secs_f64(),
                        );
                        schedule.num_epochs = schedule.num_epochs.max(k);
                        schedule
                    });
                    return Ok(Solved {
                        schedule,
                        tau,
                        stats: sol.stats,
                        basis: sol.basis,
                    });
                }
                Err(teccl_core::TeCclError::InfeasibleWithEpochs(_)) => {
                    self.counters.wasted_s += attempt.elapsed().as_secs_f64();
                    k *= 2;
                }
                Err(e) => return Err(e.to_string()),
            }
        }
        Err(format!("MILP infeasible up to {k} epochs"))
    }

    /// `TeCcl::solve_astar_from`: the rounds are one span (they cannot be
    /// split from outside), then prune and assemble.
    fn solve_astar(
        &mut self,
        tr: &mut Tracer,
        request: &SolveRequest,
        demand: &teccl_collective::DemandMatrix,
        chunk_bytes: f64,
        tau: f64,
    ) -> Result<Solved, String> {
        let started = Instant::now();
        let (topo, config) = (&request.topology, &request.config);
        let out = tr
            .span("core.astar", |_| {
                solve_astar_budgeted(topo, demand, chunk_bytes, config, tau, None, None)
            })
            .map_err(|e| e.to_string())?;
        self.counters.astar_rounds += out.rounds;
        self.counters.milp.absorb(&out.stats);
        let schedule = tr.span("core.extract", |_| {
            let delta_of = |a, b| {
                topo.link_between(a, b)
                    .map(|l| delta_epochs(l, tau) + kappa_epochs(l, chunk_bytes, tau) - 1)
                    .unwrap_or(0)
            };
            let pruned = prune_sends(&out.sends, demand, &out.initial_holders, delta_of);
            schedule_from_sends(
                "te-ccl-astar",
                chunk_bytes,
                tau,
                pruned,
                started.elapsed().as_secs_f64(),
            )
        });
        Ok(Solved {
            schedule,
            tau,
            stats: out.stats,
            basis: out.final_basis,
        })
    }
}

/// `solve_response(..).to_json()` plus the newline, as `server.rs` writes it.
pub fn serialize(tr: &mut Tracer, entry: &Arc<CacheEntry>, cache: CacheStatus) -> String {
    tr.span("service.protocol.serialize", |_| {
        let served = ServedSchedule {
            entry: Arc::clone(entry),
            cache,
            quality: entry.quality,
        };
        let mut line = solve_response(&served).to_json();
        line.push('\n');
        line
    })
}
