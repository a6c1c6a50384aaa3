//! The linear-program formulation for copy-free demands (§4.1, Appendix A).
//!
//! When no chunk is wanted by more than one destination (ALLTOALL, SCATTER,
//! GATHER, REDUCESCATTER), copy is useless and the per-chunk integer variables
//! of the MILP can be replaced by per-source *aggregate* continuous flows
//! `F[s,(i,j),k]` (in chunk units). The result is an LP — polynomial-time
//! solvable and far more scalable — that is still optimal for these demands.
//!
//! It is laid out on the MILP's time-expanded network (`time_expanded`), one
//! commodity per source, over the copy-free [`EpochGrid`] (a hop costs
//! δ + 1); this module adds the epoch-0 rows, the destination totals and the
//! rate-to-schedule step.
//!
//! The model is the quotient by a [`SymmetryGroup`]: variables and per-source
//! rows for one representative per source orbit, one capacity row per link
//! orbit and one buffer row per node orbit (see [`crate::symmetry`] for why
//! that is exact). Every value accessor answers for every source by mapping
//! through the group; over the trivial group the model is the full one.

use teccl_collective::DemandMatrix;
use teccl_lp::{ConstraintOp, Model, Sense, Solution, VarId};
use teccl_schedule::{ChunkId, Send};
use teccl_topology::{NodeId, Topology};
use teccl_util::SolveBudget;

use crate::config::{BufferMode, SolverConfig};
use crate::epochs::EpochGrid;
use crate::error::{check_budget, check_demand, TeCclError};
use crate::extract::decompose_source_flow;
use crate::symmetry::SymmetryGroup;
use crate::time_expanded::{source_orbits, Kind, TimeExpanded};

/// A fully built LP instance for one copy-free collective optimization.
#[derive(Debug)]
pub struct LpFormulation {
    /// The underlying optimization model (continuous variables only).
    pub model: Model,
    /// Epoch duration in seconds.
    pub tau: f64,
    /// Number of epochs `K`.
    pub num_epochs: usize,
    /// Chunk size in bytes.
    pub chunk_bytes: f64,
    /// The network, one commodity (chunk 0) per representative source.
    net: TimeExpanded,
}

impl LpFormulation {
    /// Builds the LP for `demand` on `topology` with `num_epochs` epochs of
    /// duration `tau`, over the group [`SymmetryGroup::find`] returns.
    ///
    /// The demand should not benefit from copy; if it does, the LP still
    /// produces a valid schedule but a sub-optimal one (each copy is sent
    /// separately from the source), which is exactly the "without copy"
    /// baseline of Figure 7.
    pub fn build(
        topology: &Topology,
        demand: &DemandMatrix,
        chunk_bytes: f64,
        config: &SolverConfig,
        num_epochs: usize,
        tau: f64,
    ) -> Result<Self, TeCclError> {
        let group = SymmetryGroup::find(topology, demand, chunk_bytes, tau, None)?;
        Self::build_over(
            topology,
            demand,
            chunk_bytes,
            config,
            num_epochs,
            tau,
            group,
            None,
        )
    }

    /// [`LpFormulation::build`] over a given `group`, which must be a
    /// symmetry group of this instance ([`SymmetryGroup::find`],
    /// [`SymmetryGroup::generated_by`] or [`SymmetryGroup::trivial`]), under
    /// the request's `budget`: checked (never charged) at every step of the
    /// build's outer loops (one per source, link or node), a spent budget
    /// fails the build with [`TeCclError::Budget`].
    #[allow(clippy::too_many_arguments)]
    pub fn build_over(
        topology: &Topology,
        demand: &DemandMatrix,
        chunk_bytes: f64,
        config: &SolverConfig,
        num_epochs: usize,
        tau: f64,
        group: SymmetryGroup,
        budget: Option<&SolveBudget>,
    ) -> Result<Self, TeCclError> {
        check_demand(topology, demand)?;

        let k_max = num_epochs;
        // One commodity per representative of a source orbit.
        let orbits = source_orbits(topology, demand, group);
        let sources = topology.gpus().filter(|&s| orbits.is_representative(s));
        let sources = sources.map(|s| (s, 0)).collect();
        let grid = EpochGrid::copy_free(topology, chunk_bytes, tau);
        let mut net = TimeExpanded::new(topology, grid, orbits, sources, k_max);
        // Each representative's reads stand for its whole orbit's.
        let orbit = net.orbits.weight();

        let mut model = Model::new(Sense::Maximize);
        // `(commodity, destination, chunks it reads)`.
        let mut reads = Vec::new();

        // ----- Variables ------------------------------------------------------
        // Unnamed: the model is read by index (`Model::validate` reports
        // `#j`).
        for (i, &(s, _)) in net.commodities.list().iter().enumerate() {
            check_budget(budget)?;
            for link in &topology.links {
                for k in 0..k_max {
                    let v = model.add_var("", 0.0, f64::INFINITY, 0.0, false);
                    net.f.insert(i, link.id.0, k, v);
                }
            }
            for n in topology.gpus() {
                // Buffer limit of zero relay buffering under NoStoreAndForward:
                // only the source itself and destinations keep buffers.
                let buffered = match config.buffer_mode {
                    BufferMode::Unlimited | BufferMode::LimitedChunks(_) => true,
                    BufferMode::NoStoreAndForward => {
                        n == s || (0..demand.num_chunks).any(|c| demand.wants(s, c, n))
                    }
                };
                if !buffered {
                    continue;
                }
                for k in 0..=k_max {
                    let v = model.add_var("", 0.0, f64::INFINITY, 0.0, false);
                    net.b.insert(i, n.0, k, v);
                }
            }
            for d in topology.gpus() {
                let wanted = (0..demand.num_chunks)
                    .filter(|&c| demand.wants(s, c, d))
                    .count();
                if wanted == 0 {
                    continue;
                }
                reads.push((i, d, wanted));
                for k in 0..k_max {
                    let weight = orbit / (k as f64 + 1.0);
                    let v = model.add_var("", 0.0, f64::INFINITY, weight, false);
                    net.r.insert(i, d.0, k, v);
                }
            }
        }

        // `F[i, l, k]`, laid out for every link and epoch.
        let f_at = |i: usize, l: usize, k: usize| net.f.get(i, l, k).expect("every F is laid out");

        // ----- Initialization (Appendix A, first epoch) -------------------------
        for (i, &(s, _)) in net.commodities.list().iter().enumerate() {
            check_budget(budget)?;
            let total: f64 = demand.demand_of_source(s) as f64;
            for n in topology.nodes.iter().map(|n| n.id) {
                if n == s {
                    // B[s,s,0] + Σ_out F[s,(s,j),0] = total demand from s.
                    let own = net.b.get(i, s.0, 0).expect("a source buffers");
                    let mut terms: Vec<(VarId, f64)> = vec![(own, 1.0)];
                    for outl in topology.out_links(s) {
                        terms.push((f_at(i, outl.id.0, 0), 1.0));
                    }
                    model.add_cons("", &terms, ConstraintOp::Eq, total);
                } else {
                    // Nothing anywhere else at epoch 0.
                    if let Some(b) = net.b.get(i, n.0, 0) {
                        model.set_bounds(b, 0.0, 0.0);
                    }
                    for outl in topology.out_links(n) {
                        model.set_bounds(f_at(i, outl.id.0, 0), 0.0, 0.0);
                    }
                }
            }
        }

        // ----- Flow conservation (GPUs, then switches: no buffer, no reads) ----
        let mut terms: Vec<(VarId, f64)> = Vec::new();
        for i in 0..net.commodities.len() {
            let nodes = topology.gpus().chain(topology.switches());
            net.conservation_rows(&mut model, &mut terms, i, nodes, budget)?;
        }

        // ----- Capacity and buffer size limit (Appendix B, LP variant) ----------
        net.capacity_rows(&mut model, budget)?;
        if let BufferMode::LimitedChunks(limit) = config.buffer_mode {
            net.buffer_limit_rows(&mut model, limit, budget)?;
        }

        // ----- Destination totals ---------------------------------------------------
        for &(i, d, wanted) in &reads {
            check_budget(budget)?;
            terms.clear();
            terms.extend((0..k_max).map(|k| {
                let r = net.r.get(i, d.0, k).expect("a read per wanted epoch");
                (r, 1.0)
            }));
            model.add_cons("", &terms, ConstraintOp::Eq, wanted as f64);
        }

        Ok(Self {
            model,
            tau,
            num_epochs: k_max,
            chunk_bytes,
            net,
        })
    }

    /// Solves the LP, optionally warm-starting from the basis of a previous
    /// solve of an identically-shaped formulation (the schedule service's
    /// cache-adjacent warm start; a mismatched or stale basis silently
    /// degrades to a cold start), under an optional cooperative
    /// [`SolveBudget`]: the solver checks the budget
    /// at every pivot and, when it trips, hands back the best primal-feasible
    /// point found so far (a usable if suboptimal schedule) with
    /// `stats.budget_stop` set.
    pub fn solve_budgeted(
        &self,
        warm: Option<&teccl_lp::SimplexBasis>,
        budget: Option<&teccl_util::SolveBudget>,
    ) -> Result<Solution, TeCclError> {
        let sol = self.model.solve_lp_relaxation_budgeted(warm, budget)?;
        self.net.outcome(sol)
    }

    /// The last epoch in which any destination still reads data — the LP's
    /// completion epoch (transfer time ≈ `(completion_epoch + 1) * tau` plus
    /// the trailing α of the final hops).
    pub fn completion_epoch(&self, solution: &Solution) -> usize {
        self.net
            .r
            .iter()
            .filter(|&(_, v)| solution.values[v.index()] > 1e-6)
            .map(|((_, _, k), _)| k)
            .max()
            .unwrap_or(0)
    }

    /// The group the model is the quotient by.
    pub fn group(&self) -> &SymmetryGroup {
        self.net.group()
    }

    /// `solution` unrolled onto `full`, a build of the same instance over the
    /// trivial group: every variable of `full` at the value this formulation
    /// gives it through the group.
    pub fn unroll(&self, solution: &Solution, full: &LpFormulation) -> Vec<f64> {
        self.net.unroll(solution, &full.net)
    }

    /// Converts the LP rate solution into an executable per-chunk schedule by
    /// decomposing each source's time-expanded flow into paths and assigning
    /// each demanded chunk to one path (§4.1's rate-to-schedule step).
    ///
    /// Only representatives are decomposed; every element `g` of the group
    /// carries a representative's sends to source `g s`, mapping the `j`-th
    /// chunk `s` sends `d` to the `j`-th chunk `g s` sends `g d`. The schedule
    /// is then as symmetric as the solution, where decomposing each source's
    /// (equally optimal) image flows on its own would break ties differently
    /// per source and collide on links.
    pub fn extract_sends(&self, solution: &Solution, demand: &DemandMatrix) -> Vec<Send> {
        let net = &self.net;
        let topology = &net.topology;
        let link_endpoints: Vec<(NodeId, NodeId)> =
            topology.links.iter().map(|l| (l.src, l.dst)).collect();
        let wanted =
            |s: NodeId, d: NodeId| (0..demand.num_chunks).filter(move |&c| demand.wants(s, c, d));
        let k_max = self.num_epochs;
        let mut flows = vec![0.0; link_endpoints.len() * k_max];
        let mut all = Vec::new();
        for &(s, _) in net.commodities.list() {
            for (l, flow) in flows.iter_mut().enumerate() {
                *flow = net.value(Kind::F, solution, s, 0, l / k_max, l % k_max);
            }
            let chunks_for_dest: Vec<(NodeId, Vec<usize>)> = topology
                .gpus()
                .map(|d| (d, wanted(s, d).collect::<Vec<_>>()))
                .filter(|(_, chunks)| !chunks.is_empty())
                .collect();
            let sends = decompose_source_flow(
                s,
                &chunks_for_dest,
                &flows,
                &link_endpoints,
                |l| net.grid.delay(&topology.links[l]),
                k_max,
            );
            // `decompose_source_flow` emits each chunk's path whole, so the
            // destination of a send is the end of its path: the last send
            // of the same chunk before the next path starts.
            let mut dest = vec![NodeId(0); sends.len()];
            for i in (0..sends.len()).rev() {
                let ends_path = i + 1 == sends.len()
                    || sends[i + 1].chunk != sends[i].chunk
                    || sends[i + 1].from != sends[i].to;
                dest[i] = if ends_path { sends[i].to } else { dest[i + 1] };
            }
            // The position of each send's chunk among the chunks its
            // destination reads from `s`.
            let rank: Vec<usize> = sends
                .iter()
                .zip(&dest)
                .map(|(send, d)| {
                    let (_, chunks) = chunks_for_dest
                        .iter()
                        .find(|(to, _)| to == d)
                        .expect("a path ends at a destination");
                    chunks
                        .iter()
                        .position(|&c| c == send.chunk.chunk)
                        .expect("a path ends at a destination of its chunk")
                })
                .collect();
            let group = net.group();
            for g in 0..group.order() {
                let image = group.node(g, s);
                for ((send, &d), &j) in sends.iter().zip(&dest).zip(&rank) {
                    let chunk = wanted(image, group.node(g, d))
                        .nth(j)
                        .expect("the image reads as many chunks");
                    all.push(Send {
                        chunk: ChunkId::new(image, chunk),
                        from: group.node(g, send.from),
                        to: group.node(g, send.to),
                        epoch: send.epoch,
                    });
                }
            }
        }
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SolverConfig;
    use teccl_topology::{clique_topology, line_topology, ring_topology};

    #[test]
    fn alltoall_on_clique_single_epoch_exchange() {
        // 3 GPUs fully connected, 1 chunk per pair, epoch fits one chunk: the
        // LP should finish in the first epoch (every pair has a direct link).
        let topo = clique_topology(3, 1e9, 0.0);
        let gpus: Vec<NodeId> = topo.gpus().collect();
        let demand = DemandMatrix::all_to_all(3, &gpus, 1);
        let config = SolverConfig::default();
        let form = LpFormulation::build(&topo, &demand, 1e6, &config, 3, 1e-3).unwrap();
        let sol = form.solve_budgeted(None, None).unwrap();
        assert_eq!(form.completion_epoch(&sol), 0);
        // Each destination reads exactly its demand.
        let total_read: f64 = (0..3)
            .flat_map(|s| (0..3).map(move |d| (s, d)))
            .filter(|(s, d)| s != d)
            .map(|(s, d)| {
                (0..3)
                    .map(|k| form.net.value(Kind::R, &sol, NodeId(s), 0, d, k))
                    .sum::<f64>()
            })
            .sum();
        assert!((total_read - 6.0).abs() < 1e-5);
    }

    #[test]
    fn scatter_on_line_respects_bottleneck() {
        // Node 0 scatters 1 chunk to each of nodes 1, 2, 3 on a line: the
        // 0->1 link must carry 3 chunks, so at 1 chunk/epoch the last chunk
        // leaves the source at epoch 2 and the completion epoch cannot be
        // earlier than 2.
        let topo = line_topology(4, 1e9, 0.0);
        let gpus: Vec<NodeId> = topo.gpus().collect();
        let demand = DemandMatrix::scatter(4, &gpus, NodeId(0), 1);
        let config = SolverConfig::default();
        let form = LpFormulation::build(&topo, &demand, 1e6, &config, 8, 1e-3).unwrap();
        let sol = form.solve_budgeted(None, None).unwrap();
        let completion = form.completion_epoch(&sol);
        assert!(completion >= 2, "completion epoch {completion} too early");
        // All 3 chunks eventually read.
        let total: f64 = (1..4)
            .map(|d| {
                (0..8)
                    .map(|k| form.net.value(Kind::R, &sol, NodeId(0), 0, d, k))
                    .sum::<f64>()
            })
            .sum();
        assert!((total - 3.0).abs() < 1e-5);
    }

    #[test]
    fn infeasible_with_too_few_epochs() {
        let topo = line_topology(4, 1e9, 0.0);
        let gpus: Vec<NodeId> = topo.gpus().collect();
        let demand = DemandMatrix::scatter(4, &gpus, NodeId(0), 2);
        let config = SolverConfig::default();
        // 6 chunks over a 1-chunk/epoch bottleneck cannot finish in 2 epochs.
        let form = LpFormulation::build(&topo, &demand, 1e6, &config, 2, 1e-3).unwrap();
        assert!(matches!(
            form.solve_budgeted(None, None),
            Err(TeCclError::InfeasibleWithEpochs(2))
        ));
    }

    #[test]
    fn extract_sends_cover_all_demands() {
        let topo = ring_topology(4, 1e9, 0.0);
        let gpus: Vec<NodeId> = topo.gpus().collect();
        let demand = DemandMatrix::all_to_all(4, &gpus, 1);
        let config = SolverConfig::default();
        let form = LpFormulation::build(&topo, &demand, 1e6, &config, 8, 1e-3).unwrap();
        let sol = form.solve_budgeted(None, None).unwrap();
        let sends = form.extract_sends(&sol, &demand);
        // Each of the 12 (s, d) pairs gets at least one send of its chunk; the
        // chunk of a far destination needs several hops.
        assert!(sends.len() >= 12);
        // Validate causality and demand satisfaction with the schedule checker.
        let schedule = crate::extract::schedule_from_sends("lp", 1e6, 1e-3, sends, 0.0);
        let report = teccl_schedule::validate(&topo, &demand, &schedule, false);
        assert!(report.is_valid(), "{:?}", report.errors);
    }

    #[test]
    fn lp_handles_alpha_delay_in_flow_conservation() {
        // Two nodes joined by a high-alpha link: delivery cannot be read
        // before the delay has passed.
        let mut topo = Topology::new("slowpair");
        let a = topo.add_gpu("a", 0);
        let b = topo.add_gpu("b", 0);
        topo.add_bilink(a, b, 1e9, 3e-3); // 3 epochs of alpha at tau = 1 ms
        let mut demand = DemandMatrix::new(2, 1);
        demand.set(a, 0, b);
        let config = SolverConfig::default();
        let form = LpFormulation::build(&topo, &demand, 1e6, &config, 8, 1e-3).unwrap();
        let sol = form.solve_budgeted(None, None).unwrap();
        // Earliest read: sent at epoch 0, arrives by end of epoch 3, readable
        // at epoch 3 (flow conservation consumes arrivals in the same epoch).
        let completion = form.completion_epoch(&sol);
        assert!(completion >= 3, "completion {completion}");
    }

    #[test]
    fn empty_demand_rejected() {
        let topo = line_topology(2, 1e9, 0.0);
        let demand = DemandMatrix::new(2, 1);
        let err = LpFormulation::build(&topo, &demand, 1e6, &SolverConfig::default(), 2, 1e-3)
            .unwrap_err();
        assert_eq!(err, TeCclError::EmptyDemand);
    }

    /// The build checks the request's budget: an expired deadline fails it
    /// before any model is handed back, and charges nothing.
    #[test]
    fn an_expired_deadline_fails_the_build() {
        let topo = ring_topology(4, 1e9, 0.0);
        let gpus: Vec<NodeId> = topo.gpus().collect();
        let demand = DemandMatrix::all_to_all(4, &gpus, 1);
        let budget = SolveBudget::with_deadline(std::time::Duration::ZERO);
        let group = SymmetryGroup::trivial(&topo);
        let config = SolverConfig::default();
        let built =
            LpFormulation::build_over(&topo, &demand, 1e6, &config, 4, 1e-3, group, Some(&budget));
        assert_eq!(
            built.unwrap_err(),
            TeCclError::Budget(teccl_util::BudgetExceeded::DeadlineExceeded)
        );
        assert_eq!(budget.iterations_used(), 0);
    }

    #[test]
    fn limited_buffers_build_and_solve() {
        let topo = line_topology(3, 1e9, 0.0);
        let gpus: Vec<NodeId> = topo.gpus().collect();
        let demand = DemandMatrix::all_to_all(3, &gpus, 1);
        let config = SolverConfig::default().with_buffer_mode(BufferMode::LimitedChunks(2));
        let form = LpFormulation::build(&topo, &demand, 1e6, &config, 6, 1e-3).unwrap();
        let sol = form.solve_budgeted(None, None).unwrap();
        assert!(sol.has_solution());
    }
}
