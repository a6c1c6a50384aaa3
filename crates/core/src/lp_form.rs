//! The linear-program formulation for copy-free demands (§4.1, Appendix A).
//!
//! When no chunk is wanted by more than one destination (ALLTOALL, SCATTER,
//! GATHER, REDUCESCATTER), copy is useless and the per-chunk integer variables
//! of the MILP can be replaced by per-source *aggregate* continuous flows
//! `F[s,(i,j),k]` (in chunk units). The result is an LP — polynomial-time
//! solvable and far more scalable — that is still optimal for these demands.
//!
//! The model is the quotient by a [`SymmetryGroup`]: variables and per-source
//! rows for one representative per source orbit, one capacity row per link
//! orbit and one buffer row per node orbit (see [`crate::symmetry`] for why
//! that is exact). Every value accessor answers for every source by mapping
//! through the group; over the trivial group the model is the full one.

use std::collections::HashMap;

use teccl_collective::DemandMatrix;
use teccl_lp::{ConstraintOp, Model, Sense, Solution, SolveStatus, VarId};
use teccl_schedule::{ChunkId, Send};
use teccl_topology::{NodeId, Topology};

use crate::config::{BufferMode, SolverConfig};
use crate::epochs::{capacity_chunks_per_epoch, delta_epochs};
use crate::error::{check_demand, TeCclError};
use crate::extract::decompose_source_flow;
use crate::symmetry::SymmetryGroup;

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
    topology: Topology,
    /// The group the model is the quotient by.
    group: SymmetryGroup,
    /// Per node: the representative of its source orbit and the element
    /// carrying the node back to it (`None` for non-sources).
    carrier: Vec<Option<(NodeId, usize)>>,
    /// `F[s, link, k]` variables of representative sources.
    f_vars: HashMap<(usize, usize, usize), VarId>,
    /// `B[s, node, k]` variables (k in 0..=K) of representative sources.
    b_vars: HashMap<(usize, usize, usize), VarId>,
    /// `r[s, d, k]` read variables of representative sources.
    r_vars: HashMap<(usize, usize, usize), VarId>,
    /// Per-link α-delay in epochs.
    delta: Vec<usize>,
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
        )
    }

    /// [`LpFormulation::build`] over a given `group`, which must be a
    /// symmetry group of this instance ([`SymmetryGroup::find`],
    /// [`SymmetryGroup::generated_by`] or [`SymmetryGroup::trivial`]).
    pub fn build_over(
        topology: &Topology,
        demand: &DemandMatrix,
        chunk_bytes: f64,
        config: &SolverConfig,
        num_epochs: usize,
        tau: f64,
        group: SymmetryGroup,
    ) -> Result<Self, TeCclError> {
        check_demand(topology, demand)?;

        let k_max = num_epochs;
        // The LP prices a hop at δ + 1 (no Appendix-F κ window: its flows are
        // continuous), so it keeps plain α-delays instead of the MILP's
        // `EpochGrid`.
        let delta: Vec<usize> = topology
            .links
            .iter()
            .map(|l| delta_epochs(l, tau))
            .collect();

        // Sources with anything to send, and one representative per orbit.
        let all_sources: Vec<NodeId> = topology
            .gpus()
            .filter(|&s| demand.demand_of_source(s) > 0)
            .collect();
        let carrier = group.carriers(&all_sources);
        let sources: Vec<NodeId> = all_sources
            .into_iter()
            .filter(|s| carrier[s.0].is_some_and(|(rep, _)| rep == *s))
            .collect();
        // Each representative's reads stand for its whole orbit's.
        let orbit = group.order() as f64;

        let mut model = Model::new(Sense::Maximize);
        let mut f_vars = HashMap::new();
        let mut b_vars = HashMap::new();
        let mut r_vars = HashMap::new();

        // ----- Variables ------------------------------------------------------
        for &s in &sources {
            for link in &topology.links {
                for k in 0..k_max {
                    let v = model.add_var(
                        format!("F[{s},{}->{},{k}]", link.src, link.dst),
                        0.0,
                        f64::INFINITY,
                        0.0,
                        false,
                    );
                    f_vars.insert((s.0, link.id.0, k), v);
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
                    let v =
                        model.add_var(format!("B[{s},{n},{k}]"), 0.0, f64::INFINITY, 0.0, false);
                    b_vars.insert((s.0, n.0, k), v);
                }
            }
            for d in topology.gpus() {
                let wanted = (0..demand.num_chunks)
                    .filter(|&c| demand.wants(s, c, d))
                    .count();
                if wanted == 0 {
                    continue;
                }
                for k in 0..k_max {
                    let weight = orbit / (k as f64 + 1.0);
                    let v =
                        model.add_var(format!("r[{s},{d},{k}]"), 0.0, f64::INFINITY, weight, false);
                    r_vars.insert((s.0, d.0, k), v);
                }
            }
        }

        let fv = |f: &HashMap<(usize, usize, usize), VarId>,
                  s: usize,
                  l: usize,
                  k: i64|
         -> Option<VarId> {
            if k < 0 || k as usize >= k_max {
                None
            } else {
                f.get(&(s, l, k as usize)).copied()
            }
        };

        // ----- Initialization (Appendix A, first epoch) -------------------------
        for &s in &sources {
            let total: f64 = demand.demand_of_source(s) as f64;
            for n in topology.gpus() {
                if n == s {
                    // B[s,s,0] + Σ_out F[s,(s,j),0] = total demand from s.
                    let mut terms: Vec<(VarId, f64)> = vec![(b_vars[&(s.0, s.0, 0)], 1.0)];
                    for outl in topology.out_links(s) {
                        terms.push((f_vars[&(s.0, outl.id.0, 0)], 1.0));
                    }
                    model.add_cons(format!("init[{s}]"), &terms, ConstraintOp::Eq, total);
                } else {
                    // Nothing anywhere else at epoch 0.
                    if let Some(&b) = b_vars.get(&(s.0, n.0, 0)) {
                        model.set_bounds(b, 0.0, 0.0);
                    }
                    for outl in topology.out_links(n) {
                        model.set_bounds(f_vars[&(s.0, outl.id.0, 0)], 0.0, 0.0);
                    }
                }
            }
            for sw in topology.switches() {
                for outl in topology.out_links(sw) {
                    model.set_bounds(f_vars[&(s.0, outl.id.0, 0)], 0.0, 0.0);
                }
            }
        }

        // ----- Flow conservation (GPUs) -----------------------------------------
        for &s in &sources {
            for n in topology.gpus() {
                for k in 0..k_max {
                    let mut terms: Vec<(VarId, f64)> = Vec::new();
                    // Inflow arriving by end of epoch k.
                    for inl in topology.in_links(n) {
                        if let Some(v) =
                            fv(&f_vars, s.0, inl.id.0, k as i64 - delta[inl.id.0] as i64)
                        {
                            terms.push((v, 1.0));
                        }
                    }
                    // + B[s,n,k]
                    if let Some(&b) = b_vars.get(&(s.0, n.0, k)) {
                        terms.push((b, 1.0));
                    }
                    // = B[s,n,k+1] + r[s,n,k] + Σ_out F[s,(n,j),k+1]
                    if let Some(&b) = b_vars.get(&(s.0, n.0, k + 1)) {
                        terms.push((b, -1.0));
                    }
                    if let Some(&r) = r_vars.get(&(s.0, n.0, k)) {
                        terms.push((r, -1.0));
                    }
                    if k + 1 < k_max {
                        for outl in topology.out_links(n) {
                            terms.push((f_vars[&(s.0, outl.id.0, k + 1)], -1.0));
                        }
                    }
                    if terms.is_empty() {
                        continue;
                    }
                    model.add_cons(format!("flow[{s},{n},{k}]"), &terms, ConstraintOp::Eq, 0.0);
                }
            }
            // Switches: no buffer, no consumption.
            for sw in topology.switches() {
                for k in 0..k_max {
                    let mut terms: Vec<(VarId, f64)> = Vec::new();
                    for inl in topology.in_links(sw) {
                        if let Some(v) =
                            fv(&f_vars, s.0, inl.id.0, k as i64 - delta[inl.id.0] as i64)
                        {
                            terms.push((v, 1.0));
                        }
                    }
                    if k + 1 < k_max {
                        for outl in topology.out_links(sw) {
                            terms.push((f_vars[&(s.0, outl.id.0, k + 1)], -1.0));
                        }
                    }
                    if terms.is_empty() {
                        continue;
                    }
                    model.add_cons(
                        format!("swflow[{s},{sw},{k}]"),
                        &terms,
                        ConstraintOp::Eq,
                        0.0,
                    );
                }
            }
        }

        // ----- Capacity -----------------------------------------------------------
        // One row per link orbit: the flow of source `g s` on link `l` is the
        // representative `s`'s flow on `g⁻¹ l`, so the row of `l` sums each
        // representative's flows over the images of `l` with multiplicity.
        // The same holds for buffers and node orbits.
        let orbit_terms = |vars: &HashMap<(usize, usize, usize), VarId>, images: &[usize], k| {
            let mut terms: Vec<(VarId, f64)> = Vec::new();
            for s in &sources {
                for &at in images {
                    let Some(&v) = vars.get(&(s.0, at, k)) else {
                        continue;
                    };
                    match terms.iter_mut().find(|(u, _)| *u == v) {
                        Some((_, coef)) => *coef += 1.0,
                        None => terms.push((v, 1.0)),
                    }
                }
            }
            terms
        };
        for link in &topology.links {
            let images: Vec<usize> = (0..group.order())
                .map(|g| group.link(g, link.id.0))
                .collect();
            if images.iter().any(|&l| l < link.id.0) {
                continue; // not the lowest-numbered link of its orbit
            }
            let cap = capacity_chunks_per_epoch(link, chunk_bytes, tau);
            for k in 0..k_max {
                let terms = orbit_terms(&f_vars, &images, k);
                if !terms.is_empty() {
                    model.add_cons(
                        format!("cap[{}->{},{k}]", link.src, link.dst),
                        &terms,
                        ConstraintOp::Le,
                        cap,
                    );
                }
            }
        }

        // ----- Buffer size limit (Appendix B, LP variant) --------------------------
        if let BufferMode::LimitedChunks(limit) = config.buffer_mode {
            for n in topology.gpus() {
                let images: Vec<usize> = (0..group.order()).map(|g| group.node(g, n).0).collect();
                if images.iter().any(|&m| m < n.0) {
                    continue;
                }
                for k in 1..=k_max {
                    let terms = orbit_terms(&b_vars, &images, k);
                    if !terms.is_empty() {
                        model.add_cons(
                            format!("buflimit[{n},{k}]"),
                            &terms,
                            ConstraintOp::Le,
                            limit as f64,
                        );
                    }
                }
            }
        }

        // ----- Destination totals ---------------------------------------------------
        for &s in &sources {
            for d in topology.gpus() {
                let wanted = (0..demand.num_chunks)
                    .filter(|&c| demand.wants(s, c, d))
                    .count();
                if wanted == 0 {
                    continue;
                }
                let terms: Vec<(VarId, f64)> =
                    (0..k_max).map(|k| (r_vars[&(s.0, d.0, k)], 1.0)).collect();
                model.add_cons(
                    format!("dst[{s},{d}]"),
                    &terms,
                    ConstraintOp::Eq,
                    wanted as f64,
                );
            }
        }

        Ok(Self {
            model,
            tau,
            num_epochs: k_max,
            chunk_bytes,
            topology: topology.clone(),
            group,
            carrier,
            f_vars,
            b_vars,
            r_vars,
            delta,
        })
    }

    /// Solves the LP, optionally warm-starting from the basis of a previous
    /// solve of an identically-shaped formulation (the schedule service's
    /// cache-adjacent warm start; a mismatched or stale basis silently
    /// degrades to a cold start), under an optional cooperative
    /// [`SolveBudget`](teccl_util::SolveBudget): the solver checks the budget
    /// at every pivot and, when it trips, hands back the best primal-feasible
    /// point found so far (a usable if suboptimal schedule) with
    /// `stats.budget_stop` set.
    pub fn solve_budgeted(
        &self,
        warm: Option<&teccl_lp::SimplexBasis>,
        budget: Option<&teccl_util::SolveBudget>,
    ) -> Result<Solution, TeCclError> {
        let sol = self.model.solve_lp_relaxation_budgeted(warm, budget)?;
        match sol.status {
            SolveStatus::Infeasible => Err(TeCclError::InfeasibleWithEpochs(self.num_epochs)),
            SolveStatus::Unbounded => Err(TeCclError::NoSolution),
            SolveStatus::LimitReached => Err(TeCclError::NoSolution),
            _ => Ok(sol),
        }
    }

    /// The last epoch in which any destination still reads data — the LP's
    /// completion epoch (transfer time ≈ `(completion_epoch + 1) * tau` plus
    /// the trailing α of the final hops).
    pub fn completion_epoch(&self, solution: &Solution) -> usize {
        self.r_vars
            .iter()
            .filter(|(_, &v)| solution.values[v.index()] > 1e-6)
            .map(|(&(_, _, k), _)| k)
            .max()
            .unwrap_or(0)
    }

    /// The group the model is the quotient by.
    pub fn group(&self) -> &SymmetryGroup {
        &self.group
    }

    /// The value of `vars[(rep, at(h), k)]`, where the element `h` carries
    /// `s` back to its representative `rep`: source `s`'s variable read
    /// through the group (0 for a non-source).
    fn mapped(
        &self,
        solution: &Solution,
        vars: &HashMap<(usize, usize, usize), VarId>,
        s: NodeId,
        at: impl Fn(usize) -> usize,
        k: usize,
    ) -> f64 {
        let Some((rep, h)) = self.carrier.get(s.0).copied().flatten() else {
            return 0.0;
        };
        vars.get(&(rep.0, at(h), k))
            .map(|v| solution.values[v.index()])
            .unwrap_or(0.0)
    }

    /// Amount of source-`s` data node `d` reads in epoch `k` (chunk units).
    pub fn read_value(&self, solution: &Solution, s: NodeId, d: NodeId, k: usize) -> f64 {
        self.mapped(solution, &self.r_vars, s, |g| self.group.node(g, d).0, k)
    }

    /// Flow of source-`s` data on a link at epoch `k` (chunk units).
    pub fn flow_value(&self, solution: &Solution, s: NodeId, link: usize, k: usize) -> f64 {
        self.mapped(solution, &self.f_vars, s, |g| self.group.link(g, link), k)
    }

    /// Amount of source-`s` data buffered at node `n` at the start of epoch
    /// `k` (chunk units).
    pub fn buffer_value(&self, solution: &Solution, s: NodeId, n: NodeId, k: usize) -> f64 {
        self.mapped(solution, &self.b_vars, s, |g| self.group.node(g, n).0, k)
    }

    /// `solution` unrolled onto `full`, a build of the same instance over the
    /// trivial group: every variable of `full` at the value this formulation
    /// gives it through the group.
    pub fn unroll(&self, solution: &Solution, full: &LpFormulation) -> Vec<f64> {
        let mut x = vec![0.0; full.model.num_vars()];
        for (&(s, l, k), v) in &full.f_vars {
            x[v.index()] = self.flow_value(solution, NodeId(s), l, k);
        }
        for (&(s, n, k), v) in &full.b_vars {
            x[v.index()] = self.buffer_value(solution, NodeId(s), NodeId(n), k);
        }
        for (&(s, d, k), v) in &full.r_vars {
            x[v.index()] = self.read_value(solution, NodeId(s), NodeId(d), k);
        }
        x
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
        let link_endpoints: HashMap<usize, (NodeId, NodeId)> = self
            .topology
            .links
            .iter()
            .map(|l| (l.id.0, (l.src, l.dst)))
            .collect();
        let chunks_of = |s: NodeId, d: NodeId| -> Vec<usize> {
            (0..demand.num_chunks)
                .filter(|&c| demand.wants(s, c, d))
                .collect()
        };
        let mut all = Vec::new();
        for s in self.topology.gpus() {
            if self.carrier[s.0] != Some((s, 0)) {
                continue; // not a representative (element 0 is the identity)
            }
            let mut flows: HashMap<(usize, usize), f64> = HashMap::new();
            for link in &self.topology.links {
                for k in 0..self.num_epochs {
                    let v = self.flow_value(solution, s, link.id.0, k);
                    if v > 1e-6 {
                        flows.insert((link.id.0, k), v);
                    }
                }
            }
            let mut chunks_for_dest: HashMap<NodeId, Vec<usize>> = HashMap::new();
            for d in self.topology.gpus() {
                let chunks = chunks_of(s, d);
                if !chunks.is_empty() {
                    chunks_for_dest.insert(d, chunks);
                }
            }
            let delta = self.delta.clone();
            let sends = decompose_source_flow(
                s,
                &chunks_for_dest,
                &flows,
                &link_endpoints,
                |l| delta[l],
                self.num_epochs,
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
            for g in 0..self.group.order() {
                let image = self.group.node(g, s);
                for (send, &d) in sends.iter().zip(&dest) {
                    let j = chunks_for_dest[&d]
                        .iter()
                        .position(|&c| c == send.chunk.chunk)
                        .expect("a path ends at a destination of its chunk");
                    let chunk = chunks_of(image, self.group.node(g, d))[j];
                    all.push(Send {
                        chunk: ChunkId::new(image, chunk),
                        from: self.group.node(g, send.from),
                        to: self.group.node(g, send.to),
                        epoch: send.epoch,
                    });
                }
            }
        }
        all
    }

    /// The α-delay (in epochs) of the link `from -> to`.
    pub fn delta_of(&self, from: NodeId, to: NodeId) -> usize {
        self.topology
            .link_between(from, to)
            .map(|l| self.delta[l.id.0])
            .unwrap_or(0)
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
                    .map(|k| form.read_value(&sol, NodeId(s), NodeId(d), k))
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
                    .map(|k| form.read_value(&sol, NodeId(0), NodeId(d), k))
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
