//! The general MILP formulation (§3.1, Appendices A, B, C, F).
//!
//! Per-chunk 0/1 flow variables `F[s,c,(i,j),k]` track which chunk crosses
//! which link in which epoch; buffer variables `B[s,c,n,k]` (continuous —
//! their integrality follows from the flow equalities) implement
//! store-and-forward; read variables `R[s,c,d,k]` reward early delivery in the
//! objective. Copy is supported because a node may send the same chunk on
//! several outgoing links / epochs once it holds it.
//!
//! It is laid out on the LP's time-expanded network (`time_expanded`), one
//! commodity per `(source, chunk)`, over the [`EpochGrid`] of δ + κ − 1
//! delays; this module adds the copy rows, buffer evolution, reads,
//! hyper-edges and the round writer.
//!
//! # Layout and round
//!
//! A formulation is written in two parts. The *layout* — every variable,
//! every row's terms, the read rewards — depends only on the topology, the
//! demand's shape, the [`EpochGrid`] and the epoch count, and
//! [`MilpFormulation::build`] lays it out once: variables at neutral bounds
//! (`F` in `[0, 1]`, `B` in `[0, ∞)`, `R` in `[0, 1]`) and the flow and
//! buffer rows at rhs 0. The *round* — who holds which chunk at epoch 0,
//! what lands mid-horizon, which commodities are frozen, the A\* terminal
//! rewards — only moves bounds, right-hand sides and the rewards on the
//! final buffers, and one private writer puts it in place: `build` calls it
//! for its own options, [`MilpFormulation::update_round`] for every later
//! A\* round over the same layout.
//!
//! # Over a symmetry group
//!
//! [`MilpFormulation::build_over`] lays the model out over a
//! [`SymmetryGroup`]: variables and per-source rows for one representative
//! per source orbit, one capacity row per link orbit and one buffer-limit row
//! per node orbit, each counting the representatives' images with
//! multiplicity, and the representatives' read and terminal rewards weighted
//! by `|G|`. It is a restriction of the full model with the same LP
//! relaxation ([`crate::symmetry`]); [`MilpFormulation::sends`] and every value
//! accessor answer for every source through the group.
//! [`MilpFormulation::build`] is `build_over` the trivial group: the full
//! model, bit for bit.

use std::collections::HashMap;
use std::sync::OnceLock;
use std::time::Duration;

use teccl_collective::DemandMatrix;
use teccl_lp::{ConstraintOp, MilpConfig, MilpLayout, Model, Sense, Solution, VarId};
use teccl_schedule::{ChunkId, Send};
use teccl_topology::{LinkId, NodeId, Topology};
use teccl_util::SolveBudget;

use crate::config::{BufferMode, SolverConfig, SwitchModel};
use crate::epochs::EpochGrid;
use crate::error::{check_budget, check_demand, TeCclError};
use crate::switch::HyperEdgeGroup;
use crate::symmetry::{Orbits, SymmetryGroup};
use crate::time_expanded::{source_orbits, TimeExpanded};

/// Extra inputs for building a MILP round (used by the A* solver; the plain
/// solver uses [`MilpBuildOptions::default`]).
#[derive(Debug, Clone, Default)]
pub struct MilpBuildOptions {
    /// When `false`, the "all demands satisfied by the last epoch" constraint
    /// is dropped (A* rounds only make progress, §4.2).
    pub relax_completion: bool,
    /// Chunks already present at additional nodes at epoch 0:
    /// `(source, chunk, holder)`.
    pub extra_initial: Vec<(NodeId, usize, NodeId)>,
    /// Chunks that arrive mid-horizon (carried over from a previous A* round):
    /// `(source, chunk, node, epoch at which they join the node's buffer)`.
    pub in_flight: Vec<(NodeId, usize, NodeId, usize)>,
    /// Additional objective rewards on the *final* buffer occupancy
    /// `B[s,c,n,K]`: `(source, chunk, node, weight)` — the A* distance reward.
    pub terminal_rewards: Vec<(NodeId, usize, NodeId, f64)>,
    /// Hyper-edge groups when the topology was transformed with
    /// [`crate::switch::hyperedge_transform`].
    pub hyperedge_groups: Vec<HyperEdgeGroup>,
    /// Commodities whose flow variables are pinned to zero: `(source, chunk)`
    /// pairs whose demands are already fully satisfied (or in flight). The
    /// variables are still *created* — the layout stays identical across
    /// rounds — but their bounds are fixed, so the layout-preserving presolve
    /// eliminates them from the solve. This is how warm-started A* rounds
    /// shed the cost of already-delivered commodities without changing the
    /// model's shape.
    pub frozen: Vec<(NodeId, usize)>,
}

/// A fully built MILP instance for one collective optimization.
#[derive(Debug)]
pub struct MilpFormulation {
    /// The underlying optimization model. Its constraint terms must not
    /// change once the first solve has built the formulation's layout.
    pub model: Model,
    /// Epoch duration in seconds.
    pub tau: f64,
    /// Number of epochs `K`.
    pub num_epochs: usize,
    /// Chunk size in bytes.
    pub chunk_bytes: f64,
    /// The network: its commodities in build order are the layout key a
    /// round update must match; `X` holds evictions (limited buffers only).
    net: TimeExpanded,
    /// Every source's holders, representatives or not.
    holders: Holders,
    /// `holders` as [`MilpFormulation::initial_holders`] hands them out,
    /// built on the first call after each round.
    initial_holders: OnceLock<HashMap<(usize, usize), Vec<NodeId>>>,
    /// Flow-conservation rows whose rhs carries round state:
    /// `(constraint index, commodity, node, epoch)`.
    flow_rows: Vec<(usize, usize, usize, usize)>,
    /// Buffer-evolution rows whose rhs carries round state, keyed like
    /// `flow_rows`.
    buf_rows: Vec<(usize, usize, usize, usize)>,
    built_relax_completion: bool,
    built_hyperedge_groups: usize,
    /// The model's merged rows and standard-form matrix, built by the first
    /// solve (not by `build`: a one-shot solve pays for it either way) and
    /// read by every later one. [`MilpFormulation::update_round`] rewrites
    /// only bounds, costs and right-hand sides, so it keeps the layout.
    layout: OnceLock<MilpLayout>,
}

/// Who holds which chunk when a round starts: one list per `(source,
/// chunk)`, in a dense table.
#[derive(Debug, Clone, Default)]
pub(crate) struct Holders {
    chunks: usize,
    lists: Vec<Vec<NodeId>>,
}

impl Holders {
    /// An empty table for `nodes` sources of `chunks` chunks each.
    pub(crate) fn new(nodes: usize, chunks: usize) -> Self {
        Self {
            chunks,
            lists: vec![Vec::new(); nodes * chunks],
        }
    }

    /// The holders of chunk `c` of `s` (none outside the table).
    pub(crate) fn get(&self, s: NodeId, c: usize) -> &[NodeId] {
        if c >= self.chunks {
            return &[];
        }
        self.lists
            .get(s.0 * self.chunks + c)
            .map_or(&[], Vec::as_slice)
    }

    /// Adds `holder` to the holders of chunk `c` of `s`, if it is not one
    /// yet. Panics outside the table.
    pub(crate) fn add(&mut self, s: NodeId, c: usize, holder: NodeId) {
        assert!(c < self.chunks, "a chunk inside the holder table");
        let list = &mut self.lists[s.0 * self.chunks + c];
        if !list.contains(&holder) {
            list.push(holder);
        }
    }

    /// Every `(source, chunk, holders)` with a holder, by source, then
    /// chunk.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (NodeId, usize, &[NodeId])> + '_ {
        self.lists
            .iter()
            .enumerate()
            .filter(|(_, list)| !list.is_empty())
            .map(|(i, list)| (NodeId(i / self.chunks), i % self.chunks, list.as_slice()))
    }

    /// The table as a map from `(source, chunk)` to its holders, one entry
    /// per chunk with a holder.
    pub(crate) fn to_map(&self) -> HashMap<(usize, usize), Vec<NodeId>> {
        self.iter()
            .map(|(s, c, list)| ((s.0, c), list.to_vec()))
            .collect()
    }
}

/// A round's laid-out commodities — every chunk the demand uses, GPU by GPU,
/// of the representatives of `orbits`, then each `extra_initial` chunk the
/// demand does not use — and every commodity's holders at epoch 0. The flag
/// is set when `extra_initial` added a commodity of its own.
fn round_holders(
    topology: &Topology,
    demand: &DemandMatrix,
    orbits: &Orbits,
    extra_initial: &[(NodeId, usize, NodeId)],
) -> (Vec<(NodeId, usize)>, Holders, bool) {
    let nodes = extra_initial
        .iter()
        .map(|&(s, _, _)| s.0 + 1)
        .fold(topology.num_nodes(), usize::max);
    let chunks = extra_initial
        .iter()
        .map(|&(_, c, _)| c + 1)
        .fold(demand.num_chunks, usize::max);
    let mut commodities = Vec::new();
    let mut holders = Holders::new(nodes, chunks);
    for s in topology.gpus() {
        for c in 0..demand.num_chunks {
            if demand.chunk_in_use(s, c) {
                if orbits.is_representative(s) {
                    commodities.push((s, c));
                }
                holders.add(s, c, s);
            }
        }
    }
    let mut extra_commodity = false;
    for &(s, c, holder) in extra_initial {
        holders.add(s, c, holder);
        if !demand.chunk_in_use(s, c) && !commodities.contains(&(s, c)) {
            commodities.push((s, c));
            extra_commodity = true;
        }
    }
    (commodities, holders, extra_commodity)
}

/// The earliest epoch at each node of a chunk held at `held` and landing at
/// `flying` (`(node, epoch it lands in)`), written into `earliest`: its
/// distance on the grid from the nearest holder, or from where an in-flight
/// copy lands plus the epoch it lands in. `usize::MAX` where nothing reaches.
fn earliest_epochs(
    grid: &EpochGrid,
    nodes: usize,
    held: &[NodeId],
    flying: &[(NodeId, usize)],
    earliest: &mut Vec<usize>,
) {
    earliest.clear();
    earliest.extend((0..nodes).map(|n| {
        held.iter()
            .map(|&h| (h, 0))
            .chain(flying.iter().copied())
            .filter_map(|(from, at)| {
                let d = grid.distance(from, NodeId(n));
                d.is_finite().then(|| at + d as usize)
            })
            .min()
            .unwrap_or(usize::MAX)
    }));
}

/// 1 when `n` holds chunk `(s, c)` at epoch 0, else 0.
fn initial_buffer(holders: &Holders, s: NodeId, c: usize, n: NodeId) -> f64 {
    if holders.get(s, c).contains(&n) {
        1.0
    } else {
        0.0
    }
}

impl MilpFormulation {
    /// Builds the MILP for `demand` on `topology` with `num_epochs` epochs of
    /// duration `tau`: lays the full model out, then writes the round
    /// `options` describe (module docs).
    pub fn build(
        topology: &Topology,
        demand: &DemandMatrix,
        chunk_bytes: f64,
        config: &SolverConfig,
        num_epochs: usize,
        tau: f64,
        options: &MilpBuildOptions,
    ) -> Result<Self, TeCclError> {
        let group = SymmetryGroup::trivial(topology);
        Self::build_over(
            topology,
            demand,
            chunk_bytes,
            config,
            num_epochs,
            tau,
            options,
            group,
            None,
        )
    }

    /// [`MilpFormulation::build`] over `group`, a symmetry group of the
    /// instance ([`SymmetryGroup::find`]) that keeps its chunks
    /// ([`SymmetryGroup::keeps_chunks`]), under the request's `budget`:
    /// checked (never charged) at every step of the build's outer loops (one
    /// per commodity, demand, link or node), a spent budget fails the build
    /// with [`TeCclError::Budget`]. The round `options` must be
    /// `G`-invariant; only the representatives' entries are read. A
    /// non-trivial group refuses hyper-edge groups and `extra_initial`
    /// commodities the demand does not use.
    #[allow(clippy::too_many_arguments)]
    pub fn build_over(
        topology: &Topology,
        demand: &DemandMatrix,
        chunk_bytes: f64,
        config: &SolverConfig,
        num_epochs: usize,
        tau: f64,
        options: &MilpBuildOptions,
        group: SymmetryGroup,
        budget: Option<&SolveBudget>,
    ) -> Result<Self, TeCclError> {
        check_demand(topology, demand)?;
        let symmetric = !group.is_trivial();
        if symmetric && (!options.hyperedge_groups.is_empty() || !group.keeps_chunks(demand)) {
            return Err(TeCclError::InvalidDemand(
                "a MILP over a symmetry group needs a chunk-keeping group and no hyper-edges"
                    .into(),
            ));
        }

        let k_max = num_epochs;
        let orbits = source_orbits(topology, demand, group);
        let (commodities, holders, extra_commodity) =
            round_holders(topology, demand, &orbits, &options.extra_initial);
        if symmetric && extra_commodity {
            return Err(TeCclError::InvalidDemand(
                "a MILP over a symmetry group holds only the demand's chunks".into(),
            ));
        }
        let grid = EpochGrid::new(topology, chunk_bytes, tau);
        let mut net = TimeExpanded::new(topology, grid, orbits, commodities, k_max);

        // Which (s, c, n) triples get buffer variables. Without store and
        // forward this follows the round's holders, which is why
        // `update_round` refuses that mode.
        let is_buffered = |s: NodeId, c: usize, n: NodeId| -> bool {
            if topology.is_switch(n) {
                return false;
            }
            match config.buffer_mode {
                BufferMode::Unlimited | BufferMode::LimitedChunks(_) => true,
                BufferMode::NoStoreAndForward => {
                    initial_buffer(&holders, s, c, n) > 0.0 || demand.wants(s, c, n)
                }
            }
        };

        let mut model = Model::new(Sense::Maximize);
        let n_comm = net.commodities.len();

        // ----- Variables -----------------------------------------------------
        //
        // Every commodity gets variables for every link / node / epoch: the
        // layout depends only on the topology, the demand's *shape*, and the
        // epoch count. Reachability pruning is bound fixing (`lb == ub == 0`,
        // written by the round writer) rather than skipped creation — the
        // layout-preserving presolve pins those columns, so the model solves
        // at the pruned size while two rounds built from the same demand
        // shape stay identically shaped (only bounds, right-hand sides, and
        // objective weights differ). That is what lets A* round `t+1`
        // warm-start from round `t`'s root basis with presolve on. Variables
        // and rows are unnamed: the model is read by index.
        for (i, &(s, c)) in net.commodities.list().iter().enumerate() {
            check_budget(budget)?;
            for link in &topology.links {
                for k in 0..k_max {
                    let v = model.add_var("", 0.0, 1.0, 0.0, true);
                    net.f.insert(i, link.id.0, k, v);
                }
            }
            for n in topology.nodes.iter().map(|n| n.id) {
                if !is_buffered(s, c, n) {
                    continue;
                }
                for k in 1..=k_max {
                    let v = model.add_var("", 0.0, f64::INFINITY, 0.0, false);
                    net.b.insert(i, n.0, k, v);
                }
                if let BufferMode::LimitedChunks(_) = config.buffer_mode {
                    for k in 0..k_max {
                        let v = model.add_var("", 0.0, 1.0, 0.0, false);
                        net.x.insert(i, n.0, k, v);
                    }
                }
            }
        }
        // Each representative's reads stand for its whole orbit's.
        let orbit = net.orbits.weight();
        // The laid-out demand: `(commodity, chunk, destination)`.
        let laid_out_demand = || {
            demand
                .iter()
                .filter(|&(s, _, _)| net.orbits.is_representative(s))
                .map(|(s, c, d)| {
                    let i = net
                        .commodities
                        .index(s, c)
                        .expect("a demanded chunk is laid out");
                    (i, c, d)
                })
        };
        for (i, c, d) in laid_out_demand() {
            check_budget(budget)?;
            for k in 0..k_max {
                let weight = orbit * config.chunk_priority(c) / (k as f64 + 1.0);
                let v = model.add_var("", 0.0, 1.0, weight, false);
                net.r.insert(i, d.0, k, v);
            }
        }

        // Every commodity's flow on `links` in epoch `k`.
        let link_terms = |links: &[LinkId], k: usize| -> Vec<(VarId, f64)> {
            let f_vars = &net.f;
            links
                .iter()
                .flat_map(|l| {
                    (0..n_comm).filter_map(move |i| f_vars.get(i, l.0, k).map(|v| (v, 1.0)))
                })
                .collect()
        };

        // ----- Capacity constraints (with the Appendix-F window) ------------
        net.capacity_rows(&mut model, budget)?;

        // ----- Flow conservation ---------------------------------------------
        let mut flow_rows: Vec<(usize, usize, usize, usize)> = Vec::new();
        let mut terms: Vec<(VarId, f64)> = Vec::new();
        for i in 0..n_comm {
            check_budget(budget)?;
            for node in topology.nodes.iter().map(|n| n.id) {
                if topology.is_switch(node) && config.switch_model == SwitchModel::NonCopy {
                    // Traditional conservation: inflow (delayed) equals outflow
                    // in the next epoch.
                    net.conservation_rows(&mut model, &mut terms, i, [node], budget)?;
                    continue;
                }

                // Copy-capable node (GPU or SHArP switch): for each outgoing
                // link, outflow at k+1 must be covered by the buffer at k plus
                // inflow arriving by the end of k. The buffer at epoch 0 and
                // in-flight arrivals at an unbuffered node are constants in
                // the rhs, which the round writer fills in.
                for k in 0..k_max.saturating_sub(1) {
                    for outl in topology.out_links(node) {
                        let Some(out_v) = net.f.get(i, outl.id.0, k + 1) else {
                            continue;
                        };
                        terms.clear();
                        terms.push((out_v, -1.0));
                        // Buffers start at epoch 1.
                        if let Some(b) = net.b.get(i, node.0, k) {
                            terms.push((b, 1.0));
                        }
                        net.inflow(&mut terms, i, node, k, 1.0);
                        let row = model.add_cons("", &terms, ConstraintOp::Ge, 0.0);
                        flow_rows.push((row, i, node.0, k));
                    }
                }
            }
        }

        // ----- Buffer evolution ----------------------------------------------
        // The initial buffer (at epoch 1) and carried-over in-flight arrivals
        // are rhs constants, written by the round writer.
        let mut buf_rows: Vec<(usize, usize, usize, usize)> = Vec::new();
        for i in 0..n_comm {
            check_budget(budget)?;
            for node in topology.gpus() {
                for k in 1..=k_max {
                    let Some(b_k) = net.b.get(i, node.0, k) else {
                        continue;
                    };
                    terms.clear();
                    terms.push((b_k, 1.0));
                    // Previous buffer value (none before epoch 1).
                    if let Some(b_prev) = net.b.get(i, node.0, k - 1) {
                        terms.push((b_prev, -1.0));
                    }
                    // Eviction (limited buffers, Appendix B).
                    if let Some(x) = net.x.get(i, node.0, k - 1) {
                        terms.push((x, 1.0));
                    }
                    // Arrivals: what has arrived by the end of k - 1.
                    net.inflow(&mut terms, i, node, k - 1, -1.0);
                    let row = model.add_cons("", &terms, ConstraintOp::Eq, 0.0);
                    buf_rows.push((row, i, node.0, k));
                }
            }
        }

        // Per-node buffer size limit (Appendix B), one row per node orbit.
        if let BufferMode::LimitedChunks(limit) = config.buffer_mode {
            net.buffer_limit_rows(&mut model, limit, budget)?;
        }

        // ----- Destination constraints ----------------------------------------
        // A read without a buffer to read from is pinned by the round writer.
        for (i, _, d) in laid_out_demand() {
            check_budget(budget)?;
            for k in 0..k_max {
                if let Some(b) = net.b.get(i, d.0, k + 1) {
                    let r = net.r.get(i, d.0, k).expect("a read per demanded epoch");
                    model.add_cons("", &[(r, 1.0), (b, -1.0)], ConstraintOp::Le, 0.0);
                }
            }
            if !options.relax_completion {
                // R[s,c,d,K-1] = D (§3.1): the demand must be met by the last
                // epoch. Expressed as `>= 1` (the bound `<= 1` already holds);
                // if the chunk structurally cannot reach `d` within K epochs
                // the variable is fixed to 0 and presolve proves the model
                // infeasible.
                let r_last = net
                    .r
                    .get(i, d.0, k_max - 1)
                    .expect("a read per demanded epoch");
                model.add_cons("", &[(r_last, 1.0)], ConstraintOp::Ge, 1.0);
            }
        }

        // ----- Hyper-edge constraints (Appendix C) -----------------------------
        for group in &options.hyperedge_groups {
            check_budget(budget)?;
            for k in 0..k_max {
                let terms = link_terms(&group.links, k);
                if !terms.is_empty() {
                    model.add_cons("", &terms, ConstraintOp::Le, group.max_concurrent as f64);
                }
                for edges in [&group.out_edges_of, &group.in_edges_of] {
                    for (_, links) in edges {
                        let terms = link_terms(links, k);
                        if !terms.is_empty() {
                            model.add_cons("", &terms, ConstraintOp::Le, 1.0);
                        }
                    }
                }
            }
        }

        let mut form = Self {
            model,
            tau,
            num_epochs: k_max,
            chunk_bytes,
            net,
            holders: Holders::default(),
            initial_holders: OnceLock::new(),
            flow_rows,
            buf_rows,
            built_relax_completion: options.relax_completion,
            built_hyperedge_groups: options.hyperedge_groups.len(),
            layout: OnceLock::new(),
        };
        form.write_round(holders, options);
        Ok(form)
    }

    /// Rewrites the round-varying parts of an already-built formulation —
    /// variable bounds, the terminal rewards, and flow/buffer right-hand
    /// sides — so the model matches what [`MilpFormulation::build`] would
    /// produce for the new `options`, without reallocating the model.
    ///
    /// This is the A* warm-round fast path: two rounds built from the same
    /// demand shape differ only in bounds, rhs and objective, and rebuilding
    /// the model from scratch (constraint assembly) costs milliseconds per
    /// round. The update requires the same
    /// topology, demand shape, epoch count, chunk size and config as the
    /// original build; it returns `false` — leaving the formulation in a
    /// stale but structurally intact state — when the new inputs would change
    /// the model *layout* (new commodities, a different demand shape, a
    /// buffer mode whose variable set depends on round state, a different
    /// completion/hyperedge setup). On `false` the caller must rebuild.
    pub fn update_round(
        &mut self,
        demand: &DemandMatrix,
        config: &SolverConfig,
        options: &MilpBuildOptions,
    ) -> bool {
        let net = &self.net;
        if demand.is_empty() || demand.num_nodes != net.topology.num_nodes() {
            return false;
        }
        // No-store-and-forward derives the buffer-variable set from the round
        // state, so its layout is not stable across rounds.
        if matches!(config.buffer_mode, BufferMode::NoStoreAndForward) {
            return false;
        }
        if options.relax_completion != self.built_relax_completion
            || options.hyperedge_groups.len() != self.built_hyperedge_groups
        {
            return false;
        }

        // The commodity list must match the built layout exactly (same
        // demand, same build order); a commodity introduced purely by
        // `extra_initial` would have added variables at build time.
        let (commodities, holders, extra_commodity) =
            round_holders(&net.topology, demand, &net.orbits, &options.extra_initial);
        if extra_commodity || commodities != net.commodities.list() {
            return false;
        }
        // The reward variables are keyed by the laid-out demand's triples.
        let mut triples = 0usize;
        for (s, c, d) in demand
            .iter()
            .filter(|&(s, _, _)| net.orbits.is_representative(s))
        {
            let laid_out = net.commodities.index(s, c);
            if laid_out.and_then(|i| net.r.get(i, d.0, 0)).is_none() {
                return false;
            }
            triples += 1;
        }
        if triples * self.num_epochs != net.r.len() {
            return false;
        }
        self.write_round(holders, options);
        true
    }

    /// Writes every round-dependent bound, rhs and reward of the laid-out
    /// model for a round whose chunks are held by `holders` at epoch 0.
    fn write_round(&mut self, holders: Holders, options: &MilpBuildOptions) {
        let Self {
            model,
            net,
            flow_rows,
            buf_rows,
            ..
        } = self;
        let (k_max, commodities) = (net.epochs, &net.commodities);
        let n_comm = commodities.len();
        let nodes = net.topology.num_nodes();
        let init_buffer = |i: usize, n: usize| {
            let (s, c) = commodities.list()[i];
            initial_buffer(&holders, s, c, NodeId(n))
        };
        // Each commodity's in-flight arrivals, `(node, epoch it lands in)`,
        // and whether it is frozen.
        let mut flying: Vec<Vec<(NodeId, usize)>> = vec![Vec::new(); n_comm];
        for &(s, c, n, vis) in &options.in_flight {
            if let Some(i) = commodities.index(s, c) {
                flying[i].push((n, vis));
            }
        }
        let mut frozen = vec![false; n_comm];
        for &(s, c) in &options.frozen {
            if let Some(i) = commodities.index(s, c) {
                frozen[i] = true;
            }
        }

        let mut earliest: Vec<usize> = Vec::with_capacity(nodes);
        for (i, &(s, c)) in commodities.list().iter().enumerate() {
            earliest_epochs(
                &net.grid,
                nodes,
                holders.get(s, c),
                &flying[i],
                &mut earliest,
            );
            // Flow bounds: frozen commodities, epochs before reachability,
            // and the first-epoch "can only send what is initially held"
            // pin.
            for link in &net.topology.links {
                let e0 = earliest[link.src.0];
                let first_pinned = init_buffer(i, link.src.0) < 0.5;
                for k in 0..k_max {
                    let v = net.f.get(i, link.id.0, k).expect("every F is laid out");
                    if frozen[i] || k < e0 || (k == 0 && first_pinned) {
                        model.set_bounds(v, 0.0, 0.0);
                    } else {
                        model.set_bounds(v, 0.0, 1.0);
                    }
                }
            }
            // Buffer bounds (reachability) and objective (terminal rewards
            // only ever land on `B[s,c,n,K]`, so clearing those resets the
            // previous round's rewards).
            for (n, &reached) in earliest.iter().enumerate() {
                for k in 1..=k_max {
                    let Some(v) = net.b.get(i, n, k) else {
                        continue;
                    };
                    if k < reached.max(1) {
                        model.set_bounds(v, 0.0, 0.0);
                    } else {
                        model.set_bounds(v, 0.0, f64::INFINITY);
                    }
                    if k == k_max {
                        model.set_obj(v, 0.0);
                    }
                }
            }
        }
        // A representative's reward stands for its whole orbit's.
        for &(s, c, n, w) in &options.terminal_rewards {
            let reward_var = commodities
                .index(s, c)
                .and_then(|i| net.b.get(i, n.0, k_max));
            if let Some(b) = reward_var {
                let cur = model.vars[b.index()].obj;
                model.set_obj(b, cur + w * net.orbits.weight());
            }
        }

        // Read bounds: a destination with no buffer variable at k+1 can only
        // collect the reward when it already holds the chunk.
        for ((i, d, k), r) in net.r.iter() {
            if net.b.get(i, d, k + 1).is_none() && init_buffer(i, d) < 0.5 {
                model.set_bounds(r, 0.0, 0.0);
            } else {
                model.set_bounds(r, 0.0, 1.0);
            }
        }

        // Right-hand sides carrying initial-buffer and in-flight constants.
        for &(row, i, n, k) in flow_rows.iter() {
            let mut rhs = 0.0;
            if k == 0 {
                rhs -= init_buffer(i, n);
            }
            // In-flight chunks that joined the node by epoch k, where no
            // buffer variable carries them (buffered nodes absorb arrivals in
            // the buffer-evolution rows).
            for &(fnode, vis) in &flying[i] {
                if fnode.0 == n && vis <= k && net.b.get(i, n, k.max(1)).is_none() {
                    rhs -= 1.0;
                }
            }
            model.cons[row].rhs = rhs;
        }
        for &(row, i, n, k) in buf_rows.iter() {
            let mut rhs = 0.0;
            if k == 1 {
                rhs += init_buffer(i, n);
            }
            for &(fnode, vis) in &flying[i] {
                if fnode.0 == n && vis == k {
                    rhs += 1.0;
                }
            }
            model.cons[row].rhs = rhs;
        }

        self.holders = holders;
        self.initial_holders = OnceLock::new();
    }

    /// Solves the MILP with the limits taken from `config`, optionally
    /// warm-starting the root relaxation from the basis of a previous
    /// round's identically-shaped formulation. The build always produces the
    /// same layout for the same demand shape and the presolve is
    /// layout-preserving, so warm solves run the normal pipeline (presolve
    /// on); a mismatched basis silently degrades to a cold root. Pivots, dual
    /// re-solves and branch-and-bound nodes all check the cooperative
    /// [`SolveBudget`], and an exhausted budget
    /// returns the best incumbent found so far with `stats.budget_stop` set
    /// (or [`TeCclError::Budget`] if none exists).
    pub fn solve_budgeted(
        &self,
        config: &SolverConfig,
        warm: Option<&teccl_lp::SimplexBasis>,
        budget: Option<&teccl_util::SolveBudget>,
    ) -> Result<Solution, TeCclError> {
        let milp_config = MilpConfig {
            rel_gap: config.early_stop_gap.unwrap_or(1e-6),
            time_limit: config.time_limit.or(Some(Duration::from_secs(600))),
        };
        let layout = self.layout.get_or_init(|| MilpLayout::new(&self.model));
        let sol = self.model.solve_over(layout, &milp_config, warm, budget)?;
        self.net.outcome(sol)
    }

    /// Extracts the raw (unpruned) sends from a solution: every laid-out
    /// send and its image under every element of the group.
    pub fn sends(&self, solution: &Solution) -> Vec<Send> {
        let net = &self.net;
        let group = net.group();
        let mut out = Vec::new();
        for ((i, l, k), var) in net.f.iter() {
            if solution.values[var.index()] > 0.5 {
                let (s, c) = net.commodities.list()[i];
                let link = &net.topology.links[l];
                for g in 0..group.order() {
                    out.push(Send {
                        chunk: ChunkId::new(group.node(g, s), c),
                        from: group.node(g, link.src),
                        to: group.node(g, link.dst),
                        epoch: k,
                    });
                }
            }
        }
        out.sort_by_key(|s| (s.epoch, s.from, s.to, s.chunk.source, s.chunk.chunk));
        out
    }

    /// `solution` unrolled onto `full`, a build of the same round over the
    /// trivial group: every variable of `full` at the value this formulation
    /// gives it through the group.
    pub fn unroll(&self, solution: &Solution, full: &MilpFormulation) -> Vec<f64> {
        self.net.unroll(solution, &full.net)
    }

    /// The group the model is laid out over.
    pub fn group(&self) -> &SymmetryGroup {
        self.net.group()
    }

    /// The effective forwarding delay (in epochs) of the link `from -> to`.
    pub fn delta_of(&self, from: NodeId, to: NodeId) -> usize {
        self.net.delta_of(from, to)
    }

    /// The initial holders of each `(source, chunk)` commodity.
    pub fn initial_holders(&self) -> &HashMap<(usize, usize), Vec<NodeId>> {
        self.initial_holders.get_or_init(|| self.holders.to_map())
    }

    /// Number of integer variables (model-size metric for the scale tables).
    pub fn num_integer_vars(&self) -> usize {
        self.model.num_integer_vars()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SolverConfig;
    use crate::time_expanded::Kind;
    use teccl_topology::{fig1c, line_topology};

    /// `demand` on `topo` over `k` epochs of 1 ms with 1 MB chunks, under
    /// the default round options.
    fn build(
        topo: &Topology,
        demand: &DemandMatrix,
        config: &SolverConfig,
        k: usize,
    ) -> Result<MilpFormulation, TeCclError> {
        MilpFormulation::build(
            topo,
            demand,
            1e6,
            config,
            k,
            1e-3,
            &MilpBuildOptions::default(),
        )
    }

    fn broadcast_on_line() -> (Topology, DemandMatrix) {
        let topo = line_topology(3, 1e9, 0.0);
        let gpus: Vec<NodeId> = topo.gpus().collect();
        let demand = DemandMatrix::broadcast(3, &gpus, NodeId(0), 1);
        (topo, demand)
    }

    #[test]
    fn broadcast_line_solves_and_relays() {
        let (topo, demand) = broadcast_on_line();
        let config = SolverConfig::default();
        let form = build(&topo, &demand, &config, 4).unwrap();
        let sol = form.solve_budgeted(&config, None, None).unwrap();
        let sends = form.sends(&sol);
        // The chunk must cross 0->1 and 1->2 (it may also be copied elsewhere,
        // pruning happens later).
        assert!(sends
            .iter()
            .any(|s| s.from == NodeId(0) && s.to == NodeId(1)));
        assert!(sends
            .iter()
            .any(|s| s.from == NodeId(1) && s.to == NodeId(2)));
        // Both destinations eventually read the chunk.
        assert!(form.net.value(Kind::R, &sol, NodeId(0), 0, 1, 3) > 0.5);
        assert!(form.net.value(Kind::R, &sol, NodeId(0), 0, 2, 3) > 0.5);
    }

    #[test]
    fn infeasible_with_too_few_epochs() {
        let (topo, demand) = broadcast_on_line();
        let config = SolverConfig::default();
        // One epoch cannot deliver over two hops.
        let form = build(&topo, &demand, &config, 1).unwrap();
        assert!(matches!(
            form.solve_budgeted(&config, None, None),
            Err(TeCclError::InfeasibleWithEpochs(1))
        ));
    }

    #[test]
    fn copy_allows_single_upstream_send() {
        // Figure 1c: with copy the source sends once to the relay, which fans
        // out to the three destinations.
        let topo = fig1c(1e9);
        let mut demand = DemandMatrix::new(5, 1);
        for d in 2..5 {
            demand.set(NodeId(0), 0, NodeId(d));
        }
        let config = SolverConfig::default();
        let form = build(&topo, &demand, &config, 4).unwrap();
        let sol = form.solve_budgeted(&config, None, None).unwrap();
        let sends = form.sends(&sol);
        let upstream = sends
            .iter()
            .filter(|s| s.from == NodeId(0) && s.to == NodeId(1))
            .count();
        // Copy means the s->h link only needs to carry the chunk once (the raw
        // solution may contain additional no-op sends — those are removed by
        // the reverse-DFS pruning in `extract`, tested there).
        assert!(upstream >= 1);
        // And the relay fans it out to all three destinations.
        for d in 2..5 {
            assert!(sends
                .iter()
                .any(|s| s.from == NodeId(1) && s.to == NodeId(d)));
        }
    }

    #[test]
    fn empty_demand_rejected() {
        let topo = line_topology(2, 1e9, 0.0);
        let demand = DemandMatrix::new(2, 1);
        let err = build(&topo, &demand, &SolverConfig::default(), 2).unwrap_err();
        assert_eq!(err, TeCclError::EmptyDemand);
    }

    #[test]
    fn demand_on_switch_rejected() {
        let mut topo = Topology::new("sw");
        let a = topo.add_gpu("a", 0);
        let sw = topo.add_switch("s", 0);
        let b = topo.add_gpu("b", 0);
        topo.add_bilink(a, sw, 1e9, 0.0);
        topo.add_bilink(sw, b, 1e9, 0.0);
        let mut demand = DemandMatrix::new(3, 1);
        demand.set(a, 0, sw);
        let err = build(&topo, &demand, &SolverConfig::default(), 3).unwrap_err();
        assert!(matches!(err, TeCclError::InvalidDemand(_)));
    }

    #[test]
    fn node_count_mismatch_rejected() {
        let topo = line_topology(3, 1e9, 0.0);
        let demand = DemandMatrix::all_gather(4, &[NodeId(0), NodeId(1)], 1);
        let err = build(&topo, &demand, &SolverConfig::default(), 3).unwrap_err();
        assert!(matches!(err, TeCclError::InvalidDemand(_)));
    }

    #[test]
    fn alpha_delay_enforced_in_schedule_epochs() {
        // A 2-hop path where the first link has alpha of 2 epochs: the second
        // hop cannot be scheduled before epoch 3.
        let mut topo = Topology::new("delay");
        let a = topo.add_gpu("a", 0);
        let b = topo.add_gpu("b", 0);
        let c = topo.add_gpu("c", 0);
        topo.add_bilink(a, b, 1e9, 2e-3); // 2 epochs of alpha at tau=1ms
        topo.add_bilink(b, c, 1e9, 0.0);
        let mut demand = DemandMatrix::new(3, 1);
        demand.set(a, 0, c);
        let config = SolverConfig::default();
        let form = build(&topo, &demand, &config, 6).unwrap();
        let sol = form.solve_budgeted(&config, None, None).unwrap();
        let sends = form.sends(&sol);
        let hop2 = sends.iter().find(|s| s.from == b && s.to == c).unwrap();
        let hop1 = sends.iter().find(|s| s.from == a && s.to == b).unwrap();
        assert!(
            hop2.epoch >= hop1.epoch + 3,
            "second hop at {} after first at {}",
            hop2.epoch,
            hop1.epoch
        );
    }

    #[test]
    fn buffer_values_follow_flows() {
        let (topo, demand) = broadcast_on_line();
        let config = SolverConfig::default();
        let form = build(&topo, &demand, &config, 4).unwrap();
        let sol = form.solve_budgeted(&config, None, None).unwrap();
        // The middle node eventually buffers the chunk (it demands it).
        assert!(form.net.value(Kind::B, &sol, NodeId(0), 0, 1, 4) > 0.5);
        // The source always holds its own chunk implicitly (not modeled as a
        // variable at epoch 0); a missing variable reads 0.
        assert_eq!(form.net.value(Kind::B, &sol, NodeId(0), 0, 2, 0), 0.0);
    }

    /// The build checks the request's budget: an expired deadline fails it
    /// before any model is handed back, and charges nothing.
    #[test]
    fn an_expired_deadline_fails_the_build() {
        let (topo, demand) = broadcast_on_line();
        let budget = SolveBudget::with_deadline(Duration::ZERO);
        let built = MilpFormulation::build_over(
            &topo,
            &demand,
            1e6,
            &SolverConfig::default(),
            4,
            1e-3,
            &MilpBuildOptions::default(),
            SymmetryGroup::trivial(&topo),
            Some(&budget),
        );
        assert_eq!(
            built.unwrap_err(),
            TeCclError::Budget(teccl_util::BudgetExceeded::DeadlineExceeded)
        );
        assert_eq!(budget.iterations_used(), 0);
    }

    #[test]
    fn limited_buffer_mode_builds_and_solves() {
        let (topo, demand) = broadcast_on_line();
        let config = SolverConfig::default().with_buffer_mode(BufferMode::LimitedChunks(1));
        let form = build(&topo, &demand, &config, 5).unwrap();
        let sol = form.solve_budgeted(&config, None, None).unwrap();
        assert!(form.net.value(Kind::R, &sol, NodeId(0), 0, 2, 4) > 0.5);
    }

    #[test]
    fn no_store_and_forward_mode_still_relays() {
        let (topo, demand) = broadcast_on_line();
        let config = SolverConfig::default().with_buffer_mode(BufferMode::NoStoreAndForward);
        let form = build(&topo, &demand, &config, 4).unwrap();
        // Node 1 demands the chunk itself, so it may hold it; node 2 receives
        // it relayed. The problem stays feasible.
        let sol = form.solve_budgeted(&config, None, None).unwrap();
        assert!(form.net.value(Kind::R, &sol, NodeId(0), 0, 2, 3) > 0.5);
    }

    #[test]
    fn relaxed_completion_never_infeasible() {
        let (topo, demand) = broadcast_on_line();
        let config = SolverConfig::default();
        let options = MilpBuildOptions {
            relax_completion: true,
            ..Default::default()
        };
        // Even with 1 epoch (not enough to deliver), the relaxed model solves.
        let form = MilpFormulation::build(&topo, &demand, 1e6, &config, 1, 1e-3, &options).unwrap();
        let sol = form.solve_budgeted(&config, None, None).unwrap();
        assert!(sol.has_solution());
    }

    #[test]
    fn extra_initial_holder_shortens_path() {
        let (topo, demand) = broadcast_on_line();
        let config = SolverConfig::default();
        // Node 1 already holds the chunk: node 2 can be served in one hop.
        let options = MilpBuildOptions {
            extra_initial: vec![(NodeId(0), 0, NodeId(1))],
            ..Default::default()
        };
        let form = MilpFormulation::build(&topo, &demand, 1e6, &config, 2, 1e-3, &options).unwrap();
        let sol = form.solve_budgeted(&config, None, None).unwrap();
        assert!(form.net.value(Kind::R, &sol, NodeId(0), 0, 2, 1) > 0.5);
    }

    #[test]
    fn unreachable_epochs_are_bound_fixed_not_elided() {
        let (topo, demand) = broadcast_on_line();
        let config = SolverConfig::default();
        let form = build(&topo, &demand, &config, 4).unwrap();
        // Every link gets a flow variable for every epoch (stable layout)…
        assert_eq!(
            form.num_integer_vars(),
            topo.links.len() * 4,
            "full F-variable layout"
        );
        // …but flows a chunk cannot reach in time are pinned to zero: links
        // leaving a node other than the source are unusable at epoch 0.
        let source_out: Vec<usize> = topo.out_links(NodeId(0)).map(|l| l.id.0).collect();
        let mut fixed = 0usize;
        for link in &topo.links {
            let v = form.net.f.get(0, link.id.0, 0).unwrap();
            let def = &form.model.vars[v.index()];
            if source_out.contains(&link.id.0) {
                assert_eq!((def.lb, def.ub), (0.0, 1.0), "source link stays free");
            } else {
                assert_eq!((def.lb, def.ub), (0.0, 0.0), "unreachable flow pinned");
                fixed += 1;
            }
        }
        assert!(fixed > 0);
    }

    /// The A* warm-round fast path: rewriting bounds / rhs / objective in
    /// place must produce *exactly* the model a fresh build would — element
    /// for element — for round state exercising every updated site (extra
    /// holders, in-flight arrivals, terminal rewards, frozen commodities).
    #[test]
    fn update_round_matches_fresh_build() {
        let topo = line_topology(4, 1e9, 0.0);
        let gpus: Vec<NodeId> = topo.gpus().collect();
        let demand = DemandMatrix::broadcast(4, &gpus, NodeId(0), 2);
        let config = SolverConfig::default();
        let round0 = MilpBuildOptions {
            relax_completion: true,
            terminal_rewards: vec![(NodeId(0), 0, NodeId(1), 0.25)],
            ..Default::default()
        };
        let round1 = MilpBuildOptions {
            relax_completion: true,
            extra_initial: vec![(NodeId(0), 0, NodeId(1))],
            in_flight: vec![(NodeId(0), 1, NodeId(1), 1)],
            terminal_rewards: vec![
                (NodeId(0), 0, NodeId(2), 0.5),
                (NodeId(0), 1, NodeId(3), 0.125),
            ],
            frozen: vec![(NodeId(0), 1)],
            ..Default::default()
        };
        let mut updated =
            MilpFormulation::build(&topo, &demand, 1e6, &config, 4, 1e-3, &round0).unwrap();
        // Round 0 solves first, so round 1 runs over the layout round 0 built.
        let first = updated.solve_budgeted(&config, None, None).unwrap();
        assert!(updated.layout.get().is_some());
        assert!(updated.update_round(&demand, &config, &round1));
        assert!(
            updated.layout.get().is_some(),
            "update_round keeps the layout"
        );
        let fresh = MilpFormulation::build(&topo, &demand, 1e6, &config, 4, 1e-3, &round1).unwrap();
        assert_eq!(updated.model.num_vars(), fresh.model.num_vars());
        assert_eq!(updated.model.num_cons(), fresh.model.num_cons());
        for (j, (u, f)) in updated.model.vars.iter().zip(&fresh.model.vars).enumerate() {
            assert_eq!(
                (u.lb, u.ub, u.obj),
                (f.lb, f.ub, f.obj),
                "var #{j} differs after in-place update"
            );
        }
        for (i, (u, f)) in updated.model.cons.iter().zip(&fresh.model.cons).enumerate() {
            assert_eq!(u.terms, f.terms);
            assert_eq!(u.rhs, f.rhs, "row #{i} rhs differs after in-place update");
        }
        // The reused layout solves round 1 to the bit as a fresh build does,
        // both warm-started from round 0's basis as the A* loop does.
        let warm = first.basis.as_ref();
        let a = updated.solve_budgeted(&config, warm, None).unwrap();
        let b = fresh.solve_budgeted(&config, warm, None).unwrap();
        let bits = |s: &Solution| s.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a), bits(&b));
        assert_eq!(a.objective.to_bits(), b.objective.to_bits());
        // Over the reused layout the warm start adopts the factors round 0
        // ended on; the fresh build's own matrix makes it factorize them.
        let counts = |s: &Solution| {
            let st = &s.stats;
            [
                st.simplex_iterations,
                st.dual_iterations,
                st.factorizations + st.factors_adopted,
                st.nodes_explored,
            ]
        };
        assert_eq!(counts(&a), counts(&b));
        assert_eq!((a.stats.factors_adopted, b.stats.factors_adopted), (1, 0));
        assert_eq!(a.basis, b.basis);
        assert!(a.stats.warm_starts > 0, "round 1 re-solves from round 0");
        // Layout-changing inputs refuse the in-place path instead of
        // corrupting the cached model.
        let wider = DemandMatrix::broadcast(4, &gpus, NodeId(0), 3);
        assert!(!updated.update_round(&wider, &config, &round1));
        let completing = MilpBuildOptions {
            relax_completion: false,
            ..round1.clone()
        };
        assert!(!updated.update_round(&demand, &config, &completing));
    }
}
