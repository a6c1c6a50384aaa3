//! The time-expanded network the copy-free LP (§4.1) and the MILP (§3.1)
//! are both laid out on: commodities, one dense variable index per variable
//! kind, the symmetry orbits and the [`EpochGrid`].
//!
//! A commodity is what one set of flow rows moves — a representative source
//! in the LP, a `(source, chunk)` pair in the MILP — a place is a link (`F`)
//! or a node (`B`, `R`, `X`), and an epoch is an index into the horizon. A
//! formulation creates a variable for most of its slots, so a flat table is
//! both smaller and faster than a hash map keyed by the tuple, and it lists
//! its variables in a fixed order.
//!
//! The formulations differ only in the commodity, the grid's delay rule (δ
//! with κ = 1, or δ + κ − 1) and their flow rows (conservation, or copy).
//! The rest is here once: values read through the group, unrolling, the
//! orbit-folded capacity and buffer-limit rows and the conservation rows
//! (the LP's, and the MILP's at a switch that cannot copy).
//! Each formulation creates its own variables, in its own order.

use teccl_collective::DemandMatrix;
use teccl_lp::{ConstraintOp, Model, Solution, SolveStatus, VarId};
use teccl_topology::{NodeId, Topology};
use teccl_util::SolveBudget;

use crate::epochs::EpochGrid;
use crate::error::{check_budget, TeCclError};
use crate::symmetry::{Orbits, SymmetryGroup};

/// A slot with no variable.
const ABSENT: u32 = u32::MAX;

/// One kind of variable of a time-expanded formulation, keyed
/// `(commodity, place, epoch)`.
#[derive(Debug, Clone)]
pub(crate) struct VarIndex {
    places: usize,
    epochs: usize,
    ids: Vec<u32>,
    len: usize,
}

impl VarIndex {
    /// An empty index over `commodities × places × epochs` slots.
    pub(crate) fn new(commodities: usize, places: usize, epochs: usize) -> Self {
        Self {
            places,
            epochs,
            ids: vec![ABSENT; commodities * places * epochs],
            len: 0,
        }
    }

    /// The slot of `(commodity, place, epoch)`; `None` for an epoch or a
    /// place outside the index.
    fn slot(&self, commodity: usize, place: usize, epoch: usize) -> Option<usize> {
        (place < self.places && epoch < self.epochs)
            .then(|| (commodity * self.places + place) * self.epochs + epoch)
    }

    /// Records `var` as the variable of `(commodity, place, epoch)`.
    pub(crate) fn insert(&mut self, commodity: usize, place: usize, epoch: usize, var: VarId) {
        let slot = self
            .slot(commodity, place, epoch)
            .expect("a slot inside the index");
        let id = u32::try_from(var.index()).expect("fewer than 2^32 variables");
        if self.ids[slot] == ABSENT {
            self.len += 1;
        }
        self.ids[slot] = id;
    }

    /// The variable of `(commodity, place, epoch)`, if there is one.
    pub(crate) fn get(&self, commodity: usize, place: usize, epoch: usize) -> Option<VarId> {
        let slot = self.slot(commodity, place, epoch)?;
        match self.ids.get(slot) {
            Some(&id) if id != ABSENT => Some(VarId(id as usize)),
            _ => None,
        }
    }

    /// Number of variables recorded.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Every `((commodity, place, epoch), var)`, by commodity, then place,
    /// then epoch.
    pub(crate) fn iter(&self) -> impl Iterator<Item = ((usize, usize, usize), VarId)> + '_ {
        let per_commodity = self.places * self.epochs;
        self.ids
            .iter()
            .enumerate()
            .filter(|&(_, &id)| id != ABSENT)
            .map(move |(slot, &id)| {
                let key = (
                    slot / per_commodity,
                    slot % per_commodity / self.epochs,
                    slot % self.epochs,
                );
                (key, VarId(id as usize))
            })
    }
}

/// A formulation's commodities in layout order, and the map from
/// `(source, chunk)` back to a commodity's position.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Commodities {
    list: Vec<(NodeId, usize)>,
    /// Chunks per source in `position`.
    chunks: usize,
    /// `position[s * chunks + c]`: the commodity of `(s, c)`, or `ABSENT`.
    position: Vec<u32>,
}

impl Commodities {
    /// Indexes `list`, whose order is the layout's.
    pub(crate) fn new(list: Vec<(NodeId, usize)>) -> Self {
        let nodes = list.iter().map(|&(s, _)| s.0 + 1).max().unwrap_or(0);
        let chunks = list.iter().map(|&(_, c)| c + 1).max().unwrap_or(0);
        let mut position = vec![ABSENT; nodes * chunks];
        for (i, &(s, c)) in list.iter().enumerate() {
            position[s.0 * chunks + c] = u32::try_from(i).expect("fewer than 2^32 commodities");
        }
        Self {
            list,
            chunks,
            position,
        }
    }

    /// The commodities in layout order.
    pub(crate) fn list(&self) -> &[(NodeId, usize)] {
        &self.list
    }

    /// Number of commodities.
    pub(crate) fn len(&self) -> usize {
        self.list.len()
    }

    /// The position of `(s, c)` in the layout, if it is a commodity.
    pub(crate) fn index(&self, s: NodeId, c: usize) -> Option<usize> {
        if c >= self.chunks {
            return None;
        }
        match self.position.get(s.0 * self.chunks + c) {
            Some(&i) if i != ABSENT => Some(i as usize),
            _ => None,
        }
    }
}

/// The orbits of the sources of `demand` (GPUs with anything to send)
/// under `group`.
pub(crate) fn source_orbits(
    topology: &Topology,
    demand: &DemandMatrix,
    group: SymmetryGroup,
) -> Orbits {
    let sources: Vec<NodeId> = topology
        .gpus()
        .filter(|&s| demand.demand_of_source(s) > 0)
        .collect();
    Orbits::new(group, &sources)
}

/// The kinds of variable of a time-expanded formulation: flow `F` on a
/// link, buffer `B`, read `R` and eviction `X` at a node.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Kind {
    F,
    B,
    R,
    X,
}

/// One formulation's time-expanded network: its topology, delays, orbits,
/// commodities, horizon and variables (module docs). The LP lays out no
/// `X`.
#[derive(Debug)]
pub(crate) struct TimeExpanded {
    pub(crate) topology: Topology,
    /// Per-link delays, κ and distances under the formulation's rule.
    pub(crate) grid: EpochGrid,
    /// The group the model is laid out over, and the source orbits.
    pub(crate) orbits: Orbits,
    /// Laid-out commodities in build order.
    pub(crate) commodities: Commodities,
    /// Number of epochs `K`.
    pub(crate) epochs: usize,
    /// `F[i, link, k]`, `k < K`.
    pub(crate) f: VarIndex,
    /// `B[i, node, k]`, `k ≤ K`.
    pub(crate) b: VarIndex,
    /// `R[i, node, k]`, `k < K`.
    pub(crate) r: VarIndex,
    /// `X[i, node, k]`, `k < K`.
    pub(crate) x: VarIndex,
}

impl TimeExpanded {
    /// A network with no variable yet, for `commodities` in layout order
    /// over `epochs` epochs.
    pub(crate) fn new(
        topology: &Topology,
        grid: EpochGrid,
        orbits: Orbits,
        commodities: Vec<(NodeId, usize)>,
        epochs: usize,
    ) -> Self {
        let commodities = Commodities::new(commodities);
        let (n, nodes) = (commodities.len(), topology.num_nodes());
        Self {
            topology: topology.clone(),
            grid,
            orbits,
            commodities,
            epochs,
            f: VarIndex::new(n, topology.links.len(), epochs),
            b: VarIndex::new(n, nodes, epochs + 1),
            r: VarIndex::new(n, nodes, epochs),
            x: VarIndex::new(n, nodes, epochs),
        }
    }

    /// `solution` as a formulation hands it back: an infeasible model is
    /// infeasible at this horizon, an unbounded or stopped one has none.
    pub(crate) fn outcome(&self, solution: Solution) -> Result<Solution, TeCclError> {
        match solution.status {
            SolveStatus::Infeasible => Err(TeCclError::InfeasibleWithEpochs(self.epochs)),
            SolveStatus::Unbounded | SolveStatus::LimitReached => Err(TeCclError::NoSolution),
            _ => Ok(solution),
        }
    }

    /// The group the model is laid out over.
    pub(crate) fn group(&self) -> &SymmetryGroup {
        self.orbits.group()
    }

    /// The delay (in epochs) of the link `from -> to`; 0 without one.
    pub(crate) fn delta_of(&self, from: NodeId, to: NodeId) -> usize {
        self.grid.delay_between(&self.topology, from, to)
    }

    /// The value in `solution` of the `kind` variable of chunk `c` of source
    /// `s` at `place` in epoch `k`, read through the group: the element `h`
    /// carrying `s` to its representative `rep` reads `(rep, c)`'s variable
    /// at `h`'s image of `place`. A node outside every source orbit is read
    /// directly; 0 where no variable is laid out.
    pub(crate) fn value(
        &self,
        kind: Kind,
        solution: &Solution,
        s: NodeId,
        c: usize,
        place: usize,
        k: usize,
    ) -> f64 {
        let (rep, h) = self.orbits.carrier(s).unwrap_or((s, 0));
        let group = self.group();
        let node = |n| group.node(h, NodeId(n)).0;
        let (vars, at) = match kind {
            Kind::F => (&self.f, group.link(h, place)),
            Kind::B => (&self.b, node(place)),
            Kind::R => (&self.r, node(place)),
            Kind::X => (&self.x, node(place)),
        };
        self.commodities
            .index(rep, c)
            .and_then(|i| vars.get(i, at, k))
            .map_or(0.0, |v| solution.values[v.index()])
    }

    /// `solution` unrolled onto `full`, the same instance laid out over the
    /// trivial group: every variable of `full` at the value this network
    /// gives it through the group.
    pub(crate) fn unroll(&self, solution: &Solution, full: &TimeExpanded) -> Vec<f64> {
        let kinds = [
            (Kind::F, &full.f),
            (Kind::B, &full.b),
            (Kind::R, &full.r),
            (Kind::X, &full.x),
        ];
        let mut x = vec![0.0; kinds.iter().map(|(_, vars)| vars.len()).sum()];
        for (kind, vars) in kinds {
            for ((i, place, k), v) in vars.iter() {
                let (s, c) = full.commodities.list()[i];
                x[v.index()] = self.value(kind, solution, s, c, place, k);
            }
        }
        x
    }

    /// Pushes `(F, coef)` for each flow of commodity `i` into `node` that
    /// has arrived by the end of epoch `k`: sent on an in-link `l` in epoch
    /// `k − delay(l)`.
    pub(crate) fn inflow(
        &self,
        terms: &mut Vec<(VarId, f64)>,
        i: usize,
        node: NodeId,
        k: usize,
        coef: f64,
    ) {
        for inl in self.topology.in_links(node) {
            let sent = k.checked_sub(self.grid.delay(inl));
            if let Some(v) = sent.and_then(|sent| self.f.get(i, inl.id.0, sent)) {
                terms.push((v, coef));
            }
        }
    }

    /// The capacity rows (Appendix F): per link orbit and epoch `k`, every
    /// commodity's flow over the link's images in the `κ` epochs ending at
    /// `k` is at most `κ · cap`. A budget spent before a link fails with
    /// [`TeCclError::Budget`].
    pub(crate) fn capacity_rows(
        &self,
        model: &mut Model,
        budget: Option<&SolveBudget>,
    ) -> Result<(), TeCclError> {
        for link in &self.topology.links {
            let Some(images) = self.group().link_orbit(link.id.0) else {
                continue;
            };
            check_budget(budget)?;
            let cap = self.grid.capacity(link);
            let kappa = self.grid.kappa(link);
            for k in 0..self.epochs {
                let window = k.saturating_sub(kappa - 1)..=k;
                let terms = Orbits::row_terms(0..self.commodities.len(), &images, |i, at| {
                    window.clone().filter_map(move |kk| self.f.get(i, at, kk))
                });
                if !terms.is_empty() {
                    model.add_cons("", &terms, ConstraintOp::Le, kappa as f64 * cap);
                }
            }
        }
        Ok(())
    }

    /// The buffer size limit rows (Appendix B): per GPU orbit and epoch
    /// `1..=K`, every commodity's buffer over the GPU's images is at most
    /// `limit`. A budget spent before a GPU fails with
    /// [`TeCclError::Budget`].
    pub(crate) fn buffer_limit_rows(
        &self,
        model: &mut Model,
        limit: usize,
        budget: Option<&SolveBudget>,
    ) -> Result<(), TeCclError> {
        for n in self.topology.gpus() {
            let Some(images) = self.group().node_orbit(n) else {
                continue;
            };
            check_budget(budget)?;
            for k in 1..=self.epochs {
                let terms = Orbits::row_terms(0..self.commodities.len(), &images, |i, at| {
                    self.b.get(i, at, k)
                });
                if !terms.is_empty() {
                    model.add_cons("", &terms, ConstraintOp::Le, limit as f64);
                }
            }
        }
        Ok(())
    }

    /// The conservation rows of commodity `i` at `nodes` (Appendix A): per
    /// epoch `k`, what has arrived by the end of `k` plus `B[k]` equals
    /// `B[k + 1]` plus `R[k]` plus what leaves in `k + 1`, each term where it
    /// is laid out. At a switch that cannot copy (no buffer, no read) what
    /// arrives leaves in the next epoch. A budget spent before a node fails
    /// with [`TeCclError::Budget`].
    pub(crate) fn conservation_rows(
        &self,
        model: &mut Model,
        terms: &mut Vec<(VarId, f64)>,
        i: usize,
        nodes: impl IntoIterator<Item = NodeId>,
        budget: Option<&SolveBudget>,
    ) -> Result<(), TeCclError> {
        for n in nodes {
            check_budget(budget)?;
            for k in 0..self.epochs {
                terms.clear();
                self.inflow(terms, i, n, k, 1.0);
                terms.extend(self.b.get(i, n.0, k).map(|b| (b, 1.0)));
                terms.extend(self.b.get(i, n.0, k + 1).map(|b| (b, -1.0)));
                terms.extend(self.r.get(i, n.0, k).map(|r| (r, -1.0)));
                for outl in self.topology.out_links(n) {
                    terms.extend(self.f.get(i, outl.id.0, k + 1).map(|v| (v, -1.0)));
                }
                if !terms.is_empty() {
                    model.add_cons("", terms, ConstraintOp::Eq, 0.0);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_round_trips_and_lists_in_key_order() {
        let mut index = VarIndex::new(2, 3, 4);
        index.insert(1, 2, 3, VarId(7));
        index.insert(0, 1, 0, VarId(5));
        index.insert(0, 1, 0, VarId(6));
        assert_eq!(index.len(), 2);
        assert_eq!(index.get(1, 2, 3), Some(VarId(7)));
        assert_eq!(index.get(0, 1, 0), Some(VarId(6)));
        assert_eq!(index.get(0, 0, 0), None);
        // Outside the index: an epoch past the horizon, a commodity past the
        // last.
        assert_eq!(index.get(0, 1, 4), None);
        assert_eq!(index.get(2, 0, 0), None);
        let all: Vec<_> = index.iter().collect();
        assert_eq!(all, vec![((0, 1, 0), VarId(6)), ((1, 2, 3), VarId(7))]);
    }

    #[test]
    fn commodities_map_back_to_their_position() {
        let commodities = Commodities::new(vec![(NodeId(2), 1), (NodeId(0), 0)]);
        assert_eq!(commodities.len(), 2);
        assert_eq!(commodities.index(NodeId(2), 1), Some(0));
        assert_eq!(commodities.index(NodeId(0), 0), Some(1));
        assert_eq!(commodities.index(NodeId(0), 1), None);
        assert_eq!(commodities.index(NodeId(9), 0), None);
        assert_eq!(commodities.index(NodeId(0), 5), None);
    }
}
