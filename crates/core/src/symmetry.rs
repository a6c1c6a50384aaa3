//! The symmetry of an instance: a group `G` of node permutations under
//! which the LP of [`crate::lp_form`], the MILP of [`crate::milp_form`] and
//! the static horizon-bound LPs of [`crate::epochs`] are invariant, found by
//! a bounded backtracking search.
//!
//! An element `g` of `G`
//! * keeps node kinds and maps every link `u → v` to the link
//!   `g(u) → g(v)`, which must exist with the same coefficients (capacity in
//!   chunks per epoch, α-delay δ in epochs; the MILP's κ and its δ + κ − 1
//!   grid delays are functions of these two);
//! * keeps every `(s, d)` wanted chunk count (the MILP also needs each chunk
//!   `c` of `s` wanted by `d` to be chunk `c` of `g s` wanted by `g d`:
//!   [`SymmetryGroup::keeps_chunks`]); and
//! * if it is not the identity, fixes no *source* (a GPU with demand): `G`
//!   acts **freely** on the sources.
//!
//! # Why the quotient LP is exact
//!
//! The first two properties make `σ_g : F[s,l,k] ↦ F[g s, g l, k]` (and the
//! same for `B` and `r`) map every row, bound and objective term of the LP
//! to one of the same kind, so `σ_g` maps feasible points to feasible points
//! of equal objective. The average `(1/|G|) Σ_g σ_g x` of an optimum `x` is
//! feasible (the feasible set is convex), optimal and `G`-invariant; so
//! restricting the LP to `G`-invariant points loses nothing. With a free
//! action, the source `g s₀` of a representative `s₀` is reached by exactly
//! one `g`, so an invariant point is `F[g s₀, l, k] = F[s₀, g⁻¹ l, k]` with
//! the representative's own variables left entirely free: no flow is forced
//! to split across symmetric paths, and the quotient keeps one copy of the
//! per-source rows. The shared rows fold to one capacity row per link orbit
//! and one buffer row per node orbit (`Orbits::row_terms`), and each
//! representative's reads count `|G|` times in the objective.
//!
//! # The MILP and A\* quotients are restrictions
//!
//! The same layout over the MILP (`F[s,c,l,k] ↦ F[g s, c, g l, k]`) is no
//! longer exact: the average of integral optima is in general fractional, so
//! the invariant points need not hold an integral optimum. It is sound as a
//! *restriction*, and its gap is measured against the full model:
//! * an integral quotient point unrolls through `G` to an integral point of
//!   the full model. Every full per-source row is the image of a quotient
//!   row, and every capacity (buffer-limit) row sums the image flows
//!   (buffers) exactly as the orbit row does, so every quotient incumbent is
//!   a valid full schedule of the same objective;
//! * the averaging argument holds for the LP relaxation of any model `G`
//!   leaves invariant, copies and buffers included, so the quotient's raw
//!   relaxation has the full model's optimum;
//! * the branch-and-bound root runs after presolve, whose bound tightenings
//!   round integer bounds inward. When no element but the identity fixes a
//!   link or a GPU ([`SymmetryGroup::fixes_a_link_or_gpu`]), every quotient
//!   row is a row of the full model with its variables renamed one to one,
//!   so every tightening is valid for every integral point of the full
//!   model. The average of a full integral optimum then satisfies them all,
//!   and the quotient's presolved root bound still bounds the full model's
//!   optimum. An element that fixes a link folds two sources' flows on it
//!   into one variable: its row reads `2 F ≤ cap`, which presolve rounds to
//!   `F ≤ 0` at `cap = 1`, a cut the full model's integral points violate.
//!
//! So [`crate::TeCcl`] lays the MILP out over the group only when it fixes
//! no link or GPU, solves the quotient's root node alone, and takes its
//! answer when that root ends `Optimal`: its incumbent is within `rel_gap`
//! of the root bound, and so within `rel_gap` of the full model's optimum.
//! Otherwise it solves the full model at the same horizon.
//!
//! A\* needs no such test: it is a heuristic either way. Its first round's
//! holders are `G`-invariant, and a quotient round's sends are unrolled
//! through `G`, so the next round's holders, in-flight chunks and distance
//! rewards are invariant too, and every round is laid out over the group.
//!
//! The search is deterministic and never reads a clock: it stops after
//! 10 000 candidate assignments with the group it has, and every step is
//! charged to the request's [`SolveBudget`].

use std::collections::{BTreeMap, BTreeSet};

use teccl_collective::DemandMatrix;
use teccl_lp::VarId;
use teccl_topology::{NodeId, Topology};
use teccl_util::{ChargeBatcher, SolveBudget};

use crate::epochs::{capacity_chunks_per_epoch, delta_epochs};
use crate::error::{check_demand, TeCclError};

/// Candidate node assignments the search tries before settling for the group
/// found so far. ALLTOALL, SCATTER and GATHER on the builtin topologies take
/// at most ~2 100 (ALLTOALL on ndv2 x2); GATHER on dgx2, whose free groups
/// the search order misses, is the one that runs into the cap.
const SEARCH_STEP_CAP: usize = 10_000;

/// A group of node permutations that acts on an LP instance as described in
/// the [module docs](self). Element 0 is the identity; the elements are kept
/// in lexicographic order of their node images.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymmetryGroup {
    /// `nodes[g][n]`: the image of node `n` under element `g`.
    nodes: Vec<Vec<usize>>,
    /// `links[g][l]`: the image of link `l` under element `g`.
    links: Vec<Vec<usize>>,
}

impl SymmetryGroup {
    /// The group holding only the identity: the LP it yields is the full one.
    pub fn trivial(topology: &Topology) -> Self {
        Self {
            nodes: vec![(0..topology.num_nodes()).collect()],
            links: vec![(0..topology.num_links()).collect()],
        }
    }

    /// Searches a group for the LP of `demand` on `topology` with chunks of
    /// `chunk_bytes` and epochs of `tau`. Grows the orbit of the first source
    /// one generator at a time: for each source outside it, the first
    /// automorphism (in a fixed candidate order) that carries the first
    /// source there and keeps the generated group free is added. Fails on a
    /// demand no formulation can schedule, or with [`TeCclError::Budget`].
    pub fn find(
        topology: &Topology,
        demand: &DemandMatrix,
        chunk_bytes: f64,
        tau: f64,
        budget: Option<&SolveBudget>,
    ) -> Result<Self, TeCclError> {
        check_demand(topology, demand)?;
        let Some(lp) = Structure::new(topology, demand, chunk_bytes, tau) else {
            return Ok(Self::trivial(topology));
        };
        let mut search = Search::new(&lp, ChargeBatcher::new(budget));
        let found = search.run();
        search.charge.flush().map_err(TeCclError::Budget)?;
        Ok(Self::from_nodes(&lp, found?))
    }

    /// [`SymmetryGroup::find`], or the trivial group when the group found
    /// does not keep the demand's chunks ([`SymmetryGroup::keeps_chunks`]):
    /// the group a MILP or an A\* round is laid out over.
    pub fn find_per_chunk(
        topology: &Topology,
        demand: &DemandMatrix,
        chunk_bytes: f64,
        tau: f64,
        budget: Option<&SolveBudget>,
    ) -> Result<Self, TeCclError> {
        let group = Self::find(topology, demand, chunk_bytes, tau, budget)?;
        Ok(if group.keeps_chunks(demand) {
            group
        } else {
            Self::trivial(topology)
        })
    }

    /// The group generated by `generators` (node images, one permutation
    /// each), or `None` if a generator is not a symmetry of the LP or the
    /// generated group fixes a source with an element other than the
    /// identity.
    pub fn generated_by(
        topology: &Topology,
        demand: &DemandMatrix,
        chunk_bytes: f64,
        tau: f64,
        generators: &[Vec<NodeId>],
    ) -> Option<Self> {
        let lp = Structure::new(topology, demand, chunk_bytes, tau)?;
        let gens: Vec<Vec<usize>> = generators
            .iter()
            .map(|g| g.iter().map(|n| n.0).collect())
            .collect();
        if !gens.iter().all(|g| lp.is_symmetry(g)) {
            return None;
        }
        let mut charge = ChargeBatcher::new(None);
        let nodes = lp.free_closure(&gens, &mut charge).ok()??;
        Some(Self::from_nodes(&lp, nodes))
    }

    fn from_nodes(lp: &Structure, mut nodes: Vec<Vec<usize>>) -> Self {
        nodes.sort();
        let links = nodes
            .iter()
            .map(|p| {
                lp.ends
                    .iter()
                    .map(|&(u, v)| lp.link_at[p[u] * lp.n + p[v]].expect("a symmetry maps links"))
                    .collect()
            })
            .collect();
        Self { nodes, links }
    }

    /// `|G|`.
    pub fn order(&self) -> usize {
        self.nodes.len()
    }

    /// Whether `G` holds only the identity.
    pub fn is_trivial(&self) -> bool {
        self.order() == 1
    }

    /// The image of node `n` under element `g`.
    pub(crate) fn node(&self, g: usize, n: NodeId) -> NodeId {
        NodeId(self.nodes[g][n.0])
    }

    /// The image of link `l` under element `g`.
    pub(crate) fn link(&self, g: usize, l: usize) -> usize {
        self.links[g][l]
    }

    /// Whether an element other than the identity fixes a link or a GPU.
    /// Such an element folds a variable twice into that link's (GPU's)
    /// orbit row (`Orbits::row_terms`), where presolve may round the folded
    /// row `m·F ≤ cap` of a binary `F` below what the full model's row
    /// allows: the MILP quotient's root bound then need not bound the full
    /// model.
    pub fn fixes_a_link_or_gpu(&self, topology: &Topology) -> bool {
        (1..self.order()).any(|g| {
            self.links[g].iter().enumerate().any(|(l, &x)| l == x)
                || topology.gpus().any(|n| self.nodes[g][n.0] == n.0)
        })
    }

    /// Whether every element maps each wanted chunk `(s, c, d)` to
    /// `(g s, c, g d)`. [`SymmetryGroup::find`] compares only how many
    /// chunks each pair wants, which is all the LP reads; the MILP keeps
    /// chunks apart, so it takes a group only when this holds.
    pub fn keeps_chunks(&self, demand: &DemandMatrix) -> bool {
        self.nodes.iter().all(|p| {
            demand
                .iter()
                .all(|(s, c, d)| demand.wants(NodeId(p[s.0]), c, NodeId(p[d.0])))
        })
    }

    /// The images of `at` under every element when `at` is the lowest of
    /// them, else `None`: `image(g, at)` is element `g`'s image.
    fn orbit(&self, at: usize, image: impl Fn(usize, usize) -> usize) -> Option<Vec<usize>> {
        let images: Vec<usize> = (0..self.order()).map(|g| image(g, at)).collect();
        images.iter().all(|&x| x >= at).then_some(images)
    }

    /// The images of link `l` under every element (with multiplicity) when
    /// `l` is the lowest-numbered link of its orbit, else `None`.
    pub(crate) fn link_orbit(&self, l: usize) -> Option<Vec<usize>> {
        self.orbit(l, |g, l| self.link(g, l))
    }

    /// The images of node `n` under every element (with multiplicity) when
    /// `n` is the lowest-numbered node of its orbit, else `None`.
    pub(crate) fn node_orbit(&self, n: NodeId) -> Option<Vec<usize>> {
        self.orbit(n.0, |g, n| self.node(g, NodeId(n)).0)
    }
}

/// A formulation laid out over a [`SymmetryGroup`]: which sources carry
/// variables (one representative per source orbit), how any other source's
/// variables are read through the group, and the terms of the rows the
/// sources share. Each time-expanded layout keeps one.
#[derive(Debug)]
pub(crate) struct Orbits {
    group: SymmetryGroup,
    /// Per node: the representative of its source orbit and the element
    /// carrying the node back to it (`None` for non-sources).
    carrier: Vec<Option<(NodeId, usize)>>,
}

impl Orbits {
    /// The orbits of `sources` under `group`. Representatives are the first
    /// source of each orbit; with a free action the carrying element is
    /// unique.
    pub(crate) fn new(group: SymmetryGroup, sources: &[NodeId]) -> Self {
        let mut carrier = vec![None; group.nodes[0].len()];
        for &s in sources {
            if carrier[s.0].is_some() {
                continue;
            }
            for image in &group.nodes {
                let x = image[s.0];
                let back = group.nodes.iter().position(|p| p[x] == s.0);
                carrier[x] = back.map(|h| (s, h));
            }
        }
        Self { group, carrier }
    }

    pub(crate) fn group(&self) -> &SymmetryGroup {
        &self.group
    }

    /// `|G|` as the weight of a representative's objective terms.
    pub(crate) fn weight(&self) -> f64 {
        self.group.order() as f64
    }

    /// The representative of `s`'s orbit and the element carrying `s` to
    /// it; `None` for a node that is not a source.
    pub(crate) fn carrier(&self, s: NodeId) -> Option<(NodeId, usize)> {
        self.carrier.get(s.0).copied().flatten()
    }

    /// Whether `s` is the representative of its source orbit (element 0,
    /// the identity, carries it).
    pub(crate) fn is_representative(&self, s: NodeId) -> bool {
        self.carrier(s) == Some((s, 0))
    }

    /// The terms of a row the sources share, folded to one row per orbit:
    /// the value of source `g s` at `at` is the representative `s`'s value
    /// at `g⁻¹ at`, so the row of `at` sums every representative's
    /// variables over the images of `at` (`images`, with multiplicity: an
    /// image met `m` times gives its variables the coefficient `m`).
    /// `vars(rep, image)` lists a representative's variables at one image,
    /// and distinct `(rep, image)` pairs list distinct variables, as one
    /// variable index over (commodity, place, epoch) does. Terms come in
    /// `reps` order, then in the order `images` first lists each image: over
    /// the trivial group the row of the full model, term for term.
    pub(crate) fn row_terms<R: Copy, I: IntoIterator<Item = VarId>>(
        reps: impl IntoIterator<Item = R>,
        images: &[usize],
        vars: impl Fn(R, usize) -> I,
    ) -> Vec<(VarId, f64)> {
        // Each image once, first-met order, with its multiplicity.
        let mut distinct: Vec<(usize, f64)> = Vec::with_capacity(images.len());
        for &at in images {
            match distinct.iter_mut().find(|(seen, _)| *seen == at) {
                Some((_, m)) => *m += 1.0,
                None => distinct.push((at, 1.0)),
            }
        }
        let mut terms: Vec<(VarId, f64)> = Vec::new();
        for rep in reps {
            for &(at, m) in &distinct {
                terms.extend(vars(rep, at).into_iter().map(|v| (v, m)));
            }
        }
        debug_assert!(
            {
                let mut ids: Vec<VarId> = terms.iter().map(|&(v, _)| v).collect();
                ids.sort_unstable();
                ids.windows(2).all(|w| w[0] != w[1])
            },
            "distinct (rep, image) pairs list distinct variables"
        );
        terms
    }
}

/// What the LP reads of an instance, as dense tables over node indices.
struct Structure {
    n: usize,
    is_switch: Vec<bool>,
    /// The link `u → v` at `u * n + v`.
    link_at: Vec<Option<usize>>,
    /// Each link's `(src, dst)`.
    ends: Vec<(usize, usize)>,
    /// Each link's LP coefficients as a small id: equal ids, equal bits.
    label: Vec<usize>,
    /// Chunks `s` sends `d`, at `s * n + d`.
    want: Vec<usize>,
    sources: Vec<usize>,
}

impl Structure {
    /// `None` when a pair of nodes carries two links (no builder makes one);
    /// such an instance keeps the trivial group.
    fn new(topology: &Topology, demand: &DemandMatrix, chunk_bytes: f64, tau: f64) -> Option<Self> {
        let n = topology.num_nodes();
        let mut link_at = vec![None; n * n];
        let mut labels = BTreeMap::new();
        let mut label = Vec::with_capacity(topology.num_links());
        let mut ends = Vec::with_capacity(topology.num_links());
        for link in &topology.links {
            let slot = &mut link_at[link.src.0 * n + link.dst.0];
            if slot.replace(link.id.0).is_some() {
                return None;
            }
            let key = (
                capacity_chunks_per_epoch(link, chunk_bytes, tau).to_bits(),
                delta_epochs(link, tau),
            );
            let fresh = labels.len();
            label.push(*labels.entry(key).or_insert(fresh));
            ends.push((link.src.0, link.dst.0));
        }
        let mut want = vec![0; n * n];
        for (s, _, d) in demand.iter() {
            want[s.0 * n + d.0] += 1;
        }
        let is_switch: Vec<bool> = (0..n).map(|u| topology.is_switch(NodeId(u))).collect();
        let sources = (0..n)
            .filter(|&s| !is_switch[s] && want[s * n..(s + 1) * n].iter().any(|&w| w > 0))
            .collect();
        Some(Self {
            n,
            is_switch,
            link_at,
            ends,
            label,
            want,
            sources,
        })
    }

    /// Whether mapping `u ↦ x` agrees with every pair `v ↦ map[v]` in
    /// `mapped`: the same link label and wanted counts both ways.
    fn agrees(&self, map: &[usize], mapped: &[usize], u: usize, x: usize) -> bool {
        let n = self.n;
        let label = |a: usize, b: usize| self.link_at[a * n + b].map(|l| self.label[l]);
        mapped.iter().all(|&v| {
            let y = map[v];
            label(u, v) == label(x, y)
                && label(v, u) == label(y, x)
                && self.want[u * n + v] == self.want[x * n + y]
                && self.want[v * n + u] == self.want[y * n + x]
        })
    }

    /// Whether the node permutation `p` is a symmetry of the LP.
    fn is_symmetry(&self, p: &[usize]) -> bool {
        let mut seen = vec![false; self.n];
        let is_permutation = p.len() == self.n
            && p.iter()
                .all(|&x| x < self.n && !std::mem::replace(&mut seen[x], true));
        let all: Vec<usize> = (0..self.n).collect();
        is_permutation
            && (0..self.n)
                .all(|u| self.is_switch[u] == self.is_switch[p[u]] && self.agrees(p, &all, u, p[u]))
    }

    fn fixes_a_source(&self, p: &[usize]) -> bool {
        self.sources.iter().any(|&s| p[s] == s)
    }

    /// The group generated by `gens` if it acts freely on the sources,
    /// `Ok(None)` if it does not. A free group has at most as many elements
    /// as there are sources, which bounds the enumeration.
    fn free_closure(
        &self,
        gens: &[Vec<usize>],
        charge: &mut ChargeBatcher<'_>,
    ) -> Result<Option<Vec<Vec<usize>>>, TeCclError> {
        let identity: Vec<usize> = (0..self.n).collect();
        let mut elements = BTreeSet::from([identity.clone()]);
        let mut frontier = vec![identity];
        while let Some(p) = frontier.pop() {
            for g in gens {
                charge.charge().map_err(TeCclError::Budget)?;
                let q: Vec<usize> = p.iter().map(|&x| g[x]).collect();
                if elements.contains(&q) {
                    continue;
                }
                if self.fixes_a_source(&q) || elements.len() >= self.sources.len().max(1) {
                    return Ok(None);
                }
                elements.insert(q.clone());
                frontier.push(q);
            }
        }
        Ok(Some(elements.into_iter().collect()))
    }
}

/// The backtracking state of one [`SymmetryGroup::find`].
struct Search<'a> {
    lp: &'a Structure,
    charge: ChargeBatcher<'a>,
    steps: usize,
    /// The group found so far.
    group: Vec<Vec<usize>>,
    /// Nodes in assignment order: breadth-first from the first source, so
    /// each node after the first is constrained by a mapped neighbour.
    order: Vec<usize>,
    map: Vec<usize>,
    used: Vec<bool>,
}

/// The outcome of one branch of the search.
enum Branch {
    /// A generator was added.
    Grew,
    /// The subtree holds no usable automorphism.
    Exhausted,
    /// [`SEARCH_STEP_CAP`] was reached.
    Capped,
}

impl<'a> Search<'a> {
    fn new(lp: &'a Structure, charge: ChargeBatcher<'a>) -> Self {
        let n = lp.n;
        let mut order = Vec::with_capacity(n);
        let mut queued = vec![false; n];
        for start in lp.sources.iter().copied().chain(0..n) {
            if queued[start] {
                continue;
            }
            queued[start] = true;
            order.push(start);
            let mut head = order.len() - 1;
            while head < order.len() {
                let u = order[head];
                head += 1;
                for (v, seen) in queued.iter_mut().enumerate() {
                    let linked = lp.link_at[u * n + v].is_some() || lp.link_at[v * n + u].is_some();
                    if linked && !std::mem::replace(seen, true) {
                        order.push(v);
                    }
                }
            }
        }
        Self {
            lp,
            charge,
            steps: 0,
            group: vec![(0..n).collect()],
            order,
            map: vec![usize::MAX; n],
            used: vec![false; n],
        }
    }

    /// Grows the group from the identity until no source outside the first
    /// source's orbit can be reached or the step cap is hit.
    fn run(&mut self) -> Result<Vec<Vec<usize>>, TeCclError> {
        let Some(&s0) = self.lp.sources.first() else {
            return Ok(std::mem::take(&mut self.group));
        };
        for &t in &self.lp.sources[1..] {
            if self.group.iter().any(|h| h[s0] == t) {
                continue;
            }
            self.map.fill(usize::MAX);
            self.used.fill(false);
            self.map[s0] = t;
            self.used[t] = true;
            if let Branch::Capped = self.extend(1)? {
                break;
            }
        }
        Ok(std::mem::take(&mut self.group))
    }

    /// Maps `order[depth..]`; at a complete map, tries the map as the next
    /// generator.
    fn extend(&mut self, depth: usize) -> Result<Branch, TeCclError> {
        let lp = self.lp;
        let Some(&u) = self.order.get(depth) else {
            let mut gens = self.group.clone();
            gens.push(self.map.clone());
            return Ok(match lp.free_closure(&gens, &mut self.charge)? {
                Some(group) => {
                    self.group = group;
                    Branch::Grew
                }
                None => Branch::Exhausted,
            });
        };
        for x in 0..lp.n {
            if self.used[x] || lp.is_switch[x] != lp.is_switch[u] {
                continue;
            }
            self.steps += 1;
            if self.steps > SEARCH_STEP_CAP {
                return Ok(Branch::Capped);
            }
            self.charge.charge().map_err(TeCclError::Budget)?;
            // An element mapping `u` to `x` composes with some `h` of the
            // group into one that fixes the source `u` when `h(x) = u`.
            let fixes =
                lp.sources.binary_search(&u).is_ok() && self.group.iter().any(|h| h[x] == u);
            if fixes || !lp.agrees(&self.map, &self.order[..depth], u, x) {
                continue;
            }
            self.map[u] = x;
            self.used[x] = true;
            let branch = self.extend(depth + 1)?;
            self.map[u] = usize::MAX;
            self.used[x] = false;
            if !matches!(branch, Branch::Exhausted) {
                return Ok(branch);
            }
        }
        Ok(Branch::Exhausted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use teccl_topology::{line_topology, ring_topology};

    fn group_of(topo: &Topology, demand: &DemandMatrix) -> SymmetryGroup {
        SymmetryGroup::find(topo, demand, 1e6, 1e-3, None).unwrap()
    }

    #[test]
    fn ring_alltoall_gets_the_rotations() {
        let topo = ring_topology(5, 1e9, 0.0);
        let gpus: Vec<NodeId> = topo.gpus().collect();
        let group = group_of(&topo, &DemandMatrix::all_to_all(5, &gpus, 1));
        assert_eq!(group.order(), 5);
        // Each element is a rotation: it moves every node by the same step.
        for g in 0..group.order() {
            let step = group.node(g, NodeId(0)).0;
            assert!((0..5).all(|n| group.node(g, NodeId(n)).0 == (n + step) % 5));
        }
    }

    #[test]
    fn a_line_keeps_its_reversal_only_if_no_source_is_fixed() {
        // The reversal of a 4-line is a symmetry, but it is the only one, so
        // the group it generates is free; a 3-line's reversal fixes the
        // middle source and is refused.
        let topo = line_topology(4, 1e9, 0.0);
        let gpus: Vec<NodeId> = topo.gpus().collect();
        assert_eq!(
            group_of(&topo, &DemandMatrix::all_to_all(4, &gpus, 1)).order(),
            2
        );
        let topo = line_topology(3, 1e9, 0.0);
        let gpus: Vec<NodeId> = topo.gpus().collect();
        assert!(group_of(&topo, &DemandMatrix::all_to_all(3, &gpus, 1)).is_trivial());
    }

    #[test]
    fn a_spent_budget_is_a_budget_error() {
        let topo = ring_topology(4, 1e9, 0.0);
        let gpus: Vec<NodeId> = topo.gpus().collect();
        let budget = SolveBudget::unlimited();
        budget.cancel();
        let demand = DemandMatrix::all_to_all(4, &gpus, 1);
        assert!(matches!(
            SymmetryGroup::find(&topo, &demand, 1e6, 1e-3, Some(&budget)),
            Err(TeCclError::Budget(_))
        ));
    }
}
