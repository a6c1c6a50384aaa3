//! The directed-graph topology model.
//!
//! Nodes are either GPUs (which can buffer chunks, consume demands and copy
//! data) or switches (which have no buffer — the paper pins switch buffers to
//! zero). Links are **unidirectional** and carry a capacity (bytes/second) and
//! a fixed latency α (seconds), exactly the α–β model of §2.1.

use std::collections::BTreeSet;
use std::fmt;

/// Identifier of a node inside a [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

impl NodeId {
    /// The underlying index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of a link inside a [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId(pub usize);

impl LinkId {
    /// The underlying index.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Kind of a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// A GPU: holds demands, buffers chunks (store-and-forward) and can copy.
    Gpu,
    /// A switch: no buffer; copy support is a property of the solver's switch
    /// model (§3.1 "Modeling switches"), not of the topology.
    Switch,
}

/// A node of the topology.
#[derive(Debug, Clone)]
pub struct Node {
    /// Identifier (index into [`Topology::nodes`]).
    pub id: NodeId,
    /// GPU or switch.
    pub kind: NodeKind,
    /// Human-readable name, e.g. `"chassis0/gpu3"`.
    pub name: String,
    /// Chassis index this node belongs to (switches that span chassis use the
    /// chassis of their creation; purely informational).
    pub chassis: usize,
}

/// A unidirectional link.
#[derive(Debug, Clone)]
pub struct Link {
    /// Identifier (index into [`Topology::links`]).
    pub id: LinkId,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Capacity in bytes per second (β = 1/capacity).
    pub capacity: f64,
    /// Fixed latency α in seconds.
    pub alpha: f64,
}

impl Link {
    /// Time in seconds to push `bytes` through this link: α + bytes/capacity.
    pub fn transfer_time(&self, bytes: f64) -> f64 {
        self.alpha + bytes / self.capacity
    }

    /// Pure transmission (β) time for `bytes`, without the α term.
    pub fn transmission_time(&self, bytes: f64) -> f64 {
        bytes / self.capacity
    }
}

/// Errors produced while building or validating a topology.
#[derive(Debug, Clone, PartialEq)]
pub enum TopologyError {
    /// A link references a node that does not exist.
    UnknownNode(usize),
    /// Self-loop links are not allowed.
    SelfLoop(NodeId),
    /// A link has a non-positive capacity or a negative α.
    BadLinkParameters { src: NodeId, dst: NodeId },
    /// The GPUs of the topology are not mutually reachable.
    Disconnected { from: NodeId, to: NodeId },
    /// A duplicate link between the same ordered pair of nodes.
    DuplicateLink { src: NodeId, dst: NodeId },
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::UnknownNode(i) => write!(f, "link references unknown node {i}"),
            TopologyError::SelfLoop(n) => write!(f, "self-loop on node {n}"),
            TopologyError::BadLinkParameters { src, dst } => {
                write!(
                    f,
                    "link {src}->{dst} has non-positive capacity or negative alpha"
                )
            }
            TopologyError::Disconnected { from, to } => {
                write!(f, "GPU {to} is not reachable from GPU {from}")
            }
            TopologyError::DuplicateLink { src, dst } => {
                write!(f, "duplicate link {src}->{dst}")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

/// A directed GPU-cluster topology.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    /// Human-readable name ("DGX1", "NDv2 x2", ...).
    pub name: String,
    /// All nodes.
    pub nodes: Vec<Node>,
    /// All links.
    pub links: Vec<Link>,
    /// Outgoing link ids per node.
    out_links: Vec<Vec<LinkId>>,
    /// Incoming link ids per node.
    in_links: Vec<Vec<LinkId>>,
}

impl Topology {
    /// Creates an empty topology with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Adds a GPU node and returns its id.
    pub fn add_gpu(&mut self, name: impl Into<String>, chassis: usize) -> NodeId {
        self.add_node(NodeKind::Gpu, name, chassis)
    }

    /// Adds a switch node and returns its id.
    pub fn add_switch(&mut self, name: impl Into<String>, chassis: usize) -> NodeId {
        self.add_node(NodeKind::Switch, name, chassis)
    }

    fn add_node(&mut self, kind: NodeKind, name: impl Into<String>, chassis: usize) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node {
            id,
            kind,
            name: name.into(),
            chassis,
        });
        self.out_links.push(Vec::new());
        self.in_links.push(Vec::new());
        id
    }

    /// Adds a unidirectional link `src -> dst` with the given capacity
    /// (bytes/s) and α (seconds). Returns its id.
    pub fn add_link(&mut self, src: NodeId, dst: NodeId, capacity: f64, alpha: f64) -> LinkId {
        let id = LinkId(self.links.len());
        self.links.push(Link {
            id,
            src,
            dst,
            capacity,
            alpha,
        });
        self.out_links[src.0].push(id);
        self.in_links[dst.0].push(id);
        id
    }

    /// Adds a pair of links `a -> b` and `b -> a` with identical parameters.
    pub fn add_bilink(
        &mut self,
        a: NodeId,
        b: NodeId,
        capacity: f64,
        alpha: f64,
    ) -> (LinkId, LinkId) {
        (
            self.add_link(a, b, capacity, alpha),
            self.add_link(b, a, capacity, alpha),
        )
    }

    /// Number of nodes (GPUs + switches).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of links (directed edges).
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// Iterator over all GPU node ids.
    pub fn gpus(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes
            .iter()
            .filter(|n| n.kind == NodeKind::Gpu)
            .map(|n| n.id)
    }

    /// Iterator over all switch node ids.
    pub fn switches(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes
            .iter()
            .filter(|n| n.kind == NodeKind::Switch)
            .map(|n| n.id)
    }

    /// Number of GPU nodes.
    pub fn num_gpus(&self) -> usize {
        self.gpus().count()
    }

    /// Whether `node` is a switch.
    pub fn is_switch(&self, node: NodeId) -> bool {
        self.nodes[node.0].kind == NodeKind::Switch
    }

    /// Outgoing links of a node.
    pub fn out_links(&self, node: NodeId) -> impl Iterator<Item = &Link> + '_ {
        self.out_links[node.0].iter().map(move |l| &self.links[l.0])
    }

    /// Incoming links of a node.
    pub fn in_links(&self, node: NodeId) -> impl Iterator<Item = &Link> + '_ {
        self.in_links[node.0].iter().map(move |l| &self.links[l.0])
    }

    /// The first link from `src` to `dst`, if any.
    pub fn link_between(&self, src: NodeId, dst: NodeId) -> Option<&Link> {
        // A node outside the topology has no links (a stored schedule may
        // name one).
        let out = self.out_links.get(src.0)?;
        out.iter().map(|l| &self.links[l.0]).find(|l| l.dst == dst)
    }

    /// Capacity of the fastest link (bytes/s).
    pub fn fastest_link_capacity(&self) -> f64 {
        self.links.iter().map(|l| l.capacity).fold(0.0, f64::max)
    }

    /// Capacity of the slowest link (bytes/s).
    pub fn slowest_link_capacity(&self) -> f64 {
        self.links
            .iter()
            .map(|l| l.capacity)
            .fold(f64::INFINITY, f64::min)
    }

    /// Largest α over all links (seconds).
    pub fn max_alpha(&self) -> f64 {
        self.links.iter().map(|l| l.alpha).fold(0.0, f64::max)
    }

    /// Scales every link's α by `factor` (used by experiments that compare
    /// α = 0 against α > 0, e.g. Figure 7 / Figure 9).
    pub fn with_alpha_scaled(&self, factor: f64) -> Topology {
        let mut t = self.clone();
        for l in &mut t.links {
            l.alpha *= factor;
        }
        t
    }

    /// A deterministic 64-bit fingerprint of the topology *graph*: node kinds
    /// and chassis in index order, links in canonical `(src, dst)` order
    /// (insertion order of equal links does not matter), capacities and α
    /// quantized so floating-point noise does not split otherwise identical
    /// topologies. Names are deliberately excluded — renaming a cluster must
    /// not invalidate its cached schedules. Stable across runs and machines
    /// (FNV-1a via [`teccl_util::hash`]), unlike `std::hash`'s per-process
    /// randomized SipHash.
    pub fn fingerprint(&self) -> u64 {
        let mut h = teccl_util::hash::StableHasher::new();
        h.write_usize(self.nodes.len());
        for n in &self.nodes {
            h.write_u64(match n.kind {
                NodeKind::Gpu => 0,
                NodeKind::Switch => 1,
            });
            h.write_usize(n.chassis);
        }
        // Canonical edge ordering: sort by (src, dst). `validate` rejects
        // duplicate directed links, so the order is total.
        let mut order: Vec<usize> = (0..self.links.len()).collect();
        order.sort_by_key(|&i| (self.links[i].src.0, self.links[i].dst.0));
        h.write_usize(self.links.len());
        for i in order {
            let l = &self.links[i];
            h.write_usize(l.src.0);
            h.write_usize(l.dst.0);
            // β = 1/capacity in picoseconds-per-byte resolution and α in
            // picoseconds: fine enough to separate every real link class
            // (25 vs 50 GB/s, 0.6 vs 0.7 µs), coarse enough to absorb noise.
            h.write_f64_quantized(1.0 / l.capacity, 1e12);
            h.write_f64_quantized(l.alpha, 1e12);
        }
        h.finish()
    }

    /// Removes a link (used by the failure-adaptation example). Link ids are
    /// re-assigned, so callers should re-query them afterwards.
    pub fn without_link(&self, src: NodeId, dst: NodeId) -> Topology {
        let mut t = Topology::new(format!("{} (without {}->{})", self.name, src, dst));
        for n in &self.nodes {
            match n.kind {
                NodeKind::Gpu => t.add_gpu(n.name.clone(), n.chassis),
                NodeKind::Switch => t.add_switch(n.name.clone(), n.chassis),
            };
        }
        for l in &self.links {
            if l.src == src && l.dst == dst {
                continue;
            }
            t.add_link(l.src, l.dst, l.capacity, l.alpha);
        }
        t
    }

    /// Validates structural invariants: links reference existing nodes, no
    /// self-loops, positive capacities, non-negative α, no duplicate directed
    /// links, and every GPU can reach every other GPU.
    pub fn validate(&self) -> Result<(), TopologyError> {
        let mut seen: BTreeSet<(usize, usize)> = BTreeSet::new();
        for l in &self.links {
            if l.src.0 >= self.nodes.len() {
                return Err(TopologyError::UnknownNode(l.src.0));
            }
            if l.dst.0 >= self.nodes.len() {
                return Err(TopologyError::UnknownNode(l.dst.0));
            }
            if l.src == l.dst {
                return Err(TopologyError::SelfLoop(l.src));
            }
            if l.capacity <= 0.0 || l.alpha < 0.0 || !l.capacity.is_finite() || !l.alpha.is_finite()
            {
                return Err(TopologyError::BadLinkParameters {
                    src: l.src,
                    dst: l.dst,
                });
            }
            if !seen.insert((l.src.0, l.dst.0)) {
                return Err(TopologyError::DuplicateLink {
                    src: l.src,
                    dst: l.dst,
                });
            }
        }
        // Reachability between GPUs.
        let gpus: Vec<NodeId> = self.gpus().collect();
        if let Some(&first) = gpus.first() {
            let reach = self.reachable_from(first);
            for &g in &gpus {
                if !reach[g.0] {
                    return Err(TopologyError::Disconnected { from: first, to: g });
                }
            }
            // Also require the reverse direction (reachability towards `first`).
            let rev = self.reachable_to(first);
            for &g in &gpus {
                if !rev[g.0] {
                    return Err(TopologyError::Disconnected { from: g, to: first });
                }
            }
        }
        Ok(())
    }

    /// BFS over outgoing links.
    pub fn reachable_from(&self, start: NodeId) -> Vec<bool> {
        let mut seen = vec![false; self.nodes.len()];
        let mut queue = std::collections::VecDeque::new();
        seen[start.0] = true;
        queue.push_back(start);
        while let Some(n) = queue.pop_front() {
            for l in self.out_links(n) {
                if !seen[l.dst.0] {
                    seen[l.dst.0] = true;
                    queue.push_back(l.dst);
                }
            }
        }
        seen
    }

    /// BFS over incoming links (which nodes can reach `target`).
    pub fn reachable_to(&self, target: NodeId) -> Vec<bool> {
        let mut seen = vec![false; self.nodes.len()];
        let mut queue = std::collections::VecDeque::new();
        seen[target.0] = true;
        queue.push_back(target);
        while let Some(n) = queue.pop_front() {
            for l in self.in_links(n) {
                if !seen[l.src.0] {
                    seen[l.src.0] = true;
                    queue.push_back(l.src);
                }
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_gpu_topo() -> Topology {
        let mut t = Topology::new("pair");
        let a = t.add_gpu("a", 0);
        let b = t.add_gpu("b", 0);
        t.add_bilink(a, b, 1e9, 1e-6);
        t
    }

    #[test]
    fn add_nodes_and_links() {
        let t = two_gpu_topo();
        assert_eq!(t.num_nodes(), 2);
        assert_eq!(t.num_links(), 2);
        assert_eq!(t.num_gpus(), 2);
        assert_eq!(t.switches().count(), 0);
        assert!(t.validate().is_ok());
    }

    #[test]
    fn link_cost_model() {
        let t = two_gpu_topo();
        let l = t.link_between(NodeId(0), NodeId(1)).unwrap();
        // 1 MB over 1 GB/s = 1 ms plus 1 µs alpha.
        let time = l.transfer_time(1e6);
        assert!((time - (1e-3 + 1e-6)).abs() < 1e-12);
        assert!((l.transmission_time(1e6) - 1e-3).abs() < 1e-12);
    }

    #[test]
    fn out_and_in_links() {
        let mut t = Topology::new("tri");
        let a = t.add_gpu("a", 0);
        let b = t.add_gpu("b", 0);
        let c = t.add_gpu("c", 0);
        t.add_link(a, b, 1e9, 0.0);
        t.add_link(a, c, 1e9, 0.0);
        t.add_link(b, a, 1e9, 0.0);
        t.add_link(c, a, 1e9, 0.0);
        assert_eq!(t.out_links(a).count(), 2);
        assert_eq!(t.in_links(a).count(), 2);
        assert_eq!(t.out_links(b).count(), 1);
        assert!(t.link_between(b, c).is_none());
    }

    #[test]
    fn validate_detects_self_loop() {
        let mut t = Topology::new("bad");
        let a = t.add_gpu("a", 0);
        let b = t.add_gpu("b", 0);
        t.add_bilink(a, b, 1e9, 0.0);
        t.add_link(a, a, 1e9, 0.0);
        assert!(matches!(t.validate(), Err(TopologyError::SelfLoop(_))));
    }

    #[test]
    fn validate_detects_bad_capacity() {
        let mut t = Topology::new("bad");
        let a = t.add_gpu("a", 0);
        let b = t.add_gpu("b", 0);
        t.add_link(a, b, 0.0, 0.0);
        t.add_link(b, a, 1e9, 0.0);
        assert!(matches!(
            t.validate(),
            Err(TopologyError::BadLinkParameters { .. })
        ));
    }

    #[test]
    fn validate_detects_disconnected() {
        let mut t = Topology::new("split");
        let a = t.add_gpu("a", 0);
        let b = t.add_gpu("b", 0);
        let c = t.add_gpu("c", 1);
        t.add_bilink(a, b, 1e9, 0.0);
        let _ = c;
        assert!(matches!(
            t.validate(),
            Err(TopologyError::Disconnected { .. })
        ));
    }

    #[test]
    fn validate_detects_one_way_disconnect() {
        let mut t = Topology::new("oneway");
        let a = t.add_gpu("a", 0);
        let b = t.add_gpu("b", 0);
        t.add_link(a, b, 1e9, 0.0);
        // b cannot reach a.
        assert!(matches!(
            t.validate(),
            Err(TopologyError::Disconnected { .. })
        ));
    }

    #[test]
    fn validate_detects_duplicate_link() {
        let mut t = Topology::new("dup");
        let a = t.add_gpu("a", 0);
        let b = t.add_gpu("b", 0);
        t.add_bilink(a, b, 1e9, 0.0);
        t.add_link(a, b, 2e9, 0.0);
        assert!(matches!(
            t.validate(),
            Err(TopologyError::DuplicateLink { .. })
        ));
    }

    #[test]
    fn alpha_scaling() {
        let t = two_gpu_topo();
        let z = t.with_alpha_scaled(0.0);
        assert!(z.links.iter().all(|l| l.alpha == 0.0));
        let d = t.with_alpha_scaled(2.0);
        assert!((d.links[0].alpha - 2e-6).abs() < 1e-18);
    }

    #[test]
    fn without_link_removes_exactly_one_direction() {
        let t = two_gpu_topo();
        let cut = t.without_link(NodeId(0), NodeId(1));
        assert_eq!(cut.num_links(), 1);
        assert!(cut.link_between(NodeId(0), NodeId(1)).is_none());
        assert!(cut.link_between(NodeId(1), NodeId(0)).is_some());
    }

    #[test]
    fn fastest_and_slowest_capacity() {
        let mut t = Topology::new("mix");
        let a = t.add_gpu("a", 0);
        let b = t.add_gpu("b", 0);
        t.add_link(a, b, 1e9, 1e-6);
        t.add_link(b, a, 4e9, 2e-6);
        assert_eq!(t.fastest_link_capacity(), 4e9);
        assert_eq!(t.slowest_link_capacity(), 1e9);
        assert_eq!(t.max_alpha(), 2e-6);
    }

    #[test]
    fn serde_roundtrip() {
        let t = two_gpu_topo();
        let json = t.to_json_value().to_json();
        let back = Topology::from_json_str(&json).unwrap();
        assert_eq!(back.num_nodes(), 2);
        assert_eq!(back.num_links(), 2);
        assert!(back.validate().is_ok());
        assert_eq!(back.out_links(NodeId(0)).count(), 1);
    }

    #[test]
    fn fingerprint_ignores_names_and_link_insertion_order() {
        let t = two_gpu_topo();
        let mut renamed = t.clone();
        renamed.name = "other".into();
        renamed.nodes[0].name = "x".into();
        assert_eq!(t.fingerprint(), renamed.fingerprint());
        // Same links added in the opposite order.
        let mut rev = Topology::new("pair-rev");
        let a = rev.add_gpu("a", 0);
        let b = rev.add_gpu("b", 0);
        rev.add_link(b, a, 1e9, 1e-6);
        rev.add_link(a, b, 1e9, 1e-6);
        assert_eq!(t.fingerprint(), rev.fingerprint());
        // JSON round-trip preserves the fingerprint.
        let back = Topology::from_json_str(&t.to_json_value().to_json()).unwrap();
        assert_eq!(t.fingerprint(), back.fingerprint());
    }

    #[test]
    fn fingerprint_sees_structure_and_parameters() {
        let t = two_gpu_topo();
        let cut = t.without_link(NodeId(0), NodeId(1));
        assert_ne!(t.fingerprint(), cut.fingerprint());
        let slow = {
            let mut s = Topology::new("slow");
            let a = s.add_gpu("a", 0);
            let b = s.add_gpu("b", 0);
            s.add_bilink(a, b, 5e8, 1e-6);
            s
        };
        assert_ne!(t.fingerprint(), slow.fingerprint());
        assert_ne!(t.fingerprint(), t.with_alpha_scaled(2.0).fingerprint());
        // A switch is not a GPU, even with identical links.
        let mut sw = Topology::new("sw");
        let a = sw.add_gpu("a", 0);
        let b = sw.add_switch("b", 0);
        sw.add_bilink(a, b, 1e9, 1e-6);
        assert_ne!(t.fingerprint(), sw.fingerprint());
    }

    /// The ISSUE/serving requirement: every prebuilt topology (including the
    /// chassis variants) must fingerprint distinctly, and repeated
    /// construction must fingerprint stably (the builders are deterministic,
    /// so two runs of the same binary — and, with FNV, two machines — agree).
    #[test]
    fn prebuilt_topologies_fingerprint_distinctly_and_stably() {
        use crate::builders::*;
        type Builder = fn() -> Topology;
        let build: Vec<(&str, Builder)> = vec![
            ("dgx1", dgx1),
            ("ndv2x1", || ndv2(1)),
            ("ndv2x2", || ndv2(2)),
            ("ndv2x4", || ndv2(4)),
            ("dgx2x1", || dgx2(1)),
            ("dgx2x2", || dgx2(2)),
            ("internal1x1", || internal1(1)),
            ("internal1x2", || internal1(2)),
            ("internal1x4", || internal1(4)),
            ("internal2x2", || internal2(2)),
            ("internal2x4", || internal2(4)),
            ("internal2x6", || internal2(6)),
            ("fig2", fig2_topology),
        ];
        let mut seen = std::collections::BTreeMap::new();
        for (name, f) in &build {
            let fp = f().fingerprint();
            assert_eq!(fp, f().fingerprint(), "{name} must hash stably");
            if let Some(prev) = seen.insert(fp, *name) {
                panic!("fingerprint collision: {prev} vs {name}");
            }
        }
    }
}
