//! The JSON form of a [`Topology`]: one writer ([`Emit`]) and one decoder.
//!
//! The decoder reads from a [`Reader`]: the request line a `teccld`
//! connection thread is reading, or a disk entry's `topology_used`. It
//! takes the members in any order (the first of duplicate keys wins, as
//! [`Value::get`] finds it), collects them, and
//! only then builds the topology, checking in one fixed order: `name`,
//! each node's `name`, `chassis` and `kind`, then each link's `src`, `dst`,
//! `capacity` and `alpha`. A link may name a node listed after it in the
//! text. Adjacency lists are rebuilt by [`Topology::add_link`].

use std::borrow::Cow;

use teccl_util::json::{self, Emit, Event, JsonError, JsonSink, Reader, Value};

use crate::graph::{NodeId, NodeKind, Topology};

impl Topology {
    /// Serializes the topology to a JSON document: the tree form of
    /// [`Topology::emit`].
    pub fn to_json_value(&self) -> Value {
        json::to_value(self)
    }

    /// Reads the topology document whose first event is `first` from
    /// `src`, to its end (see [`Reader`] for the two errors). Any value is
    /// read; one that is not an object lacks a `name`.
    pub fn decode<'a>(
        first: Event<'a>,
        src: &mut Reader<'a>,
    ) -> Result<Result<Topology, JsonError>, JsonError> {
        let mut name = None;
        let mut nodes = None;
        let mut links = None;
        src.object(first, |key, value, src| {
            match key {
                "name" if name.is_none() => name = Some(src.scalar(value, Event::into_str)?),
                "nodes" if nodes.is_none() => nodes = Some(list(value, src, node)?),
                "links" if links.is_none() => links = Some(list(value, src, link)?),
                _ => src.skip(&value)?,
            }
            Ok(())
        })?;
        Ok(build(name.flatten(), nodes.flatten(), links.flatten()))
    }

    /// Parses a topology from a JSON string.
    pub fn from_json_str(text: &str) -> Result<Topology, JsonError> {
        json::decode_text(text, Topology::decode)
    }
}

impl Emit for Topology {
    fn emit<S: JsonSink>(&self, sink: &mut S) {
        sink.begin_obj();
        sink.key("name");
        sink.str(&self.name);
        sink.key("nodes");
        sink.begin_arr();
        for n in &self.nodes {
            sink.begin_obj();
            sink.key("kind");
            sink.str(match n.kind {
                NodeKind::Gpu => "gpu",
                NodeKind::Switch => "switch",
            });
            sink.key("name");
            sink.str(&n.name);
            sink.key("chassis");
            sink.uint(n.chassis);
            sink.end_obj();
        }
        sink.end_arr();
        sink.key("links");
        sink.begin_arr();
        for l in &self.links {
            sink.begin_obj();
            sink.key("src");
            sink.uint(l.src.0);
            sink.key("dst");
            sink.uint(l.dst.0);
            sink.key("capacity");
            sink.num(l.capacity);
            sink.key("alpha");
            sink.num(l.alpha);
            sink.end_obj();
        }
        sink.end_arr();
        sink.end_obj();
    }
}

/// A node's members as read: `None` for one that is absent or of the wrong
/// type.
#[derive(Default)]
struct NodeFields<'a> {
    name: Option<Option<Cow<'a, str>>>,
    chassis: Option<Option<usize>>,
    kind: Option<Option<NodeKind>>,
}

/// A link's members as read.
#[derive(Default)]
struct LinkFields {
    src: Option<Option<usize>>,
    dst: Option<Option<usize>>,
    capacity: Option<Option<f64>>,
    alpha: Option<Option<f64>>,
}

/// The items of the array `first` begins, each read by `item`; `None` when
/// the value is no array.
fn list<'a, T>(
    first: Event<'a>,
    src: &mut Reader<'a>,
    item: fn(Event<'a>, &mut Reader<'a>) -> Result<T, JsonError>,
) -> Result<Option<Vec<T>>, JsonError> {
    let mut items = Vec::new();
    let is_array = src.array(first, |value, src| {
        items.push(item(value, src)?);
        Ok(())
    })?;
    Ok(is_array.then_some(items))
}

fn node<'a>(first: Event<'a>, src: &mut Reader<'a>) -> Result<NodeFields<'a>, JsonError> {
    let mut n = NodeFields::default();
    src.object(first, |key, value, src| {
        match key {
            "name" if n.name.is_none() => n.name = Some(src.scalar(value, Event::into_str)?),
            "chassis" if n.chassis.is_none() => {
                n.chassis = Some(src.scalar(value, |v| v.as_usize())?)
            }
            "kind" if n.kind.is_none() => {
                n.kind = Some(src.scalar(value, |v| match v.as_str() {
                    Some("gpu") => Some(NodeKind::Gpu),
                    Some("switch") => Some(NodeKind::Switch),
                    _ => None,
                })?)
            }
            _ => src.skip(&value)?,
        }
        Ok(())
    })?;
    Ok(n)
}

fn link<'a>(first: Event<'a>, src: &mut Reader<'a>) -> Result<LinkFields, JsonError> {
    let mut l = LinkFields::default();
    src.object(first, |key, value, src| {
        match key {
            "src" if l.src.is_none() => l.src = Some(src.scalar(value, |v| v.as_usize())?),
            "dst" if l.dst.is_none() => l.dst = Some(src.scalar(value, |v| v.as_usize())?),
            "capacity" if l.capacity.is_none() => {
                l.capacity = Some(src.scalar(value, |v| v.as_f64())?)
            }
            "alpha" if l.alpha.is_none() => l.alpha = Some(src.scalar(value, |v| v.as_f64())?),
            _ => src.skip(&value)?,
        }
        Ok(())
    })?;
    Ok(l)
}

/// The topology the members describe, or the first fault in the order the
/// module docs give. Error messages are built only on the error path.
fn build(
    name: Option<Cow<'_, str>>,
    nodes: Option<Vec<NodeFields<'_>>>,
    links: Option<Vec<LinkFields>>,
) -> Result<Topology, JsonError> {
    let bad = |msg: &str| JsonError {
        pos: 0,
        msg: msg.to_string(),
    };
    let mut t = Topology::new(name.ok_or_else(|| bad("missing name"))?);
    for n in nodes.ok_or_else(|| bad("missing nodes"))? {
        let name = n.name.flatten().ok_or_else(|| bad("node name"))?;
        let chassis = n.chassis.flatten().ok_or_else(|| bad("node chassis"))?;
        match n.kind.flatten().ok_or_else(|| bad("node kind"))? {
            NodeKind::Gpu => t.add_gpu(name, chassis),
            NodeKind::Switch => t.add_switch(name, chassis),
        };
    }
    for l in links.ok_or_else(|| bad("missing links"))? {
        let src = l.src.flatten().ok_or_else(|| bad("link src"))?;
        let dst = l.dst.flatten().ok_or_else(|| bad("link dst"))?;
        let capacity = l.capacity.flatten().ok_or_else(|| bad("link capacity"))?;
        let alpha = l.alpha.flatten().ok_or_else(|| bad("link alpha"))?;
        if src >= t.num_nodes() || dst >= t.num_nodes() {
            return Err(bad("link references unknown node"));
        }
        t.add_link(NodeId(src), NodeId(dst), capacity, alpha);
    }
    Ok(t)
}
