//! The schedule data model: which chunk crosses which link in which epoch.

use teccl_topology::NodeId;
use teccl_util::json::{Emit, Event, JsonError, JsonSink, Reader, RenderedOnce, Value};

/// Identity of a chunk: the source GPU it originates from plus its per-source
/// chunk index (`(s, c)` in the paper's notation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChunkId {
    /// Source GPU.
    pub source: NodeId,
    /// Chunk index within the source.
    pub chunk: usize,
}

impl ChunkId {
    /// Creates a chunk id.
    pub fn new(source: NodeId, chunk: usize) -> Self {
        Self { source, chunk }
    }
}

/// One scheduled transmission of a chunk over a link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Send {
    /// The chunk being sent.
    pub chunk: ChunkId,
    /// The transmitting node.
    pub from: NodeId,
    /// The receiving node.
    pub to: NodeId,
    /// The epoch (discrete time slot) in which the send is issued. For
    /// baselines that are step- rather than epoch-based, this is the step
    /// index; it always provides the causal ordering of the schedule.
    pub epoch: usize,
}

/// A complete collective schedule.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Name of the algorithm / solver that produced the schedule.
    pub name: String,
    /// Size of one chunk in bytes.
    pub chunk_bytes: f64,
    /// Epoch duration in seconds (`0.0` for schedules that are only causally
    /// ordered, e.g. the ring baseline — the simulator then ignores epoch
    /// pacing and uses pure dependency/link availability).
    pub epoch_duration: f64,
    /// Number of epochs the schedule spans.
    pub num_epochs: usize,
    /// All sends, in no particular order (sorting happens on demand).
    pub sends: Vec<Send>,
    /// Wall-clock time the solver spent producing this schedule, in seconds.
    pub solver_time: f64,
    /// The compact JSON text, once [`Schedule::json_text`] has rendered it.
    text: RenderedOnce,
}

impl Schedule {
    /// Creates an empty schedule.
    pub fn new(name: impl Into<String>, chunk_bytes: f64) -> Self {
        Self {
            name: name.into(),
            chunk_bytes,
            epoch_duration: 0.0,
            num_epochs: 0,
            sends: Vec::new(),
            solver_time: 0.0,
            text: RenderedOnce::default(),
        }
    }

    /// Adds a send and keeps `num_epochs` in sync.
    pub fn push(&mut self, chunk: ChunkId, from: NodeId, to: NodeId, epoch: usize) {
        self.sends.push(Send {
            chunk,
            from,
            to,
            epoch,
        });
        self.num_epochs = self.num_epochs.max(epoch + 1);
    }

    /// Number of sends.
    pub fn num_sends(&self) -> usize {
        self.sends.len()
    }

    /// Total bytes put on the wire by this schedule (each send of a chunk
    /// counts once — the "fewer bytes" half of the paper's quality claim).
    pub fn total_bytes_on_wire(&self) -> f64 {
        self.sends.len() as f64 * self.chunk_bytes
    }

    /// Sends sorted by (epoch, from, to, chunk) — a stable, deterministic order
    /// used by validation, simulation and export.
    pub fn sorted_sends(&self) -> Vec<Send> {
        let mut s = self.sends.clone();
        s.sort_by_key(|snd| {
            (
                snd.epoch,
                snd.from,
                snd.to,
                snd.chunk.source,
                snd.chunk.chunk,
            )
        });
        s
    }

    /// Sends issued in a given epoch.
    pub fn sends_in_epoch(&self, epoch: usize) -> impl Iterator<Item = &Send> + '_ {
        self.sends.iter().filter(move |s| s.epoch == epoch)
    }

    /// The highest epoch index that actually carries a send (`None` for an
    /// empty schedule).
    pub fn last_used_epoch(&self) -> Option<usize> {
        self.sends.iter().map(|s| s.epoch).max()
    }

    /// Exports the schedule in an MSCCL-inspired JSON format: one entry per
    /// GPU with its ordered send and receive operations. The paper converts
    /// TE-CCL solutions into MSCCL to run them on hardware (§6); this export
    /// is the moral equivalent for downstream tooling.
    pub fn to_msccl_json(&self) -> Value {
        let op = |op: &str, s: &Send, peer: usize| {
            Value::obj(vec![
                ("op", Value::from(op)),
                ("chunk_source", Value::from(s.chunk.source.0)),
                ("chunk_index", Value::from(s.chunk.chunk)),
                ("peer", Value::from(peer)),
                ("step", Value::from(s.epoch)),
            ])
        };
        let mut per_gpu: std::collections::BTreeMap<usize, Vec<Value>> =
            std::collections::BTreeMap::new();
        for s in self.sorted_sends() {
            per_gpu
                .entry(s.from.0)
                .or_default()
                .push(op("send", &s, s.to.0));
            per_gpu
                .entry(s.to.0)
                .or_default()
                .push(op("recv", &s, s.from.0));
        }
        Value::obj(vec![
            ("name", Value::from(self.name.clone())),
            ("chunk_bytes", Value::from(self.chunk_bytes)),
            ("epoch_duration_s", Value::from(self.epoch_duration)),
            ("num_epochs", Value::from(self.num_epochs)),
            (
                "gpus",
                Value::Arr(
                    per_gpu
                        .into_iter()
                        .map(|(gpu, ops)| {
                            Value::obj(vec![("id", Value::from(gpu)), ("ops", Value::Arr(ops))])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// The compact JSON text of [`Schedule::emit`], rendered by the first
    /// call and kept: a cached schedule is formatted for its first reply and
    /// copied into every later one. Call it only on a schedule that no
    /// longer changes, such as a cache entry's behind its `Arc`; a change
    /// made after the first call is not seen by the text. A clone starts
    /// without it.
    pub fn json_text(&self) -> &str {
        self.text.text(self)
    }

    /// Reads the schedule document whose first event is `first` from
    /// `src`, to its end (see [`Reader`] for the two errors). Members
    /// come in any order and the first of duplicate keys wins; faults are
    /// reported in one order: `name`, `chunk_bytes`, `epoch_duration`,
    /// `sends`, `num_epochs`. A missing or non-numeric `solver_time` is 0.
    ///
    /// Read in the compact form, the schedule keeps that text as
    /// its [`Schedule::json_text`], so a schedule loaded from where it was
    /// written is not formatted again. The compact writer never breaks a
    /// line and the pretty one always does, so a span without a line break
    /// is taken for the compact form. As with [`Schedule::json_text`], a
    /// change made to the decoded schedule is not seen by that text.
    pub fn decode<'a>(
        first: Event<'a>,
        src: &mut Reader<'a>,
    ) -> Result<Result<Schedule, JsonError>, JsonError> {
        let mut f = ScheduleFields::default();
        let ((), text) = src.with_text(first, |first, src| {
            src.object(first, |key, value, src| {
                match key {
                    "name" if f.name.is_none() => {
                        f.name = Some(src.scalar(value, Event::into_str)?)
                    }
                    "chunk_bytes" if f.chunk_bytes.is_none() => {
                        f.chunk_bytes = Some(src.scalar(value, |v| v.as_f64())?)
                    }
                    "epoch_duration" if f.epoch_duration.is_none() => {
                        f.epoch_duration = Some(src.scalar(value, |v| v.as_f64())?)
                    }
                    "num_epochs" if f.num_epochs.is_none() => {
                        f.num_epochs = Some(src.scalar(value, |v| v.as_usize())?)
                    }
                    "solver_time" if f.solver_time.is_none() => {
                        f.solver_time = Some(src.scalar(value, |v| v.as_f64())?)
                    }
                    "sends" if f.sends.is_none() => f.sends = Some(sends(value, src)?),
                    _ => src.skip(&value)?,
                }
                Ok(())
            })?;
            Ok(())
        })?;
        Ok(f.build(text.filter(|t| !t.contains('\n'))))
    }
}

/// A schedule's members as read: `None` while a key has not been seen,
/// `Some(None)` for a value of the wrong type.
#[derive(Default)]
struct ScheduleFields<'a> {
    name: Option<Option<std::borrow::Cow<'a, str>>>,
    chunk_bytes: Option<Option<f64>>,
    epoch_duration: Option<Option<f64>>,
    num_epochs: Option<Option<usize>>,
    solver_time: Option<Option<f64>>,
    sends: Option<Result<Vec<Send>, &'static str>>,
}

impl ScheduleFields<'_> {
    /// The schedule, or the first fault in [`Schedule::decode`]'s order.
    /// Error messages are built only on the error path.
    fn build(self, text: Option<&str>) -> Result<Schedule, JsonError> {
        let bad = |msg: &str| JsonError {
            pos: 0,
            msg: msg.to_string(),
        };
        let name = self.name.flatten().ok_or_else(|| bad("missing name"))?;
        let chunk_bytes = self
            .chunk_bytes
            .flatten()
            .ok_or_else(|| bad("missing chunk_bytes"))?;
        let mut s = Schedule::new(name, chunk_bytes);
        s.epoch_duration = self
            .epoch_duration
            .flatten()
            .ok_or_else(|| bad("missing epoch_duration"))?;
        s.solver_time = self.solver_time.flatten().unwrap_or(0.0);
        s.sends = self.sends.unwrap_or(Err("missing sends")).map_err(bad)?;
        let num_epochs = self
            .num_epochs
            .flatten()
            .ok_or_else(|| bad("missing num_epochs"))?;
        let last = s.sends.iter().map(|snd| snd.epoch + 1).max().unwrap_or(0);
        s.num_epochs = num_epochs.max(last);
        if let Some(text) = text {
            s.text = RenderedOnce::kept(text);
        }
        Ok(s)
    }
}

/// The sends of the array `first` begins, or the fault: the value is no
/// array, or a send lacks one of its five counts.
fn sends<'a>(
    first: Event<'a>,
    src: &mut Reader<'a>,
) -> Result<Result<Vec<Send>, &'static str>, JsonError> {
    let mut sends = Vec::new();
    let mut whole = true;
    let is_array = src.array(first, |value, src| {
        // source, chunk, from, to, epoch; the first of duplicate keys wins.
        let mut at: [Option<Option<usize>>; 5] = [None; 5];
        src.object(value, |key, value, src| {
            let slot = match key {
                "source" => 0,
                "chunk" => 1,
                "from" => 2,
                "to" => 3,
                "epoch" => 4,
                _ => return src.skip(&value),
            };
            if at[slot].is_some() {
                return src.skip(&value);
            }
            at[slot] = Some(src.scalar(value, |v| v.as_usize())?);
            Ok(())
        })?;
        match at.map(Option::flatten) {
            [Some(source), Some(chunk), Some(from), Some(to), Some(epoch)] => sends.push(Send {
                chunk: ChunkId::new(NodeId(source), chunk),
                from: NodeId(from),
                to: NodeId(to),
                epoch,
            }),
            _ => whole = false,
        }
        Ok(())
    })?;
    Ok(match (is_array, whole) {
        (false, _) => Err("missing sends"),
        (true, false) => Err("bad send field"),
        (true, true) => Ok(sends),
    })
}

impl Emit for Schedule {
    fn emit(&self, sink: &mut JsonSink<'_>) {
        sink.begin_obj();
        sink.key("name").str(&self.name);
        sink.key("chunk_bytes").num(self.chunk_bytes);
        sink.key("epoch_duration").num(self.epoch_duration);
        sink.key("num_epochs").uint(self.num_epochs);
        sink.key("solver_time").num(self.solver_time);
        sink.key("sends").begin_arr();
        for s in &self.sends {
            sink.begin_obj();
            sink.key("source").uint(s.chunk.source.0);
            sink.key("chunk").uint(s.chunk.chunk);
            sink.key("from").uint(s.from.0);
            sink.key("to").uint(s.to.0);
            sink.key("epoch").uint(s.epoch);
            sink.end_obj();
        }
        sink.end_arr();
        sink.end_obj();
    }
}

/// Dense `(chunk, node)` slots for replaying a schedule, chunk-major over
/// the chunks a demand uses or a send carries, in `(ChunkId, NodeId)` order.
pub(crate) struct ChunkSlots {
    chunks: Vec<ChunkId>,
    nodes: usize,
    /// The chunks the demand uses, each held by its source from the start.
    pub(crate) sourced: Vec<ChunkId>,
}

impl ChunkSlots {
    pub(crate) fn new(
        demand: &teccl_collective::DemandMatrix,
        sends: &[Send],
        nodes: usize,
    ) -> Self {
        let sourced: Vec<ChunkId> = (0..demand.num_nodes)
            .flat_map(|s| (0..demand.num_chunks).map(move |c| ChunkId::new(NodeId(s), c)))
            .filter(|ch| demand.chunk_in_use(ch.source, ch.chunk))
            .collect();
        let mut chunks: Vec<ChunkId> = sends
            .iter()
            .map(|s| s.chunk)
            .chain(sourced.iter().copied())
            .collect();
        chunks.sort_unstable();
        chunks.dedup();
        ChunkSlots {
            chunks,
            nodes,
            sourced,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.chunks.len() * self.nodes
    }

    /// Panics on a chunk or a node outside the table.
    pub(crate) fn slot(&self, chunk: ChunkId, node: NodeId) -> usize {
        assert!(node.0 < self.nodes, "node {node} outside the replay");
        // lint:allow(panic-hygiene): `new` lists every chunk a send carries or the demand uses, the only chunks asked for
        let c = self.chunks.binary_search(&chunk).expect("a listed chunk");
        c * self.nodes + node.0
    }

    pub(crate) fn keys(&self) -> impl Iterator<Item = (ChunkId, NodeId)> + '_ {
        self.chunks
            .iter()
            .flat_map(move |&c| (0..self.nodes).map(move |n| (c, NodeId(n))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use teccl_util::json;

    #[test]
    fn push_tracks_epochs() {
        let mut s = Schedule::new("test", 1024.0);
        s.push(ChunkId::new(NodeId(0), 0), NodeId(0), NodeId(1), 0);
        s.push(ChunkId::new(NodeId(0), 0), NodeId(1), NodeId(2), 3);
        assert_eq!(s.num_epochs, 4);
        assert_eq!(s.num_sends(), 2);
        assert_eq!(s.last_used_epoch(), Some(3));
        assert_eq!(s.total_bytes_on_wire(), 2048.0);
    }

    #[test]
    fn sorted_sends_are_deterministic() {
        let mut s = Schedule::new("test", 1.0);
        s.push(ChunkId::new(NodeId(1), 0), NodeId(1), NodeId(2), 1);
        s.push(ChunkId::new(NodeId(0), 0), NodeId(0), NodeId(1), 0);
        s.push(ChunkId::new(NodeId(0), 1), NodeId(0), NodeId(2), 0);
        let sorted = s.sorted_sends();
        assert_eq!(sorted[0].epoch, 0);
        assert_eq!(sorted[0].from, NodeId(0));
        assert_eq!(sorted[2].epoch, 1);
    }

    #[test]
    fn sends_in_epoch_filter() {
        let mut s = Schedule::new("test", 1.0);
        s.push(ChunkId::new(NodeId(0), 0), NodeId(0), NodeId(1), 0);
        s.push(ChunkId::new(NodeId(0), 0), NodeId(1), NodeId(2), 1);
        assert_eq!(s.sends_in_epoch(0).count(), 1);
        assert_eq!(s.sends_in_epoch(1).count(), 1);
        assert_eq!(s.sends_in_epoch(2).count(), 0);
    }

    #[test]
    fn empty_schedule() {
        let s = Schedule::new("empty", 1.0);
        assert_eq!(s.last_used_epoch(), None);
        assert_eq!(s.num_sends(), 0);
    }

    #[test]
    fn msccl_export_contains_all_ops() {
        let mut s = Schedule::new("export", 4096.0);
        s.push(ChunkId::new(NodeId(0), 0), NodeId(0), NodeId(1), 0);
        s.push(ChunkId::new(NodeId(0), 0), NodeId(1), NodeId(2), 1);
        let v = s.to_msccl_json();
        assert_eq!(v.get("name").and_then(Value::as_str), Some("export"));
        let gpus = v.get("gpus").and_then(Value::as_arr).unwrap();
        // GPUs 0, 1, 2 all participate.
        assert_eq!(gpus.len(), 3);
        // GPU 1 both receives and sends.
        let gpu1 = gpus
            .iter()
            .find(|g| g.get("id").and_then(Value::as_usize) == Some(1))
            .unwrap();
        assert_eq!(gpu1.get("ops").and_then(Value::as_arr).unwrap().len(), 2);
    }

    #[test]
    fn serde_roundtrip() {
        let mut s = Schedule::new("round", 8.0);
        s.push(ChunkId::new(NodeId(0), 2), NodeId(0), NodeId(1), 5);
        let tree = json::to_value(&s);
        let (json, pretty) = (tree.to_json(), tree.to_json_pretty());
        for back in [
            json::decode_text(&json, Schedule::decode).unwrap(),
            json::decode_text(&pretty, Schedule::decode).unwrap(),
        ] {
            assert_eq!(back.sends, s.sends);
            assert_eq!(back.num_epochs, 6);
            // Kept from the compact text, rendered for the pretty one.
            assert_eq!(back.json_text(), json);
        }
        let err = |text: &str| {
            json::decode_text::<Schedule, JsonError>(text, Schedule::decode)
                .unwrap_err()
                .msg
        };
        assert_eq!(err(r#"{"chunk_bytes":1}"#), "missing name");
        assert_eq!(
            err(r#"{"name":"x","chunk_bytes":1,"epoch_duration":0,"num_epochs":1,"sends":{}}"#),
            "missing sends"
        );
        assert_eq!(
            err(
                r#"{"name":"x","chunk_bytes":1,"epoch_duration":0,"num_epochs":1,"sends":[{"source":0}]}"#
            ),
            "bad send field"
        );
    }
}
