//! Canonical request keys: the content-addressed identity of a solve.
//!
//! Two requests that would produce the same schedule must produce the same
//! key, across processes and machines. The fingerprint therefore hashes
//! *canonical* content, not incidental representation:
//!
//! * the topology via [`Topology::fingerprint`] (canonical edge ordering,
//!   names excluded, α/β quantized),
//! * the collective kind, chunk count, and requested formulation,
//! * the solver configuration with floats quantized,
//! * the output-buffer size **bucketed** onto a half-octave log₂ grid
//!   ([`teccl_util::hash::size_bucket`]) — requests within ~19% of each
//!   other share one cache entry, mirroring the observation (Cloud
//!   Collectives) that production workloads re-request collectives over a
//!   small set of effective sizes.
//!
//! The `family` half of the key deliberately excludes the size bucket: it
//! groups all size variants of one `(topology, collective, config)` request
//! so completed solves can publish their final LP basis to *neighbouring*
//! buckets for warm starting.

use std::sync::Arc;

use teccl_collective::{CollectiveKind, CollectiveSizing, DemandMatrix};
use teccl_core::{BufferMode, EpochStrategy, RequestMethod, SolverConfig, SwitchModel};
use teccl_topology::{NodeId, Topology};
use teccl_util::hash::{size_bucket, StableHasher};
use teccl_util::json::{self, Emit, Event, JsonError, JsonSink, Reader, Value};

use crate::server::{MAX_REQUEST_CHUNKS, MAX_REQUEST_EPOCHS};

/// A typed request-validation error.
///
/// The wire layer used to surface every parse failure as one opaque string;
/// semantically invalid requests now carry a machine-readable code so clients
/// can distinguish "fix your JSON" from "fix your request". The motivating
/// case is [`InvalidBufferSize`](RequestError::InvalidBufferSize):
/// [`teccl_util::hash::size_bucket`] maps every zero / negative / non-finite
/// size to the same degenerate `i64::MIN` bucket, so if such requests reached
/// the cache they would all collapse into one entry and cross-warm-start each
/// other. They are rejected here, before a key is ever formed.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestError {
    /// The request line is not valid JSON.
    Json(String),
    /// The `verb` field is missing or names no known verb.
    BadVerb(String),
    /// A field is missing, has the wrong type, or an out-of-range value.
    BadField(String),
    /// `output_buffer` is zero, negative, NaN or infinite.
    InvalidBufferSize(f64),
}

impl RequestError {
    /// Stable machine-readable code carried on error responses.
    pub fn code(&self) -> &'static str {
        match self {
            RequestError::Json(_) => "bad_json",
            RequestError::BadVerb(_) => "bad_verb",
            RequestError::BadField(_) => "bad_field",
            RequestError::InvalidBufferSize(_) => "invalid_buffer_size",
        }
    }
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::Json(e) => write!(f, "invalid JSON: {e}"),
            RequestError::BadVerb(v) if v.is_empty() => write!(f, "missing verb"),
            RequestError::BadVerb(v) => write!(f, "unknown verb `{v}`"),
            RequestError::BadField(msg) => write!(f, "{msg}"),
            RequestError::InvalidBufferSize(v) => {
                write!(f, "output_buffer must be positive and finite (got {v})")
            }
        }
    }
}

impl std::error::Error for RequestError {}

impl From<JsonError> for RequestError {
    fn from(e: JsonError) -> Self {
        RequestError::BadField(e.to_string())
    }
}

/// Stable wire / hash name of a collective kind.
pub fn collective_name(kind: CollectiveKind) -> &'static str {
    match kind {
        CollectiveKind::AllGather => "all_gather",
        CollectiveKind::AllToAll => "all_to_all",
        CollectiveKind::Broadcast => "broadcast",
        CollectiveKind::Gather => "gather",
        CollectiveKind::Scatter => "scatter",
        CollectiveKind::ReduceScatter => "reduce_scatter",
        CollectiveKind::AllReduce => "all_reduce",
    }
}

/// Parses a collective kind from its wire name.
pub fn collective_from_name(s: &str) -> Option<CollectiveKind> {
    Some(match s {
        "all_gather" => CollectiveKind::AllGather,
        "all_to_all" => CollectiveKind::AllToAll,
        "broadcast" => CollectiveKind::Broadcast,
        "gather" => CollectiveKind::Gather,
        "scatter" => CollectiveKind::Scatter,
        "reduce_scatter" => CollectiveKind::ReduceScatter,
        "all_reduce" => CollectiveKind::AllReduce,
        _ => return None,
    })
}

/// The canonical identity of a request in the schedule cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RequestKey {
    /// Hash of everything *except* the size bucket: the warm-start
    /// neighbourhood (same topology / collective / chunks / method / config).
    pub family: u64,
    /// Half-octave log₂ bucket of the output-buffer size.
    pub size_bucket: i64,
    /// Content hash of the full request (`family` ⊕ bucket): the cache and
    /// on-disk key.
    pub hash: u64,
}

/// A solve request: everything the service needs to reproduce a
/// [`teccl_core::SolveOutcome`] from scratch.
#[derive(Debug, Clone)]
pub struct SolveRequest {
    /// The cluster topology, shared: a connection that was sent the same
    /// topology text before hands out the one it decoded then.
    pub topology: Arc<Topology>,
    /// Which collective to schedule.
    pub collective: CollectiveKind,
    /// Chunks per source/destination pair (finer pipelining for more chunks).
    pub chunks: usize,
    /// Output-buffer size in bytes (the paper's x-axis unit).
    pub output_buffer: f64,
    /// Requested formulation.
    pub method: RequestMethod,
    /// Solver configuration.
    pub config: SolverConfig,
    /// How long the caller is willing to wait (measured from submission).
    /// When it expires the service serves the best degraded answer it has
    /// (see `teccl_service::service::Quality`) instead of blocking.
    ///
    /// Deliberately **excluded** from [`SolveRequest::key`]: a deadline
    /// changes how long we wait, not which schedule is correct, so
    /// deadline-bearing requests must share cache entries with patient ones.
    pub deadline: Option<std::time::Duration>,
}

impl SolveRequest {
    /// A request with the default configuration and automatic dispatch.
    pub fn new(
        topology: impl Into<Arc<Topology>>,
        collective: CollectiveKind,
        chunks: usize,
        output_buffer: f64,
    ) -> Self {
        Self {
            topology: topology.into(),
            collective,
            chunks,
            output_buffer,
            method: RequestMethod::Auto,
            config: SolverConfig::default(),
            deadline: None,
        }
    }

    /// Sets the formulation.
    pub fn with_method(mut self, method: RequestMethod) -> Self {
        self.method = method;
        self
    }

    /// Sets the serving deadline.
    pub fn with_deadline(mut self, deadline: std::time::Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the solver configuration.
    pub fn with_config(mut self, config: SolverConfig) -> Self {
        self.config = config;
        self
    }

    /// The chunk size implied by the output buffer (the paper's
    /// parameterization, as in `Scenario::collective`).
    pub fn chunk_bytes(&self) -> f64 {
        let sizing = CollectiveSizing::new(self.collective, self.topology.num_gpus());
        sizing.transfer_bytes_for_output_buffer(self.output_buffer) / self.chunks as f64
    }

    /// Builds the demand matrix for this request.
    pub fn demand(&self) -> DemandMatrix {
        let gpus: Vec<NodeId> = self.topology.gpus().collect();
        DemandMatrix::for_collective(
            self.collective,
            self.topology.num_nodes(),
            &gpus,
            self.chunks,
        )
    }

    /// The canonical content-addressed key of this request.
    pub fn key(&self) -> RequestKey {
        self.key_with(self.topology.fingerprint())
    }

    /// [`SolveRequest::key`] given the topology's fingerprint, for a caller
    /// that already knows it.
    pub(crate) fn key_with(&self, fingerprint: u64) -> RequestKey {
        let mut h = StableHasher::new();
        h.write_u64(fingerprint);
        h.write_str(collective_name(self.collective));
        h.write_usize(self.chunks);
        h.write_str(self.method.name());
        hash_config(&mut h, &self.config);
        let family = h.finish();
        let bucket = size_bucket(self.output_buffer);
        let mut full = StableHasher::new();
        full.write_u64(family).write_i64(bucket);
        RequestKey {
            family,
            size_bucket: bucket,
            hash: full.finish(),
        }
    }

    /// Serializes the request: the tree form of [`SolveRequest::emit`].
    pub fn to_json_value(&self) -> Value {
        json::to_value(self)
    }

    /// Reads the request object whose first event is `first` from `src`,
    /// to its end (see [`Reader`] for the two errors). `topology` may be
    /// a full topology document or the string name of a prebuilt one (see
    /// [`builtin_topology`]); every field except `topology`, `collective`
    /// and `output_buffer` is optional, and other members are ignored.
    pub fn decode<'a>(
        first: Event<'a>,
        src: &mut Reader<'a>,
    ) -> Result<Result<SolveRequest, RequestError>, JsonError> {
        let mut fields = RequestFields::default();
        src.object(first, |key, value, src| fields.read(key, value, src))?;
        Ok(fields.build())
    }
}

/// A request's one JSON form: its `solve` request line, the verb first.
/// A request file holds the same objects ([`SolveRequest::decode`] passes
/// the verb over).
impl Emit for SolveRequest {
    fn emit(&self, sink: &mut JsonSink<'_>) {
        sink.begin_obj();
        sink.key("verb").str("solve");
        sink.key("topology");
        self.topology.emit(sink);
        sink.key("collective").str(collective_name(self.collective));
        sink.key("chunks").uint(self.chunks);
        sink.key("output_buffer").num(self.output_buffer);
        sink.key("method").str(self.method.name());
        sink.key("config");
        emit_config(&self.config, sink);
        if let Some(d) = self.deadline {
            sink.key("deadline_ms").num(d.as_secs_f64() * 1e3);
        }
        sink.end_obj();
    }
}

/// The members of a request object as read, before they are checked: a
/// slot is `None` while its key has not been seen, and the first of
/// duplicate keys fills it (as [`Value::get`] finds it). A value of the
/// wrong type or out of range is kept as `Some(None)` (or the error), to be
/// reported by [`RequestFields::build`] in one fixed order whatever the
/// order of the members: the verb first (by the caller), then topology,
/// collective, output buffer, chunks, method, config, deadline.
#[derive(Default)]
pub(crate) struct RequestFields {
    topology: Option<Result<Arc<Topology>, RequestError>>,
    /// The topology is one that passed [`Topology::validate`] before.
    validated: bool,
    collective: Option<Option<CollectiveKind>>,
    output_buffer: Option<Option<f64>>,
    chunks: Option<Option<usize>>,
    method: Option<Option<RequestMethod>>,
    config: Option<Result<SolverConfig, JsonError>>,
    deadline: Option<Option<std::time::Duration>>,
}

impl RequestFields {
    /// Reads the value of member `key`, whose first event is `value`: into
    /// its slot when it is a request field seen for the first time, else
    /// skipped.
    pub(crate) fn read<'a>(
        &mut self,
        key: &str,
        value: Event<'a>,
        src: &mut Reader<'a>,
    ) -> Result<(), JsonError> {
        match key {
            "topology" if self.topology.is_none() => {
                self.topology = Some(match value {
                    Event::Str(name) => builtin_topology(&name)
                        .map(Arc::new)
                        .ok_or_else(|| bad_field("unknown builtin topology")),
                    value => Topology::decode(value, src)?
                        .map(Arc::new)
                        .map_err(RequestError::from),
                });
            }
            "collective" if self.collective.is_none() => {
                self.collective =
                    Some(src.scalar(value, |v| v.as_str().and_then(collective_from_name))?);
            }
            "output_buffer" if self.output_buffer.is_none() => {
                self.output_buffer = Some(src.scalar(value, |v| v.as_f64())?);
            }
            "chunks" if self.chunks.is_none() => {
                self.chunks = Some(src.scalar(value, |v| {
                    v.as_usize()
                        .filter(|c| (1..=MAX_REQUEST_CHUNKS).contains(c))
                })?);
            }
            "method" if self.method.is_none() => {
                self.method =
                    Some(src.scalar(value, |v| v.as_str().and_then(RequestMethod::from_name))?);
            }
            "config" if self.config.is_none() => self.config = Some(decode_config(value, src)?),
            "deadline_ms" if self.deadline.is_none() => {
                // `try_from`: a finite value past `Duration::MAX` (~1.8e22
                // ms) would panic the connection thread in `from_secs_f64`.
                self.deadline = Some(src.scalar(value, |v| {
                    let ms = v.as_f64().filter(|ms| *ms >= 0.0)?;
                    std::time::Duration::try_from_secs_f64(ms / 1e3).ok()
                })?);
            }
            _ => src.skip(&value)?,
        }
        Ok(())
    }

    /// Whether the `topology` member has been read.
    pub(crate) fn has_topology(&self) -> bool {
        self.topology.is_some()
    }

    /// Fills the `topology` slot with one decoded from the same text
    /// earlier, which passed [`Topology::validate`] then.
    pub(crate) fn recall_topology(&mut self, topology: Arc<Topology>) {
        self.topology = Some(Ok(topology));
        self.validated = true;
    }

    /// The request the members describe, or the first fault in the order
    /// the type docs give.
    pub(crate) fn build(self) -> Result<SolveRequest, RequestError> {
        let topology = self
            .topology
            .unwrap_or_else(|| Err(bad_field("missing topology")))?;
        if !self.validated {
            topology
                .validate()
                .map_err(|e| bad_field(&format!("invalid topology: {e}")))?;
        }
        let collective = self
            .collective
            .flatten()
            .ok_or_else(|| bad_field("missing/unknown collective"))?;
        let output_buffer = self
            .output_buffer
            .flatten()
            .ok_or_else(|| bad_field("missing output_buffer"))?;
        if output_buffer <= 0.0 || !output_buffer.is_finite() {
            return Err(RequestError::InvalidBufferSize(output_buffer));
        }
        let chunks = match self.chunks {
            None => 1,
            Some(c) => c.ok_or_else(|| bad_field("bad chunks"))?,
        };
        let method = match self.method {
            None => RequestMethod::Auto,
            Some(m) => m.ok_or_else(|| bad_field("unknown method"))?,
        };
        let config = match self.config {
            None => SolverConfig::default(),
            Some(c) => c?,
        };
        let deadline = match self.deadline {
            None => None,
            Some(d) => Some(d.ok_or_else(|| bad_field("bad deadline_ms"))?),
        };
        Ok(SolveRequest {
            topology,
            collective,
            chunks,
            output_buffer,
            method,
            config,
            deadline,
        })
    }
}

fn bad_field(msg: &str) -> RequestError {
    RequestError::BadField(msg.to_string())
}

/// Absorbs a solver configuration into a fingerprint, floats quantized so
/// noise-level differences don't split the cache. `chunk_priorities` is part
/// of the identity (a differently-weighted multi-tenant solve is a different
/// schedule); the time limit is too — a tighter budget can legitimately
/// change the (early-stopped) result.
fn hash_config(h: &mut StableHasher, c: &SolverConfig) {
    h.write_u64(match c.epoch_strategy {
        EpochStrategy::SlowestLink => 0,
        EpochStrategy::FastestLink => 1,
    });
    h.write_f64_quantized(c.epoch_multiplier, 1e6);
    h.write_u64(match c.switch_model {
        SwitchModel::CopyCapable => 0,
        SwitchModel::NonCopy => 1,
        SwitchModel::HyperEdge => 2,
    });
    match c.buffer_mode {
        BufferMode::Unlimited => h.write_u64(0),
        BufferMode::LimitedChunks(n) => h.write_u64(1).write_usize(n),
        BufferMode::NoStoreAndForward => h.write_u64(2),
    };
    h.write_i64(c.max_epochs.map(|k| k as i64).unwrap_or(-1));
    match c.early_stop_gap {
        None => h.write_i64(-1),
        Some(g) => h.write_f64_quantized(g, 1e9),
    };
    match c.time_limit {
        None => h.write_i64(-1),
        Some(d) => h.write_i64(d.as_millis() as i64),
    };
    h.write_i64(c.astar_epochs_per_round.map(|e| e as i64).unwrap_or(-1));
    h.write_f64_quantized(c.astar_gamma, 1e9);
    h.write_usize(c.astar_max_rounds);
    // The slots of the retired `warm_start` / `astar_warm_rounds` switches
    // keep the value they always had, so existing keys stay addressable.
    h.write_u64(1);
    h.write_u64(1);
    match &c.chunk_priorities {
        None => {
            h.write_i64(-1);
        }
        Some(p) => {
            h.write_usize(p.len());
            for &w in p {
                h.write_f64_quantized(w, 1e9);
            }
        }
    }
}

/// Writes a solver configuration for the wire protocol.
fn emit_config(c: &SolverConfig, sink: &mut JsonSink<'_>) {
    sink.begin_obj();
    sink.key("epoch_strategy").str(match c.epoch_strategy {
        EpochStrategy::SlowestLink => "slowest_link",
        EpochStrategy::FastestLink => "fastest_link",
    });
    sink.key("epoch_multiplier").num(c.epoch_multiplier);
    sink.key("switch_model").str(match c.switch_model {
        SwitchModel::CopyCapable => "copy_capable",
        SwitchModel::NonCopy => "non_copy",
        SwitchModel::HyperEdge => "hyper_edge",
    });
    sink.key("buffer_mode");
    match c.buffer_mode {
        BufferMode::Unlimited => sink.str("unlimited"),
        BufferMode::LimitedChunks(n) => {
            sink.begin_obj();
            sink.key("limited_chunks").uint(n);
            sink.end_obj();
        }
        BufferMode::NoStoreAndForward => sink.str("no_store_and_forward"),
    }
    sink.key("astar_gamma").num(c.astar_gamma);
    sink.key("astar_max_rounds").uint(c.astar_max_rounds);
    if let Some(k) = c.max_epochs {
        sink.key("max_epochs").uint(k);
    }
    if let Some(g) = c.early_stop_gap {
        sink.key("early_stop_gap").num(g);
    }
    if let Some(d) = c.time_limit {
        sink.key("time_limit_s").num(d.as_secs_f64());
    }
    if let Some(e) = c.astar_epochs_per_round {
        sink.key("astar_epochs_per_round").uint(e);
    }
    if let Some(p) = &c.chunk_priorities {
        sink.key("chunk_priorities").begin_arr();
        for &w in p {
            sink.num(w);
        }
        sink.end_arr();
    }
    sink.end_obj();
}

/// Reads a solver configuration whose first event is `first` from `src`,
/// to its end; absent fields keep their defaults, and so does a value that
/// is not an object.
///
/// A field that is present must have the right type and a finite, in-range
/// value, or the whole request is refused (`bad_field`) before it is keyed
/// or solved; with several such fields, the first in the order of
/// [`SolverConfig`]'s wire names below is reported. The retired solver
/// switches (`threads`, `decompose`, `warm_start`, `astar_warm_rounds`) are
/// accepted in any form and ignored.
fn decode_config<'a>(
    first: Event<'a>,
    src: &mut Reader<'a>,
) -> Result<Result<SolverConfig, JsonError>, JsonError> {
    let mut f = ConfigFields::default();
    src.object(first, |key, value, src| f.read(key, value, src))?;
    Ok(f.build())
}

/// The members of a config object as read, as in [`RequestFields`]:
/// `Some(None)` is a value of the wrong type or out of range.
#[derive(Default)]
struct ConfigFields {
    epoch_strategy: Option<Option<EpochStrategy>>,
    epoch_multiplier: Option<Option<f64>>,
    switch_model: Option<Option<SwitchModel>>,
    buffer_mode: Option<Option<BufferMode>>,
    max_epochs: Option<Option<usize>>,
    early_stop_gap: Option<Option<f64>>,
    time_limit: Option<Option<std::time::Duration>>,
    astar_epochs_per_round: Option<Option<usize>>,
    astar_gamma: Option<Option<f64>>,
    astar_max_rounds: Option<Option<usize>>,
    chunk_priorities: Option<Option<Vec<f64>>>,
}

impl ConfigFields {
    fn read<'a>(
        &mut self,
        key: &str,
        value: Event<'a>,
        src: &mut Reader<'a>,
    ) -> Result<(), JsonError> {
        match key {
            "epoch_strategy" if self.epoch_strategy.is_none() => {
                self.epoch_strategy = Some(src.scalar(value, |v| match v.as_str()? {
                    "slowest_link" => Some(EpochStrategy::SlowestLink),
                    "fastest_link" => Some(EpochStrategy::FastestLink),
                    _ => None,
                })?);
            }
            "epoch_multiplier" if self.epoch_multiplier.is_none() => {
                self.epoch_multiplier =
                    Some(src.scalar(value, |v| finite(v).filter(|m| *m >= 1.0))?);
            }
            "switch_model" if self.switch_model.is_none() => {
                self.switch_model = Some(src.scalar(value, |v| match v.as_str()? {
                    "copy_capable" => Some(SwitchModel::CopyCapable),
                    "non_copy" => Some(SwitchModel::NonCopy),
                    "hyper_edge" => Some(SwitchModel::HyperEdge),
                    _ => None,
                })?);
            }
            "buffer_mode" if self.buffer_mode.is_none() => {
                self.buffer_mode = Some(match value {
                    Event::Str(s) => match &*s {
                        "unlimited" => Some(BufferMode::Unlimited),
                        "no_store_and_forward" => Some(BufferMode::NoStoreAndForward),
                        _ => None,
                    },
                    value => {
                        let mut limit = None;
                        src.object(value, |key, value, src| match key {
                            "limited_chunks" if limit.is_none() => {
                                limit = Some(src.scalar(value, |v| v.as_usize())?);
                                Ok(())
                            }
                            _ => src.skip(&value),
                        })?;
                        limit.flatten().map(BufferMode::LimitedChunks)
                    }
                });
            }
            "max_epochs" if self.max_epochs.is_none() => {
                self.max_epochs = Some(src.scalar(value, epochs)?);
            }
            "early_stop_gap" if self.early_stop_gap.is_none() => {
                self.early_stop_gap = Some(src.scalar(value, |v| finite(v).filter(|g| *g >= 0.0))?);
            }
            "time_limit_s" if self.time_limit.is_none() => {
                // `try_from`: `from_secs_f64` panics past `Duration::MAX`
                // (~1.8e19 s).
                self.time_limit = Some(src.scalar(value, |v| {
                    let secs = finite(v).filter(|s| *s > 0.0)?;
                    std::time::Duration::try_from_secs_f64(secs).ok()
                })?);
            }
            "astar_epochs_per_round" if self.astar_epochs_per_round.is_none() => {
                self.astar_epochs_per_round = Some(src.scalar(value, epochs)?);
            }
            // Appendix D: the distance reward is discounted by γ ∈ [0, 1).
            "astar_gamma" if self.astar_gamma.is_none() => {
                self.astar_gamma =
                    Some(src.scalar(value, |v| finite(v).filter(|g| (0.0..1.0).contains(g)))?);
            }
            "astar_max_rounds" if self.astar_max_rounds.is_none() => {
                self.astar_max_rounds = Some(src.scalar(value, |v| v.as_usize())?);
            }
            "chunk_priorities" if self.chunk_priorities.is_none() => {
                let mut weights = Some(Vec::new());
                let is_array = src.array(value, |item, src| {
                    let w = src.scalar(item, finite)?;
                    weights = weights.take().zip(w).map(|(mut ws, w)| {
                        ws.push(w);
                        ws
                    });
                    Ok(())
                })?;
                self.chunk_priorities = Some(weights.filter(|_| is_array));
            }
            _ => src.skip(&value)?,
        }
        Ok(())
    }

    fn build(self) -> Result<SolverConfig, JsonError> {
        /// The field's value when present (`Ok(None)` when absent); a
        /// present value that was refused is a `bad {name}` error.
        fn check<T>(slot: Option<Option<T>>, name: &str) -> Result<Option<T>, JsonError> {
            slot.map(|v| v.ok_or_else(|| bad_config(name))).transpose()
        }
        let mut c = SolverConfig::default();
        if let Some(s) = check(self.epoch_strategy, "epoch_strategy")? {
            c.epoch_strategy = s;
        }
        if let Some(m) = check(self.epoch_multiplier, "epoch_multiplier")? {
            c.epoch_multiplier = m;
        }
        if let Some(s) = check(self.switch_model, "switch_model")? {
            c.switch_model = s;
        }
        if let Some(b) = check(self.buffer_mode, "buffer_mode")? {
            c.buffer_mode = b;
        }
        c.max_epochs = check(self.max_epochs, "max_epochs")?;
        c.early_stop_gap = check(self.early_stop_gap, "early_stop_gap")?;
        if let Some(limit) = check(self.time_limit, "time_limit_s")? {
            c.time_limit = Some(limit);
        }
        c.astar_epochs_per_round = check(self.astar_epochs_per_round, "astar_epochs_per_round")?;
        if let Some(g) = check(self.astar_gamma, "astar_gamma")? {
            c.astar_gamma = g;
        }
        if let Some(r) = check(self.astar_max_rounds, "astar_max_rounds")? {
            c.astar_max_rounds = r;
        }
        c.chunk_priorities = check(self.chunk_priorities, "chunk_priorities")?;
        Ok(c)
    }
}

/// An epoch count no larger than [`MAX_REQUEST_EPOCHS`].
fn epochs(v: Event<'_>) -> Option<usize> {
    v.as_usize().filter(|&k| k <= MAX_REQUEST_EPOCHS)
}

/// A finite number (JSON such as `1e999` parses to infinity).
fn finite(v: Event<'_>) -> Option<f64> {
    v.as_f64().filter(|x| x.is_finite())
}

fn bad_config(name: &str) -> JsonError {
    JsonError {
        pos: 0,
        msg: format!("bad {name}"),
    }
}

/// Resolves the name of a prebuilt topology, e.g. `"dgx1"`, `"ndv2x2"`,
/// `"internal1x2"`, `"internal2x4"` (the chassis count after the `x` is
/// optional and defaults to 1). Handy for handwritten request files — a full
/// topology JSON document is accepted everywhere a name is.
pub fn builtin_topology(spec: &str) -> Option<Topology> {
    // Exact names first — "dgx1" must not parse as base "dg" × 1 chassis.
    match spec {
        "dgx1" => return Some(teccl_topology::dgx1()),
        "ndv2" => return Some(teccl_topology::ndv2(1)),
        "dgx2" => return Some(teccl_topology::dgx2(1)),
        "internal1" => return Some(teccl_topology::internal1(1)),
        "internal2" => return Some(teccl_topology::internal2(1)),
        _ => {}
    }
    let (base, n) = spec.rsplit_once('x')?;
    if n.is_empty() || !n.bytes().all(|c| c.is_ascii_digit()) {
        return None;
    }
    let chassis = n.parse::<usize>().ok()?;
    if chassis == 0 {
        return None;
    }
    Some(match base {
        "ndv2" => teccl_topology::ndv2(chassis),
        "dgx2" => teccl_topology::dgx2(chassis),
        "internal1" => teccl_topology::internal1(chassis),
        "internal2" => teccl_topology::internal2(chassis),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use teccl_topology::{internal1, internal2, ring_topology};
    use teccl_util::json;

    /// The request one document's text holds.
    fn decode(text: &str) -> Result<SolveRequest, RequestError> {
        json::decode_text(text, SolveRequest::decode)
    }

    fn base_request() -> SolveRequest {
        SolveRequest::new(internal2(2), CollectiveKind::AllToAll, 1, 1024.0 * 1024.0)
    }

    #[test]
    fn key_is_deterministic_and_canonical() {
        let a = base_request().key();
        let b = base_request().key();
        assert_eq!(a, b);
        // Renaming the topology does not change the key.
        let mut renamed = base_request();
        Arc::make_mut(&mut renamed.topology).name = "prod-cluster-17".into();
        assert_eq!(renamed.key(), a);
    }

    #[test]
    fn key_separates_real_differences() {
        let a = base_request().key();
        let mut other = base_request();
        other.collective = CollectiveKind::AllGather;
        assert_ne!(other.key().family, a.family);
        let mut topo = base_request();
        topo.topology = internal1(2).into();
        assert_ne!(topo.key().family, a.family);
        let mut cfg = base_request();
        cfg.config.epoch_multiplier = 2.0;
        assert_ne!(cfg.key().family, a.family);
        let mut method = base_request();
        method.method = RequestMethod::Lp;
        assert_ne!(method.key().family, a.family);
    }

    #[test]
    fn size_bucketing_coalesces_and_separates() {
        let a = base_request().key();
        let mut near = base_request();
        near.output_buffer = 1024.0 * 1024.0 * 1.05; // within the half-octave
        assert_eq!(near.key(), a);
        let mut far = base_request();
        far.output_buffer = 4.0 * 1024.0 * 1024.0;
        let fk = far.key();
        assert_eq!(fk.family, a.family, "size lives outside the family");
        assert_ne!(fk.size_bucket, a.size_bucket);
        assert_ne!(fk.hash, a.hash);
    }

    #[test]
    fn request_json_roundtrip_preserves_key() {
        let mut req = base_request().with_method(RequestMethod::Lp);
        req.config.max_epochs = Some(9);
        req.config.early_stop_gap = Some(0.3);
        req.config.buffer_mode = teccl_core::BufferMode::LimitedChunks(4);
        let v = req.to_json_value();
        let back = decode(&v.to_json()).unwrap();
        assert_eq!(back.key(), req.key());
        assert_eq!(back.chunks, req.chunks);
        assert_eq!(back.method, req.method);
        assert_eq!(back.config.max_epochs, Some(9));
    }

    #[test]
    fn builtin_topology_names() {
        assert_eq!(
            builtin_topology("internal1x2").unwrap().fingerprint(),
            internal1(2).fingerprint()
        );
        assert_eq!(
            builtin_topology("dgx1").unwrap().fingerprint(),
            teccl_topology::dgx1().fingerprint()
        );
        assert!(builtin_topology("internal1x0").is_none());
        assert!(builtin_topology("nope").is_none());
        // A request file can name the topology instead of embedding it.
        let req = decode(
            r#"{"topology":"internal2x2","collective":"all_to_all","output_buffer":1048576}"#,
        )
        .unwrap();
        assert_eq!(req.key(), base_request().key());
    }

    #[test]
    fn deadline_rides_the_wire_but_not_the_key() {
        let patient = base_request();
        let hurried = base_request().with_deadline(std::time::Duration::from_millis(100));
        assert_eq!(
            hurried.key(),
            patient.key(),
            "deadline must not split the cache"
        );
        let back = decode(&hurried.to_json_value().to_json()).unwrap();
        assert_eq!(back.deadline, Some(std::time::Duration::from_millis(100)));
        let back = decode(&patient.to_json_value().to_json()).unwrap();
        assert_eq!(back.deadline, None);
        for bad in ["-3", "1.9e22", "1e25", "1e300"] {
            let line = format!(
                r#"{{"topology":"dgx1","collective":"all_gather","output_buffer":1024,"deadline_ms":{bad}}}"#
            );
            let err = decode(&line).unwrap_err();
            assert_eq!(err.code(), "bad_field", "{bad}");
        }
    }

    /// Older clients send the retired solver knobs (`threads`, `decompose`,
    /// `warm_start`, `astar_warm_rounds`). Such a request is accepted, the
    /// fields are ignored, and it maps to the same cache entry as the
    /// request without them.
    fn assert_retired_config_is_ignored(config: &str) {
        let plain =
            r#"{"topology":"internal2x2","collective":"all_to_all","output_buffer":1048576}"#;
        let legacy = format!(
            r#"{{"topology":"internal2x2","collective":"all_to_all","output_buffer":1048576,"config":{config}}}"#
        );
        let parse = |line: &str| decode(line);
        let legacy = parse(&legacy).expect("retired knobs must not be rejected");
        assert_eq!(legacy.key(), parse(plain).unwrap().key(), "{config}");
        let echoed = legacy.to_json_value().to_json();
        for retired in ["threads", "decompose", "warm_start", "astar_warm_rounds"] {
            assert!(!echoed.contains(retired), "{echoed}");
        }
    }

    #[test]
    fn threads_ride_the_wire_but_not_the_key() {
        assert_retired_config_is_ignored(r#"{"threads":4}"#);
    }

    #[test]
    fn decompose_rides_the_wire_but_not_the_key() {
        assert_retired_config_is_ignored(r#"{"decompose":"on"}"#);
    }

    #[test]
    fn retired_solver_knobs_are_accepted_and_ignored() {
        assert_retired_config_is_ignored(r#"{"threads":4,"decompose":"on"}"#);
    }

    #[test]
    fn retired_warm_start_switches_ride_the_wire_but_not_the_key() {
        assert_retired_config_is_ignored(r#"{"warm_start":false}"#);
        assert_retired_config_is_ignored(r#"{"astar_warm_rounds":false}"#);
        assert_retired_config_is_ignored(r#"{"warm_start":true,"astar_warm_rounds":true}"#);
    }

    #[test]
    fn wrong_typed_or_out_of_range_config_is_a_bad_field() {
        let parse = |config: &str| {
            let line = format!(
                r#"{{"topology":"dgx1","collective":"all_gather","output_buffer":1024,"config":{config}}}"#
            );
            decode(&line)
        };
        for config in [
            // Non-finite: `1e999` parses to infinity.
            r#"{"epoch_multiplier":1e999}"#,
            r#"{"early_stop_gap":-1e999}"#,
            r#"{"time_limit_s":1e999}"#,
            r#"{"chunk_priorities":[1,1e999]}"#,
            // Wrong type.
            r#"{"astar_gamma":"oops"}"#,
            r#"{"astar_max_rounds":-3}"#,
            r#"{"astar_max_rounds":2.5}"#,
            r#"{"epoch_strategy":1}"#,
            r#"{"switch_model":null}"#,
            r#"{"max_epochs":"9"}"#,
            r#"{"chunk_priorities":"1,2"}"#,
            // Out of range.
            r#"{"epoch_multiplier":0.5}"#,
            r#"{"astar_gamma":1}"#,
            r#"{"astar_gamma":-0.1}"#,
            r#"{"early_stop_gap":-0.3}"#,
            r#"{"time_limit_s":0}"#,
            // Finite, but past `Duration::MAX`.
            r#"{"time_limit_s":1e300}"#,
            // Sizes a model no deadline could stop being built.
            r#"{"max_epochs":1025}"#,
            r#"{"max_epochs":1e9}"#,
            r#"{"astar_epochs_per_round":1025}"#,
            r#"{"astar_epochs_per_round":1e300}"#,
        ] {
            let err = parse(config).expect_err(config);
            assert_eq!(err.code(), "bad_field", "{config}: {err}");
        }
        // The edges of the valid ranges still parse.
        let ok = parse(r#"{"astar_gamma":0,"early_stop_gap":0,"epoch_multiplier":1}"#).unwrap();
        assert_eq!(ok.config.astar_gamma, 0.0);
        assert_eq!(ok.config.early_stop_gap, Some(0.0));
        let ok = parse(r#"{"max_epochs":1024,"astar_epochs_per_round":1024}"#).unwrap();
        assert_eq!(ok.config.max_epochs, Some(MAX_REQUEST_EPOCHS));
        assert_eq!(ok.config.astar_epochs_per_round, Some(MAX_REQUEST_EPOCHS));
    }

    /// `as_usize` saturates `1e300` to `usize::MAX`, so only the cap stops a
    /// chunk count that would fill memory with its demand matrix.
    #[test]
    fn chunk_counts_outside_one_to_the_cap_are_a_bad_field() {
        let parse = |chunks: &str| {
            let line = format!(
                r#"{{"topology":"dgx1","collective":"all_gather","output_buffer":1024,"chunks":{chunks}}}"#
            );
            decode(&line)
        };
        for chunks in ["0", "257", "1e9", "1e300", "2.5", "\"6\""] {
            let err = parse(chunks).expect_err(chunks);
            assert_eq!(err.code(), "bad_field", "{chunks}: {err}");
        }
        assert_eq!(parse("1").unwrap().chunks, 1);
        assert_eq!(parse("256").unwrap().chunks, MAX_REQUEST_CHUNKS);
    }

    /// Disk entries are addressed by `key().hash`; these literals were
    /// computed before the solver knobs were retired, so entries written
    /// then stay addressable. A change here orphans every stored schedule.
    #[test]
    fn key_hash_and_family_are_pinned() {
        let k = base_request().key();
        assert_eq!(k.family, 0xb5bb_030d_c0b8_e4cd);
        assert_eq!(k.hash, 0xd1b8_2032_e04f_4204);
        assert_eq!(k.size_bucket, 40);
    }

    #[test]
    fn degenerate_buffer_sizes_are_typed_errors() {
        // All of these map to `size_bucket == i64::MIN`; accepting them would
        // pool every degenerate request into one cache bucket.
        for bad in ["0", "-1", "-16777216.0"] {
            let line =
                format!(r#"{{"topology":"dgx1","collective":"all_gather","output_buffer":{bad}}}"#);
            let err = decode(&line).unwrap_err();
            assert!(
                matches!(err, RequestError::InvalidBufferSize(_)),
                "{bad}: {err:?}"
            );
            assert_eq!(err.code(), "invalid_buffer_size");
        }
        // A missing field is a different kind of error.
        let missing = r#"{"topology":"dgx1","collective":"all_gather"}"#;
        let err = decode(missing).unwrap_err();
        assert!(matches!(err, RequestError::BadField(_)));
    }

    #[test]
    fn chunk_bytes_matches_scenario_parameterization() {
        let req = SolveRequest::new(
            ring_topology(5, 1e9, 0.0),
            CollectiveKind::AllGather,
            2,
            8e6,
        );
        // 5 GPUs: transfer = 8e6 / 4 = 2e6, split into 2 chunks of 1e6.
        assert!((req.chunk_bytes() - 1e6).abs() < 1e-6);
        assert_eq!(req.demand().num_chunks, 2);
    }

    #[test]
    fn bad_requests_rejected() {
        assert!(decode("{}").is_err());
        let no_buffer = r#"{"topology":"dgx1","collective":"all_gather"}"#;
        assert!(decode(no_buffer).is_err());
        let bad_size = r#"{"topology":"dgx1","collective":"all_gather","output_buffer":-5}"#;
        assert!(decode(bad_size).is_err());
        let bad_coll = r#"{"topology":"dgx1","collective":"all2all","output_buffer":1024}"#;
        assert!(decode(bad_coll).is_err());
    }
}
