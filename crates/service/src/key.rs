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

use teccl_collective::{CollectiveKind, CollectiveSizing, DemandMatrix};
use teccl_core::{BufferMode, EpochStrategy, RequestMethod, SolverConfig, SwitchModel};
use teccl_topology::{NodeId, Topology};
use teccl_util::hash::{size_bucket, StableHasher};
use teccl_util::json::{JsonError, Value};

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
    /// The cluster topology.
    pub topology: Topology,
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
        topology: Topology,
        collective: CollectiveKind,
        chunks: usize,
        output_buffer: f64,
    ) -> Self {
        Self {
            topology,
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
        let mut h = StableHasher::new();
        h.write_u64(self.topology.fingerprint());
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

    /// Serializes the request (used by the wire protocol and request files).
    pub fn to_json_value(&self) -> Value {
        let mut pairs = vec![
            ("topology", self.topology.to_json_value()),
            ("collective", Value::from(collective_name(self.collective))),
            ("chunks", Value::from(self.chunks)),
            ("output_buffer", Value::from(self.output_buffer)),
            ("method", Value::from(self.method.name())),
            ("config", config_to_json(&self.config)),
        ];
        if let Some(d) = self.deadline {
            pairs.push(("deadline_ms", Value::from(d.as_secs_f64() * 1e3)));
        }
        Value::obj(pairs)
    }

    /// Deserializes a request. `topology` may be a full topology document or
    /// the string name of a prebuilt one (see [`builtin_topology`]); every
    /// field except `topology`, `collective` and `output_buffer` is optional.
    pub fn from_json_value(v: &Value) -> Result<SolveRequest, RequestError> {
        let bad = |msg: &str| RequestError::BadField(msg.to_string());
        let topology = match v.get("topology") {
            Some(Value::Str(name)) => {
                builtin_topology(name).ok_or(bad("unknown builtin topology"))?
            }
            Some(t) => Topology::from_json_value(t)?,
            None => return Err(bad("missing topology")),
        };
        topology
            .validate()
            .map_err(|e| bad(&format!("invalid topology: {e}")))?;
        let collective = v
            .get("collective")
            .and_then(Value::as_str)
            .and_then(collective_from_name)
            .ok_or(bad("missing/unknown collective"))?;
        let output_buffer = v
            .get("output_buffer")
            .and_then(Value::as_f64)
            .ok_or(bad("missing output_buffer"))?;
        if output_buffer <= 0.0 || !output_buffer.is_finite() {
            return Err(RequestError::InvalidBufferSize(output_buffer));
        }
        let chunks = match v.get("chunks") {
            None => 1,
            Some(c) => c
                .as_usize()
                .filter(|c| (1..=MAX_REQUEST_CHUNKS).contains(c))
                .ok_or(bad("bad chunks"))?,
        };
        let method = match v.get("method") {
            None => RequestMethod::Auto,
            Some(m) => m
                .as_str()
                .and_then(RequestMethod::from_name)
                .ok_or(bad("unknown method"))?,
        };
        let config = match v.get("config") {
            None => SolverConfig::default(),
            Some(c) => config_from_json(c)?,
        };
        let deadline = match v.get("deadline_ms") {
            None => None,
            Some(d) => {
                let ms = d
                    .as_f64()
                    .filter(|ms| *ms >= 0.0 && ms.is_finite())
                    .ok_or(bad("bad deadline_ms"))?;
                Some(std::time::Duration::from_secs_f64(ms / 1e3))
            }
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

/// Serializes a solver configuration for the wire protocol.
pub fn config_to_json(c: &SolverConfig) -> Value {
    let mut pairs = vec![
        (
            "epoch_strategy",
            Value::from(match c.epoch_strategy {
                EpochStrategy::SlowestLink => "slowest_link",
                EpochStrategy::FastestLink => "fastest_link",
            }),
        ),
        ("epoch_multiplier", Value::from(c.epoch_multiplier)),
        (
            "switch_model",
            Value::from(match c.switch_model {
                SwitchModel::CopyCapable => "copy_capable",
                SwitchModel::NonCopy => "non_copy",
                SwitchModel::HyperEdge => "hyper_edge",
            }),
        ),
        (
            "buffer_mode",
            match c.buffer_mode {
                BufferMode::Unlimited => Value::from("unlimited"),
                BufferMode::LimitedChunks(n) => {
                    Value::obj(vec![("limited_chunks", Value::from(n))])
                }
                BufferMode::NoStoreAndForward => Value::from("no_store_and_forward"),
            },
        ),
        ("astar_gamma", Value::from(c.astar_gamma)),
        ("astar_max_rounds", Value::from(c.astar_max_rounds)),
    ];
    if let Some(k) = c.max_epochs {
        pairs.push(("max_epochs", Value::from(k)));
    }
    if let Some(g) = c.early_stop_gap {
        pairs.push(("early_stop_gap", Value::from(g)));
    }
    if let Some(d) = c.time_limit {
        pairs.push(("time_limit_s", Value::from(d.as_secs_f64())));
    }
    if let Some(e) = c.astar_epochs_per_round {
        pairs.push(("astar_epochs_per_round", Value::from(e)));
    }
    if let Some(p) = &c.chunk_priorities {
        pairs.push((
            "chunk_priorities",
            Value::Arr(p.iter().map(|&w| Value::from(w)).collect()),
        ));
    }
    Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Deserializes a solver configuration; absent fields keep their defaults.
///
/// A field that is present must have the right type and a finite, in-range
/// value, or the whole request is refused (`bad_field`) before it is keyed
/// or solved. The retired solver switches (`threads`, `decompose`,
/// `warm_start`, `astar_warm_rounds`) are accepted in any form and ignored.
pub fn config_from_json(v: &Value) -> Result<SolverConfig, JsonError> {
    let mut c = SolverConfig::default();
    if let Some(s) = field(v, "epoch_strategy", Value::as_str)? {
        c.epoch_strategy = match s {
            "slowest_link" => EpochStrategy::SlowestLink,
            "fastest_link" => EpochStrategy::FastestLink,
            _ => return Err(bad_config("epoch_strategy")),
        };
    }
    if let Some(m) = field(v, "epoch_multiplier", |x| finite(x).filter(|m| *m >= 1.0))? {
        c.epoch_multiplier = m;
    }
    if let Some(s) = field(v, "switch_model", Value::as_str)? {
        c.switch_model = match s {
            "copy_capable" => SwitchModel::CopyCapable,
            "non_copy" => SwitchModel::NonCopy,
            "hyper_edge" => SwitchModel::HyperEdge,
            _ => return Err(bad_config("switch_model")),
        };
    }
    if let Some(b) = v.get("buffer_mode") {
        c.buffer_mode = match b {
            Value::Str(s) if s == "unlimited" => BufferMode::Unlimited,
            Value::Str(s) if s == "no_store_and_forward" => BufferMode::NoStoreAndForward,
            other => match other.get("limited_chunks").and_then(Value::as_usize) {
                Some(n) => BufferMode::LimitedChunks(n),
                None => return Err(bad_config("buffer_mode")),
            },
        };
    }
    c.max_epochs = field(v, "max_epochs", epochs)?;
    c.early_stop_gap = field(v, "early_stop_gap", |x| finite(x).filter(|g| *g >= 0.0))?;
    if let Some(secs) = field(v, "time_limit_s", |x| finite(x).filter(|s| *s > 0.0))? {
        c.time_limit = Some(std::time::Duration::from_secs_f64(secs));
    }
    c.astar_epochs_per_round = field(v, "astar_epochs_per_round", epochs)?;
    // Appendix D: the distance reward is discounted by γ ∈ [0, 1).
    if let Some(g) = field(v, "astar_gamma", |x| {
        finite(x).filter(|g| (0.0..1.0).contains(g))
    })? {
        c.astar_gamma = g;
    }
    if let Some(r) = field(v, "astar_max_rounds", Value::as_usize)? {
        c.astar_max_rounds = r;
    }
    c.chunk_priorities = field(v, "chunk_priorities", |x| {
        x.as_arr()?.iter().map(finite).collect()
    })?;
    Ok(c)
}

/// The config field `name` through `get` when present (`Ok(None)` when
/// absent); a present value that `get` rejects is a `bad {name}` error.
fn field<'a, T>(
    v: &'a Value,
    name: &str,
    get: impl FnOnce(&'a Value) -> Option<T>,
) -> Result<Option<T>, JsonError> {
    v.get(name)
        .map(|x| get(x).ok_or_else(|| bad_config(name)))
        .transpose()
}

/// An epoch count no larger than [`MAX_REQUEST_EPOCHS`].
fn epochs(x: &Value) -> Option<usize> {
    x.as_usize().filter(|&k| k <= MAX_REQUEST_EPOCHS)
}

/// A finite number (JSON such as `1e999` parses to infinity).
fn finite(x: &Value) -> Option<f64> {
    x.as_f64().filter(|x| x.is_finite())
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
        renamed.topology.name = "prod-cluster-17".into();
        assert_eq!(renamed.key(), a);
    }

    #[test]
    fn key_separates_real_differences() {
        let a = base_request().key();
        let mut other = base_request();
        other.collective = CollectiveKind::AllGather;
        assert_ne!(other.key().family, a.family);
        let mut topo = base_request();
        topo.topology = internal1(2);
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
        let back = SolveRequest::from_json_value(&v).unwrap();
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
        let req = SolveRequest::from_json_value(
            &Value::parse(
                r#"{"topology":"internal2x2","collective":"all_to_all","output_buffer":1048576}"#,
            )
            .unwrap(),
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
        let back = SolveRequest::from_json_value(&hurried.to_json_value()).unwrap();
        assert_eq!(back.deadline, Some(std::time::Duration::from_millis(100)));
        let back = SolveRequest::from_json_value(&patient.to_json_value()).unwrap();
        assert_eq!(back.deadline, None);
        let neg = r#"{"topology":"dgx1","collective":"all_gather","output_buffer":1024,"deadline_ms":-3}"#;
        assert!(SolveRequest::from_json_value(&Value::parse(neg).unwrap()).is_err());
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
        let parse = |line: &str| SolveRequest::from_json_value(&Value::parse(line).unwrap());
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
            SolveRequest::from_json_value(&Value::parse(&line).unwrap())
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
            SolveRequest::from_json_value(&Value::parse(&line).unwrap())
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
            let err = SolveRequest::from_json_value(&Value::parse(&line).unwrap()).unwrap_err();
            assert!(
                matches!(err, RequestError::InvalidBufferSize(_)),
                "{bad}: {err:?}"
            );
            assert_eq!(err.code(), "invalid_buffer_size");
        }
        // A missing field is a different kind of error.
        let missing = r#"{"topology":"dgx1","collective":"all_gather"}"#;
        let err = SolveRequest::from_json_value(&Value::parse(missing).unwrap()).unwrap_err();
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
        assert!(SolveRequest::from_json_value(&Value::parse("{}").unwrap()).is_err());
        let no_buffer = r#"{"topology":"dgx1","collective":"all_gather"}"#;
        assert!(SolveRequest::from_json_value(&Value::parse(no_buffer).unwrap()).is_err());
        let bad_size = r#"{"topology":"dgx1","collective":"all_gather","output_buffer":-5}"#;
        assert!(SolveRequest::from_json_value(&Value::parse(bad_size).unwrap()).is_err());
        let bad_coll = r#"{"topology":"dgx1","collective":"all2all","output_buffer":1024}"#;
        assert!(SolveRequest::from_json_value(&Value::parse(bad_coll).unwrap()).is_err());
    }
}
