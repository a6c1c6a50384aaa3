//! The `teccld` wire protocol: line-delimited JSON over TCP.
//!
//! One request per line, one response per line, no framing beyond `\n` (the
//! `teccl-util` JSON writer never emits raw newlines inside a compact
//! document). Three verbs:
//!
//! * `solve` — `{"verb":"solve", ...solve-request fields...}` → the cached
//!   or freshly solved schedule with metrics and cache status,
//! * `stats` — `{"verb":"stats"}` → the service counters,
//! * `evict` — `{"verb":"evict"}` → clears the cache (memory + disk).
//!
//! Responses always carry `"status": "ok" | "error"`.
//!
//! Both directions skip the `Value` tree on the hot path. A request line is
//! decoded straight off its text by [`parse_request`]: the `teccl-util`
//! pull reader lends out the keys and the escape-free strings, and
//! [`SolveRequest::decode`] puts each member in its slot, so a line that is
//! only keyed and looked up costs one pass over its bytes plus building its
//! topology. A `solve` reply ([`solve_response`]) is written as events
//! straight into the connection's buffer, and its schedule, the bulk of the
//! text, is copied from the text the entry kept when it was first served
//! (`Schedule::json_text`).
//!
//! The topology is most of a request line (~2 kB of ~2.4 kB on the
//! builtin topologies) and most of its decoding, and a client sends the
//! same few topologies again and again. So a connection reads its lines
//! through a [`TopologyMemo`]: the topologies it was sent, by their exact
//! text. A line whose topology text is one of them steps past that text
//! without tokenizing it ([`Reader::pass_over`]) and shares the topology
//! decoded then, which was validated then, and its fingerprint, so keying
//! the request hashes no topology either. Any other text is read as
//! [`parse_request`] reads it; the memo changes no answer.

use std::sync::Arc;

use teccl_schedule::ScheduleOutput;
use teccl_topology::Topology;
use teccl_util::json::{self, Emit, Event, JsonError, JsonSink, Reader, Value};

use crate::cache::Quality;
use crate::key::{RequestError, RequestFields, SolveRequest};
use crate::server::KEEP_BUFFER_BYTES;
use crate::service::{CacheStatus, ServedSchedule, ServiceStats};

/// A parsed client request.
#[derive(Debug)]
pub enum Request {
    /// Solve (or fetch) a schedule.
    Solve(Box<SolveRequest>),
    /// Report service counters.
    Stats,
    /// Clear the schedule cache.
    Evict,
}

/// Parses one request line straight off its text, without a [`Value`]
/// tree: the members of the request object go into their slots as they are
/// read (see [`SolveRequest::decode`]). The errors come in the order a
/// client can act on: malformed JSON anywhere in the line (`bad_json`),
/// then the verb, then the solve fields.
pub fn parse_request(line: &str) -> Result<Request, RequestError> {
    read_request(line, None).map(|(request, _)| request)
}

/// [`parse_request`], with the first `topology` member that is an object
/// looked up in `memo` and, when the line is a valid `solve`, kept there.
/// Also returns the topology's fingerprint when the memo knows it.
fn read_request(
    line: &str,
    mut memo: Option<&mut TopologyMemo>,
) -> Result<(Request, Option<u64>), RequestError> {
    let json_error = |e: JsonError| RequestError::Json(e.to_string());
    let mut verb = None;
    let mut fields = RequestFields::default();
    // The memo entry the topology text matched, or the text it was read from.
    let mut recalled = None;
    let mut topology_text = None;
    let mut reader = Reader::new(line.trim());
    let first = reader.next().map_err(json_error)?;
    reader
        .object(first, |key, value, src| match (key, memo.as_deref_mut()) {
            ("verb", _) if verb.is_none() => {
                verb = Some(src.scalar(value, Event::into_str)?);
                Ok(())
            }
            ("topology", Some(memo))
                if !fields.has_topology() && matches!(value, Event::BeginObj) =>
            {
                if let Some((topology, fingerprint)) = memo.recall(src) {
                    fields.recall_topology(topology);
                    recalled = Some(fingerprint);
                } else {
                    let ((), text) =
                        src.with_text(value, |value, src| fields.read(key, value, src))?;
                    topology_text = text;
                }
                Ok(())
            }
            _ => fields.read(key, value, src),
        })
        .map_err(json_error)?;
    reader.finish().map_err(json_error)?;
    let request = match verb.flatten().as_deref() {
        Some("solve") => fields.build()?,
        Some("stats") => return Ok((Request::Stats, None)),
        Some("evict") => return Ok((Request::Evict, None)),
        Some(other) => return Err(RequestError::BadVerb(other.to_string())),
        None => return Err(RequestError::BadVerb(String::new())),
    };
    let fingerprint = match (recalled, topology_text, memo) {
        (Some(fingerprint), _, _) => Some(fingerprint),
        (None, Some(text), Some(memo)) => memo.keep(text, &request.topology),
        _ => None,
    };
    Ok((Request::Solve(Box::new(request)), fingerprint))
}

/// The topologies one connection was sent, by their exact text: at most
/// [`TopologyMemo::MAX_ENTRIES`] of them, most recently used first, with
/// at most [`KEEP_BUFFER_BYTES`] of text in all (a larger topology is
/// decoded on every line that carries it). Each is kept with the topology
/// decoded from it and its fingerprint, and only once it decoded and passed
/// [`Topology::validate`] in a valid `solve` line. See the module docs.
#[derive(Debug, Default)]
pub struct TopologyMemo {
    entries: Vec<KnownTopology>,
    /// The entries' text, in bytes.
    text_bytes: usize,
}

#[derive(Debug)]
struct KnownTopology {
    text: Box<str>,
    topology: Arc<Topology>,
    fingerprint: u64,
}

impl TopologyMemo {
    /// Most topologies a memo holds.
    pub const MAX_ENTRIES: usize = 8;

    /// An empty memo.
    pub fn new() -> Self {
        Self::default()
    }

    /// [`parse_request`] through the memo: the same result for every line.
    pub fn parse(&mut self, line: &str) -> Result<Request, RequestError> {
        self.read(line).map(|(request, _)| request)
    }

    /// [`TopologyMemo::parse`], and the fingerprint of a `solve` line's
    /// topology when the memo holds it.
    pub(crate) fn read(&mut self, line: &str) -> Result<(Request, Option<u64>), RequestError> {
        read_request(line, Some(self))
    }

    /// How many topologies the memo holds.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the memo holds no topology.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The bytes of topology text the memo holds.
    pub fn text_bytes(&self) -> usize {
        self.text_bytes
    }

    /// Steps `reader`, which just opened an object, past it when its text
    /// is one the memo holds, and returns that entry's topology and
    /// fingerprint, the entry now the most recently used.
    fn recall(&mut self, reader: &mut Reader<'_>) -> Option<(Arc<Topology>, u64)> {
        let at = self
            .entries
            .iter()
            .position(|e| reader.pass_over(&e.text))?;
        self.entries[..=at].rotate_right(1);
        let e = &self.entries[0];
        Some((Arc::clone(&e.topology), e.fingerprint))
    }

    /// Keeps `topology`, decoded from `text`, as the most recently used
    /// entry, dropping the least recently used ones past the bounds, and
    /// returns its fingerprint; a text larger than the byte bound is not
    /// kept and returns `None`.
    fn keep(&mut self, text: &str, topology: &Arc<Topology>) -> Option<u64> {
        if text.len() > KEEP_BUFFER_BYTES {
            return None;
        }
        while self.entries.len() >= Self::MAX_ENTRIES
            || self.text_bytes + text.len() > KEEP_BUFFER_BYTES
        {
            let dropped = self.entries.pop()?;
            self.text_bytes -= dropped.text.len();
        }
        let fingerprint = topology.fingerprint();
        self.text_bytes += text.len();
        self.entries.insert(
            0,
            KnownTopology {
                text: text.into(),
                topology: Arc::clone(topology),
                fingerprint,
            },
        );
        Some(fingerprint)
    }
}

/// Builds a `solve` request line from a [`SolveRequest`].
pub fn solve_request_line(req: &SolveRequest) -> String {
    let mut v = req.to_json_value();
    if let Value::Obj(pairs) = &mut v {
        pairs.insert(0, ("verb".to_string(), Value::from("solve")));
    }
    v.to_json()
}

/// The response to a successful `solve`: a view of the served entry that
/// renders itself ([`Emit`]) without an intermediate [`Value`] tree.
#[derive(Debug, Clone, Copy)]
pub struct SolveResponse<'a>(&'a ServedSchedule);

/// The response to a successful `solve`.
pub fn solve_response(served: &ServedSchedule) -> SolveResponse<'_> {
    SolveResponse(served)
}

impl SolveResponse<'_> {
    /// The reply line (without the newline), as the server writes it.
    pub fn to_json(&self) -> String {
        // A send is ~55 bytes of text; the rest of a reply is ~600.
        let sends = self.0.entry.output.schedule.sends.len();
        let mut out = String::with_capacity(1024 + 64 * sends);
        json::write_json(self, &mut out);
        out
    }
}

/// The 16 lower-case hex digits of a key hash (`{:016x}`) on the stack, so
/// rendering a reply does not allocate for them.
pub(crate) fn key_hex(hash: u64) -> [u8; 16] {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut digits = [0u8; 16];
    for (i, d) in digits.iter_mut().enumerate() {
        *d = HEX[(hash >> (60 - 4 * i)) as usize & 0xf];
    }
    digits
}

impl Emit for SolveResponse<'_> {
    fn emit<S: JsonSink>(&self, sink: &mut S) {
        let e = &self.0.entry;
        sink.begin_obj();
        sink.key("status");
        sink.str("ok");
        sink.key("cache");
        sink.str(self.0.cache.name());
        sink.key("quality");
        sink.str(self.0.quality.name());
        sink.key("key");
        let hex = key_hex(e.key.hash);
        // ASCII by construction.
        sink.str(std::str::from_utf8(&hex).unwrap_or_default());
        sink.key("chunk_bytes");
        sink.num(e.chunk_bytes);
        sink.key("output");
        // The schedule is copied from its kept text: a hit formats none of
        // its sends again.
        e.output.emit_rendered(sink);
        sink.key("solve");
        sink.begin_obj();
        sink.key("simplex_iterations");
        sink.uint(e.stats.simplex_iterations);
        sink.key("warm_starts");
        sink.uint(e.stats.warm_starts);
        sink.key("cold_starts");
        sink.uint(e.stats.cold_starts);
        sink.key("nodes_explored");
        sink.uint(e.stats.nodes_explored);
        sink.key("iteration_limit_hit");
        sink.bool(e.stats.iteration_limit_hit);
        sink.end_obj();
        sink.end_obj();
    }
}

/// The response to `stats`.
pub fn stats_response(stats: &ServiceStats) -> Value {
    Value::obj(vec![
        ("status", Value::from("ok")),
        ("stats", stats.to_json_value()),
    ])
}

/// The response to `evict`.
pub fn evict_response(evicted: usize) -> Value {
    Value::obj(vec![
        ("status", Value::from("ok")),
        ("evicted", Value::from(evicted)),
    ])
}

/// An error response.
pub fn error_response(message: &str) -> Value {
    Value::obj(vec![
        ("status", Value::from("error")),
        ("message", Value::from(message)),
    ])
}

/// An error response for a request that failed validation: carries the
/// machine-readable [`RequestError::code`] alongside the human message.
pub fn request_error_response(err: &RequestError) -> Value {
    Value::obj(vec![
        ("status", Value::from("error")),
        ("code", Value::from(err.code())),
        ("message", Value::from(err.to_string())),
    ])
}

/// Client-side view of a parsed response line.
#[derive(Debug)]
pub struct SolveReply {
    /// How the server satisfied the request.
    pub cache: CacheStatus,
    /// How the answer ranks against the exact optimum (`exact` unless a
    /// deadline forced a degraded rung of the ladder).
    pub quality: Quality,
    /// The request key (hex) under which the schedule is cached.
    pub key: String,
    /// Chunk size of the served schedule.
    pub chunk_bytes: f64,
    /// The schedule and metrics.
    pub output: ScheduleOutput,
}

/// Parses a `solve` response line (client side) with one pass of the pull
/// reader: the output is read by [`ScheduleOutput::decode`], the decoder
/// the disk store uses. Malformed JSON is reported first, then the
/// `status` (an error reply's message), the cache status, `chunk_bytes`
/// and the output.
pub fn parse_solve_reply(line: &str) -> Result<SolveReply, String> {
    let mut status = None;
    let mut message = None;
    let mut cache = None;
    let mut quality = None;
    let mut key = None;
    let mut chunk_bytes = None;
    let mut output = None;
    json::decode_text::<(), JsonError>(line, |first, src| {
        src.object(first, |name, value, src| {
            match name {
                "status" if status.is_none() => status = Some(src.scalar(value, Event::into_str)?),
                "message" if message.is_none() => {
                    message = Some(src.scalar(value, Event::into_str)?)
                }
                "cache" if cache.is_none() => {
                    cache = Some(src.scalar(value, |v| match v.as_str() {
                        Some("hit") => Some(CacheStatus::Hit),
                        Some("disk_hit") => Some(CacheStatus::DiskHit),
                        Some("coalesced") => Some(CacheStatus::Coalesced),
                        Some("miss") => Some(CacheStatus::Miss),
                        _ => None,
                    })?)
                }
                "quality" if quality.is_none() => {
                    quality = Some(src.scalar(value, |v| v.as_str().and_then(Quality::from_name))?)
                }
                "key" if key.is_none() => key = Some(src.scalar(value, Event::into_str)?),
                "chunk_bytes" if chunk_bytes.is_none() => {
                    chunk_bytes = Some(src.scalar(value, |v| v.as_f64())?)
                }
                "output" if output.is_none() => output = Some(ScheduleOutput::decode(value, src)?),
                _ => src.skip(&value)?,
            }
            Ok(())
        })?;
        Ok(Ok(()))
    })
    .map_err(|e| e.to_string())?;
    match status.flatten().as_deref() {
        Some("ok") => {}
        Some("error") => {
            return Err(message
                .flatten()
                .map_or_else(|| "unknown server error".to_string(), String::from))
        }
        _ => return Err("malformed response".into()),
    }
    Ok(SolveReply {
        cache: cache.flatten().ok_or("missing cache status")?,
        // Older servers predate quality tags; everything they serve is exact.
        quality: quality.flatten().unwrap_or(Quality::Exact),
        key: key.flatten().map(String::from).unwrap_or_default(),
        chunk_bytes: chunk_bytes.flatten().ok_or("missing chunk_bytes")?,
        output: output.ok_or("missing output")?.map_err(|e| e.to_string())?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use teccl_collective::CollectiveKind;
    use teccl_topology::ring_topology;

    #[test]
    fn key_hex_is_the_016x_format() {
        for hash in [
            0,
            1,
            0xf,
            0x0123_4567_89ab_cdef,
            u64::MAX,
            1 << 63,
            0xdead_beef,
        ] {
            assert_eq!(
                std::str::from_utf8(&key_hex(hash)),
                Ok(format!("{hash:016x}").as_str())
            );
        }
    }

    #[test]
    fn request_lines_roundtrip() {
        let req = SolveRequest::new(
            ring_topology(3, 1e9, 0.0),
            CollectiveKind::AllGather,
            1,
            64.0 * 1024.0,
        );
        let line = solve_request_line(&req);
        assert!(!line.contains('\n'));
        match parse_request(&line).unwrap() {
            Request::Solve(back) => assert_eq!(back.key(), req.key()),
            other => panic!("wrong verb: {other:?}"),
        }
        assert!(matches!(
            parse_request(r#"{"verb":"stats"}"#).unwrap(),
            Request::Stats
        ));
        assert!(matches!(
            parse_request(r#"{"verb":"evict"}"#).unwrap(),
            Request::Evict
        ));
        assert!(parse_request(r#"{"verb":"purge"}"#).is_err());
        assert!(parse_request("not json").is_err());
    }

    #[test]
    fn a_repeated_line_is_a_memo_hit_that_decodes_no_topology() {
        let req = SolveRequest::new(
            ring_topology(4, 1e9, 1e-6),
            CollectiveKind::AllGather,
            1,
            64.0 * 1024.0,
        );
        let line = solve_request_line(&req);
        let topology = |parsed: &(Request, Option<u64>)| match &parsed.0 {
            Request::Solve(r) => Arc::clone(&r.topology),
            other => panic!("wrong verb: {other:?}"),
        };
        let mut memo = TopologyMemo::new();
        let first = memo.read(&line).unwrap();
        let fingerprint = req.topology.fingerprint();
        assert_eq!(first.1, Some(fingerprint));
        assert_eq!(memo.len(), 1);

        // The entry's topology is swapped for another one under the same
        // text: a hit hands that one out, so it decoded nothing.
        let decoy = Arc::new(ring_topology(5, 2e9, 0.0));
        memo.entries[0].topology = Arc::clone(&decoy);
        let second = memo.read(&line).unwrap();
        assert!(Arc::ptr_eq(&topology(&second), &decoy));
        assert_eq!(second.1, Some(fingerprint));
        memo.entries[0].topology = topology(&first);

        let hit = memo.read(&line).unwrap();
        assert!(Arc::ptr_eq(&topology(&hit), &topology(&first)));
        match hit.0 {
            Request::Solve(r) => assert_eq!(r.key_with(fingerprint), req.key()),
            other => panic!("wrong verb: {other:?}"),
        }
        // A restyled line (the same request) is a miss, kept beside it.
        let pretty = Value::parse(&line).unwrap().to_json_pretty();
        let restyled = memo.read(&pretty).unwrap();
        assert!(!Arc::ptr_eq(&topology(&restyled), &topology(&first)));
        assert_eq!(restyled.1, Some(fingerprint));
        assert_eq!(memo.len(), 2);
        // The memo-less parse knows no fingerprint.
        assert_eq!(read_request(&line, None).unwrap().1, None);
    }

    #[test]
    fn the_memo_keeps_the_most_recent_entries_within_its_bounds() {
        let mut memo = TopologyMemo::new();
        let line = |i: usize| {
            let topology = ring_topology(3, 1e9 * (1 + i) as f64, 0.0);
            solve_request_line(&SolveRequest::new(
                topology,
                CollectiveKind::AllGather,
                1,
                1024.0,
            ))
        };
        for i in 0..20 {
            memo.read(&line(i)).unwrap();
            assert_eq!(memo.len(), (i + 1).min(TopologyMemo::MAX_ENTRIES));
            let bytes: usize = memo.entries.iter().map(|e| e.text.len()).sum();
            assert_eq!(memo.text_bytes(), bytes);
        }
        // The last eight, most recent first; touching the oldest moves it
        // to the front, and the next new one drops the then oldest.
        let fingerprints = |memo: &TopologyMemo| -> Vec<u64> {
            memo.entries.iter().map(|e| e.fingerprint).collect()
        };
        let expect = |ids: &[usize]| -> Vec<u64> {
            ids.iter()
                .map(|&i| ring_topology(3, 1e9 * (1 + i) as f64, 0.0).fingerprint())
                .collect()
        };
        assert_eq!(
            fingerprints(&memo),
            expect(&[19, 18, 17, 16, 15, 14, 13, 12])
        );
        memo.read(&line(12)).unwrap();
        memo.read(&line(20)).unwrap();
        assert_eq!(
            fingerprints(&memo),
            expect(&[20, 12, 19, 18, 17, 16, 15, 14])
        );
    }

    #[test]
    fn error_replies_surface_message() {
        let line = error_response("boom").to_json();
        assert_eq!(parse_solve_reply(&line).unwrap_err(), "boom");
    }
}
