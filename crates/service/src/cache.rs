//! The content-addressed schedule cache: an in-memory LRU over
//! [`RequestKey`] hashes plus an optional on-disk store of the same entries.
//!
//! Disk entries are ordinary `teccl-util` JSON documents (one file per key,
//! named by the key hash — content addressing makes invalidation trivial:
//! a changed request simply hashes elsewhere). Every load is re-validated
//! with [`teccl_schedule::validate()`] against the demand reconstructed from
//! the request before it is served; a corrupt or stale file is quarantined
//! rather than trusted.
//!
//! **Format.** [`DiskStore::save`] streams one compact document through a
//! [`JsonSink`] with no tree in between: the key (hashes as hex strings),
//! `chunk_bytes`, `topology_used`, `output` with its schedule copied in as
//! the text the entry kept for its replies ([`Schedule::json_text`]),
//! `stats`, `quality` and the optional warm-start `basis`. Files written
//! pretty-printed by earlier builds hold the same members and still load:
//! the decoder does not care about whitespace.
//!
//! **What a disk hit costs.** [`DiskStore::load`] reads the file into one
//! string and decodes it with one pass of the pull reader
//! ([`CacheEntry::decode`]): no [`Value`](teccl_util::json::Value) tree is
//! built. It allocates what the entry holds — the topology's nodes, links
//! and names, the sends, the metrics, the basis — plus one copy of the
//! schedule's text, which becomes the entry's kept text when it is the
//! compact form, so the first reply after a load formats nothing. A
//! pretty-printed file's schedule is formatted once, at its first reply.
//! Then the schedule is validated against the request's demand.
//!
//! [`Schedule::json_text`]: teccl_schedule::Schedule::json_text

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use teccl_lp::{SimplexBasis, SolveStats};
use teccl_schedule::ScheduleOutput;
use teccl_topology::Topology;
use teccl_util::json::{self, Emit, Event, JsonError, JsonSink, Reader};

use crate::fault::FaultPlan;
use crate::key::{RequestKey, SolveRequest};
use crate::protocol::key_hex;
use crate::sync::{lock_recover, LockRank};

/// How good a schedule is relative to the exact optimum — the rung of the
/// degradation ladder it was served from. Ordered best-first, so
/// `a < b` means "a is a better answer than b".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Quality {
    /// The certified optimum of the requested formulation.
    Exact,
    /// The best feasible point a deadline-stopped solve had in hand,
    /// validated and simulated like any other schedule.
    Incumbent,
    /// A validated cache entry for a *neighbouring* size bucket of the same
    /// request family (same topology / collective / chunks / config — the
    /// demand is identical, only the chunk size differs).
    Stale,
    /// An instant textbook schedule (ring all-gather or shortest-path
    /// unicast) built without touching the solver at all.
    Baseline,
}

impl Quality {
    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            Quality::Exact => "exact",
            Quality::Incumbent => "incumbent",
            Quality::Stale => "stale",
            Quality::Baseline => "baseline",
        }
    }

    /// Parses the wire name.
    pub fn from_name(s: &str) -> Option<Quality> {
        Some(match s {
            "exact" => Quality::Exact,
            "incumbent" => Quality::Incumbent,
            "stale" => Quality::Stale,
            "baseline" => Quality::Baseline,
            _ => return None,
        })
    }
}

/// A cached, validated solve result.
#[derive(Debug, Clone)]
pub struct CacheEntry {
    /// The canonical key this entry is stored under.
    pub key: RequestKey,
    /// The schedule and its metrics (the serializable unit).
    pub output: ScheduleOutput,
    /// The topology the schedule runs on — identical to the request topology
    /// unless the hyper-edge switch model transformed it.
    pub topology_used: Arc<Topology>,
    /// Chunk size the schedule was solved for (the bucket representative's,
    /// which may differ slightly from a coalesced request's own).
    pub chunk_bytes: f64,
    /// Solver statistics of the original solve. A cache hit returns these
    /// untouched — the service-level counters prove no new simplex work
    /// happened.
    pub stats: SolveStats,
    /// How this entry ranks against the exact optimum. Anything below
    /// [`Quality::Exact`] lives in memory only and is upgraded in the
    /// background; the disk store holds exact entries exclusively.
    pub quality: Quality,
}

impl CacheEntry {
    /// Reads the stored document whose first event is `first` from `src`,
    /// to its end (see [`Reader`] for the two errors): the entry and
    /// its optional basis. Members come in any order and the first of
    /// duplicate keys wins. Faults are reported in the order `key_family`,
    /// `key_bucket`, `key_hash`, `output`, `topology_used`, `chunk_bytes`,
    /// `stats`, `basis`; semantic validation (does the schedule satisfy the
    /// request?) is the caller's job. Missing `stats` counters are zero
    /// and a missing or unknown `quality` is exact, as files written before
    /// they existed hold; a solve time no [`Duration`] holds is a fault.
    pub fn decode<'a>(
        first: Event<'a>,
        src: &mut Reader<'a>,
    ) -> Result<Result<(CacheEntry, Option<SimplexBasis>), JsonError>, JsonError> {
        let mut f = EntryFields::default();
        src.object(first, |key, value, src| {
            let hex = |v: Event<'_>| v.as_str().and_then(|s| u64::from_str_radix(s, 16).ok());
            match key {
                "key_family" if f.family.is_none() => f.family = Some(src.scalar(value, hex)?),
                "key_bucket" if f.bucket.is_none() => {
                    f.bucket = Some(src.scalar(value, |v| v.as_f64())?)
                }
                "key_hash" if f.hash.is_none() => f.hash = Some(src.scalar(value, hex)?),
                "chunk_bytes" if f.chunk_bytes.is_none() => {
                    f.chunk_bytes = Some(src.scalar(value, |v| v.as_f64())?)
                }
                "topology_used" if f.topology.is_none() => {
                    f.topology = Some(Topology::decode(value, src)?)
                }
                "output" if f.output.is_none() => {
                    f.output = Some(ScheduleOutput::decode(value, src)?)
                }
                "stats" if f.stats.is_none() => f.stats = Some(decode_stats(value, src)?),
                "quality" if f.quality.is_none() => {
                    f.quality =
                        Some(src.scalar(value, |v| v.as_str().and_then(Quality::from_name))?)
                }
                "basis" if f.basis.is_none() => f.basis = Some(SimplexBasis::decode(value, src)?),
                _ => src.skip(&value)?,
            }
            Ok(())
        })?;
        Ok(f.build())
    }
}

/// A stored entry's members as read: `None` while a key has not been seen,
/// `Some(None)` for a value of the wrong type.
#[derive(Default)]
struct EntryFields {
    family: Option<Option<u64>>,
    bucket: Option<Option<f64>>,
    hash: Option<Option<u64>>,
    chunk_bytes: Option<Option<f64>>,
    topology: Option<Result<Topology, JsonError>>,
    output: Option<Result<ScheduleOutput, JsonError>>,
    stats: Option<Result<SolveStats, JsonError>>,
    quality: Option<Option<Quality>>,
    basis: Option<Result<SimplexBasis, JsonError>>,
}

impl EntryFields {
    /// The entry, or the first fault in [`CacheEntry::decode`]'s order.
    /// Error messages are built only on the error path.
    fn build(self) -> Result<(CacheEntry, Option<SimplexBasis>), JsonError> {
        let key = RequestKey {
            family: self
                .family
                .flatten()
                .ok_or_else(|| bad("missing/bad key field"))?,
            size_bucket: self
                .bucket
                .flatten()
                .ok_or_else(|| bad("missing key_bucket"))? as i64,
            hash: self
                .hash
                .flatten()
                .ok_or_else(|| bad("missing/bad key field"))?,
        };
        let entry = CacheEntry {
            key,
            output: self.output.unwrap_or_else(|| Err(bad("missing output")))?,
            topology_used: Arc::new(
                self.topology
                    .unwrap_or_else(|| Err(bad("missing topology_used")))?,
            ),
            chunk_bytes: self
                .chunk_bytes
                .flatten()
                .ok_or_else(|| bad("missing chunk_bytes"))?,
            stats: self.stats.unwrap_or_else(|| Ok(SolveStats::default()))?,
            quality: self.quality.flatten().unwrap_or(Quality::Exact),
        };
        Ok((entry, self.basis.transpose()?))
    }
}

fn bad(msg: &str) -> JsonError {
    JsonError {
        pos: 0,
        msg: msg.to_string(),
    }
}

/// The counters a stored entry keeps beside `solve_time_s`, in file order.
const COUNTERS: [&str; 6] = [
    "simplex_iterations",
    "dual_iterations",
    "nodes_explored",
    "factorizations",
    "warm_starts",
    "cold_starts",
];

/// [`COUNTERS`]' values in `s`.
fn counts(s: &SolveStats) -> [usize; 6] {
    [
        s.simplex_iterations,
        s.dual_iterations,
        s.nodes_explored,
        s.factorizations,
        s.warm_starts,
        s.cold_starts,
    ]
}

/// Reads the `stats` member: a counter that is missing or not a count is
/// zero, and so is a value that is no object; a solve time no [`Duration`]
/// holds (negative, or past `Duration::MAX`) is a fault.
fn decode_stats<'a>(
    first: Event<'a>,
    src: &mut Reader<'a>,
) -> Result<Result<SolveStats, JsonError>, JsonError> {
    let mut counts: [Option<usize>; 6] = [None; 6];
    let mut solve_time_s = None;
    let mut limit_hit = None;
    src.object(first, |key, value, src| {
        match key {
            "solve_time_s" if solve_time_s.is_none() => {
                solve_time_s = Some(src.scalar(value, |v| v.as_f64())?)
            }
            "iteration_limit_hit" if limit_hit.is_none() => {
                limit_hit = Some(src.scalar(value, |v| match v {
                    Event::Bool(b) => Some(b),
                    _ => None,
                })?)
            }
            _ => match COUNTERS.iter().position(|&c| c == key) {
                Some(i) if counts[i].is_none() => {
                    counts[i] = Some(src.scalar(value, |v| v.as_usize())?.unwrap_or(0))
                }
                _ => src.skip(&value)?,
            },
        }
        Ok(())
    })?;
    let [simplex_iterations, dual_iterations, nodes_explored, factorizations, warm_starts, cold_starts] =
        counts.map(|n| n.unwrap_or(0));
    let Ok(solve_time) = Duration::try_from_secs_f64(solve_time_s.flatten().unwrap_or(0.0)) else {
        return Ok(Err(bad("bad solve_time_s")));
    };
    Ok(Ok(SolveStats {
        solve_time,
        simplex_iterations,
        dual_iterations,
        nodes_explored,
        factorizations,
        warm_starts,
        cold_starts,
        iteration_limit_hit: limit_hit.flatten().unwrap_or(false),
        ..SolveStats::default()
    }))
}

/// A disk entry as one document, in the order [`CacheEntry::decode`]
/// documents; the schedule goes in as its kept text.
struct Stored<'e> {
    entry: &'e CacheEntry,
    basis: Option<&'e SimplexBasis>,
}

impl Emit for Stored<'_> {
    fn emit(&self, sink: &mut JsonSink<'_>) {
        let e = self.entry;
        // 64-bit hashes do not fit JSON's f64 numbers exactly: hex strings.
        let hex = |sink: &mut JsonSink<'_>, hash: u64| {
            // ASCII by construction.
            sink.str(std::str::from_utf8(&key_hex(hash)).unwrap_or_default())
        };
        sink.begin_obj();
        sink.key("key_family");
        hex(sink, e.key.family);
        sink.key("key_bucket").num(e.key.size_bucket as f64);
        sink.key("key_hash");
        hex(sink, e.key.hash);
        sink.key("chunk_bytes").num(e.chunk_bytes);
        sink.key("topology_used");
        e.topology_used.emit(sink);
        sink.key("output");
        e.output.emit_rendered(sink);
        sink.key("stats").begin_obj();
        sink.key("solve_time_s")
            .num(e.stats.solve_time.as_secs_f64());
        for (name, n) in COUNTERS.into_iter().zip(counts(&e.stats)) {
            sink.key(name).uint(n);
        }
        sink.key("iteration_limit_hit")
            .bool(e.stats.iteration_limit_hit);
        sink.end_obj();
        sink.key("quality").str(e.quality.name());
        if let Some(b) = self.basis {
            sink.key("basis");
            b.emit(sink);
        }
        sink.end_obj();
    }
}

/// A bounded in-memory LRU cache keyed by request hash.
#[derive(Debug)]
pub struct ScheduleCache {
    capacity: usize,
    map: HashMap<u64, (Arc<CacheEntry>, u64)>,
    tick: u64,
}

impl ScheduleCache {
    /// A cache holding at most `capacity` entries (minimum 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            map: HashMap::new(),
            tick: 0,
        }
    }

    /// Looks up an entry, marking it most-recently-used.
    pub fn get(&mut self, hash: u64) -> Option<Arc<CacheEntry>> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(&hash).map(|(e, t)| {
            *t = tick;
            Arc::clone(e)
        })
    }

    /// Inserts an entry, evicting the least-recently-used one on overflow.
    pub fn insert(&mut self, entry: Arc<CacheEntry>) {
        self.tick += 1;
        self.map.insert(entry.key.hash, (entry, self.tick));
        if self.map.len() > self.capacity {
            if let Some(&lru) = self.map.iter().min_by_key(|(_, (_, t))| *t).map(|(h, _)| h) {
                self.map.remove(&lru);
            }
        }
    }

    /// Finds the best entry of a request `family` other than `exclude_hash`
    /// — the "stale" rung of the degradation ladder. Same family means same
    /// topology, collective, chunk count and config, so the schedule
    /// satisfies the identical demand; only its chunk size is off. Prefers
    /// better quality, then recency; never returns a baseline entry (the
    /// caller can build a fresh baseline for free).
    pub fn find_family(&self, family: u64, exclude_hash: u64) -> Option<Arc<CacheEntry>> {
        self.map
            .values()
            .filter(|(e, _)| {
                e.key.family == family
                    && e.key.hash != exclude_hash
                    && e.quality < Quality::Baseline
            })
            .max_by_key(|(e, tick)| (std::cmp::Reverse(e.quality), *tick))
            .map(|(e, _)| Arc::clone(e))
    }

    /// Removes one entry; returns whether it existed.
    pub fn evict(&mut self, hash: u64) -> bool {
        self.map.remove(&hash).is_some()
    }

    /// Clears the cache, returning how many entries were dropped.
    pub fn evict_all(&mut self) -> usize {
        let n = self.map.len();
        self.map.clear();
        n
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// The on-disk half of the cache: one JSON file per key. A file that fails
/// to parse or validate is **quarantined** — renamed to `<file>.corrupt` and
/// counted — so one bad sector (or a crash mid-write by an older build)
/// costs one re-solve, not a poisoned key that fails on every restart.
#[derive(Debug, Clone)]
pub struct DiskStore {
    dir: PathBuf,
    quarantined: Arc<AtomicU64>,
    fault: Arc<FaultPlan>,
    /// How many times [`DiskStore::evict_all`] has run. Its lock orders
    /// each save's rename against an evict: see [`DiskStore::save_since`].
    evictions: Arc<Mutex<u64>>,
}

impl DiskStore {
    /// Opens (creating if needed) a store rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<DiskStore> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(DiskStore {
            dir,
            quarantined: Arc::new(AtomicU64::new(0)),
            fault: Arc::new(FaultPlan::none()),
            evictions: Arc::new(Mutex::new(0)),
        })
    }

    /// Attaches a fault-injection plan (`corrupt-disk-read`).
    pub fn with_fault_plan(mut self, fault: Arc<FaultPlan>) -> DiskStore {
        self.fault = fault;
        self
    }

    /// How many corrupt files this store has quarantined since it was opened.
    pub fn quarantined(&self) -> u64 {
        self.quarantined.load(Ordering::Relaxed)
    }

    /// Moves a bad file out of the addressable namespace and counts it.
    /// A rename failure (e.g. the file vanished) is ignored: either way the
    /// key no longer resolves to the bad content.
    fn quarantine(&self, path: &Path) {
        let mut target = path.as_os_str().to_owned();
        target.push(".corrupt");
        let _ = std::fs::rename(path, &target);
        self.quarantined.fetch_add(1, Ordering::Relaxed);
    }

    /// The file a key is stored at.
    pub fn path_for(&self, key: RequestKey) -> PathBuf {
        self.dir.join(format!("sched-{:016x}.json", key.hash))
    }

    /// Persists an entry (write-to-temp + rename, so readers never observe a
    /// torn file). Degraded entries are silently skipped: disk is the
    /// long-lived tier, and a deadline-shaped answer must not outlive the
    /// deadline that shaped it.
    pub fn save(&self, entry: &CacheEntry, basis: Option<&SimplexBasis>) -> std::io::Result<()> {
        self.save_since(self.evictions(), entry, basis)
    }

    /// The number of evicts so far, for [`DiskStore::save_since`].
    pub(crate) fn evictions(&self) -> u64 {
        *lock_recover(&self.evictions, LockRank::Disk)
    }

    /// [`DiskStore::save`], made void by any [`DiskStore::evict_all`] that
    /// begins after [`DiskStore::evictions`] read `evictions`: the rename
    /// and an evict's deletions run under one lock, so a save taken before
    /// an evict either lands before the evict deletes or leaves no file.
    /// A worker reads the count before it answers the request and saves
    /// after, and a client's evict sent on that answer removes the entry.
    pub(crate) fn save_since(
        &self,
        evictions: u64,
        entry: &CacheEntry,
        basis: Option<&SimplexBasis>,
    ) -> std::io::Result<()> {
        if entry.quality != Quality::Exact {
            return Ok(());
        }
        let mut text = String::with_capacity(entry.output.schedule.json_text().len() + 4096);
        json::write_json(&Stored { entry, basis }, &mut text);
        text.push('\n');
        let tmp = self.dir.join(format!("sched-{:016x}.tmp", entry.key.hash));
        std::fs::write(&tmp, text)?;
        let now = lock_recover(&self.evictions, LockRank::Disk);
        if *now != evictions {
            return std::fs::remove_file(&tmp);
        }
        std::fs::rename(&tmp, self.path_for(entry.key))
    }

    /// Loads and *re-validates* an entry for a request: the stored key must
    /// match, the stored schedule must validate against the demand implied by
    /// the request, and the metrics must belong to the stored schedule.
    /// Anything less quarantines the file and returns `None` — on-disk state
    /// is never trusted blindly, and a file that failed once would fail on
    /// every future probe too.
    pub fn load(
        &self,
        key: RequestKey,
        request: &SolveRequest,
    ) -> Option<(CacheEntry, Option<SimplexBasis>)> {
        let path = self.path_for(key);
        // Missing is the normal cache-miss case, not a corruption.
        let text = std::fs::read_to_string(&path).ok()?;
        let text = if self.fault.should_corrupt_disk_read() {
            "{injected corrupt-disk-read".to_string()
        } else {
            text
        };
        let Ok((entry, basis)) = json::decode_text(&text, CacheEntry::decode) else {
            self.quarantine(&path);
            return None;
        };
        if entry.key != key {
            // The content does not belong under this name — same treatment.
            self.quarantine(&path);
            return None;
        }
        let demand = request.demand();
        let report =
            teccl_schedule::validate(&entry.topology_used, &demand, &entry.output.schedule, false);
        if !report.is_valid() {
            self.quarantine(&path);
            return None;
        }
        Some((entry, basis))
    }

    /// Deletes every stored schedule, returning how many files were removed.
    /// A save that read the evict count before this began leaves no file
    /// behind: the count and the deletions are one critical section, which
    /// the save's rename also takes.
    pub fn evict_all(&self) -> usize {
        let mut evictions = lock_recover(&self.evictions, LockRank::Disk);
        *evictions += 1;
        let mut n = 0;
        if let Ok(dir) = std::fs::read_dir(&self.dir) {
            for f in dir.flatten() {
                let name = f.file_name();
                let name = name.to_string_lossy();
                if name.starts_with("sched-") && name.ends_with(".json") {
                    n += usize::from(std::fs::remove_file(f.path()).is_ok());
                }
            }
        }
        n
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use teccl_collective::CollectiveKind;
    use teccl_schedule::{ChunkId, CollectiveMetrics, Schedule};
    use teccl_topology::{line_topology, NodeId};

    fn entry_for(request: &SolveRequest, key_tweak: u64) -> CacheEntry {
        // A real 2-hop broadcast relay schedule so validation passes.
        let mut s = Schedule::new("test", request.chunk_bytes());
        s.epoch_duration = 1e-3;
        s.push(ChunkId::new(NodeId(0), 0), NodeId(0), NodeId(1), 0);
        s.push(ChunkId::new(NodeId(0), 0), NodeId(1), NodeId(2), 1);
        let mut key = request.key();
        key.hash ^= key_tweak;
        CacheEntry {
            key,
            output: ScheduleOutput {
                schedule: s,
                metrics: CollectiveMetrics {
                    solver: "test".into(),
                    epoch_duration: 1e-3,
                    transfer_time: 2e-3,
                    solver_time: 0.5,
                    output_buffer_bytes: request.output_buffer,
                    bytes_on_wire: 2.0 * request.chunk_bytes(),
                },
            },
            topology_used: request.topology.clone(),
            chunk_bytes: request.chunk_bytes(),
            stats: SolveStats {
                simplex_iterations: 42,
                warm_starts: 1,
                ..Default::default()
            },
            quality: Quality::Exact,
        }
    }

    fn broadcast_request() -> SolveRequest {
        SolveRequest::new(
            line_topology(3, 1e9, 0.0),
            CollectiveKind::Broadcast,
            1,
            1e6,
        )
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = ScheduleCache::new(2);
        let req = broadcast_request();
        let (a, b, d) = (
            Arc::new(entry_for(&req, 1)),
            Arc::new(entry_for(&req, 2)),
            Arc::new(entry_for(&req, 3)),
        );
        c.insert(Arc::clone(&a));
        c.insert(Arc::clone(&b));
        assert!(c.get(a.key.hash).is_some()); // a is now more recent than b
        c.insert(Arc::clone(&d)); // evicts b
        assert_eq!(c.len(), 2);
        assert!(c.get(a.key.hash).is_some());
        assert!(c.get(b.key.hash).is_none());
        assert!(c.get(d.key.hash).is_some());
        assert_eq!(c.evict_all(), 2);
        assert!(c.is_empty());
    }

    #[test]
    fn disk_roundtrip_validates_on_load() {
        let dir = std::env::temp_dir().join(format!("teccl-store-test-{}", std::process::id()));
        let store = DiskStore::open(&dir).unwrap();
        store.evict_all();
        let req = broadcast_request();
        let entry = entry_for(&req, 0);
        let basis = SimplexBasis {
            basic: vec![1, 2],
            status: vec![teccl_lp::VarStatus::Basic; 3],
            factors: None,
        };
        store.save(&entry, Some(&basis)).unwrap();
        let (back, back_basis) = store.load(entry.key, &req).expect("valid entry loads");
        assert_eq!(back.output.schedule.sends, entry.output.schedule.sends);
        assert_eq!(back.output.metrics, entry.output.metrics);
        assert_eq!(back.stats.simplex_iterations, 42);
        assert_eq!(back.quality, Quality::Exact);
        assert_eq!(back_basis.as_ref(), Some(&basis));
        // A missing file is a plain miss, not a corruption.
        let mut other = entry.key;
        other.hash ^= 0xdead;
        assert!(store.load(other, &req).is_none());
        assert_eq!(store.quarantined(), 0);
        // Corrupt file → quarantined (renamed aside and counted), not trusted.
        std::fs::write(store.path_for(entry.key), "{not json").unwrap();
        assert!(store.load(entry.key, &req).is_none());
        assert_eq!(store.quarantined(), 1);
        assert!(!store.path_for(entry.key).exists(), "bad file moved aside");
        // A schedule that does not satisfy the demand is quarantined even if
        // the file parses: drop the relay's second hop.
        let mut broken = entry.clone();
        broken.output.schedule.sends.truncate(1);
        store.save(&broken, None).unwrap();
        assert!(store.load(entry.key, &req).is_none());
        assert_eq!(store.quarantined(), 2);
        // The key is re-solvable: a fresh save works and loads again.
        store.save(&entry, None).unwrap();
        assert!(store.load(entry.key, &req).is_some());
        assert!(store.evict_all() >= 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn degraded_entries_never_reach_disk() {
        let dir = std::env::temp_dir().join(format!("teccl-store-degr-{}", std::process::id()));
        let store = DiskStore::open(&dir).unwrap();
        store.evict_all();
        let req = broadcast_request();
        let mut entry = entry_for(&req, 0);
        entry.quality = Quality::Incumbent;
        store.save(&entry, None).unwrap();
        assert!(!store.path_for(entry.key).exists());
        assert!(store.load(entry.key, &req).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn find_family_prefers_quality_then_recency() {
        let req = broadcast_request();
        let mut cache = ScheduleCache::new(8);
        let mut exact = entry_for(&req, 1);
        exact.key.family = 77;
        let mut incumbent = entry_for(&req, 2);
        incumbent.key.family = 77;
        incumbent.quality = Quality::Incumbent;
        let mut baseline = entry_for(&req, 3);
        baseline.key.family = 77;
        baseline.quality = Quality::Baseline;
        cache.insert(Arc::new(exact.clone()));
        cache.insert(Arc::new(incumbent));
        cache.insert(Arc::new(baseline.clone()));
        let found = cache.find_family(77, 0).expect("family member found");
        assert_eq!(
            found.key.hash, exact.key.hash,
            "exact beats fresher incumbent"
        );
        // Excluding the requesting key itself, and never serving a baseline.
        let found = cache.find_family(77, exact.key.hash).unwrap();
        assert_eq!(found.quality, Quality::Incumbent);
        assert!(
            cache.find_family(78, 0).is_none(),
            "other families invisible"
        );
        cache.evict(exact.key.hash);
        cache.evict(found.key.hash);
        assert!(
            cache.find_family(77, 0).is_none(),
            "a lone baseline entry is not worth serving stale"
        );
    }
}
