//! The content-addressed schedule cache: an in-memory LRU over
//! [`RequestKey`] hashes plus an optional on-disk store of the same entries.
//!
//! Disk entries are ordinary `teccl-util` JSON documents (one file per key,
//! named by the key hash — content addressing makes invalidation trivial:
//! a changed request simply hashes elsewhere). Every load is re-validated
//! with [`teccl_schedule::validate()`] against the demand reconstructed from
//! the request before it is served; a corrupt or stale file is ignored
//! rather than trusted.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use teccl_lp::{SimplexBasis, SolveStats};
use teccl_schedule::ScheduleOutput;
use teccl_topology::Topology;
use teccl_util::json::Value;

use crate::fault::FaultPlan;
use crate::key::{RequestKey, SolveRequest};

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
    pub topology_used: Topology,
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
    /// Serializes the entry (plus an optional warm-start basis) to JSON.
    pub fn to_json_value(&self, basis: Option<&SimplexBasis>) -> Value {
        // 64-bit hashes do not fit JSON's f64 numbers exactly — hex strings.
        let mut pairs = vec![
            (
                "key_family",
                Value::from(format!("{:016x}", self.key.family)),
            ),
            ("key_bucket", Value::from(self.key.size_bucket)),
            ("key_hash", Value::from(format!("{:016x}", self.key.hash))),
            ("chunk_bytes", Value::from(self.chunk_bytes)),
            ("topology_used", self.topology_used.to_json_value()),
            ("output", self.output.to_json_value()),
            ("stats", stats_to_json(&self.stats)),
            ("quality", Value::from(self.quality.name())),
        ];
        if let Some(b) = basis {
            pairs.push(("basis", b.to_json_value()));
        }
        Value::obj(pairs)
    }

    /// Deserializes an entry and its optional basis. Fails on malformed
    /// documents; semantic validation (does the schedule satisfy the
    /// request?) is the caller's job.
    pub fn from_json_value(
        v: &Value,
    ) -> Result<(CacheEntry, Option<SimplexBasis>), teccl_util::json::JsonError> {
        let bad = |msg: &str| teccl_util::json::JsonError {
            pos: 0,
            msg: msg.to_string(),
        };
        let hex = |k: &str| {
            v.get(k)
                .and_then(Value::as_str)
                .and_then(|s| u64::from_str_radix(s, 16).ok())
                .ok_or(bad("missing/bad key field"))
        };
        let key = RequestKey {
            family: hex("key_family")?,
            size_bucket: v
                .get("key_bucket")
                .and_then(Value::as_f64)
                .ok_or(bad("missing key_bucket"))? as i64,
            hash: hex("key_hash")?,
        };
        let entry = CacheEntry {
            key,
            output: ScheduleOutput::from_json_value(v.get("output").ok_or(bad("missing output"))?)?,
            topology_used: Topology::from_json_value(
                v.get("topology_used").ok_or(bad("missing topology_used"))?,
            )?,
            chunk_bytes: v
                .get("chunk_bytes")
                .and_then(Value::as_f64)
                .ok_or(bad("missing chunk_bytes"))?,
            stats: stats_from_json(v.get("stats")),
            // Files written before quality tags existed are all exact solves.
            quality: v
                .get("quality")
                .and_then(Value::as_str)
                .and_then(Quality::from_name)
                .unwrap_or(Quality::Exact),
        };
        let basis = match v.get("basis") {
            Some(b) => Some(SimplexBasis::from_json_value(b)?),
            None => None,
        };
        Ok((entry, basis))
    }
}

/// Serializes the solver counters a served entry reports.
fn stats_to_json(s: &SolveStats) -> Value {
    Value::obj(vec![
        ("solve_time_s", Value::from(s.solve_time.as_secs_f64())),
        ("simplex_iterations", Value::from(s.simplex_iterations)),
        ("dual_iterations", Value::from(s.dual_iterations)),
        ("nodes_explored", Value::from(s.nodes_explored)),
        ("factorizations", Value::from(s.factorizations)),
        ("warm_starts", Value::from(s.warm_starts)),
        ("cold_starts", Value::from(s.cold_starts)),
        ("iteration_limit_hit", Value::from(s.iteration_limit_hit)),
    ])
}

/// Reads back the counters written by [`stats_to_json`] (missing fields are
/// zero — old cache files stay loadable as counters are added).
fn stats_from_json(v: Option<&Value>) -> SolveStats {
    let mut s = SolveStats::default();
    let Some(v) = v else { return s };
    let num = |k: &str| v.get(k).and_then(Value::as_usize).unwrap_or(0);
    s.solve_time = std::time::Duration::from_secs_f64(
        v.get("solve_time_s").and_then(Value::as_f64).unwrap_or(0.0),
    );
    s.simplex_iterations = num("simplex_iterations");
    s.dual_iterations = num("dual_iterations");
    s.nodes_explored = num("nodes_explored");
    s.factorizations = num("factorizations");
    s.warm_starts = num("warm_starts");
    s.cold_starts = num("cold_starts");
    s.iteration_limit_hit = v
        .get("iteration_limit_hit")
        .and_then(Value::as_bool)
        .unwrap_or(false);
    s
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
        if entry.quality != Quality::Exact {
            return Ok(());
        }
        let text = entry.to_json_value(basis).to_json_pretty();
        let tmp = self.dir.join(format!("sched-{:016x}.tmp", entry.key.hash));
        std::fs::write(&tmp, format!("{text}\n"))?;
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
        let parsed = Value::parse(&text)
            .ok()
            .and_then(|v| CacheEntry::from_json_value(&v).ok());
        let Some((entry, basis)) = parsed else {
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
    pub fn evict_all(&self) -> usize {
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
