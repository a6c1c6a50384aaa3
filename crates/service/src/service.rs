//! The concurrent solve orchestrator: a `std::thread` worker pool behind a
//! request queue, with single-flight coalescing and cross-request warm
//! starting.
//!
//! * **Single-flight**: identical concurrent cache misses collapse onto one
//!   solve; every waiter receives the same `Arc`'d entry when it lands.
//! * **Warm starts**: a completed solve publishes its final LP basis under
//!   its `(family, size bucket)`, in a book capped at four times the cache
//!   capacity (oldest dropped first); a later miss in the same family
//!   first looks for a basis in its own bucket, then in neighbouring
//!   buckets, and feeds it to [`teccl_core::TeCcl::solve`]. A basis
//!   whose shape no longer matches (the neighbour bucket changed the epoch
//!   count, say) silently degrades to a cold solve inside the LP layer.
//!   A\* solves publish no basis and ignore the hint, so they are never
//!   hinted: their schedule does not depend on request order.
//! * **Validation**: every solved schedule is validated and simulated before
//!   it is cached or served; the service never hands out an unchecked
//!   schedule, whether it came from a solver, memory, or disk.
//! * **Deadlines & degradation**: a request with a deadline runs its solve
//!   under a cooperative [`SolveBudget`]; when the deadline expires the
//!   service serves the best answer on a fixed ladder — the solver's
//!   incumbent, a stale same-family cache entry, or an instant baseline —
//!   tagged with a [`Quality`], while the exact solve continues in the
//!   background to upgrade the cache entry.
//! * **Fault isolation**: solves run under `catch_unwind`, a panicked solve
//!   fans a typed [`ServiceError::WorkerPanicked`] to its waiters (never a
//!   hang), dead workers are respawned, poisoned locks are recovered, and
//!   corrupt disk entries are quarantined. All of it is deterministically
//!   testable through [`crate::fault::FaultPlan`].

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use teccl_baselines::{ring_all_gather, shortest_path_schedule};
use teccl_collective::CollectiveKind;
use teccl_core::{TeCcl, TeCclError};
use teccl_lp::{SimplexBasis, SolveStats};
use teccl_schedule::{simulate, validate, CollectiveMetrics, ScheduleOutput};
use teccl_topology::{NodeId, Topology};
use teccl_util::json::Value;
use teccl_util::SolveBudget;

use crate::cache::{CacheEntry, DiskStore, Quality, ScheduleCache};
use crate::fault::FaultPlan;
use crate::key::{RequestKey, SolveRequest};
use crate::sync::{lock_recover, wait_recover, LockRank, RankedGuard};

/// How a request was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheStatus {
    /// Served from the in-memory cache; no solver work at all.
    Hit,
    /// Served from the on-disk store (validated on load), now in memory.
    DiskHit,
    /// Joined an identical solve already in flight (single-flight).
    Coalesced,
    /// This request triggered the solve.
    Miss,
}

impl CacheStatus {
    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            CacheStatus::Hit => "hit",
            CacheStatus::DiskHit => "disk_hit",
            CacheStatus::Coalesced => "coalesced",
            CacheStatus::Miss => "miss",
        }
    }
}

/// A served schedule: the shared cache entry plus how it was obtained.
#[derive(Debug, Clone)]
pub struct ServedSchedule {
    /// The validated entry (shared with the cache and all coalesced waiters).
    pub entry: Arc<CacheEntry>,
    /// How this particular request was satisfied.
    pub cache: CacheStatus,
    /// How the answer ranks against the exact optimum. Usually the entry's
    /// own quality; [`Quality::Stale`] when a deadline was met by borrowing
    /// a neighbouring size bucket's entry.
    pub quality: Quality,
}

/// Why a request failed.
#[derive(Debug, Clone)]
pub enum ServiceError {
    /// The solver failed (infeasible, did not converge, …).
    Solve(String),
    /// The solver returned, but its schedule failed validation or simulation
    /// — a bug worth surfacing loudly rather than caching.
    InvalidSchedule(String),
    /// The worker thread panicked while solving this request. The panic was
    /// contained: the service keeps serving, and every waiter coalesced onto
    /// this solve receives exactly this error.
    WorkerPanicked(String),
    /// The service is shutting down and dropped the request.
    ShuttingDown,
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Solve(m) => write!(f, "solve failed: {m}"),
            ServiceError::InvalidSchedule(m) => {
                write!(f, "solver produced an invalid schedule: {m}")
            }
            ServiceError::WorkerPanicked(m) => write!(f, "worker panicked during solve: {m}"),
            ServiceError::ShuttingDown => write!(f, "service is shutting down"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// Monotonic counters describing the service since startup. `solves` and
/// `solve_simplex_iterations` are the acceptance gate for the no-solve hit
/// path: a cache hit must leave both untouched.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServiceStats {
    /// Requests submitted.
    pub requests: u64,
    /// In-memory cache hits.
    pub hits: u64,
    /// On-disk store hits (validated on load).
    pub disk_hits: u64,
    /// Requests coalesced onto an in-flight identical solve.
    pub coalesced: u64,
    /// Requests that triggered a solve.
    pub misses: u64,
    /// Solves completed successfully.
    pub solves: u64,
    /// Solves that failed (solver error or validation failure).
    pub solve_errors: u64,
    /// Solves launched with a published warm-start basis from the family.
    pub hinted_solves: u64,
    /// Total simplex iterations spent by all solves — unchanged by hits
    /// *and* by baseline fallbacks, which never touch the simplex.
    pub solve_simplex_iterations: u64,
    /// Total wall-clock seconds spent inside the solver.
    pub solve_time_s: f64,
    /// Requests served below [`Quality::Exact`] (incumbent/stale/baseline).
    pub degraded: u64,
    /// Background exact re-solves that upgraded a degraded cache entry.
    pub background_upgrades: u64,
    /// Solves that panicked on a worker thread (contained, not fatal).
    pub worker_panics: u64,
    /// Worker threads respawned after dying.
    pub worker_respawns: u64,
    /// Corrupt disk-store files quarantined since startup (gauge from the
    /// store).
    pub disk_quarantined: u64,
    /// Entries currently in the in-memory cache (gauge, not a counter).
    pub cached_entries: u64,
    /// Workers currently inside a solve (gauge).
    pub active_solves: u64,
    /// Names of the worker threads currently inside a solve, sorted (gauge).
    pub workers_active: Vec<String>,
    /// Total simplex iterations the solves' horizon-bound LPs spent, kept
    /// apart from `solve_simplex_iterations` (the formulations' walks).
    pub bound_simplex_iterations: u64,
}

impl ServiceStats {
    /// Serializes the counters (for the `stats` verb).
    pub fn to_json_value(&self) -> Value {
        Value::obj(vec![
            ("requests", Value::from(self.requests)),
            ("hits", Value::from(self.hits)),
            ("disk_hits", Value::from(self.disk_hits)),
            ("coalesced", Value::from(self.coalesced)),
            ("misses", Value::from(self.misses)),
            ("solves", Value::from(self.solves)),
            ("solve_errors", Value::from(self.solve_errors)),
            ("hinted_solves", Value::from(self.hinted_solves)),
            (
                "solve_simplex_iterations",
                Value::from(self.solve_simplex_iterations),
            ),
            (
                "bound_simplex_iterations",
                Value::from(self.bound_simplex_iterations),
            ),
            ("solve_time_s", Value::from(self.solve_time_s)),
            ("degraded", Value::from(self.degraded)),
            ("background_upgrades", Value::from(self.background_upgrades)),
            ("worker_panics", Value::from(self.worker_panics)),
            ("worker_respawns", Value::from(self.worker_respawns)),
            ("disk_quarantined", Value::from(self.disk_quarantined)),
            ("cached_entries", Value::from(self.cached_entries)),
            ("active_solves", Value::from(self.active_solves)),
            (
                "workers_active",
                Value::Arr(
                    self.workers_active
                        .iter()
                        .map(|w| Value::Str(w.clone()))
                        .collect(),
                ),
            ),
        ])
    }

    /// Reads back the counters written by [`ServiceStats::to_json_value`].
    pub fn from_json_value(v: &Value) -> ServiceStats {
        let num = |k: &str| v.get(k).and_then(Value::as_f64).unwrap_or(0.0);
        ServiceStats {
            requests: num("requests") as u64,
            hits: num("hits") as u64,
            disk_hits: num("disk_hits") as u64,
            coalesced: num("coalesced") as u64,
            misses: num("misses") as u64,
            solves: num("solves") as u64,
            solve_errors: num("solve_errors") as u64,
            hinted_solves: num("hinted_solves") as u64,
            solve_simplex_iterations: num("solve_simplex_iterations") as u64,
            bound_simplex_iterations: num("bound_simplex_iterations") as u64,
            solve_time_s: num("solve_time_s"),
            degraded: num("degraded") as u64,
            background_upgrades: num("background_upgrades") as u64,
            worker_panics: num("worker_panics") as u64,
            worker_respawns: num("worker_respawns") as u64,
            disk_quarantined: num("disk_quarantined") as u64,
            cached_entries: num("cached_entries") as u64,
            active_solves: num("active_solves") as u64,
            workers_active: v
                .get("workers_active")
                .and_then(Value::as_arr)
                .map(|a| {
                    a.iter()
                        .filter_map(|w| w.as_str().map(str::to_string))
                        .collect()
                })
                .unwrap_or_default(),
        }
    }
}

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads solving queued requests.
    pub workers: usize,
    /// In-memory cache capacity (entries).
    pub cache_capacity: usize,
    /// Optional on-disk store directory.
    pub disk_dir: Option<std::path::PathBuf>,
    /// When a deadline forces a degraded answer, keep solving in the
    /// background and upgrade the cache entry to the exact result.
    pub background_upgrade: bool,
    /// Fault-injection spec (see [`crate::fault`]). `None` consults the
    /// `TECCL_FAULT_PLAN` environment variable; `Some("")` is explicitly
    /// inert regardless of the environment.
    pub fault_plan: Option<String>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            cache_capacity: 256,
            disk_dir: None,
            background_upgrade: true,
            fault_plan: None,
        }
    }
}

type Reply = Result<(Arc<CacheEntry>, CacheStatus, Quality), ServiceError>;

/// A pending response. Blocks on [`Ticket::wait`]; dropping it abandons the
/// request (the solve still completes and lands in the cache).
#[derive(Debug)]
pub struct Ticket {
    rx: Receiver<Reply>,
}

impl Ticket {
    /// Blocks until the request is served or fails.
    pub fn wait(self) -> Result<ServedSchedule, ServiceError> {
        match self.rx.recv() {
            Ok(Ok((entry, cache, quality))) => Ok(ServedSchedule {
                entry,
                cache,
                quality,
            }),
            Ok(Err(e)) => Err(e),
            // The service dropped the sender without replying: shutdown.
            Err(_) => Err(ServiceError::ShuttingDown),
        }
    }
}

/// One queued unit of work.
struct Job {
    request: SolveRequest,
    key: RequestKey,
    /// When the request entered the queue — the deadline clock starts here,
    /// so queue wait counts against the budget.
    submitted: Instant,
    /// A background exact re-solve of a degraded entry (no waiters when
    /// enqueued; never re-degrades).
    upgrade: bool,
}

/// All mutable service state behind one mutex. Held only for queue/cache/map
/// bookkeeping — never across a solve.
struct State {
    queue: VecDeque<Job>,
    /// key hash → waiters for the in-flight solve of that key, each with the
    /// cache status its reply should report (`Miss` for the request that
    /// owns the solve, `Coalesced` for the ones that joined it).
    inflight: HashMap<u64, Vec<(Sender<Reply>, CacheStatus)>>,
    cache: ScheduleCache,
    basis_book: BasisBook,
    /// Names of the worker threads currently inside a solve.
    active: Vec<String>,
    stats: ServiceStats,
    shutdown: bool,
}

impl State {
    /// Answers `request` without a solve of its own when it can: from an
    /// in-memory entry — an exact one, or a degraded one for a caller with a
    /// deadline (a patient caller re-solves for the exact answer, coalescing
    /// onto the background upgrade if one is in flight) — or by joining the
    /// identical solve already running or queued. Hands `tx` back when
    /// neither applies.
    fn serve_or_join(
        &mut self,
        key: RequestKey,
        request: &SolveRequest,
        tx: Sender<Reply>,
    ) -> Option<Sender<Reply>> {
        if let Some(entry) = self.cache.get(key.hash) {
            if entry.quality == Quality::Exact || request.deadline.is_some() {
                self.stats.hits += 1;
                if entry.quality != Quality::Exact {
                    self.stats.degraded += 1;
                }
                self.stats.cached_entries = self.cache.len() as u64;
                let quality = entry.quality;
                let _ = tx.send(Ok((entry, CacheStatus::Hit, quality)));
                return None;
            }
        }
        if let Some(waiters) = self.inflight.get_mut(&key.hash) {
            waiters.push((tx, CacheStatus::Coalesced));
            self.stats.coalesced += 1;
            return None;
        }
        Some(tx)
    }
}

struct Inner {
    state: Mutex<State>,
    work: Condvar,
    disk: Option<DiskStore>,
    fault: Arc<FaultPlan>,
    background_upgrade: bool,
}

/// The schedule service: submit [`SolveRequest`]s, receive validated,
/// cache-deduplicated schedules.
pub struct ScheduleService {
    inner: Arc<Inner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl ScheduleService {
    /// Starts a service (spawning its worker threads).
    pub fn start(config: ServiceConfig) -> std::io::Result<ScheduleService> {
        let fault = Arc::new(match &config.fault_plan {
            Some(spec) => FaultPlan::parse(spec)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?,
            None => FaultPlan::from_env(),
        });
        let disk = match &config.disk_dir {
            Some(dir) => Some(DiskStore::open(dir)?.with_fault_plan(Arc::clone(&fault))),
            None => None,
        };
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                inflight: HashMap::new(),
                cache: ScheduleCache::new(config.cache_capacity),
                basis_book: BasisBook::new(4 * config.cache_capacity.max(1)),
                active: Vec::new(),
                stats: ServiceStats::default(),
                shutdown: false,
            }),
            work: Condvar::new(),
            disk,
            fault,
            background_upgrade: config.background_upgrade,
        });
        let workers = (0..config.workers.max(1))
            .map(|i| spawn_worker(Arc::clone(&inner), format!("teccl-worker-{i}")))
            .collect();
        Ok(ScheduleService {
            inner,
            workers: Mutex::new(workers),
        })
    }

    /// The fault-injection plan this service runs under (inert by default).
    pub fn fault_plan(&self) -> &Arc<FaultPlan> {
        &self.inner.fault
    }

    /// Respawns any worker thread that has died (a panic that escaped the
    /// solve guard, e.g. in the publish path). Called on every submit so a
    /// dead worker costs at most one queued request's latency.
    fn ensure_workers(&self) {
        let mut workers = lock_recover(&self.workers, LockRank::Workers);
        if workers.iter().all(|w| !w.is_finished()) {
            return;
        }
        for slot in workers.iter_mut() {
            if !slot.is_finished() {
                continue;
            }
            let name = {
                let mut st = lock_recover(&self.inner.state, LockRank::State);
                if st.shutdown {
                    return;
                }
                st.stats.worker_respawns += 1;
                format!("teccl-worker-r{}", st.stats.worker_respawns)
            };
            let fresh = spawn_worker(Arc::clone(&self.inner), name);
            let dead = std::mem::replace(slot, fresh);
            let _ = dead.join();
        }
    }

    /// Submits a request; returns immediately with a [`Ticket`].
    pub fn submit(&self, request: SolveRequest) -> Ticket {
        let key = request.key();
        self.submit_keyed(request, key)
    }

    /// [`ScheduleService::submit`] under `key`, which must be
    /// `request.key()`: for a caller that keyed the request already.
    pub(crate) fn submit_keyed(&self, request: SolveRequest, key: RequestKey) -> Ticket {
        self.ensure_workers();
        let (tx, rx) = channel();
        let (disk, tx) = {
            let mut st = lock_recover(&self.inner.state, LockRank::State);
            st.stats.requests += 1;
            if st.shutdown {
                let _ = tx.send(Err(ServiceError::ShuttingDown));
                return Ticket { rx };
            }
            // 1–2. Memory hit or single-flight join, checked before the disk
            //      probe so hits and joiners never pay for IO.
            let Some(tx) = st.serve_or_join(key, &request, tx) else {
                return Ticket { rx };
            };
            // 3. No disk store: this request owns the solve.
            match self.inner.disk.as_ref() {
                Some(d) => (d, tx),
                None => return self.enqueue_miss(st, request, key, tx, rx),
            }
        };
        // 4. Disk probe *outside* the lock — the state mutex is for
        //    queue/cache/map bookkeeping only, and a file read + parse +
        //    validation under it would serialize every hit behind disk IO.
        //    Concurrent identical probes are possible and benign (same
        //    file, same validated content).
        let loaded = disk.load(key, &request);
        let mut st = lock_recover(&self.inner.state, LockRank::State);
        if st.shutdown {
            let _ = tx.send(Err(ServiceError::ShuttingDown));
            return Ticket { rx };
        }
        if let Some((entry, basis)) = loaded {
            // Promote to memory (idempotent if a racing probe got here
            // first) and serve. Disk entries are always exact.
            let entry = Arc::new(entry);
            st.cache.insert(Arc::clone(&entry));
            if let Some(b) = basis {
                st.basis_book.insert(key, b);
            }
            st.stats.disk_hits += 1;
            st.stats.cached_entries = st.cache.len() as u64;
            let quality = entry.quality;
            let _ = tx.send(Ok((entry, CacheStatus::DiskHit, quality)));
            return Ticket { rx };
        }
        // Nothing on disk. The world may have moved while we probed:
        // re-check memory and in-flight before owning the solve.
        let Some(tx) = st.serve_or_join(key, &request, tx) else {
            return Ticket { rx };
        };
        self.enqueue_miss(st, request, key, tx, rx)
    }

    /// Registers `tx` as the owner of a fresh solve and queues the job.
    fn enqueue_miss(
        &self,
        mut st: RankedGuard<'_, State>,
        request: SolveRequest,
        key: RequestKey,
        tx: Sender<Reply>,
        rx: Receiver<Reply>,
    ) -> Ticket {
        st.stats.misses += 1;
        st.inflight.insert(key.hash, vec![(tx, CacheStatus::Miss)]);
        st.queue.push_back(Job {
            request,
            key,
            submitted: Instant::now(),
            upgrade: false,
        });
        drop(st);
        self.inner.work.notify_one();
        Ticket { rx }
    }

    /// Submits a request and blocks for the result.
    pub fn request(&self, request: SolveRequest) -> Result<ServedSchedule, ServiceError> {
        self.submit(request).wait()
    }

    /// A snapshot of the service counters.
    pub fn stats(&self) -> ServiceStats {
        let mut s = {
            let st = lock_recover(&self.inner.state, LockRank::State);
            let mut s = st.stats.clone();
            s.cached_entries = st.cache.len() as u64;
            s.active_solves = st.active.len() as u64;
            s.workers_active = st.active.clone();
            s
        };
        if let Some(store) = &self.inner.disk {
            s.disk_quarantined = store.quarantined();
        }
        s.workers_active.sort();
        s
    }

    /// Clears the in-memory cache (and the on-disk store, if any); returns
    /// how many in-memory entries were dropped. Published warm-start bases
    /// are kept — they are hints, not results, and their book is capped.
    pub fn evict(&self) -> usize {
        let n = lock_recover(&self.inner.state, LockRank::State)
            .cache
            .evict_all();
        if let Some(store) = &self.inner.disk {
            store.evict_all();
        }
        n
    }

    /// Removes a single key from the in-memory cache.
    pub fn evict_key(&self, hash: u64) -> bool {
        lock_recover(&self.inner.state, LockRank::State)
            .cache
            .evict(hash)
    }

    /// Stops accepting work, fails queued-but-unstarted requests, and joins
    /// the workers. Called automatically on drop.
    pub fn shutdown(&self) {
        let orphans: Vec<(Sender<Reply>, CacheStatus)> = {
            let mut st = lock_recover(&self.inner.state, LockRank::State);
            if st.shutdown {
                return;
            }
            st.shutdown = true;
            // Fail whatever is still queued (in-flight solves on workers
            // finish and reply on their own).
            let mut orphans = Vec::new();
            while let Some(job) = st.queue.pop_front() {
                if let Some(ws) = st.inflight.remove(&job.key.hash) {
                    orphans.extend(ws);
                }
            }
            orphans
        };
        for (tx, _) in orphans {
            let _ = tx.send(Err(ServiceError::ShuttingDown));
        }
        self.inner.work.notify_all();
        let mut workers = lock_recover(&self.workers, LockRank::Workers);
        for w in workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for ScheduleService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// What a finished unit of work produced: the entry to serve, the basis to
/// publish, the simplex iterations spent, and the quality to report.
type JobResult = Result<(Arc<CacheEntry>, Option<SimplexBasis>, usize, Quality), ServiceError>;

/// Why a solve attempt produced nothing servable on its own.
enum SolveFail {
    /// The budget ran out with no validated incumbent — descend the ladder
    /// (stale entry, then baseline).
    Degrade(String),
    /// A real failure; no fallback would make it right.
    Fatal(ServiceError),
}

/// Worker: pop a job, solve it (outside the lock, panic-contained, under the
/// request's deadline budget), walk the degradation ladder if the budget ran
/// out, validate, cache, publish the basis, fan the result out to every
/// waiter, and enqueue a background exact upgrade for degraded answers.
fn worker_loop(inner: &Inner) {
    let worker = std::thread::current()
        .name()
        .unwrap_or("teccl-worker")
        .to_string();
    loop {
        let (job, hint) = {
            let mut st = lock_recover(&inner.state, LockRank::State);
            let job = loop {
                if let Some(job) = st.queue.pop_front() {
                    break job;
                }
                if st.shutdown {
                    return;
                }
                st = wait_recover(&inner.work, st);
            };
            let hint = st.basis_book.warm_hint(job.key);
            if hint.is_some() {
                st.stats.hinted_solves += 1;
            }
            st.active.push(worker.clone());
            (job, hint)
        };

        let key = job.key;
        // The deadline clock started at submission; whatever queue wait ate
        // is gone from the budget.
        let budget = job
            .request
            .deadline
            .map(|d| SolveBudget::with_deadline(d.saturating_sub(job.submitted.elapsed())));
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            solve_job(&job, hint.as_ref(), budget.as_ref(), &inner.fault)
        }));
        // The worker leaves the active set however the solve ended, a
        // contained panic included.
        lock_recover(&inner.state, LockRank::State)
            .active
            .retain(|w| *w != worker);

        let panicked = attempt.is_err();
        let result: JobResult = match attempt {
            Ok(Ok(solved)) => Ok(solved),
            Ok(Err(SolveFail::Fatal(e))) => Err(e),
            Ok(Err(SolveFail::Degrade(reason))) => degrade(inner, &job, &reason),
            // `&*`: downcast the payload itself, not the box around it.
            Err(payload) => Err(ServiceError::WorkerPanicked(panic_message(&*payload))),
        };

        // Publish and fan out.
        let (waiters, to_disk, upgrade_queued) = {
            let mut st = lock_recover(&inner.state, LockRank::State);
            let waiters = st.inflight.remove(&key.hash).unwrap_or_default();
            let mut to_disk = None;
            let mut upgrade_queued = false;
            match &result {
                Ok((entry, basis, stats_delta, quality)) => {
                    // A stale answer is a neighbouring key's entry — it is
                    // already cached under its own hash, and caching it under
                    // ours would mislabel the cache.
                    if *quality != Quality::Stale {
                        st.cache.insert(Arc::clone(entry));
                    }
                    if let Some(b) = basis {
                        st.basis_book.insert(key, b.clone());
                    }
                    if *quality <= Quality::Incumbent {
                        st.stats.solves += 1;
                        st.stats.solve_time_s += entry.stats.solve_time.as_secs_f64();
                        st.stats.bound_simplex_iterations += entry.stats.bound_iterations as u64;
                    }
                    st.stats.solve_simplex_iterations += *stats_delta as u64;
                    if *quality != Quality::Exact {
                        st.stats.degraded += waiters.len() as u64;
                        // Keep working toward the exact answer: re-enqueue the
                        // request deadline-free with no waiters. A later
                        // identical request coalesces onto it instead of
                        // re-triggering a solve.
                        if inner.background_upgrade && !job.upgrade && !st.shutdown {
                            let mut request = job.request.clone();
                            request.deadline = None;
                            st.inflight.entry(key.hash).or_default();
                            st.queue.push_back(Job {
                                request,
                                key,
                                submitted: Instant::now(),
                                upgrade: true,
                            });
                            upgrade_queued = true;
                        }
                    } else if job.upgrade {
                        st.stats.background_upgrades += 1;
                    }
                    st.stats.cached_entries = st.cache.len() as u64;
                    if inner.disk.is_some() && *quality == Quality::Exact {
                        to_disk = Some((Arc::clone(entry), basis.clone()));
                    }
                }
                Err(e) => {
                    st.stats.solve_errors += 1;
                    if matches!(e, ServiceError::WorkerPanicked(_)) {
                        st.stats.worker_panics += 1;
                    }
                }
            }
            debug_assert!(
                !panicked || result.is_err(),
                "a panic must surface as an error"
            );
            (waiters, to_disk, upgrade_queued)
        };
        if upgrade_queued {
            inner.work.notify_one();
        }
        // The waiters are answered before the write-through save, which
        // runs outside the lock (the in-memory entry is already visible, so
        // a racing identical request hits memory meanwhile). The store's
        // evict count is read before any answer leaves: an evict sent on an
        // answer then leaves no file of this save behind.
        let save = inner
            .disk
            .as_ref()
            .zip(to_disk)
            .map(|(store, entry)| (store, store.evictions(), entry));
        for (tx, status) in waiters {
            let reply = match &result {
                Ok((entry, _, _, quality)) => Ok((Arc::clone(entry), status, *quality)),
                Err(e) => Err(e.clone()),
            };
            let _ = tx.send(reply);
        }
        if let Some((store, evictions, (entry, basis))) = save {
            let _ = store.save_since(evictions, &entry, basis.as_ref());
        }
    }
}

/// Spawns one worker thread.
fn spawn_worker(inner: Arc<Inner>, name: String) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(name)
        .spawn(move || worker_loop(&inner))
        // lint:allow(panic-hygiene): OS thread-spawn failure at startup/respawn is unrecoverable
        .expect("spawn worker")
}

/// Renders a panic payload into something a waiter can read.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The lower rungs of the ladder, in order: a validated same-family cache
/// entry (identical demand, neighbouring chunk size), else an instant
/// baseline schedule. Neither touches the simplex.
fn degrade(inner: &Inner, job: &Job, reason: &str) -> JobResult {
    let stale = lock_recover(&inner.state, LockRank::State)
        .cache
        .find_family(job.key.family, job.key.hash);
    if let Some(entry) = stale {
        return Ok((entry, None, 0, Quality::Stale));
    }
    build_baseline(&job.request, job.key, reason).map(|e| (e, None, 0, Quality::Baseline))
}

/// Builds, validates and simulates a solver-free baseline schedule: the NCCL
/// ring for ALLGATHER when the GPUs form a usable ring, shortest-path unicast
/// (fully general) otherwise.
fn build_baseline(
    request: &SolveRequest,
    key: RequestKey,
    reason: &str,
) -> Result<Arc<CacheEntry>, ServiceError> {
    let started = Instant::now();
    let demand = request.demand();
    let chunk_bytes = request.chunk_bytes();
    let topo = &request.topology;
    let schedule = match request.collective {
        CollectiveKind::AllGather => {
            let gpus: Vec<NodeId> = topo.gpus().collect();
            ring_all_gather(topo, &gpus, request.chunks, chunk_bytes)
                .unwrap_or_else(|| shortest_path_schedule(topo, &demand, chunk_bytes))
        }
        _ => shortest_path_schedule(topo, &demand, chunk_bytes),
    };
    let report = validate(topo, &demand, &schedule, false);
    if !report.is_valid() {
        return Err(ServiceError::Solve(format!(
            "{reason}; baseline fallback is invalid too: {:?}",
            report.errors
        )));
    }
    let sim = simulate(topo, &demand, &schedule)
        .map_err(|e| ServiceError::Solve(format!("{reason}; baseline failed simulation: {e}")))?;
    let metrics = CollectiveMetrics {
        solver: schedule.name.clone(),
        epoch_duration: schedule.epoch_duration,
        transfer_time: sim.transfer_time,
        solver_time: started.elapsed().as_secs_f64(),
        output_buffer_bytes: request.output_buffer,
        bytes_on_wire: sim.bytes_on_wire,
    };
    Ok(Arc::new(CacheEntry {
        key,
        output: ScheduleOutput { schedule, metrics },
        topology_used: topo.clone(),
        chunk_bytes,
        stats: SolveStats::default(),
        quality: Quality::Baseline,
    }))
}

/// The published warm-start bases, one per `(family, size bucket)`. Clients
/// choose the families, so the book is capped: past `cap` bases the oldest
/// insertion is dropped first. Re-publishing a key replaces its basis and
/// keeps its place in the order.
struct BasisBook {
    bases: HashMap<(u64, i64), SimplexBasis>,
    order: VecDeque<(u64, i64)>,
    cap: usize,
}

impl BasisBook {
    fn new(cap: usize) -> Self {
        Self {
            bases: HashMap::new(),
            order: VecDeque::new(),
            cap,
        }
    }

    /// Publishes `basis` as the latest one of `key`'s family and bucket.
    fn insert(&mut self, key: RequestKey, basis: SimplexBasis) {
        let slot = (key.family, key.size_bucket);
        if self.bases.insert(slot, basis).is_none() {
            self.order.push_back(slot);
            if self.order.len() > self.cap {
                if let Some(oldest) = self.order.pop_front() {
                    self.bases.remove(&oldest);
                }
            }
        }
    }

    /// Picks a warm-start basis for `key`: its own bucket's, else the nearest
    /// neighbouring bucket's within two half-octaves (−1, +1, −2, +2) —
    /// beyond that the epoch count has almost certainly changed and the basis
    /// would only buy a failed warm attempt.
    fn warm_hint(&self, key: RequestKey) -> Option<SimplexBasis> {
        [0i64, -1, 1, -2, 2]
            .iter()
            .find_map(|delta| self.bases.get(&(key.family, key.size_bucket + delta)))
            .cloned()
    }
}

/// Runs one solve end to end: fault hooks, budget, dispatch, validate,
/// simulate, package. Returns the entry, the basis to publish, the simplex
/// iterations spent, and the achieved quality (exact, or incumbent when the
/// budget stopped the solver at its best feasible point).
fn solve_job(
    job: &Job,
    hint: Option<&SimplexBasis>,
    budget: Option<&SolveBudget>,
    fault: &FaultPlan,
) -> Result<(Arc<CacheEntry>, Option<SimplexBasis>, usize, Quality), SolveFail> {
    if let Some(delay) = fault.slow_solve_delay() {
        std::thread::sleep(delay);
    }
    if fault.should_panic_in_solve() {
        panic!("injected fault: panic-in-solve");
    }
    // A deadline that expired in the queue (or during an injected stall)
    // goes straight to the fallback ladder — zero simplex pivots.
    if let Some(cause) = budget.and_then(SolveBudget::exceeded) {
        return Err(SolveFail::Degrade(format!(
            "budget exhausted before the solve started: {cause}"
        )));
    }
    let req = &job.request;
    let demand = req.demand();
    let chunk_bytes = req.chunk_bytes();
    let mut solver = TeCcl::new(Topology::clone(&req.topology), req.config.clone());
    if let Some(b) = budget {
        solver = solver.with_budget(b.clone());
    }
    let solve_started = Instant::now();
    let outcome = match solver.solve(&demand, chunk_bytes, req.method, hint) {
        Ok(o) => o,
        // Budget ran out with nothing feasible in hand: not a solver bug,
        // descend the ladder.
        Err(TeCclError::Budget(cause)) => {
            return Err(SolveFail::Degrade(format!(
                "solve budget exhausted: {cause}"
            )))
        }
        Err(e) => return Err(SolveFail::Fatal(ServiceError::Solve(e.to_string()))),
    };
    let solver_time = solve_started.elapsed().as_secs_f64();
    let quality = if outcome.stats.budget_stop.is_some() {
        Quality::Incumbent
    } else {
        Quality::Exact
    };

    let report = validate(&outcome.topology_used, &demand, &outcome.schedule, false);
    if !report.is_valid() {
        // An invalid *exact* schedule is a solver bug worth surfacing; an
        // invalid incumbent just means this rung of the ladder is empty.
        if quality == Quality::Incumbent {
            return Err(SolveFail::Degrade(format!(
                "deadline-stopped incumbent failed validation: {:?}",
                report.errors
            )));
        }
        return Err(SolveFail::Fatal(ServiceError::InvalidSchedule(format!(
            "{:?}",
            report.errors
        ))));
    }
    let sim = match simulate(&outcome.topology_used, &demand, &outcome.schedule) {
        Ok(sim) => sim,
        Err(e) if quality == Quality::Incumbent => {
            return Err(SolveFail::Degrade(format!(
                "deadline-stopped incumbent failed simulation: {e}"
            )))
        }
        Err(e) => {
            return Err(SolveFail::Fatal(ServiceError::InvalidSchedule(
                e.to_string(),
            )))
        }
    };

    let metrics = CollectiveMetrics {
        solver: outcome.schedule.name.clone(),
        epoch_duration: outcome.epoch_duration,
        transfer_time: sim.transfer_time,
        solver_time,
        output_buffer_bytes: req.output_buffer,
        bytes_on_wire: sim.bytes_on_wire,
    };
    let simplex_iterations = outcome.stats.simplex_iterations;
    let entry = Arc::new(CacheEntry {
        key: job.key,
        output: ScheduleOutput {
            schedule: outcome.schedule,
            metrics,
        },
        topology_used: Arc::new(outcome.topology_used),
        chunk_bytes,
        stats: outcome.stats,
        quality,
    });
    Ok((entry, outcome.basis, simplex_iterations, quality))
}

#[cfg(test)]
mod tests {
    use super::*;
    use teccl_collective::CollectiveKind;
    use teccl_core::RequestMethod;
    use teccl_topology::{line_topology, ring_topology};

    fn tiny_request() -> SolveRequest {
        SolveRequest::new(
            ring_topology(3, 1e9, 0.0),
            CollectiveKind::AllGather,
            1,
            64.0 * 1024.0,
        )
    }

    /// A config that ignores any ambient `TECCL_FAULT_PLAN` so unit tests
    /// stay deterministic under a chaos-enabled environment.
    fn quiet_config() -> ServiceConfig {
        ServiceConfig {
            fault_plan: Some(String::new()),
            ..Default::default()
        }
    }

    #[test]
    fn hit_returns_validated_schedule_without_solving() {
        let svc = ScheduleService::start(quiet_config()).unwrap();
        let first = svc.request(tiny_request()).unwrap();
        assert_eq!(first.cache, CacheStatus::Miss);
        assert_eq!(first.quality, Quality::Exact);
        let after_miss = svc.stats();
        assert_eq!(after_miss.solves, 1);
        assert!(after_miss.solve_simplex_iterations > 0);
        assert!(after_miss.bound_simplex_iterations > 0);

        let second = svc.request(tiny_request()).unwrap();
        assert_eq!(second.cache, CacheStatus::Hit);
        assert!(Arc::ptr_eq(&first.entry, &second.entry));
        // The acceptance gate: the hit performed no solver work at all.
        let after_hit = svc.stats();
        assert_eq!(after_hit.solves, 1);
        assert_eq!(
            after_hit.solve_simplex_iterations,
            after_miss.solve_simplex_iterations
        );
        assert_eq!(
            after_hit.bound_simplex_iterations,
            after_miss.bound_simplex_iterations
        );
        // And the served schedule is valid for the request.
        let req = tiny_request();
        let report = validate(
            &second.entry.topology_used,
            &req.demand(),
            &second.entry.output.schedule,
            false,
        );
        assert!(report.is_valid(), "{:?}", report.errors);
    }

    #[test]
    fn solve_error_propagates_to_all_waiters() {
        // max_epochs = 1 cannot fail a MILP (it is raised to the proven
        // horizon bound), so use an A* request that cannot converge instead:
        // zero rounds allowed.
        let mut req = tiny_request().with_method(RequestMethod::AStar);
        req.config.astar_max_rounds = 0;
        // That solve errors within microseconds — before the second submit,
        // unless it is held: the slow-solve fault keeps the first ticket in
        // flight while the second one joins it.
        let svc = ScheduleService::start(ServiceConfig {
            fault_plan: Some("slow-solve=250:1".to_string()),
            ..Default::default()
        })
        .unwrap();
        let t1 = svc.submit(req.clone());
        let t2 = svc.submit(req);
        let (r1, r2) = (t1.wait(), t2.wait());
        assert!(r1.is_err() && r2.is_err());
        assert_eq!(svc.stats().solve_errors, 1, "single-flight even on errors");
    }

    #[test]
    fn evict_key_forces_resolve_with_published_basis() {
        let svc = ScheduleService::start(quiet_config()).unwrap();
        let req = SolveRequest::new(
            line_topology(3, 1e9, 0.0),
            CollectiveKind::AllToAll,
            1,
            64.0 * 1024.0,
        );
        let first = svc.request(req.clone()).unwrap();
        assert_eq!(first.cache, CacheStatus::Miss);
        assert!(svc.evict_key(req.key().hash));
        let second = svc.request(req.clone()).unwrap();
        assert_eq!(second.cache, CacheStatus::Miss);
        let stats = svc.stats();
        assert_eq!(stats.solves, 2);
        // The re-solve was warm-hinted from the published basis of the first,
        // and the identical shape means the warm start actually engaged.
        assert_eq!(stats.hinted_solves, 1);
        assert!(
            second.entry.stats.warm_starts > 0,
            "identical-shape re-solve must warm-start (stats: {:?})",
            second.entry.stats
        );
    }

    /// An A* miss takes no basis and publishes none: solved, then re-solved
    /// across ten evictions, the key answers with the cold solve's schedule
    /// every time and no solve is hinted.
    #[test]
    fn astar_misses_are_never_hinted() {
        let svc = ScheduleService::start(quiet_config()).unwrap();
        let req = SolveRequest::new(
            teccl_topology::internal1(2),
            CollectiveKind::AllGather,
            1,
            16.0 * 1024.0 * 1024.0,
        )
        .with_method(RequestMethod::AStar);
        let cold = TeCcl::new((*req.topology).clone(), req.config.clone())
            .solve(&req.demand(), req.chunk_bytes(), RequestMethod::AStar, None)
            .unwrap();
        assert!(cold.basis.is_none(), "A* publishes no basis");
        for resolve in 0..=10 {
            let reply = svc.request(req.clone()).unwrap();
            assert_eq!(reply.cache, CacheStatus::Miss);
            let schedule = &reply.entry.output.schedule;
            assert_eq!(schedule.sends, cold.schedule.sends, "re-solve {resolve}");
            assert_eq!(schedule.num_epochs, cold.schedule.num_epochs);
            assert!(svc.evict_key(req.key().hash));
        }
        let stats = svc.stats();
        assert_eq!((stats.solves, stats.hinted_solves), (11, 0));
    }

    #[test]
    fn disk_store_survives_service_restart() {
        let dir = std::env::temp_dir().join(format!("teccl-svc-disk-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = || ServiceConfig {
            workers: 1,
            cache_capacity: 16,
            disk_dir: Some(dir.clone()),
            ..Default::default()
        };
        let first = {
            let svc = ScheduleService::start(cfg()).unwrap();
            let served = svc.request(tiny_request()).unwrap();
            assert_eq!(served.cache, CacheStatus::Miss);
            served.entry.output.schedule.sorted_sends()
        }; // service dropped: memory cache gone, disk remains
        let svc = ScheduleService::start(cfg()).unwrap();
        let served = svc.request(tiny_request()).unwrap();
        assert_eq!(served.cache, CacheStatus::DiskHit);
        assert_eq!(served.entry.output.schedule.sorted_sends(), first);
        let stats = svc.stats();
        assert_eq!(stats.solves, 0, "disk hits must not invoke the solver");
        assert_eq!(stats.disk_hits, 1);
        // And the next ask is an ordinary memory hit.
        assert_eq!(svc.request(tiny_request()).unwrap().cache, CacheStatus::Hit);
        drop(svc);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shutdown_fails_queued_requests() {
        let svc = ScheduleService::start(ServiceConfig {
            workers: 1,
            ..Default::default()
        })
        .unwrap();
        svc.shutdown();
        let t = svc.submit(tiny_request());
        assert!(matches!(t.wait(), Err(ServiceError::ShuttingDown)));
    }

    #[test]
    fn panicked_solve_leaves_no_active_worker() {
        let svc = ScheduleService::start(ServiceConfig {
            fault_plan: Some("panic-in-solve=1".to_string()),
            ..Default::default()
        })
        .unwrap();
        let r = svc.request(tiny_request());
        assert!(matches!(r, Err(ServiceError::WorkerPanicked(_))), "{r:?}");
        let stats = svc.stats();
        assert_eq!(stats.worker_panics, 1);
        assert_eq!(stats.active_solves, 0);
        assert!(
            stats.workers_active.is_empty(),
            "{:?}",
            stats.workers_active
        );
        // The same worker pool keeps serving.
        assert_eq!(
            svc.request(tiny_request()).unwrap().cache,
            CacheStatus::Miss
        );
        assert!(svc.stats().workers_active.is_empty());
    }

    /// A request that still asks for `threads: 4` (an older client) is solved
    /// on one worker like any other, hands its worker slot back, and shares
    /// its cache entry with the plain request.
    #[test]
    fn threaded_request_solves_and_returns_its_grant() {
        let svc = ScheduleService::start(quiet_config()).unwrap();
        let mut wire = tiny_request().to_json_value();
        if let Value::Obj(pairs) = &mut wire {
            for (k, v) in pairs.iter_mut() {
                if let (true, Value::Obj(config)) = (k == "config", v) {
                    config.push(("threads".to_string(), Value::from(4usize)));
                }
            }
        }
        assert!(wire.to_json().contains("\"threads\":4"));
        let req = teccl_util::json::decode_text(&wire.to_json(), SolveRequest::decode).unwrap();
        let served = svc.request(req).unwrap();
        assert_eq!(served.cache, CacheStatus::Miss);
        assert_eq!(served.quality, Quality::Exact);
        let stats = svc.stats();
        assert_eq!(stats.solves, 1);
        assert_eq!(stats.active_solves, 0);
        assert!(
            stats.workers_active.is_empty(),
            "the worker slot must be returned: {:?}",
            stats.workers_active
        );
        let again = svc.request(tiny_request()).unwrap();
        assert_eq!(again.cache, CacheStatus::Hit);
    }

    #[test]
    fn basis_book_drops_the_oldest_past_its_cap() {
        let cap = 4;
        let mut book = BasisBook::new(cap);
        let key = |family: u64| RequestKey {
            family,
            ..tiny_request().key()
        };
        let basis = |tag: usize| SimplexBasis {
            basic: vec![tag],
            status: Vec::new(),
            factors: None,
        };
        for family in 0..cap as u64 + 3 {
            book.insert(key(family), basis(family as usize));
        }
        assert_eq!(book.bases.len(), cap);
        assert_eq!(book.order.len(), cap);
        for family in 0..3 {
            assert!(book.warm_hint(key(family)).is_none(), "family {family}");
        }
        for family in 3..cap as u64 + 3 {
            assert_eq!(book.warm_hint(key(family)), Some(basis(family as usize)));
        }
        // Re-publishing a key replaces its basis without growing the book.
        book.insert(key(3), basis(99));
        assert_eq!(book.bases.len(), cap);
        assert_eq!(book.warm_hint(key(3)), Some(basis(99)));
    }

    #[test]
    fn stats_gauges_round_trip_through_json() {
        let stats = ServiceStats {
            requests: 7,
            active_solves: 2,
            workers_active: vec!["teccl-worker-0".into(), "teccl-worker-1".into()],
            ..Default::default()
        };
        let back = ServiceStats::from_json_value(&stats.to_json_value());
        assert_eq!(back, stats);
    }
}
