//! The traced side of a run (`--trace 1`): replay the workload's requests
//! in-process and single-threaded through a mirror of the service's request
//! path, one span per layer, and reduce spans, counters and a short wire
//! run of the same requests to the per-layer metrics.

use std::sync::Arc;
use std::time::Instant;

use teccl_baselines::{ring_all_gather, shortest_path_schedule};
use teccl_collective::CollectiveKind;
use teccl_lp::{LuFactors, SimplexBasis, SolveStats, SparseVec};
use teccl_schedule::{simulate, validate, CollectiveMetrics, ScheduleOutput};
use teccl_service::protocol::{parse_request, Request};
use teccl_service::{
    CacheEntry, CacheStatus, DiskStore, Quality, ScheduleCache, ServiceConfig, SolveRequest,
};
use teccl_topology::NodeId;
use teccl_util::json::Value;
use teccl_util::Rng64;

use crate::run::{Metric, Plan, Sample, WireRun};
use crate::stats::{self, P50, P99};
use crate::trace::{Profile, Tracer};
use crate::walk::{serialize, SolvedLp, Walker};
use crate::workloads::{self, HotStream, Target, Workload, CHURN_CACHE_CAPACITY};

/// Service workloads replay this many entries of their stream.
pub const REPLAY_ENTRIES: usize = 2_000;
/// Right-hand sides per `lp.basis` FTRAN / BTRAN measurement.
const BASIS_SOLVES: usize = 1_000;

/// How the mirror answered a replayed request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    /// Solved by the hand walk (cold: the mirror keeps no basis book).
    Miss,
    Hit,
    DiskHit,
    /// Deadline on a key that is not cached: stale neighbour or baseline.
    Degraded,
}

struct Replayed {
    class: Class,
    key: usize,
    wall_s: f64,
}

/// The service's memory cache and disk store, fed the same stream.
struct Mirror {
    cache: ScheduleCache,
    disk: Option<DiskStore>,
    gets: usize,
    hits: usize,
    disk_hits: usize,
    evictions: usize,
    entry_bytes: Vec<f64>,
    /// Latest exact entry per key, for the side measurements.
    entries: Vec<Option<Arc<CacheEntry>>>,
    replies: Vec<Option<String>>,
}

impl Mirror {
    fn insert(&mut self, tr: &mut Tracer, entry: &Arc<CacheEntry>) {
        let before = self.cache.len();
        tr.span("service.cache.insert", |_| {
            self.cache.insert(Arc::clone(entry))
        });
        // One more entry went in than the length grew by: the LRU evicted.
        self.evictions += usize::from(self.cache.len() == before && before > 0);
    }

    fn save(&mut self, tr: &mut Tracer, entry: &CacheEntry, basis: Option<&SimplexBasis>) {
        if let Some(disk) = &self.disk {
            let saved = tr.span("service.disk.save", |_| disk.save(entry, basis));
            if saved.is_ok() {
                if let Ok(meta) = std::fs::metadata(disk.path_for(entry.key)) {
                    self.entry_bytes.push(meta.len() as f64);
                }
            }
        }
    }
}

/// `service::build_baseline`: the solver-free rung of the ladder.
fn build_baseline(request: &SolveRequest) -> Result<CacheEntry, String> {
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
        return Err(format!("baseline invalid: {:?}", report.errors));
    }
    let sim = simulate(topo, &demand, &schedule).map_err(|e| e.to_string())?;
    Ok(CacheEntry {
        key: request.key(),
        output: ScheduleOutput {
            metrics: CollectiveMetrics {
                solver: schedule.name.clone(),
                epoch_duration: schedule.epoch_duration,
                transfer_time: sim.transfer_time,
                solver_time: started.elapsed().as_secs_f64(),
                output_buffer_bytes: request.output_buffer,
                bytes_on_wire: sim.bytes_on_wire,
            },
            schedule,
        },
        topology_used: topo.clone(),
        chunk_bytes,
        stats: SolveStats::default(),
        quality: Quality::Baseline,
    })
}

/// One request through the mirror of `server::handle_connection` +
/// `ScheduleService::submit` + the worker: parse, key, memory, disk, then
/// solve (or degrade), publish, serialise.
fn replay_one(
    tr: &mut Tracer,
    mirror: &mut Mirror,
    walker: &mut Walker,
    targets: &[Target],
    key_index: usize,
    deadline: bool,
) -> Result<Replayed, String> {
    let target = &targets[key_index];
    let line = if deadline {
        &target.deadline_line
    } else {
        &target.line
    };
    let (class, wall_s) = tr.request(|tr| -> Result<Class, String> {
        let request = match tr.span("service.protocol.parse", |_| parse_request(line)) {
            Ok(Request::Solve(request)) => *request,
            other => return Err(format!("not a solve request: {other:?}")),
        };
        let key = tr.span("service.key", |_| request.key());
        mirror.gets += 1;
        let cached = tr
            .span("service.cache.get", |_| mirror.cache.get(key.hash))
            .filter(|e| e.quality == Quality::Exact || request.deadline.is_some());
        if let Some(entry) = cached {
            mirror.hits += 1;
            mirror.replies[key_index] = Some(serialize(tr, &entry, CacheStatus::Hit));
            return Ok(Class::Hit);
        }
        if let Some(disk) = mirror.disk.clone() {
            if let Some((entry, _basis)) =
                tr.span("service.disk.load", |_| disk.load(key, &request))
            {
                mirror.disk_hits += 1;
                let entry = Arc::new(entry);
                mirror.insert(tr, &entry);
                mirror.replies[key_index] = Some(serialize(tr, &entry, CacheStatus::DiskHit));
                return Ok(Class::DiskHit);
            }
        }
        if request.deadline.is_some() {
            // A 1 ms deadline never outlives a cold solve of these keys.
            let stale = mirror.cache.find_family(key.family, key.hash);
            let entry = match stale {
                Some(entry) => entry,
                None => {
                    let entry =
                        Arc::new(tr.span("baselines.fallback", |_| build_baseline(&request))?);
                    mirror.insert(tr, &entry);
                    entry
                }
            };
            serialize(tr, &entry, CacheStatus::Miss);
            return Ok(Class::Degraded);
        }
        let (entry, basis) = walker.solve(tr, &request)?;
        let entry = Arc::new(entry);
        mirror.insert(tr, &entry);
        mirror.save(tr, &entry, basis.as_ref());
        mirror.replies[key_index] = Some(serialize(tr, &entry, CacheStatus::Miss));
        mirror.entries[key_index] = Some(entry);
        Ok(Class::Miss)
    });
    let class = class?;
    if class == Class::Degraded {
        // The background upgrade the service queues: a patient re-solve.
        let (upgraded, _) = tr.request(|tr| -> Result<(), String> {
            let (entry, basis) = walker.solve(tr, &target.request)?;
            let entry = Arc::new(entry);
            mirror.insert(tr, &entry);
            mirror.save(tr, &entry, basis.as_ref());
            mirror.entries[key_index] = Some(entry);
            Ok(())
        });
        upgraded?;
    }
    Ok(Replayed {
        class,
        key: key_index,
        wall_s,
    })
}

/// The entries a traced run replays: `(key, deadline, evict first)`.
fn replay_stream(plan: &Plan, n_keys: usize) -> Vec<(usize, bool, bool)> {
    let entries = if plan.quick { 200 } else { REPLAY_ENTRIES };
    match plan.workload {
        Workload::AlltoallLp | Workload::AllgatherCopy => {
            (0..n_keys).map(|key| (key, false, false)).collect()
        }
        Workload::ServiceHot => HotStream::new(plan.seed, n_keys)
            .take(entries)
            .map(|key| (key, false, false))
            .collect(),
        Workload::ServiceChurn => (1..)
            .flat_map(|epoch| {
                workloads::churn_epoch(plan.seed, epoch, n_keys, plan.quick)
                    .into_iter()
                    .enumerate()
                    .map(|(i, (key, deadline))| (key, deadline, i == 0))
            })
            .take(entries)
            .collect(),
    }
}

/// Median seconds of `f` over `reps` calls.
fn median_time<T>(reps: usize, mut f: impl FnMut(usize) -> T) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|i| {
            let started = Instant::now();
            std::hint::black_box(f(i));
            started.elapsed().as_secs_f64()
        })
        .collect();
    stats::median(&times)
}

/// `util.json` over the recorded request / reply corpus: `(parse, write)` MB/s.
fn json_throughput(corpus: &[&str]) -> (f64, f64) {
    let bytes: usize = corpus.iter().map(|l| l.len()).sum();
    if bytes == 0 {
        return (0.0, 0.0);
    }
    // Enough passes for ~0.1 s at 100 MB/s.
    let passes = (10_000_000 / bytes).clamp(1, 200);
    let started = Instant::now();
    let mut parsed = Vec::new();
    for _ in 0..passes {
        parsed = corpus
            .iter()
            .filter_map(|l| Value::parse(l.trim()).ok())
            .collect();
    }
    let parse_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    for _ in 0..passes {
        for v in &parsed {
            std::hint::black_box(v.to_json());
        }
    }
    let write_s = started.elapsed().as_secs_f64();
    let mb = (bytes * passes) as f64 / 1e6;
    (mb / parse_s, mb / write_s)
}

struct BasisTimes {
    factorize_ms: f64,
    ftran_us: f64,
    btran_us: f64,
    fill_ratio: f64,
}

/// `LuFactors` on the optimal basis of the largest LP the walk solved:
/// FTRAN of structural columns and BTRAN of unit vectors, as the simplex
/// issues them, chosen from `--seed`.
fn basis_times(lp: &SolvedLp, seed: u64) -> Option<BasisTimes> {
    let (m, n) = (lp.form.num_rows(), lp.form.num_cols());
    let cols: Vec<SparseVec> = lp
        .basis
        .basic
        .iter()
        .map(|&j| {
            if j < n {
                lp.form.a.col(j).clone()
            } else {
                // A lingering phase-1 artificial: the unit column of its row.
                SparseVec::from_pairs(&[(j - n, 1.0)])
            }
        })
        .collect();
    let basis_nnz: usize = cols.iter().map(SparseVec::nnz).sum();
    let factorize_s = median_time(5, |_| LuFactors::factorize(m, &cols).is_ok());
    let mut lu = LuFactors::factorize(m, &cols).ok()?;
    let mut rng = Rng64::seed_from_u64(seed ^ 0x6c75);
    let picks: Vec<usize> = (0..BASIS_SOLVES)
        .map(|_| rng.gen_range_usize(lp.form.num_structural.max(1)))
        .collect();
    let ftran_s = median_time(BASIS_SOLVES, |i| {
        let mut rhs = lp.form.a.col(picks[i]).to_dense(m);
        lu.ftran(&mut rhs);
        rhs
    });
    let btran_s = median_time(BASIS_SOLVES, |i| {
        let mut c = vec![0.0; m];
        c[picks[i] % m] = 1.0;
        lu.btran(&mut c);
        c
    });
    Some(BasisTimes {
        factorize_ms: factorize_s * 1e3,
        ftran_us: ftran_s * 1e6,
        btran_us: btran_s * 1e6,
        fill_ratio: lu.fill_nnz() as f64 / basis_nnz.max(1) as f64,
    })
}

fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

fn p50(v: &mut [f64]) -> f64 {
    stats::percentile(stats::sorted(v), P50)
}

/// Replays the workload through the mirror and reduces everything to the
/// per-layer metrics. `wire` is a (short) untraced run of the same seed.
pub fn per_layer(
    plan: &Plan,
    targets: &[Target],
    wire: &WireRun,
) -> Result<(Vec<Metric>, Tracer), String> {
    let churn = plan.workload == Workload::ServiceChurn;
    let tmp = plan
        .out_dir
        .join(format!("tmp-{}-mirror", std::process::id()));
    let disk = if churn {
        Some(DiskStore::open(&tmp).map_err(|e| e.to_string())?)
    } else {
        None
    };
    let mut mirror = Mirror {
        cache: ScheduleCache::new(if churn {
            CHURN_CACHE_CAPACITY
        } else {
            ServiceConfig::default().cache_capacity
        }),
        disk,
        gets: 0,
        hits: 0,
        disk_hits: 0,
        evictions: 0,
        entry_bytes: Vec::new(),
        entries: vec![None; targets.len()],
        replies: vec![None; targets.len()],
    };
    let mut walker = Walker::default();
    let mut tr = Tracer::new();
    let mut replayed = Vec::new();
    let outcome = (|| -> Result<(), String> {
        for (key, deadline, evict_first) in replay_stream(plan, targets.len()) {
            if evict_first {
                mirror.cache.evict_all();
                if let Some(disk) = &mirror.disk {
                    disk.evict_all();
                }
            }
            replayed.push(replay_one(
                &mut tr,
                &mut mirror,
                &mut walker,
                targets,
                key,
                deadline,
            )?);
        }
        Ok(())
    })();
    if churn {
        let _ = std::fs::remove_dir_all(&tmp);
    }
    outcome?;

    // --- the wire's view of the same requests --------------------------
    let degraded = |s: &Sample| s.quality != Quality::Exact;
    let mut hits = wire.latencies_where(|s| s.status == CacheStatus::Hit && !degraded(s));
    let hit_p50 = p50(&mut hits);
    let hit_p99 = stats::percentile(&hits, P99);
    let disk_hit_p50 = p50(&mut wire.latencies_where(|s| s.status == CacheStatus::DiskHit));
    let degraded_p50 = p50(&mut wire.latencies_where(degraded));
    // Solver workloads miss cold in every pass; `service_churn` misses are
    // warm-hinted re-solves, its cold ones are the set-up's cold anchors.
    let miss_warm_p50 =
        p50(&mut wire.latencies_where(|s| churn && s.status == CacheStatus::Miss && !degraded(s)));
    let mut cold_latencies: Vec<f64> = wire.cold.iter().flatten().map(|c| c.latency_s).collect();
    let miss_cold_p50 = p50(&mut cold_latencies);

    // Walked misses against the wire's cold answer to the same key.
    let mut seen = vec![false; targets.len()];
    let (mut compared, mut mirrored) = (0usize, 0usize);
    let (mut walked_s, mut wire_cold_s) = (0.0, 0.0);
    let mut overheads = Vec::new();
    for r in replayed.iter().filter(|r| r.class == Class::Miss) {
        let (Some(cold), Some(entry)) = (wire.cold[r.key], &mirror.entries[r.key]) else {
            continue;
        };
        if std::mem::replace(&mut seen[r.key], true) {
            continue;
        }
        compared += 1;
        mirrored += usize::from(
            entry.stats.simplex_iterations == cold.iterations
                && entry.output.metrics.transfer_time == cold.transfer_s,
        );
        walked_s += r.wall_s;
        wire_cold_s += cold.latency_s;
        overheads.push(cold.latency_s - r.wall_s);
    }
    // What the wire would have taken for every replayed request.
    let expected_wire_s: f64 = replayed
        .iter()
        .map(|r| match r.class {
            Class::Miss => wire.cold[r.key].map_or(miss_cold_p50, |c| c.latency_s),
            Class::Hit => hit_p50,
            Class::DiskHit => disk_hit_p50,
            Class::Degraded => degraded_p50,
        })
        .sum();

    // --- side measurements on the recorded corpus ------------------------
    let profile = Profile::new(tr.spans());
    let corpus: Vec<&str> = targets
        .iter()
        .map(|t| t.line.as_str())
        .chain(mirror.replies.iter().flatten().map(String::as_str))
        .collect();
    let (json_parse_mb_s, json_write_mb_s) = json_throughput(&corpus);
    let request_bytes: Vec<f64> = targets.iter().map(|t| t.line.len() as f64).collect();
    let reply_bytes: Vec<f64> = mirror
        .replies
        .iter()
        .flatten()
        .map(|r| r.len() as f64)
        .collect();
    let fingerprint_s = median_time(targets.len() * 8, |i| {
        targets[i % targets.len()].request.topology.fingerprint()
    });
    let entries: Vec<&Arc<CacheEntry>> = mirror.entries.iter().flatten().collect();
    let to_json_s = median_time(entries.len(), |i| entries[i].output.to_json_value());
    let texts: Vec<String> = entries
        .iter()
        .map(|e| e.output.to_json_value().to_json())
        .collect();
    let from_json_s = median_time(texts.len(), |i| {
        ScheduleOutput::from_json_str(&texts[i]).is_ok()
    });
    let fallback_s = median_time(targets.len(), |i| {
        build_baseline(&targets[i].request).is_ok()
    });
    let basis = walker
        .largest_lp
        .as_ref()
        .and_then(|lp| basis_times(lp, plan.seed));
    let inproc_hit_p50 = stats::median(&wire.inproc_hit_s);
    let hit_layers_s: f64 = [
        "service.protocol.parse",
        "service.key",
        "service.cache.get",
        "service.protocol.serialize",
    ]
    .iter()
    .map(|name| profile.median_s(name))
    .sum();

    // --- reduce ------------------------------------------------------------
    let c = &walker.counters;
    let ms = |name: &str| profile.total_s(name) * 1e3;
    let us = |name: &str| profile.median_s(name) * 1e6;
    let simplex_s = profile.total_s("lp.simplex");
    let pipeline_s: f64 = replayed
        .iter()
        .filter(|r| r.class == Class::Miss)
        .map(|r| r.wall_s)
        .sum();
    let all_iterations = c.simplex_iterations + c.milp.simplex_iterations;
    let s0 = &wire.stats_before;
    let s1 = &wire.stats_after;
    let window_requests = s1.requests - s0.requests;
    // Jobs the workers popped: one per miss plus the background upgrades.
    let window_jobs = s1.misses - s0.misses + s1.background_upgrades - s0.background_upgrades;
    let values: Vec<(&str, f64)> = vec![
        ("wire.hit_p50_us", hit_p50 * 1e6),
        ("wire.hit_p99_us", hit_p99 * 1e6),
        ("wire.disk_hit_p50_us", disk_hit_p50 * 1e6),
        ("wire.degraded_p50_us", degraded_p50 * 1e6),
        ("wire.miss_cold_p50_ms", miss_cold_p50 * 1e3),
        ("wire.miss_warm_p50_ms", miss_warm_p50 * 1e3),
        ("service.protocol.parse_us", us("service.protocol.parse")),
        (
            "service.protocol.serialize_us",
            us("service.protocol.serialize"),
        ),
        (
            "service.protocol.request_bytes",
            stats::median(&request_bytes),
        ),
        ("service.protocol.reply_bytes", stats::median(&reply_bytes)),
        ("util.json.parse_mb_s", json_parse_mb_s),
        ("util.json.write_mb_s", json_write_mb_s),
        ("service.key.key_us", us("service.key")),
        ("topology.fingerprint_us", fingerprint_s * 1e6),
        ("service.cache.get_us", us("service.cache.get")),
        ("service.cache.insert_us", us("service.cache.insert")),
        (
            "service.cache.hit_share",
            share(mirror.hits as u64, mirror.gets as u64),
        ),
        ("service.cache.evictions", mirror.evictions as f64),
        ("service.disk.save_us", us("service.disk.save")),
        ("service.disk.load_us", us("service.disk.load")),
        (
            "service.disk.entry_bytes",
            stats::median(&mirror.entry_bytes),
        ),
        (
            "service.disk.hit_share",
            share(mirror.disk_hits as u64, mirror.gets as u64),
        ),
        (
            "service.queue.miss_overhead_us",
            stats::median(&overheads) * 1e6,
        ),
        (
            "service.queue.hinted_share",
            share(s1.hinted_solves - s0.hinted_solves, window_jobs),
        ),
        (
            "service.queue.coalesced_share",
            share(s1.coalesced - s0.coalesced, window_requests),
        ),
        (
            "service.queue.degraded_share",
            share(s1.degraded - s0.degraded, window_requests),
        ),
        (
            "service.queue.upgrades",
            (s1.background_upgrades - s0.background_upgrades) as f64,
        ),
        (
            "service.queue.solve_iterations",
            (s1.solve_simplex_iterations - s0.solve_simplex_iterations) as f64,
        ),
        (
            "service.server.wire_overhead_us",
            if wire.inproc_hit_s.is_empty() {
                0.0
            } else {
                (hit_p50 - inproc_hit_p50) * 1e6
            },
        ),
        ("collective.demand_us", us("collective.demand")),
        ("core.epochs.horizon_attempts", c.horizon_attempts as f64),
        ("core.epochs.wasted_s", c.wasted_s),
        ("core.lp_form.build_ms", ms("core.lp_form.build")),
        ("core.lp_form.rows", c.lp_rows as f64),
        ("core.lp_form.cols", c.lp_cols as f64),
        ("core.lp_form.nnz", c.lp_nnz as f64),
        ("core.milp_form.build_ms", ms("core.milp_form.build")),
        ("core.milp_form.rows", c.milp_rows as f64),
        ("core.milp_form.cols", c.milp_cols as f64),
        ("core.milp_form.int_vars", c.milp_int_vars as f64),
        ("core.astar.solve_ms", ms("core.astar")),
        ("core.astar.rounds", c.astar_rounds as f64),
        (
            "lp.presolve.ms",
            ms("lp.presolve") + ms("lp.presolve.recover"),
        ),
        ("lp.presolve.cols_fixed", c.cols_fixed as f64),
        ("lp.presolve.rows_freed", c.rows_freed as f64),
        ("lp.standard.build_ms", ms("lp.standard.build")),
        ("lp.simplex.ms", simplex_s * 1e3),
        ("lp.simplex.iterations", c.simplex_iterations as f64),
        (
            "lp.simplex.us_per_iter",
            if c.simplex_iterations == 0 {
                0.0
            } else {
                simplex_s * 1e6 / c.simplex_iterations as f64
            },
        ),
        ("lp.simplex.factorizations", c.simplex_factorizations as f64),
        (
            "lp.simplex.share",
            if pipeline_s > 0.0 {
                simplex_s / pipeline_s
            } else {
                0.0
            },
        ),
        ("lp.milp.ms", ms("lp.milp")),
        ("lp.milp.nodes", c.milp.nodes_explored as f64),
        ("lp.milp.warm_starts", c.milp.warm_starts as f64),
        ("lp.milp.cold_starts", c.milp.cold_starts as f64),
        ("lp.dual.iterations", c.milp.dual_iterations as f64),
        (
            "lp.dual.share",
            share(c.milp.dual_iterations as u64, all_iterations as u64),
        ),
        (
            "lp.basis.factorize_ms",
            basis.as_ref().map_or(0.0, |b| b.factorize_ms),
        ),
        (
            "lp.basis.ftran_us",
            basis.as_ref().map_or(0.0, |b| b.ftran_us),
        ),
        (
            "lp.basis.btran_us",
            basis.as_ref().map_or(0.0, |b| b.btran_us),
        ),
        (
            "lp.basis.fill_ratio",
            basis.as_ref().map_or(0.0, |b| b.fill_ratio),
        ),
        ("core.extract.ms", ms("core.extract")),
        ("core.extract.sends", c.extract_sends as f64),
        ("schedule.validate.us", us("schedule.validate")),
        ("schedule.sim.us", us("schedule.sim")),
        ("schedule.sim.bytes_on_wire_mb", c.bytes_on_wire / 1e6),
        ("schedule.output.to_json_us", to_json_s * 1e6),
        ("schedule.output.from_json_us", from_json_s * 1e6),
        ("baselines.fallback_us", fallback_s * 1e6),
        (
            "trace.coverage",
            if expected_wire_s > 0.0 {
                profile.layers_total_s() / expected_wire_s
            } else {
                0.0
            },
        ),
        (
            "trace.inproc_coverage",
            if inproc_hit_p50 > 0.0 {
                hit_layers_s / inproc_hit_p50
            } else {
                0.0
            },
        ),
        (
            "trace.overhead_share",
            if wire_cold_s > 0.0 {
                walked_s / wire_cold_s - 1.0
            } else {
                0.0
            },
        ),
        (
            "trace.mirror_share",
            share(mirrored as u64, compared as u64),
        ),
        ("trace.spans", tr.spans().len() as f64),
        ("trace.requests", replayed.len() as f64),
        ("process.peak_rss_mb", crate::run::peak_rss_mb()),
    ];
    let catalogue = crate::metrics::PER_LAYER.map(|(name, unit, _)| (name, unit));
    let metrics = crate::metrics::with_units(&catalogue, values);
    Ok((metrics, tr))
}
