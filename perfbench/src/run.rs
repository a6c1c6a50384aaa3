//! The untraced, end-to-end side of a run: set the service up, drive it over
//! loopback TCP in closed loops, check replies, and reduce the samples to
//! the end-to-end metrics.

use std::path::{Path, PathBuf};
use std::time::Instant;

use teccl_service::{CacheStatus, Quality, ServiceStats};

use crate::calib::Reference;
use crate::check::check_reply;
use crate::stats::{self, P50};
use crate::wire::{service_config, Conn, Server, Solved};
use crate::workloads::{self, HotStream, Target, Workload, CHURN_CACHE_CAPACITY};

/// What one invocation measures.
#[derive(Debug, Clone)]
pub struct Plan {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the timed window (solver workloads finish the pass they
    /// are in; `service_churn` finishes its epoch).
    pub seconds: f64,
    pub quick: bool,
    /// Where temp dirs and trace files go (inside the checkout).
    pub out_dir: PathBuf,
}

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Service workloads fully check the first reply per key and every n-th.
const CHECK_EVERY: usize = 1_000;
/// Failure messages kept for printing (every failure is counted).
const MAX_FAILURES_KEPT: usize = 5;
/// Length of a `service_hot` slice, seconds.
const HOT_SLICE_S: f64 = 1.0;

/// One timed reply.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub key: usize,
    pub status: CacheStatus,
    pub quality: Quality,
    pub latency_s: f64,
    /// Which slice of the window the reply belongs to: the pass of a solver
    /// workload, the epoch of `service_churn`, a second of `service_hot`.
    pub slice: usize,
}

/// The first (cold) answer to a key, for comparison with the hand walk.
#[derive(Debug, Clone, Copy)]
pub struct Cold {
    pub latency_s: f64,
    pub iterations: usize,
    pub transfer_s: f64,
}

#[derive(Default)]
pub struct WireRun {
    pub samples: Vec<Sample>,
    /// Sum of `slice_seconds`.
    pub window_s: f64,
    /// Wall time of each complete slice less what its reference readings
    /// took, seconds (see [`Sample::slice`]).
    pub slice_seconds: Vec<f64>,
    /// How much slower than nominal the machine ran during each slice and
    /// each set-up (see [`crate::calib`]).
    pub slice_slowdown: Vec<f64>,
    pub setups_s: Vec<f64>,
    pub setup_slowdown: Vec<f64>,
    pub attempted: usize,
    pub failed: usize,
    /// The first [`MAX_FAILURES_KEPT`] failure messages.
    pub failures: Vec<String>,
    /// Checked algorithmic bandwidth of each key's exact schedule, GB/s.
    pub algo_bw: Vec<Option<f64>>,
    pub cold: Vec<Option<Cold>>,
    /// `stats` verb after set-up and after the window.
    pub stats_before: ServiceStats,
    pub stats_after: ServiceStats,
    /// In-process `parse -> ScheduleService::request -> serialise` times of
    /// hits on the live service, seconds (filled on request, see `inproc`).
    pub inproc_hit_s: Vec<f64>,
}

impl WireRun {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < MAX_FAILURES_KEPT {
            self.failures.push(what);
        }
    }

    /// Fully checks a parsed reply; records the failure or the key's
    /// algorithmic bandwidth.
    fn check(
        &mut self,
        targets: &[Target],
        key: usize,
        reply: &teccl_service::protocol::SolveReply,
    ) {
        match check_reply(&targets[key], reply) {
            Ok(gbps) if reply.quality == Quality::Exact => self.algo_bw[key] = Some(gbps),
            Ok(_) => {}
            Err(e) => self.fail(format!("key {key}: {e}")),
        }
    }

    /// Closes the slice that started at `started`: its length is the wall
    /// time less what the reference readings took.
    fn close_slice(&mut self, started: Instant, reference: &mut Reference) {
        let wall_s = started.elapsed().as_secs_f64();
        let (slowdown, spent_s) = reference.close_slice();
        self.slice_seconds.push(wall_s - spent_s);
        self.slice_slowdown.push(slowdown);
        self.window_s += wall_s - spent_s;
    }

    /// The timings of this run at the reference's nominal speed: every
    /// latency, slice length and set-up time divided by how much slower
    /// than nominal the machine ran around it (see [`crate::calib`]). What
    /// [`end_to_end`] reads; counts and checks are not carried over.
    pub fn at_nominal_speed(&self) -> WireRun {
        let scaled = |times: &[f64], slowdown: &[f64]| -> Vec<f64> {
            times.iter().zip(slowdown).map(|(t, s)| t / s).collect()
        };
        WireRun {
            samples: self
                .samples
                .iter()
                .filter_map(|s| {
                    Some(Sample {
                        latency_s: s.latency_s / self.slice_slowdown.get(s.slice)?,
                        ..*s
                    })
                })
                .collect(),
            slice_seconds: scaled(&self.slice_seconds, &self.slice_slowdown),
            setups_s: scaled(&self.setups_s, &self.setup_slowdown),
            algo_bw: self.algo_bw.clone(),
            ..WireRun::default()
        }
    }

    pub fn latencies_where(&self, keep: impl Fn(&Sample) -> bool) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| keep(s))
            .map(|s| s.latency_s)
            .collect()
    }
}

/// A service that has been set up for a workload and is ready to be timed.
struct Live {
    server: Server,
    conn: Conn,
    tmp: Option<PathBuf>,
}

impl Live {
    fn stop(self) {
        drop(self.conn);
        self.server.stop();
        if let Some(dir) = self.tmp {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

fn tmp_dir(out_dir: &Path, n: usize) -> std::io::Result<PathBuf> {
    let dir = out_dir.join(format!("tmp-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// A small request of a family no workload uses: proves the path works and
/// pages the solver in, and is enough CPU work that set-up time is not a
/// few thread spawns' worth of scheduler noise.
fn warm_up(conn: &mut Conn) -> Result<(), String> {
    let line = r#"{"verb":"solve","topology":"internal2x2","collective":"all_to_all","chunks":6,"output_buffer":16777216,"method":"lp"}"#;
    conn.solve(&format!("{line}\n")).map(|_| ())
}

/// Starts the service the workload needs, connects, and brings it to the
/// state the timed window starts from. Returns the cold answers it saw.
fn set_up(
    plan: &Plan,
    targets: &[Target],
    nth: usize,
    reference: &mut Reference,
) -> Result<(Live, Vec<Option<Cold>>), String> {
    let io = |e: std::io::Error| e.to_string();
    let (capacity, tmp) = match plan.workload {
        Workload::ServiceChurn => (
            Some(CHURN_CACHE_CAPACITY),
            Some(tmp_dir(&plan.out_dir, nth).map_err(io)?),
        ),
        _ => (None, None),
    };
    let server = Server::start(service_config(capacity, tmp.clone())).map_err(io)?;
    let mut conn = Conn::open(server.addr()).map_err(io)?;
    warm_up(&mut conn)?;
    reference.tick();

    let mut cold = vec![None; targets.len()];
    if !plan.workload.is_solver() {
        // Pre-warm: every key once, cold anchors first so that nothing can
        // hint them. For `service_churn` this also publishes every family's
        // bases and fills the disk store; its first `evict` then clears both
        // caches.
        let mut order: Vec<usize> = (0..targets.len()).collect();
        order.sort_by_key(|&key| !targets[key].cold_anchor);
        for key in order {
            let first = cold_of(&conn.solve(&targets[key].line)?);
            cold[key] = targets[key].cold_anchor.then_some(first);
            reference.tick();
        }
    }
    Ok((Live { server, conn, tmp }, cold))
}

/// [`set_up`], timed as a slice of its own.
fn timed_set_up(
    plan: &Plan,
    targets: &[Target],
    nth: usize,
    run: &mut WireRun,
    reference: &mut Reference,
) -> Result<(Live, Vec<Option<Cold>>), String> {
    reference.close_slice();
    let started = Instant::now();
    let set_up = set_up(plan, targets, nth, reference)?;
    let wall_s = started.elapsed().as_secs_f64();
    let (slowdown, spent_s) = reference.close_slice();
    run.setups_s.push(wall_s - spent_s);
    run.setup_slowdown.push(slowdown);
    Ok(set_up)
}

fn cold_of(solved: &Solved) -> Cold {
    Cold {
        latency_s: solved.latency.as_secs_f64(),
        iterations: solved.iterations,
        transfer_s: solved.reply.output.metrics.transfer_time,
    }
}

/// `cache` and `quality` of a raw reply line without parsing the schedule:
/// both sit in the first hundred bytes, before the 5 KB `output`.
pub fn reply_tags(line: &str) -> Option<(CacheStatus, Quality)> {
    let head = &line[..line.len().min(120)];
    let field = |tag: &str| {
        let rest = &head[head.find(tag)? + tag.len()..];
        Some(&rest[..rest.find('"')?])
    };
    let cache = match field("\"cache\":\"")? {
        "hit" => CacheStatus::Hit,
        "disk_hit" => CacheStatus::DiskHit,
        "coalesced" => CacheStatus::Coalesced,
        "miss" => CacheStatus::Miss,
        _ => return None,
    };
    Some((cache, Quality::from_name(field("\"quality\":\"")?)?))
}

/// Runs the workload's wire side. `inproc` asks `service_hot` to also time
/// hits in-process on the live service before it is torn down.
pub fn wire_run(plan: &Plan, targets: &[Target], inproc: bool) -> Result<WireRun, String> {
    std::fs::create_dir_all(&plan.out_dir).map_err(|e| e.to_string())?;
    let mut run = WireRun {
        algo_bw: vec![None; targets.len()],
        cold: vec![None; targets.len()],
        ..WireRun::default()
    };
    let mut reference = Reference::new(!plan.workload.is_solver());
    if plan.workload.is_solver() {
        solver_passes(plan, targets, &mut run, &mut reference)?;
    } else {
        // Set up SETUPS times; the last one is the one that gets timed.
        let mut live = None;
        for nth in 0..SETUPS {
            if let Some((l, _)) = live.take() {
                Live::stop(l);
            }
            live = Some(timed_set_up(plan, targets, nth, &mut run, &mut reference)?);
        }
        let (mut live, cold) = live.expect("SETUPS > 0");
        run.cold = cold;
        let outcome = service_window(plan, targets, &mut live, &mut run, inproc, &mut reference);
        live.stop();
        outcome?;
    }
    Ok(run)
}

/// `alltoall_lp` / `allgather_copy`: passes over the list, a fresh service
/// per pass so that every solve is cold, until the window is used up.
fn solver_passes(
    plan: &Plan,
    targets: &[Target],
    run: &mut WireRun,
    reference: &mut Reference,
) -> Result<(), String> {
    let mut pass = 0;
    while pass == 0 || run.window_s < plan.seconds {
        pass += 1;
        let (mut live, _) = timed_set_up(plan, targets, pass, run, reference)?;
        if pass == 1 {
            run.stats_before = live.conn.stats()?;
        }
        let conn = &mut live.conn;
        let started = Instant::now();
        for (key, target) in targets.iter().enumerate() {
            run.attempted += 1;
            match conn.solve(&target.line) {
                Ok(solved) => {
                    let reply = &solved.reply;
                    run.check(targets, key, reply);
                    if reply.cache != CacheStatus::Miss || reply.quality != Quality::Exact {
                        run.fail(format!("key {key}: expected a cold exact miss"));
                    }
                    run.samples.push(Sample {
                        key,
                        status: reply.cache,
                        quality: reply.quality,
                        latency_s: solved.latency.as_secs_f64(),
                        slice: pass - 1,
                    });
                    if pass == 1 {
                        run.cold[key] = Some(cold_of(&solved));
                    }
                }
                Err(e) => run.fail(format!("key {key}: {e}")),
            }
            reference.tick();
        }
        run.close_slice(started, reference);
        run.stats_after = live.conn.stats()?;
        live.stop();
    }
    // A short window still reports a median of SETUPS set-ups.
    for nth in run.setups_s.len()..SETUPS {
        let (live, _) = timed_set_up(plan, targets, pass + nth + 1, run, reference)?;
        live.stop();
    }
    Ok(())
}

fn service_window(
    plan: &Plan,
    targets: &[Target],
    live: &mut Live,
    run: &mut WireRun,
    inproc: bool,
    reference: &mut Reference,
) -> Result<(), String> {
    run.stats_before = live.conn.stats()?;
    match plan.workload {
        Workload::ServiceHot => hot_window(plan, targets, live, run, reference)?,
        Workload::ServiceChurn => churn_window(plan, targets, live, run, reference)?,
        _ => unreachable!("solver workloads run in passes"),
    }
    run.stats_after = live.conn.stats()?;
    if plan.workload == Workload::ServiceHot {
        if run.stats_after.solves != run.stats_before.solves {
            run.fail(format!(
                "service_hot solved during the window: {} -> {} solves",
                run.stats_before.solves, run.stats_after.solves
            ));
        }
        if inproc {
            run.inproc_hit_s = inproc_hits(plan, targets, live);
        }
    }
    // Audit: any key no checked exact reply has covered yet is asked for
    // once more, patiently, so that `algo_bw_gbps` is over every key.
    for key in 0..targets.len() {
        if run.algo_bw[key].is_none() {
            run.attempted += 1;
            match live.conn.solve(&targets[key].line) {
                Ok(solved) => run.check(targets, key, &solved.reply),
                Err(e) => run.fail(format!("audit of key {key}: {e}")),
            }
        }
    }
    Ok(())
}

/// `service_hot`: uniform draws over the keys in a closed loop, in slices
/// of [`HOT_SLICE_S`], until the window is used up. Every reply must be a
/// `hit`.
fn hot_window(
    plan: &Plan,
    targets: &[Target],
    live: &mut Live,
    run: &mut WireRun,
    reference: &mut Reference,
) -> Result<(), String> {
    let conn = &mut live.conn;
    let mut seen = vec![false; targets.len()];
    let mut stream = HotStream::new(plan.seed, targets.len());
    reference.close_slice();
    while run.window_s < plan.seconds {
        let slice = run.slice_seconds.len();
        let started = Instant::now();
        while started.elapsed().as_secs_f64() < HOT_SLICE_S.min(plan.seconds) {
            let key = stream.next().expect("endless stream");
            run.attempted += 1;
            let (line, latency) = match conn.round_trip(&targets[key].line) {
                Ok(ok) => ok,
                Err(e) => {
                    run.fail(format!("key {key}: {e}"));
                    return Ok(());
                }
            };
            match reply_tags(line) {
                Some((CacheStatus::Hit, Quality::Exact)) => {}
                tags => run.fail(format!("key {key}: expected hit/exact, got {tags:?}")),
            }
            run.samples.push(Sample {
                key,
                status: CacheStatus::Hit,
                quality: Quality::Exact,
                latency_s: latency.as_secs_f64(),
                slice,
            });
            if !seen[key] || run.attempted.is_multiple_of(CHECK_EVERY) {
                seen[key] = true;
                match teccl_service::protocol::parse_solve_reply(line) {
                    Ok(reply) => run.check(targets, key, &reply),
                    Err(e) => run.fail(format!("key {key}: {e}")),
                }
            }
            reference.tick();
        }
        run.close_slice(started, reference);
    }
    Ok(())
}

/// `service_churn`: epochs of [`evict`, Zipf draws], one connection, until
/// the window closes at an epoch boundary.
fn churn_window(
    plan: &Plan,
    targets: &[Target],
    live: &mut Live,
    run: &mut WireRun,
    reference: &mut Reference,
) -> Result<(), String> {
    let conn = &mut live.conn;
    let mut checked = vec![[false; 4]; targets.len()];
    let mut epoch = 0;
    reference.close_slice();
    while epoch == 0 || run.window_s < plan.seconds {
        epoch += 1;
        let epoch_started = Instant::now();
        conn.evict()?;
        for (key, deadline) in workloads::churn_epoch(plan.seed, epoch, targets.len(), plan.quick) {
            let target = &targets[key];
            let line = if deadline {
                &target.deadline_line
            } else {
                &target.line
            };
            run.attempted += 1;
            let (reply, latency) = match conn.round_trip(line) {
                Ok(ok) => ok,
                Err(e) => {
                    run.fail(format!("key {key}: {e}"));
                    return Ok(());
                }
            };
            let Some((status, quality)) = reply_tags(reply) else {
                let head: String = reply.chars().take(160).collect();
                run.fail(format!("key {key}: {head}"));
                continue;
            };
            if quality != Quality::Exact && !deadline {
                run.fail(format!("key {key}: patient request served {quality:?}"));
            }
            run.samples.push(Sample {
                key,
                status,
                quality,
                latency_s: latency.as_secs_f64(),
                slice: epoch - 1,
            });
            let first = !std::mem::replace(&mut checked[key][quality as usize], true);
            if first || run.attempted.is_multiple_of(CHECK_EVERY) {
                match teccl_service::protocol::parse_solve_reply(reply) {
                    Ok(parsed) => run.check(targets, key, &parsed),
                    Err(e) => run.fail(format!("key {key}: {e}")),
                }
            }
            reference.tick();
        }
        run.close_slice(epoch_started, reference);
    }
    Ok(())
}

/// In-process reference for `service_hot`: the same hits without TCP.
fn inproc_hits(plan: &Plan, targets: &[Target], live: &Live) -> Vec<f64> {
    use teccl_service::protocol::{parse_request, solve_response, Request};
    let service = live.server.service();
    HotStream::new(plan.seed, targets.len())
        .take(crate::traced::REPLAY_ENTRIES)
        .filter_map(|key| {
            let started = Instant::now();
            let Ok(Request::Solve(request)) = parse_request(&targets[key].line) else {
                return None;
            };
            let served = service.request(*request).ok()?;
            let reply = solve_response(&served).to_json();
            let elapsed = started.elapsed().as_secs_f64();
            std::hint::black_box(reply);
            Some(elapsed)
        })
        .collect()
}

/// `VmHWM` of this process, MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A metric value with its unit, as printed and as written to the result.
pub type Metric = (&'static str, f64, &'static str);

/// Fewest replies a slice must hold for its tail percentile to be used.
const SLICE_TAIL_MIN: usize = 200;

/// Per-slice statistics of the timed window. The metrics are the favourable
/// quartile over complete slices ([`stats::lower_quartile`] of times,
/// [`stats::upper_quartile`] of rates): a burst of interference from the
/// host spoils the slices it lands on and leaves the metric alone.
pub struct Slices {
    /// Replies per second of wall time.
    pub rates: Vec<f64>,
    /// Median reply latency, seconds.
    pub medians: Vec<f64>,
    /// The workload's tail percentile ([`Workload::tail_pm`]) of the reply
    /// latency, seconds; empty unless the slices support one (see
    /// [`SLICE_TAIL_MIN`]).
    pub tails: Vec<f64>,
}

pub fn per_slice(run: &WireRun, tail_pm: u32) -> Slices {
    let mut latencies = vec![Vec::new(); run.slice_seconds.len()];
    for s in &run.samples {
        if let Some(slice) = latencies.get_mut(s.slice) {
            slice.push(s.latency_s);
        }
    }
    for slice in &mut latencies {
        stats::sorted(slice);
    }
    // A tail percentile needs ten replies beyond it. The slices' own tail
    // percentiles are combined by a quartile, so it is the window as a
    // whole that has to supply the ten; a slice only has to be large enough
    // for its tail percentile not to be its maximum.
    let total: usize = latencies.iter().map(Vec::len).sum();
    let supported = stats::highest_supported_percentile(total) >= Some(tail_pm)
        && latencies.iter().all(|l| l.len() >= SLICE_TAIL_MIN);
    Slices {
        rates: latencies
            .iter()
            .zip(&run.slice_seconds)
            .map(|(l, seconds)| l.len() as f64 / seconds)
            .collect(),
        medians: latencies
            .iter()
            .map(|l| stats::percentile(l, P50))
            .collect(),
        tails: match supported {
            true => latencies
                .iter()
                .map(|l| stats::percentile(l, tail_pm))
                .collect(),
            false => Vec::new(),
        },
    }
}

/// The slowest-request statistic: the lower quartile over slices of the
/// slice's tail percentile when the window holds the replies that support
/// one; else the slowest key's lower-quartile latency (solver workloads time
/// a handful of requests a few times each).
fn latency_tail_s(run: &WireRun, slices: &Slices, n_keys: usize) -> f64 {
    if !slices.tails.is_empty() {
        return stats::lower_quartile(&slices.tails);
    }
    (0..n_keys)
        .map(|key| stats::lower_quartile(&run.latencies_where(|s| s.key == key)))
        .fold(0.0, f64::max)
}

/// The end-to-end metrics every workload reports, from the timings `run`
/// holds: pass [`WireRun::at_nominal_speed`] for the metrics proper, the run
/// itself for what the wall clock read.
pub fn end_to_end(run: &WireRun, n_keys: usize, tail_pm: u32) -> Vec<Metric> {
    let slices = per_slice(run, tail_pm);
    let bw: Vec<f64> = run.algo_bw.iter().flatten().copied().collect();
    crate::metrics::with_units(
        &crate::metrics::END_TO_END.map(|e| (e.name, e.unit)),
        vec![
            ("setup_s", stats::median(&run.setups_s)),
            ("throughput_rps", stats::upper_quartile(&slices.rates)),
            (
                "latency_p50_ms",
                stats::lower_quartile(&slices.medians) * 1e3,
            ),
            (
                "latency_tail_ms",
                latency_tail_s(run, &slices, n_keys) * 1e3,
            ),
            ("algo_bw_gbps", stats::geomean(&bw)),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{P90, P99};

    #[test]
    fn reply_head_is_read_without_parsing() {
        let line = r#"{"status":"ok","cache":"disk_hit","quality":"exact","key":"00","chunk_bytes":1,"output":{},"solve":{"simplex_iterations":9878,"warm_starts":0}}"#;
        assert_eq!(
            reply_tags(line),
            Some((CacheStatus::DiskHit, Quality::Exact))
        );
        assert_eq!(crate::wire::reply_iterations(line), Some(9878));
        let degraded = r#"{"status":"ok","cache":"miss","quality":"baseline","key":"00"}"#;
        assert_eq!(
            reply_tags(degraded),
            Some((CacheStatus::Miss, Quality::Baseline))
        );
        assert_eq!(reply_tags(r#"{"status":"error","message":"x"}"#), None);
    }

    #[test]
    fn tail_is_p99_or_the_slowest_key() {
        let sample = |key, latency_s| Sample {
            key,
            status: CacheStatus::Miss,
            quality: Quality::Exact,
            latency_s,
            slice: key,
        };
        let few = WireRun {
            samples: vec![
                sample(0, 1.0),
                sample(0, 3.0),
                sample(0, 2.0),
                sample(1, 0.5),
            ],
            ..WireRun::default()
        };
        assert_eq!(latency_tail_s(&few, &per_slice(&few, P99), 2), 1.0);
        // Two slices of a thousand: the median of their own 99th percentiles.
        let sliced = WireRun {
            samples: (0..2_000u32)
                .map(|i| Sample {
                    slice: (i / 1_000) as usize,
                    ..sample(0, f64::from(i % 1_000 + 1) * f64::from(i / 1_000 + 1))
                })
                .collect(),
            slice_seconds: vec![1.0, 1.0],
            ..WireRun::default()
        };
        assert_eq!(per_slice(&sliced, P99).tails, [990.0, 1_980.0]);
        assert_eq!(per_slice(&sliced, P90).tails, [900.0, 1_800.0]);
        assert_eq!(latency_tail_s(&sliced, &per_slice(&sliced, P99), 1), 990.0);
    }

    #[test]
    fn rate_and_median_are_quartiles_over_complete_slices() {
        let sample = |slice, latency_s| Sample {
            key: 0,
            status: CacheStatus::Hit,
            quality: Quality::Exact,
            latency_s,
            slice,
        };
        let run = WireRun {
            // Slice 1 was hit by a burst: half the replies, twice as slow.
            samples: [(0, 1.0), (0, 1.0), (1, 2.0), (2, 1.0), (2, 1.0), (3, 9.0)]
                .map(|(slice, l)| sample(slice, l))
                .to_vec(),
            slice_seconds: vec![2.0, 2.0, 2.0],
            ..WireRun::default()
        };
        let slices = per_slice(&run, P99);
        assert_eq!(slices.rates, [1.0, 0.5, 1.0]);
        assert_eq!(slices.medians, [1.0, 2.0, 1.0]);
        assert!(slices.tails.is_empty());
        assert_eq!(stats::upper_quartile(&slices.rates), 1.0);
        assert_eq!(stats::lower_quartile(&slices.medians), 1.0);
    }
}
