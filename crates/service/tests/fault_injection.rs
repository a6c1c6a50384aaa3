//! Fault-injection integration tests: the robustness story end to end.
//!
//! Each test wires a deterministic [`teccl_service::fault`] plan (or an
//! expired deadline) into a real service and asserts the failure is
//! *contained*: exactly one typed error where an error is due, a degraded
//! but validated schedule where the ladder has a rung, and a service that
//! keeps serving afterwards.

use std::time::{Duration, Instant};

use teccl_collective::CollectiveKind;
use teccl_schedule::validate;
use teccl_service::{
    CacheStatus, Quality, ScheduleService, ServiceConfig, ServiceError, SolveRequest,
};
use teccl_topology::ring_topology;

fn small_request() -> SolveRequest {
    SolveRequest::new(
        ring_topology(3, 1e9, 0.0),
        CollectiveKind::AllGather,
        1,
        64.0 * 1024.0,
    )
}

/// A 2-chunk ALLTOALL at a 16 MB buffer on internal1(2) with the α of one
/// ring link set to 0. That link's δ of 0 epochs (every other link has 1)
/// leaves the LP without symmetry, so the exact solve walks the full
/// degenerate LP: ~2.6 s in release, tens of seconds in debug. Plain
/// internal1(2) solves in milliseconds over its order-8 symmetry group.
fn asymmetric_alltoall() -> SolveRequest {
    let mut topology = teccl_topology::internal1(2);
    topology.links[0].alpha = 0.0;
    SolveRequest::new(
        topology,
        CollectiveKind::AllToAll,
        2,
        16.0 * 1024.0 * 1024.0,
    )
}

/// A scratch directory for disk-store tests, removed on drop.
struct ScratchDir(std::path::PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> ScratchDir {
        let dir = std::env::temp_dir().join(format!("teccl-fault-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        ScratchDir(dir)
    }

    fn entry_path(&self, req: &SolveRequest) -> std::path::PathBuf {
        self.0.join(format!("sched-{:016x}.json", req.key().hash))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// An injected panic inside the solve reaches the waiter as exactly one
/// typed error; the worker survives (the panic is caught at the solve
/// boundary, so no respawn is even needed) and the very next request — the
/// same key — solves normally.
#[test]
fn injected_panic_is_contained_and_the_service_keeps_serving() {
    let svc = ScheduleService::start(ServiceConfig {
        workers: 1,
        fault_plan: Some("panic-in-solve=1".to_string()),
        ..Default::default()
    })
    .unwrap();

    let err = svc.request(small_request()).unwrap_err();
    match &err {
        ServiceError::WorkerPanicked(m) => assert!(m.contains("injected fault"), "{m}"),
        other => panic!("expected WorkerPanicked, got {other:?}"),
    }
    let stats = svc.stats();
    assert_eq!(stats.worker_panics, 1);
    assert_eq!(stats.solve_errors, 1);
    assert_eq!(stats.solves, 0);

    // The sole worker is still alive: the retry must solve, not hang.
    let served = svc.request(small_request()).unwrap();
    assert_eq!(served.quality, Quality::Exact);
    let stats = svc.stats();
    assert_eq!(stats.solves, 1);
    assert_eq!(
        stats.worker_respawns, 0,
        "a caught panic must not kill the worker thread"
    );
    svc.shutdown();
}

/// The acceptance scenario, fast half: a 100 ms deadline on the large
/// asymmetric ALLTOALL (whose exact solve takes seconds) comes back promptly
/// with a degraded, *validated* schedule.
#[test]
fn deadline_on_large_alltoall_serves_validated_degraded_schedule() {
    let svc = ScheduleService::start(ServiceConfig {
        workers: 2,
        // Without this, shutdown below would join the (multi-minute) exact
        // background re-solve; the upgrade path has its own test.
        background_upgrade: false,
        ..Default::default()
    })
    .unwrap();
    let req = asymmetric_alltoall().with_deadline(Duration::from_millis(100));

    let start = Instant::now();
    let served = svc.request(req.clone()).unwrap();
    let elapsed = start.elapsed();
    assert_ne!(
        served.quality,
        Quality::Exact,
        "a 100 ms deadline cannot certify this solve exactly"
    );
    // Measured ~1.06× the deadline (budget trip + fallback construction);
    // the bound is generous for loaded CI machines and debug builds.
    assert!(
        elapsed < Duration::from_secs(2),
        "degraded answer took {elapsed:?}"
    );
    // The baseline rung is built directly on the request topology; re-check
    // the server-side validation from the outside.
    if served.quality == Quality::Baseline {
        let report = validate(
            &req.topology,
            &req.demand(),
            &served.entry.output.schedule,
            false,
        );
        assert!(report.is_valid(), "{:?}", report.errors);
    }
    assert!(svc.stats().degraded >= 1);
    svc.shutdown();
}

/// The acceptance scenario in full: the deadline-bearing request degrades,
/// the patient request still certifies `exact`. The exact ALLTOALL solve
/// takes seconds in release (minutes in debug), so this runs ignored; CI
/// invokes it explicitly in release mode.
#[test]
#[ignore = "exact asymmetric internal1(2) ALLTOALL solve takes ~3 s in release; run with --ignored"]
fn acceptance_patient_alltoall_still_certifies_exact() {
    let svc = ScheduleService::start(ServiceConfig {
        workers: 2,
        ..Default::default()
    })
    .unwrap();
    let req = asymmetric_alltoall();

    let start = Instant::now();
    let degraded = svc
        .request(req.clone().with_deadline(Duration::from_millis(100)))
        .unwrap();
    assert_ne!(degraded.quality, Quality::Exact);
    assert!(start.elapsed() < Duration::from_secs(2));

    // No deadline: the degraded cache entry must be bypassed and the solve
    // carried to optimality.
    let exact = svc.request(req).unwrap();
    assert_eq!(exact.quality, Quality::Exact);
    svc.shutdown();
}

/// An already-expired deadline on a size variant of a solved family is the
/// stale rung: the neighbouring bucket's exact entry is served as-is, and
/// the simplex is never entered (zero iterations charged).
#[test]
fn expired_deadline_serves_stale_family_neighbor_without_touching_simplex() {
    let svc = ScheduleService::start(ServiceConfig {
        workers: 1,
        background_upgrade: false,
        ..Default::default()
    })
    .unwrap();
    let base = small_request();
    let exact = svc.request(base.clone()).unwrap();
    assert_eq!(exact.quality, Quality::Exact);
    let iters_before = svc.stats().solve_simplex_iterations;

    // Same family (topology / collective / chunks / config), different
    // half-octave size bucket, and no time to solve it.
    let mut variant = small_request();
    variant.output_buffer = 256.0 * 1024.0;
    assert_eq!(variant.key().family, base.key().family);
    assert_ne!(variant.key().hash, base.key().hash);
    let served = svc
        .request(variant.clone().with_deadline(Duration::ZERO))
        .unwrap();
    assert_eq!(served.quality, Quality::Stale);
    assert_eq!(served.cache, CacheStatus::Miss);
    assert_eq!(
        served.entry.key.hash,
        base.key().hash,
        "the stale rung serves the neighbour's entry under the neighbour's key"
    );
    assert_eq!(
        svc.stats().solve_simplex_iterations,
        iters_before,
        "an expired deadline must never enter the simplex"
    );

    // A patient request for the variant is not fobbed off with the stale
    // serving: the stale entry was never cached under the variant's key.
    let patient = svc.request(variant).unwrap();
    assert_eq!(patient.quality, Quality::Exact);
    assert!(svc.stats().solve_simplex_iterations > iters_before);
    svc.shutdown();
}

/// A stalled solve blows its deadline, falls to the baseline rung (no
/// family neighbour exists), and the background upgrade then replaces the
/// degraded cache entry with the exact schedule.
#[test]
fn slow_solve_falls_to_baseline_then_background_upgrade_restores_exact() {
    let svc = ScheduleService::start(ServiceConfig {
        workers: 2,
        fault_plan: Some("slow-solve=250:1".to_string()),
        ..Default::default()
    })
    .unwrap();
    let req = small_request().with_deadline(Duration::from_millis(50));

    let served = svc.request(req.clone()).unwrap();
    assert_eq!(served.quality, Quality::Baseline);
    assert_eq!(served.entry.stats.simplex_iterations, 0);

    // The degraded publish enqueued a deadline-stripped re-solve; wait for
    // it to land.
    let start = Instant::now();
    while svc.stats().background_upgrades == 0 {
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "background upgrade never completed"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // Even a deadline-bearing caller now gets the exact entry from cache.
    let upgraded = svc.request(req).unwrap();
    assert_eq!(upgraded.quality, Quality::Exact);
    assert_eq!(upgraded.cache, CacheStatus::Hit);
    svc.shutdown();
}

/// A corrupted on-disk entry is quarantined (renamed aside, counted), the
/// request falls through to a fresh solve, and the store heals itself.
#[test]
fn corrupt_disk_entry_is_quarantined_and_resolved() {
    corrupt_entry_is_quarantined("corrupt", "not json at all");
}

/// So is one nested deeper than the parser's limit: without the limit the
/// load overflowed the stack of whichever thread probed the store.
#[test]
fn deeply_nested_disk_entry_is_quarantined_and_resolved() {
    corrupt_entry_is_quarantined("nested", &"[".repeat(300_000));
    let depth = teccl_util::json::MAX_DEPTH + 1;
    let nested = format!("{{\"output\":{}{}}}", "[".repeat(depth), "]".repeat(depth));
    corrupt_entry_is_quarantined("nested-closed", &nested);
}

fn corrupt_entry_is_quarantined(tag: &str, content: &str) {
    let scratch = ScratchDir::new(tag);
    let req = small_request();
    let path = scratch.entry_path(&req);

    let svc = ScheduleService::start(ServiceConfig {
        workers: 1,
        disk_dir: Some(scratch.0.clone()),
        ..Default::default()
    })
    .unwrap();
    svc.request(req.clone()).unwrap();
    svc.shutdown();
    assert!(path.exists(), "exact solve must persist to disk");

    std::fs::write(&path, content).unwrap();

    let svc = ScheduleService::start(ServiceConfig {
        workers: 1,
        disk_dir: Some(scratch.0.clone()),
        ..Default::default()
    })
    .unwrap();
    let served = svc.request(req.clone()).unwrap();
    assert_eq!(served.quality, Quality::Exact);
    assert_eq!(
        served.cache,
        CacheStatus::Miss,
        "the corrupt file must not count as a disk hit"
    );
    let stats = svc.stats();
    assert_eq!(stats.disk_quarantined, 1);
    let corrupt = path.with_extension("json.corrupt");
    assert!(corrupt.exists(), "bad file moved aside, not deleted");
    // The re-solve wrote a fresh entry; a restart now disk-hits again.
    svc.shutdown();
    let svc = ScheduleService::start(ServiceConfig {
        workers: 1,
        disk_dir: Some(scratch.0.clone()),
        ..Default::default()
    })
    .unwrap();
    let served = svc.request(req).unwrap();
    assert_eq!(served.cache, CacheStatus::DiskHit);
    svc.shutdown();
}

/// A crash mid-disk-write leaves a stray `.tmp` and (in the worst case) a
/// torn entry file. A restarted service must quarantine the torn file and
/// serve anyway.
#[test]
fn restart_after_crash_mid_disk_write_serves() {
    let scratch = ScratchDir::new("torn");
    let req = small_request();
    // Simulated wreckage: a half-written temp file and a truncated entry.
    std::fs::write(
        scratch.0.join("sched-00000000deadbeef.tmp"),
        "{\"key\":{\"ha",
    )
    .unwrap();
    std::fs::write(scratch.entry_path(&req), "{\"key\":{\"family\":1,").unwrap();

    let svc = ScheduleService::start(ServiceConfig {
        workers: 1,
        disk_dir: Some(scratch.0.clone()),
        ..Default::default()
    })
    .unwrap();
    let served = svc.request(req).unwrap();
    assert_eq!(served.quality, Quality::Exact);
    assert_eq!(served.cache, CacheStatus::Miss);
    assert_eq!(svc.stats().disk_quarantined, 1);
    svc.shutdown();
}

/// The injected `corrupt-disk-read` fault (a read that returns garbage even
/// though the file on disk is fine) is also quarantined and survived.
#[test]
fn injected_corrupt_disk_read_is_quarantined() {
    let scratch = ScratchDir::new("badread");
    let req = small_request();

    let svc = ScheduleService::start(ServiceConfig {
        workers: 1,
        disk_dir: Some(scratch.0.clone()),
        ..Default::default()
    })
    .unwrap();
    svc.request(req.clone()).unwrap();
    svc.shutdown();

    let svc = ScheduleService::start(ServiceConfig {
        workers: 1,
        disk_dir: Some(scratch.0.clone()),
        fault_plan: Some("corrupt-disk-read=1".to_string()),
        ..Default::default()
    })
    .unwrap();
    let served = svc.request(req).unwrap();
    // The poisoned read cost the disk hit but not the request.
    assert_eq!(served.quality, Quality::Exact);
    assert_eq!(served.cache, CacheStatus::Miss);
    assert_eq!(svc.stats().disk_quarantined, 1);
    svc.shutdown();
}

/// A stored solve time that no `Duration` holds (negative, or past
/// `Duration::MAX`) is a corrupt entry like any other: the request is
/// answered as a miss over TCP, the file is quarantined, and the connection
/// that probed the store keeps answering. Converting it with the panicking
/// `Duration::from_secs_f64` killed the connection thread instead, on every
/// request for the key.
#[test]
fn unrepresentable_stored_solve_time_is_quarantined() {
    use std::io::{BufRead, BufReader, Write};
    use teccl_service::protocol::{parse_solve_reply, solve_request_line};
    use teccl_util::json::Value;

    let scratch = ScratchDir::new("solve-time");
    let req = small_request();
    let path = scratch.entry_path(&req);
    let config = || ServiceConfig {
        workers: 1,
        disk_dir: Some(scratch.0.clone()),
        ..Default::default()
    };
    for bad in [-1.0, 1e300] {
        // Solve (or re-solve) the key so that a healthy entry is on disk.
        let svc = ScheduleService::start(config()).unwrap();
        svc.request(req.clone()).unwrap();
        svc.shutdown();
        let mut entry = Value::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let Value::Obj(members) = &mut entry else {
            panic!("an entry is an object")
        };
        let (_, stats) = members.iter_mut().find(|(k, _)| k == "stats").unwrap();
        let Value::Obj(stats) = stats else {
            panic!("stats is an object")
        };
        stats
            .iter_mut()
            .find(|(k, _)| k == "solve_time_s")
            .unwrap()
            .1 = Value::from(bad);
        std::fs::write(&path, entry.to_json()).unwrap();

        let service = std::sync::Arc::new(ScheduleService::start(config()).unwrap());
        let handle = teccl_service::serve("127.0.0.1:0", std::sync::Arc::clone(&service)).unwrap();
        let stream = std::net::TcpStream::connect(handle.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        let mut round_trip = |line: &str| {
            writer.write_all(format!("{line}\n").as_bytes()).unwrap();
            let mut reply = String::new();
            reader.read_line(&mut reply).unwrap();
            reply
        };
        let reply = parse_solve_reply(&round_trip(&solve_request_line(&req)))
            .unwrap_or_else(|e| panic!("solve_time_s {bad}: no reply ({e})"));
        assert_eq!(reply.cache, CacheStatus::Miss, "solve_time_s {bad}");
        assert_eq!(reply.quality, Quality::Exact);
        let stats = Value::parse(round_trip(r#"{"verb":"stats"}"#).trim())
            .unwrap_or_else(|e| panic!("solve_time_s {bad}: the connection died ({e})"));
        let quarantined = stats
            .get("stats")
            .and_then(|s| s.get("disk_quarantined"))
            .and_then(Value::as_f64);
        assert_eq!(quarantined, Some(1.0), "solve_time_s {bad}");
        assert!(path.with_extension("json.corrupt").exists());
        handle.shutdown();
        service.shutdown();
    }
}

/// A stored entry whose `topology_used` has fewer nodes than the request's
/// demand names is quarantined like any other invalid schedule; checking
/// its demand used to index past the replay table and panic the thread
/// that probed the store.
#[test]
fn stored_topology_smaller_than_the_demand_is_quarantined() {
    use teccl_util::json::Value;

    let scratch = ScratchDir::new("small-topology");
    let req = small_request();
    let path = scratch.entry_path(&req);
    let config = || ServiceConfig {
        workers: 1,
        disk_dir: Some(scratch.0.clone()),
        ..Default::default()
    };
    let svc = ScheduleService::start(config()).unwrap();
    svc.request(req.clone()).unwrap();
    svc.shutdown();
    // Keep the first two of the ring's three GPUs and the links between
    // them.
    let mut entry = Value::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    let Value::Obj(members) = &mut entry else {
        panic!("an entry is an object")
    };
    let (_, topology) = members
        .iter_mut()
        .find(|(k, _)| k == "topology_used")
        .unwrap();
    let Value::Obj(topology) = topology else {
        panic!("a topology is an object")
    };
    for (key, value) in topology.iter_mut() {
        let Value::Arr(items) = value else { continue };
        match key.as_str() {
            "nodes" => items.truncate(2),
            "links" => items.retain(|l| {
                ["src", "dst"]
                    .iter()
                    .all(|end| l.get(end).and_then(Value::as_usize) < Some(2))
            }),
            _ => {}
        }
    }
    std::fs::write(&path, entry.to_json()).unwrap();

    let svc = ScheduleService::start(config()).unwrap();
    let served = svc.request(req).unwrap();
    assert_eq!(served.cache, CacheStatus::Miss);
    assert_eq!(svc.stats().disk_quarantined, 1);
    assert!(path.with_extension("json.corrupt").exists());
    svc.shutdown();
}
