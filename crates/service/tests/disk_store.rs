//! The disk store's format and its ordering against `evict`.
//!
//! * An entry written pretty-printed by an earlier build (committed under
//!   `tests/data/`) still loads, validates and serves the reply that build
//!   gave from the same file, byte for byte.
//! * For every `service_churn` family, a saved and reloaded entry renders
//!   the reply it rendered before the save, and the reload kept the
//!   schedule's compact text, so that reply formats nothing.
//! * A compact entry cut short anywhere is quarantined, never a panic.
//! * A miss's reply goes out before its save, and an `evict` sent as soon
//!   as the reply is read still leaves no file behind.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use teccl_collective::CollectiveKind::{self, AllGather, AllToAll};
use teccl_service::protocol::{parse_solve_reply, solve_request_line, solve_response};
use teccl_service::RequestMethod::{self, AStar, Lp, Milp};
use teccl_service::{
    builtin_topology, serve, CacheEntry, CacheStatus, DiskStore, Quality, ScheduleService,
    ServedSchedule, ServiceConfig, SolveRequest,
};

/// A scratch directory, removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> ScratchDir {
        let dir = std::env::temp_dir().join(format!("teccl-disk-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn config(dir: &Path) -> ServiceConfig {
    ServiceConfig {
        workers: 1,
        disk_dir: Some(dir.to_path_buf()),
        ..Default::default()
    }
}

/// The `solve` reply line for `entry`, as the server writes it.
fn reply(entry: &Arc<CacheEntry>, cache: CacheStatus) -> String {
    solve_response(&ServedSchedule {
        entry: Arc::clone(entry),
        cache,
        quality: entry.quality,
    })
    .to_json()
}

/// Whether the schedule's reply text is already in hand (the memo's
/// `Debug` form says so).
fn text_kept(entry: &CacheEntry) -> bool {
    format!("{:?}", entry.output.schedule).contains("RenderedOnce(rendered)")
}

fn request(
    topology: &str,
    collective: CollectiveKind,
    method: RequestMethod,
    chunks: usize,
) -> SolveRequest {
    SolveRequest::new(
        builtin_topology(topology).unwrap(),
        collective,
        chunks,
        1048576.0,
    )
    .with_method(method)
}

#[test]
fn a_parent_format_entry_serves_the_parent_reply() {
    let scratch = ScratchDir::new("parent-format");
    let req = request("dgx1", AllToAll, Lp, 1);
    let store = DiskStore::open(&scratch.0).unwrap();
    let entry = include_str!("data/parent_entry_dgx1_alltoall_lp_1mib.json");
    assert!(entry.contains('\n'), "the fixture is the pretty format");
    std::fs::write(store.path_for(req.key()), entry).unwrap();

    let (loaded, basis) = store.load(req.key(), &req).expect("loads and validates");
    assert!(basis.is_some(), "the fixture carries a basis");
    assert_eq!(loaded.quality, Quality::Exact);
    assert!(
        !text_kept(&loaded),
        "a pretty schedule is rendered at its first reply"
    );
    assert_eq!(store.quarantined(), 0);

    let service = ScheduleService::start(config(&scratch.0)).unwrap();
    let served = service.request(req).unwrap();
    assert_eq!(served.cache, CacheStatus::DiskHit);
    assert_eq!(
        solve_response(&served).to_json() + "\n",
        include_str!("data/parent_reply_dgx1_alltoall_lp_1mib.json")
    );
    assert_eq!(service.stats().solves, 0);
    service.shutdown();
}

#[test]
fn every_churn_family_replies_the_same_after_a_save_and_a_load() {
    let scratch = ScratchDir::new("families");
    let families = [
        request("dgx1", AllToAll, Lp, 1),
        request("ndv2", AllToAll, Lp, 1),
        request("internal2x3", AllToAll, Lp, 1),
        request("internal1x2", AllGather, AStar, 1),
        request("internal2x4", AllGather, AStar, 1),
        request("internal1", AllGather, Milp, 2),
    ];
    let service = ScheduleService::start(ServiceConfig {
        disk_dir: None,
        ..config(&scratch.0)
    })
    .unwrap();
    let store = DiskStore::open(&scratch.0).unwrap();
    for req in families {
        let name = format!("{} {:?}", req.topology.name, req.collective);
        let solved = service.request(req.clone()).unwrap().entry;
        for cache in [CacheStatus::Miss, CacheStatus::Hit, CacheStatus::DiskHit] {
            let before = reply(&solved, cache);
            let basis = teccl_lp::SimplexBasis {
                basic: vec![3, 1],
                status: vec![teccl_lp::VarStatus::Basic; 4],
                factors: None,
            };
            store.save(&solved, Some(&basis)).unwrap();
            let text = std::fs::read_to_string(store.path_for(solved.key)).unwrap();
            assert_eq!(text.lines().count(), 1, "{name}: one compact line");
            let (loaded, back) = store.load(solved.key, &req).expect("loads and validates");
            assert_eq!(back, Some(basis), "{name}");
            assert!(
                text_kept(&loaded),
                "{name}: the compact schedule text is kept"
            );
            assert_eq!(
                reply(&Arc::new(loaded), cache),
                before,
                "{name} ({cache:?})"
            );
        }
    }
    assert_eq!(store.quarantined(), 0);
    service.shutdown();
}

#[test]
fn a_torn_compact_entry_is_quarantined() {
    let scratch = ScratchDir::new("torn");
    let req = request("dgx1", AllToAll, Lp, 1);
    let service = ScheduleService::start(config(&scratch.0)).unwrap();
    service.request(req.clone()).unwrap();
    service.shutdown();
    let store = DiskStore::open(&scratch.0).unwrap();
    let path = store.path_for(req.key());
    let text = std::fs::read(&path).unwrap();
    let last = text.trim_ascii_end().len() - 1;
    assert_eq!(text[last], b'}');
    let cuts: Vec<usize> = (0..last).step_by(97).chain([last]).collect();
    for (i, &cut) in cuts.iter().enumerate() {
        std::fs::write(&path, &text[..cut]).unwrap();
        assert!(store.load(req.key(), &req).is_none(), "cut at byte {cut}");
        assert_eq!(store.quarantined(), i as u64 + 1, "cut at byte {cut}");
        assert!(!path.exists(), "cut at byte {cut}: moved aside");
    }
    // The whole text still loads.
    std::fs::write(&path, &text).unwrap();
    assert!(store.load(req.key(), &req).is_some());
}

/// Whether `dir` holds any stored entry.
fn stored_entries(dir: &Path) -> Vec<String> {
    std::fs::read_dir(dir)
        .unwrap()
        .flatten()
        .map(|f| f.file_name().to_string_lossy().into_owned())
        .filter(|name| name.starts_with("sched-") && name.ends_with(".json"))
        .collect()
}

#[test]
fn an_evict_sent_on_a_miss_reply_leaves_no_entry_behind() {
    let scratch = ScratchDir::new("evict-order");
    let req = SolveRequest::new(
        teccl_topology::ring_topology(3, 1e9, 0.0),
        AllGather,
        1,
        64.0 * 1024.0,
    );
    let service = Arc::new(ScheduleService::start(config(&scratch.0)).unwrap());
    let handle = serve("127.0.0.1:0", Arc::clone(&service)).unwrap();
    let stream = TcpStream::connect(handle.addr()).unwrap();
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
    let line = solve_request_line(&req);
    for i in 0..200 {
        let reply = parse_solve_reply(&round_trip(&line)).unwrap();
        assert_eq!(reply.cache, CacheStatus::Miss, "round {i}");
        let evicted = round_trip(r#"{"verb":"evict"}"#);
        assert!(evicted.contains(r#""status":"ok""#), "round {i}: {evicted}");
        assert_eq!(
            stored_entries(&scratch.0),
            Vec::<String>::new(),
            "round {i}"
        );
    }
    handle.shutdown();
    // Every save has finished once the workers are joined.
    service.shutdown();
    assert_eq!(stored_entries(&scratch.0), Vec::<String>::new());
    assert_eq!(service.stats().solves, 200);
}
