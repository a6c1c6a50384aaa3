//! Answers do not depend on request order. A warm-start basis is only a
//! hint: whichever basis the service's book hands a solve, and whether the
//! answer comes from a solve or back from the disk store, every key of the
//! benchmark's `service_churn` stream (six families at eight half-octave
//! sizes) must get the schedule its cold solve gives — the same sends and
//! the same number of epochs.
//!
//! No published basis carries the factors its solve ended on: they serve
//! warm starts inside one solve only, so neither a solve's outcome — the
//! source of the service's basis book — nor the disk store ever holds them.

use std::path::PathBuf;

use teccl_collective::CollectiveKind::{self, AllGather, AllToAll};
use teccl_core::{SolveOutcome, TeCcl};
use teccl_lp::SimplexBasis;
use teccl_schedule::{Schedule, Send};
use teccl_service::RequestMethod::{self, AStar, Lp, Milp};
use teccl_service::{
    builtin_topology, CacheStatus, DiskStore, Quality, ScheduleService, ServiceConfig, SolveRequest,
};

/// The `service_churn` families: topology, collective, method, chunks, each
/// asked at 1 MB × 2^(h/2) for h in 0..8.
const FAMILIES: [(&str, CollectiveKind, RequestMethod, usize); 6] = [
    ("dgx1", AllToAll, Lp, 1),
    ("ndv2", AllToAll, Lp, 1),
    ("internal2x3", AllToAll, Lp, 1),
    ("internal1x2", AllGather, AStar, 1),
    ("internal2x4", AllGather, AStar, 1),
    ("internal1", AllGather, Milp, 2),
];
const SIZES: usize = 8;

/// The 48 keys, family by family, sizes ascending.
fn churn_requests() -> Vec<SolveRequest> {
    FAMILIES
        .iter()
        .flat_map(|&(topology, collective, method, chunks)| {
            (0..SIZES).map(move |half_octaves| {
                let mb = 2f64.powf(half_octaves as f64 / 2.0);
                SolveRequest::new(
                    builtin_topology(topology).expect("builtin topology"),
                    collective,
                    chunks,
                    (mb * 1048576.0).round(),
                )
                .with_method(method)
            })
        })
        .collect()
}

/// What must not depend on the order: the sends (a schedule lists them in
/// no particular order) and the epochs the schedule spans.
fn answer(schedule: &Schedule) -> (Vec<Send>, usize) {
    let mut sends = schedule.sends.clone();
    sends.sort_by_key(|s| (s.epoch, s.from, s.to, s.chunk));
    (sends, schedule.num_epochs)
}

/// `request` solved from `warm`, with no carried factors in its outcome.
fn solve(request: &SolveRequest, warm: Option<&SimplexBasis>) -> SolveOutcome {
    let outcome = TeCcl::new((*request.topology).clone(), request.config.clone())
        .solve(
            &request.demand(),
            request.chunk_bytes(),
            request.method,
            warm,
        )
        .unwrap_or_else(|e| panic!("{}: {e}", name(request)));
    assert!(
        outcome.basis.as_ref().is_none_or(|b| b.factors.is_none()),
        "{}: the published basis carries factors",
        name(request)
    );
    outcome
}

fn name(request: &SolveRequest) -> String {
    format!(
        "{} {:?} x{} @ {} B via {}",
        request.topology.name,
        request.collective,
        request.chunks,
        request.output_buffer,
        request.method.name()
    )
}

/// A scratch directory for the disk store, removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new() -> ScratchDir {
        let dir =
            std::env::temp_dir().join(format!("teccl-order-independence-{}", std::process::id()));
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

#[test]
fn churn_answers_do_not_depend_on_request_order() {
    let requests = churn_requests();
    assert_eq!(requests.len(), 48);
    let cold: Vec<SolveOutcome> = requests.iter().map(|r| solve(r, None)).collect();

    // Every basis the book could hand a key: the one its own bucket or a
    // bucket within two half-octaves of its family published.
    let (mut hinted, mut warm_started) = (0, 0);
    for (i, request) in requests.iter().enumerate() {
        let key = request.key();
        for (j, neighbour) in requests.iter().enumerate() {
            let near = neighbour.key();
            if near.family != key.family || (near.size_bucket - key.size_bucket).abs() > 2 {
                continue;
            }
            let Some(basis) = cold[j].basis.as_ref() else {
                continue;
            };
            let warm = solve(request, Some(basis));
            let what = format!("{} from the basis of {}", name(request), name(neighbour));
            assert_eq!(warm.num_epochs, cold[i].num_epochs, "{what}: horizon");
            assert_eq!(
                answer(&warm.schedule),
                answer(&cold[i].schedule),
                "{what}: schedule"
            );
            hinted += 1;
            warm_started += usize::from(warm.stats.warm_starts > 0);
        }
    }
    // The three LP families and the MILP family publish bases; A* never
    // does. A basis of another horizon's shape starts cold, so only some of
    // the hinted solves start warm.
    assert!(hinted >= 4 * SIZES, "only {hinted} hinted solves");
    assert!(warm_started > 0, "no hinted solve started warm");

    // Through the service, largest sizes first so its own book hints each
    // solve from what it solved before, and back from the disk store after
    // a restart.
    let scratch = ScratchDir::new();
    let config = || ServiceConfig {
        workers: 1,
        cache_capacity: 16,
        disk_dir: Some(scratch.0.clone()),
        ..Default::default()
    };
    for expected in [CacheStatus::Miss, CacheStatus::DiskHit] {
        if expected == CacheStatus::DiskHit {
            let disk = DiskStore::open(&scratch.0).unwrap();
            let mut stored = 0;
            for request in &requests {
                let (_, basis) = disk.load(request.key(), request).expect("stored");
                assert!(basis.as_ref().is_none_or(|b| b.factors.is_none()));
                stored += usize::from(basis.is_some());
            }
            assert!(stored >= 4 * SIZES, "only {stored} stored bases");
        }
        let service = ScheduleService::start(config()).unwrap();
        for (request, cold) in requests.iter().zip(&cold).rev() {
            let served = service.request(request.clone()).unwrap();
            let what = format!("{} ({expected:?})", name(request));
            assert_eq!(served.cache, expected, "{what}");
            assert_eq!(served.quality, Quality::Exact, "{what}");
            assert_eq!(
                answer(&served.entry.output.schedule),
                answer(&cold.schedule),
                "{what}: schedule"
            );
        }
        service.shutdown();
    }
}
