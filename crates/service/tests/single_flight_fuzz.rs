//! Concurrency tests for the orchestrator: the single-flight guarantee under
//! a deliberate 2-thread race, and an 8-thread × 200-request fuzz over a
//! mixed request pool.

use std::sync::{Arc, Barrier};

use teccl_collective::CollectiveKind;
use teccl_service::{CacheStatus, RequestMethod, ScheduleService, ServiceConfig, SolveRequest};
use teccl_topology::{line_topology, ring_topology};
use teccl_util::Rng64;

fn request_pool() -> Vec<SolveRequest> {
    // Small, fast scenarios: distinct topologies / collectives / sizes /
    // methods so keys, formulations and schedules all differ.
    let mut pool = vec![
        SolveRequest::new(
            ring_topology(3, 1e9, 0.0),
            CollectiveKind::AllGather,
            1,
            64.0 * 1024.0,
        ),
        SolveRequest::new(
            ring_topology(4, 1e9, 0.0),
            CollectiveKind::AllToAll,
            1,
            64.0 * 1024.0,
        ),
        SolveRequest::new(
            line_topology(3, 1e9, 1e-6),
            CollectiveKind::Broadcast,
            1,
            64.0 * 1024.0,
        ),
        SolveRequest::new(
            line_topology(4, 1e9, 0.0),
            CollectiveKind::AllGather,
            1,
            64.0 * 1024.0,
        )
        .with_method(RequestMethod::AStar),
        SolveRequest::new(
            ring_topology(3, 1e9, 0.0),
            CollectiveKind::Gather,
            1,
            32.0 * 1024.0,
        ),
        // Same as pool[0] but one size bucket up: a distinct key in the same
        // family (exercises the warm-hint path during the fuzz).
        SolveRequest::new(
            ring_topology(3, 1e9, 0.0),
            CollectiveKind::AllGather,
            1,
            256.0 * 1024.0,
        ),
    ];
    // And a size-coalescing alias: within the half-octave of pool[0], so it
    // must share pool[0]'s key and cache entry.
    let mut alias = pool[0].clone();
    alias.output_buffer = 64.0 * 1024.0 * 1.07;
    pool.push(alias);
    pool
}

/// The acceptance-criteria race: two threads submit the *same* request at
/// the same time; exactly one solve happens and both get the same entry.
#[test]
fn two_thread_identical_race_solves_once() {
    let svc = Arc::new(ScheduleService::start(ServiceConfig::default()).unwrap());
    let barrier = Arc::new(Barrier::new(2));
    let threads: Vec<_> = (0..2)
        .map(|_| {
            let svc = Arc::clone(&svc);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let req = SolveRequest::new(
                    ring_topology(3, 1e9, 0.0),
                    CollectiveKind::AllGather,
                    1,
                    64.0 * 1024.0,
                );
                barrier.wait();
                svc.request(req).unwrap()
            })
        })
        .collect();
    let results: Vec<_> = threads.into_iter().map(|t| t.join().unwrap()).collect();
    let stats = svc.stats();
    assert_eq!(stats.requests, 2);
    assert_eq!(
        stats.solves, 1,
        "identical race must perform exactly one solve"
    );
    assert!(Arc::ptr_eq(&results[0].entry, &results[1].entry));
    // One of the two owned the solve; the other hit, coalesced, or (if it
    // arrived after completion) hit the cache.
    assert_eq!(stats.hits + stats.coalesced + stats.misses, 2);
    assert_eq!(stats.misses, 1);
    // The replies' cache statuses agree with the counters: exactly one Miss,
    // and the joiner is reported as what it was (Coalesced or Hit), not as a
    // second miss.
    let statuses: Vec<CacheStatus> = results.iter().map(|r| r.cache).collect();
    assert_eq!(
        statuses.iter().filter(|s| **s == CacheStatus::Miss).count(),
        1
    );
    assert_eq!(
        statuses
            .iter()
            .filter(|s| **s == CacheStatus::Coalesced)
            .count() as u64,
        stats.coalesced
    );
    assert_eq!(
        statuses.iter().filter(|s| **s == CacheStatus::Hit).count() as u64,
        stats.hits
    );
}

/// The satellite fuzz: 8 threads × 200 mixed requests. Exactly one solve per
/// unique key, and every reply's schedule is identical to the entry the
/// cache holds for that key.
#[test]
fn eight_thread_mixed_fuzz_single_flight() {
    let pool = request_pool();
    let unique_keys: std::collections::BTreeSet<u64> = pool.iter().map(|r| r.key().hash).collect();
    assert_eq!(
        unique_keys.len(),
        pool.len() - 1,
        "the alias must coalesce with pool[0], everything else is distinct"
    );

    let svc = Arc::new(
        ScheduleService::start(ServiceConfig {
            workers: 4,
            ..Default::default()
        })
        .unwrap(),
    );
    let barrier = Arc::new(Barrier::new(8));
    let threads: Vec<_> = (0..8u64)
        .map(|t| {
            let svc = Arc::clone(&svc);
            let barrier = Arc::clone(&barrier);
            let pool = pool.clone();
            std::thread::spawn(move || {
                let mut rng = Rng64::seed_from_u64(0xf00d + t);
                barrier.wait();
                let mut replies = Vec::new();
                for _ in 0..200 {
                    let req = pool[rng.gen_range_usize(pool.len())].clone();
                    let key = req.key();
                    let served = svc.request(req).expect("fuzz requests all solve");
                    assert_eq!(served.entry.key, key);
                    replies.push(served);
                }
                replies
            })
        })
        .collect();
    let all: Vec<_> = threads
        .into_iter()
        .flat_map(|t| t.join().unwrap())
        .collect();

    let stats = svc.stats();
    assert_eq!(stats.requests, 1600);
    assert_eq!(
        stats.solves,
        unique_keys.len() as u64,
        "exactly one solve per unique key (single-flight): {stats:?}"
    );
    assert_eq!(stats.solve_errors, 0);
    assert_eq!(
        stats.hits + stats.coalesced + stats.misses + stats.disk_hits,
        1600
    );
    assert_eq!(stats.misses, unique_keys.len() as u64);

    // Every waiter received a schedule identical to the cached one: replies
    // for one key all share the same Arc (hit/coalesced fan-out both clone
    // the entry Arc), and its sends match the cache's current entry.
    let mut by_key: std::collections::BTreeMap<u64, Vec<&teccl_service::ServedSchedule>> =
        Default::default();
    for served in &all {
        by_key
            .entry(served.entry.key.hash)
            .or_default()
            .push(served);
    }
    assert_eq!(by_key.len(), unique_keys.len());
    for (key, replies) in by_key {
        let first = &replies[0].entry;
        for r in &replies {
            assert!(
                Arc::ptr_eq(&r.entry, first),
                "key {key:x}: waiter got a different entry"
            );
            assert_eq!(r.entry.output.schedule.sends, first.output.schedule.sends);
        }
        assert!(replies.iter().any(|r| r.cache == CacheStatus::Miss));
    }
}
