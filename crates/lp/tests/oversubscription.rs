//! Oversubscription smoke test: more concurrent solves than cores is a
//! *load* condition, never a *correctness* condition.
//!
//! A service with more workers than cores time-slices its solves. Here more
//! OS threads than the host has cores each branch-and-bound the whole
//! corpus at once, and every solve must still match the sequential one bit
//! for bit.

mod common;

use common::{corpus, solve, solve_concurrently};

/// A thread count guaranteed to oversubscribe this host: at least 4, and
/// strictly above whatever parallelism the machine actually has.
fn oversubscribed_threads() -> usize {
    let cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    (cores + 1).max(4)
}

#[test]
fn oversubscribed_bnb_matches_sequential() {
    let threads = oversubscribed_threads();
    let models = corpus(0x5_0b5c_41be, 40);
    let base: Vec<_> = models
        .iter()
        .enumerate()
        .map(|(case, m)| solve(case, m))
        .collect();
    // Every thread solves every case, so all of them contend at once.
    let cases: Vec<usize> = (0..threads).flat_map(|_| 0..models.len()).collect();
    let over = solve_concurrently(&models, &cases, threads);
    assert_eq!(over.len(), cases.len());
    for (case, fp) in over {
        assert_eq!(
            fp, base[case],
            "case {case}: {threads} concurrent solves differ from sequential"
        );
    }
    let solved = base.iter().filter(|f| f.status.has_solution()).count();
    assert!(
        solved >= 10,
        "only {solved} solved MILPs in the smoke corpus"
    );
}
