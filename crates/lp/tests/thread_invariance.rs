//! Thread-count invariance: every solve runs on one thread and shares no
//! state, so how many solves run side by side is a *how*, never a *what*.
//!
//! The service's worker pool is the solver's only parallelism. Over a seeded
//! random-MILP corpus, solving the cases spread over 2 and 4 concurrent OS
//! threads must reproduce the sequential solves bit for bit: same status,
//! same objective and values, same pivots and nodes.

mod common;

use common::{corpus, solve, solve_concurrently, Fingerprint};
use teccl_lp::SolveStatus;

#[test]
fn milp_statuses_and_objectives_are_thread_count_invariant() {
    let models = corpus(0x7452_ead5, 200);
    let base: Vec<Fingerprint> = models
        .iter()
        .enumerate()
        .map(|(case, m)| solve(case, m))
        .collect();
    let cases: Vec<usize> = (0..models.len()).collect();
    for threads in [2, 4] {
        let par = solve_concurrently(&models, &cases, threads);
        assert_eq!(par.len(), models.len());
        for (case, fp) in par {
            assert_eq!(
                fp, base[case],
                "case {case}: {threads} threads differ from sequential"
            );
        }
    }
    // The corpus must exercise both agreement modes.
    let solved = base.iter().filter(|f| f.status.has_solution()).count();
    let infeasible = base
        .iter()
        .filter(|f| f.status == SolveStatus::Infeasible)
        .count();
    assert!(solved >= 60, "only {solved} solved MILPs");
    assert!(infeasible >= 10, "only {infeasible} infeasible MILPs");
}
