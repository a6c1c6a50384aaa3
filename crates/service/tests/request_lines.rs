//! Golden request lines: `solve_request_line` must render each request
//! below to the committed line in `data/request_lines.jsonl`, byte for
//! byte, and each committed line must parse back to a request that renders
//! to the same line.
//!
//! The set covers a builtin-topology ALLTOALL LP with and without a
//! deadline, an ALLGATHER with every optional config member set, every
//! other non-default config value, and a hand-built topology whose name
//! needs escapes and whose numbers need their fractional digits.

use std::time::Duration;

use teccl_collective::CollectiveKind;
use teccl_core::{BufferMode, EpochStrategy, SolverConfig, SwitchModel};
use teccl_service::protocol::{parse_request, solve_request_line, Request};
use teccl_service::{builtin_topology, RequestMethod, SolveRequest};
use teccl_topology::Topology;

const GOLDEN: &str = include_str!("data/request_lines.jsonl");

fn requests() -> Vec<SolveRequest> {
    let dgx1 = builtin_topology("dgx1").unwrap();
    let internal1x2 = builtin_topology("internal1x2").unwrap();
    let alltoall = SolveRequest::new(dgx1, CollectiveKind::AllToAll, 2, 16.0 * 1024.0 * 1024.0)
        .with_method(RequestMethod::Lp);
    let hurried = alltoall.clone().with_deadline(Duration::from_millis(250));
    let allgather = SolveRequest::new(internal1x2, CollectiveKind::AllGather, 3, 1.5e6)
        .with_method(RequestMethod::AStar)
        .with_config(SolverConfig {
            buffer_mode: BufferMode::LimitedChunks(3),
            chunk_priorities: Some(vec![1.0, 0.5, 2.25]),
            time_limit: Some(Duration::from_millis(1500)),
            max_epochs: Some(12),
            early_stop_gap: Some(0.3),
            astar_epochs_per_round: Some(4),
            ..SolverConfig::default()
        });

    let mut odd = Topology::new("a \"quoted\"\tname\n");
    let a = odd.add_gpu("gpu/0", 0);
    let b = odd.add_gpu("gpu/1", 1);
    let s = odd.add_switch("sw", 0);
    odd.add_bilink(a, s, 12.5e9, 0.75e-6);
    odd.add_bilink(b, s, 1.0 / 3.0, 0.0);
    odd.add_link(a, b, 25e9, 1e-7);
    let scatter = SolveRequest::new(odd, CollectiveKind::Scatter, 1, 1000.5)
        .with_method(RequestMethod::Milp)
        .with_config(SolverConfig {
            epoch_strategy: EpochStrategy::SlowestLink,
            epoch_multiplier: 1.5,
            switch_model: SwitchModel::NonCopy,
            buffer_mode: BufferMode::NoStoreAndForward,
            astar_gamma: 0.75,
            astar_max_rounds: 30,
            ..SolverConfig::default()
        })
        .with_deadline(Duration::from_micros(12_500));
    let hyper = SolveRequest::new(
        builtin_topology("internal2").unwrap(),
        CollectiveKind::Broadcast,
        1,
        64.0,
    )
    .with_config(SolverConfig {
        switch_model: SwitchModel::HyperEdge,
        ..SolverConfig::default()
    });
    vec![alltoall, hurried, allgather, scatter, hyper]
}

#[test]
fn request_lines_match_the_golden_file_byte_for_byte() {
    let golden: Vec<&str> = GOLDEN.lines().collect();
    let requests = requests();
    assert_eq!(golden.len(), requests.len(), "one golden line per request");
    for (i, (req, want)) in requests.iter().zip(&golden).enumerate() {
        assert_eq!(solve_request_line(req), *want, "request {i}");
    }
}

#[test]
fn golden_lines_parse_back_to_the_same_line() {
    for (i, line) in GOLDEN.lines().enumerate() {
        let Ok(Request::Solve(req)) = parse_request(line) else {
            panic!("line {i} is not a solve request");
        };
        assert_eq!(solve_request_line(&req), line, "line {i}");
    }
}
