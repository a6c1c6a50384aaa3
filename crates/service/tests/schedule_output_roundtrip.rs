//! Satellite property test: `ScheduleOutput` JSON round-trips exactly for
//! real solver outputs across the Table-4 scenario set — serialize →
//! deserialize → `validate` still passes and the metrics are bit-identical.
//!
//! The A* rows run at the paper's full 16 MB buffer; the ALLTOALL LP rows
//! run at reduced chassis counts — the full internal1(2)/internal2(4)
//! ALLTOALL LPs are the ~100k-iteration instances of Table 4 (minutes in a
//! debug build) and the serialization path under test is independent of LP
//! size. The same reduced-scale convention applies throughout
//! `teccl-bench` (see its crate docs).
//!
//! Golden half: the documents are rendered from one `Emit` definition per
//! type; the trees they replaced are rebuilt here by hand, field by field,
//! and the text must match them byte for byte — on the Table-4 outputs and,
//! for the `solve` reply, on every cache status × quality.

use std::sync::Arc;

use teccl_collective::{CollectiveKind, DemandMatrix};
use teccl_core::{SolverConfig, TeCcl};
use teccl_schedule::{simulate, validate, CollectiveMetrics, ScheduleOutput};
use teccl_service::protocol::{parse_solve_reply, solve_response};
use teccl_service::{
    CacheEntry, CacheStatus, Quality, RequestMethod, ServedSchedule, SolveRequest,
};
use teccl_topology::{internal1, internal2, NodeId, Topology};
use teccl_util::json::{self, Value};

/// The `ScheduleOutput` document as a hand-built tree.
fn reference_output_tree(out: &ScheduleOutput) -> Value {
    let (s, m) = (&out.schedule, &out.metrics);
    Value::obj(vec![
        (
            "schedule",
            Value::obj(vec![
                ("name", Value::from(s.name.clone())),
                ("chunk_bytes", Value::from(s.chunk_bytes)),
                ("epoch_duration", Value::from(s.epoch_duration)),
                ("num_epochs", Value::from(s.num_epochs)),
                ("solver_time", Value::from(s.solver_time)),
                (
                    "sends",
                    Value::Arr(
                        s.sends
                            .iter()
                            .map(|s| {
                                Value::obj(vec![
                                    ("source", Value::from(s.chunk.source.0)),
                                    ("chunk", Value::from(s.chunk.chunk)),
                                    ("from", Value::from(s.from.0)),
                                    ("to", Value::from(s.to.0)),
                                    ("epoch", Value::from(s.epoch)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        ),
        (
            "metrics",
            Value::obj(vec![
                ("solver", Value::from(m.solver.clone())),
                ("epoch_duration", Value::from(m.epoch_duration)),
                ("transfer_time", Value::from(m.transfer_time)),
                ("solver_time", Value::from(m.solver_time)),
                ("output_buffer_bytes", Value::from(m.output_buffer_bytes)),
                ("bytes_on_wire", Value::from(m.bytes_on_wire)),
            ]),
        ),
    ])
}

/// The `solve` reply as a hand-built tree.
fn reference_reply_tree(served: &ServedSchedule) -> Value {
    let e = &served.entry;
    Value::obj(vec![
        ("status", Value::from("ok")),
        ("cache", Value::from(served.cache.name())),
        ("quality", Value::from(served.quality.name())),
        ("key", Value::from(format!("{:016x}", e.key.hash))),
        ("chunk_bytes", Value::from(e.chunk_bytes)),
        ("output", reference_output_tree(&e.output)),
        (
            "solve",
            Value::obj(vec![
                (
                    "simplex_iterations",
                    Value::from(e.stats.simplex_iterations),
                ),
                ("warm_starts", Value::from(e.stats.warm_starts)),
                ("cold_starts", Value::from(e.stats.cold_starts)),
                ("nodes_explored", Value::from(e.stats.nodes_explored)),
                (
                    "iteration_limit_hit",
                    Value::from(e.stats.iteration_limit_hit),
                ),
            ]),
        ),
    ])
}

/// Text and tree forms of `out` against the hand-built tree.
fn assert_output_golden(name: &str, out: &ScheduleOutput) {
    let reference = reference_output_tree(out);
    assert_eq!(out.to_json_value(), reference, "{name}");
    assert_eq!(out.to_json_value().to_json(), reference.to_json(), "{name}");
    let mut text = String::new();
    json::write_json(out, &mut text);
    assert_eq!(text, reference.to_json(), "{name}");
}

/// The reply for `entry` under every cache status × quality: the rendered
/// line is the hand-built tree's text, and the client reads back exactly
/// what the entry holds.
fn assert_replies_golden(name: &str, entry: CacheEntry) {
    let entry = Arc::new(entry);
    for cache in [
        CacheStatus::Hit,
        CacheStatus::DiskHit,
        CacheStatus::Coalesced,
        CacheStatus::Miss,
    ] {
        for quality in [
            Quality::Exact,
            Quality::Incumbent,
            Quality::Stale,
            Quality::Baseline,
        ] {
            let served = ServedSchedule {
                entry: Arc::clone(&entry),
                cache,
                quality,
            };
            let what = format!("{name} {cache:?} {quality:?}");
            let line = solve_response(&served).to_json();
            let reference = reference_reply_tree(&served);
            assert_eq!(line, reference.to_json(), "{what}");
            assert_eq!(
                json::to_value(&solve_response(&served)),
                reference,
                "{what}"
            );

            let reply = parse_solve_reply(&line).unwrap_or_else(|e| panic!("{what}: {e}"));
            assert_eq!((reply.cache, reply.quality), (cache, quality), "{what}");
            assert_eq!(reply.key, format!("{:016x}", entry.key.hash), "{what}");
            assert_eq!(
                reply.chunk_bytes.to_bits(),
                entry.chunk_bytes.to_bits(),
                "{what}"
            );
            assert_eq!(
                reply.output.metrics.transfer_time.to_bits(),
                entry.output.metrics.transfer_time.to_bits(),
                "{what}"
            );
            assert_eq!(reply.output.metrics, entry.output.metrics, "{what}");
            assert_eq!(
                reply.output.schedule.sends, entry.output.schedule.sends,
                "{what}"
            );
        }
    }
}

fn table4_cases() -> Vec<(&'static str, Topology, CollectiveKind, RequestMethod, f64)> {
    const MB: f64 = 1024.0 * 1024.0;
    vec![
        (
            "internal1x2-ag-astar-16M",
            internal1(2),
            CollectiveKind::AllGather,
            RequestMethod::AStar,
            16.0 * MB,
        ),
        (
            "internal1x1-atoa-lp-1M",
            internal1(1),
            CollectiveKind::AllToAll,
            RequestMethod::Lp,
            MB,
        ),
        (
            "internal2x4-ag-astar-16M",
            internal2(4),
            CollectiveKind::AllGather,
            RequestMethod::AStar,
            16.0 * MB,
        ),
        (
            "internal2x2-atoa-lp-1M",
            internal2(2),
            CollectiveKind::AllToAll,
            RequestMethod::Lp,
            MB,
        ),
    ]
}

#[test]
fn table4_outputs_roundtrip_bit_exactly() {
    for (name, topo, kind, method, size) in table4_cases() {
        let mut config = SolverConfig::early_stop();
        config.time_limit = Some(std::time::Duration::from_secs(60));
        let request = SolveRequest::new(topo.clone(), kind, 1, size)
            .with_method(method)
            .with_config(config.clone());
        let demand: DemandMatrix = request.demand();
        let chunk_bytes = request.chunk_bytes();
        let solver = TeCcl::new(topo.clone(), config);
        let outcome = solver
            .solve(&demand, chunk_bytes, method, None)
            .unwrap_or_else(|e| panic!("{name}: solve failed: {e}"));

        let sim = simulate(&outcome.topology_used, &demand, &outcome.schedule).unwrap();
        let output = ScheduleOutput {
            schedule: outcome.schedule,
            metrics: CollectiveMetrics {
                solver: format!("te-ccl-{name}"),
                epoch_duration: outcome.epoch_duration,
                transfer_time: sim.transfer_time,
                solver_time: outcome.solver_time.as_secs_f64(),
                output_buffer_bytes: request.output_buffer,
                bytes_on_wire: sim.bytes_on_wire,
            },
        };

        assert_output_golden(name, &output);
        assert_replies_golden(
            name,
            CacheEntry {
                key: request.key(),
                output: output.clone(),
                topology_used: outcome.topology_used.clone(),
                chunk_bytes,
                stats: outcome.stats.clone(),
                quality: Quality::Exact,
            },
        );

        // serialize → deserialize…
        let text = output.to_json_value().to_json();
        let back = ScheduleOutput::from_json_str(&text)
            .unwrap_or_else(|e| panic!("{name}: reparse failed: {e}"));

        // …validate still passes…
        let report = validate(&outcome.topology_used, &demand, &back.schedule, false);
        assert!(report.is_valid(), "{name}: {:?}", report.errors);
        assert_eq!(back.schedule.sends, output.schedule.sends, "{name}");
        assert_eq!(
            back.schedule.num_epochs, output.schedule.num_epochs,
            "{name}"
        );

        // …and the metrics are bit-identical, field by field.
        let (a, b) = (&back.metrics, &output.metrics);
        assert_eq!(a.solver, b.solver, "{name}");
        for (field, x, y) in [
            ("epoch_duration", a.epoch_duration, b.epoch_duration),
            ("transfer_time", a.transfer_time, b.transfer_time),
            ("solver_time", a.solver_time, b.solver_time),
            (
                "output_buffer_bytes",
                a.output_buffer_bytes,
                b.output_buffer_bytes,
            ),
            ("bytes_on_wire", a.bytes_on_wire, b.bytes_on_wire),
        ] {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{name}: metric {field} not bit-identical"
            );
        }

        // The simulator agrees with itself on the reparsed schedule — the
        // round trip did not perturb anything the α–β model observes.
        let sim2 = simulate(&outcome.topology_used, &demand, &back.schedule).unwrap();
        assert_eq!(
            sim2.transfer_time.to_bits(),
            sim.transfer_time.to_bits(),
            "{name}"
        );
    }

    // Pure property sweep on top of the real outputs: random schedules with
    // adversarial float values round-trip exactly.
    let mut rng = teccl_util::Rng64::seed_from_u64(42);
    for case in 0..50 {
        let mut s = teccl_schedule::Schedule::new(format!("prop-{case}"), rng.gen_f64() * 1e9);
        s.epoch_duration = rng.gen_f64() * 1e-3;
        s.solver_time = rng.gen_f64() * 100.0;
        for _ in 0..rng.gen_range_usize(20) {
            s.push(
                teccl_schedule::ChunkId::new(
                    NodeId(rng.gen_range_usize(8)),
                    rng.gen_range_usize(4),
                ),
                NodeId(rng.gen_range_usize(8)),
                NodeId(rng.gen_range_usize(8)),
                rng.gen_range_usize(12),
            );
        }
        let out = ScheduleOutput {
            schedule: s,
            metrics: CollectiveMetrics {
                solver: format!("prop-{case}"),
                epoch_duration: rng.gen_f64() / 3.0,
                transfer_time: rng.gen_f64() * 1e-2 + 1e-9,
                solver_time: rng.gen_f64() * 7.0,
                output_buffer_bytes: rng.gen_f64() * 1e12,
                bytes_on_wire: rng.gen_f64() * 1e12,
            },
        };
        assert_output_golden(&out.metrics.solver, &out);
        if case % 10 == 0 {
            // Replies whose key, chunk size and counters are not a solver's.
            let stats = teccl_lp::SolveStats {
                simplex_iterations: rng.gen_range_usize(1 << 20),
                warm_starts: rng.gen_range_usize(100),
                cold_starts: rng.gen_range_usize(100),
                nodes_explored: rng.gen_range_usize(1000),
                iteration_limit_hit: case % 20 == 0,
                ..Default::default()
            };
            assert_replies_golden(
                &out.metrics.solver,
                CacheEntry {
                    key: teccl_service::RequestKey {
                        family: rng.next_u64(),
                        size_bucket: 40,
                        hash: rng.next_u64() >> rng.gen_range_usize(64),
                    },
                    output: out.clone(),
                    topology_used: internal1(1),
                    chunk_bytes: out.schedule.chunk_bytes,
                    stats,
                    quality: Quality::Baseline,
                },
            );
        }
        let back = ScheduleOutput::from_json_str(&out.to_json_value().to_json()).unwrap();
        assert_eq!(back.schedule.sends, out.schedule.sends);
        assert_eq!(back.metrics, out.metrics);
        assert_eq!(
            back.metrics.transfer_time.to_bits(),
            out.metrics.transfer_time.to_bits()
        );
        assert_eq!(
            back.metrics.output_buffer_bytes.to_bits(),
            out.metrics.output_buffer_bytes.to_bits()
        );
    }
}
