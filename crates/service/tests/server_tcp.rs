//! End-to-end test of `teccld`'s TCP protocol: a real Table-4 request
//! (Internal1 x2, ALLGATHER, 16 MB output buffer, A* — the first row of the
//! paper's Table 4 at this reproduction's scale) round-trips over a socket,
//! the reply's schedule validates, and the second ask is a cache hit that
//! performed no solver work.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;

use teccl_collective::CollectiveKind;
use teccl_service::protocol::{parse_solve_reply, solve_request_line};
use teccl_service::{
    serve, CacheStatus, RequestMethod, ScheduleService, ServiceConfig, SolveRequest,
};
use teccl_util::json::Value;

fn table4_request() -> SolveRequest {
    let mut req = SolveRequest::new(
        teccl_topology::internal1(2),
        CollectiveKind::AllGather,
        1,
        16.0 * 1024.0 * 1024.0,
    )
    .with_method(RequestMethod::AStar);
    // The experiment harness's quick_config: early stop at 30%, bounded time.
    req.config.early_stop_gap = Some(0.3);
    req.config.time_limit = Some(std::time::Duration::from_secs(60));
    req
}

#[test]
fn table4_request_roundtrips_over_tcp() {
    let service = Arc::new(
        ScheduleService::start(ServiceConfig {
            workers: 2,
            fault_plan: Some(String::new()),
            ..Default::default()
        })
        .unwrap(),
    );
    let handle = serve("127.0.0.1:0", Arc::clone(&service)).unwrap();
    let addr = handle.addr();

    let stream = TcpStream::connect(addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    let mut round_trip = |request: &str| -> String {
        writer
            .write_all(format!("{request}\n").as_bytes())
            .and_then(|_| writer.flush())
            .unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        line.clone()
    };

    // 1. Solve the Table-4 request; the schedule must come back intact.
    let req = table4_request();
    let reply = parse_solve_reply(&round_trip(&solve_request_line(&req))).unwrap();
    assert_eq!(reply.cache, CacheStatus::Miss);
    assert!(reply.output.schedule.num_sends() > 0);
    assert!(reply.output.metrics.transfer_time > 0.0);
    assert!((reply.chunk_bytes - req.chunk_bytes()).abs() < 1e-6);
    // Validate the wire-delivered schedule against the demand (the default
    // switch model leaves the topology untransformed).
    let report =
        teccl_schedule::validate(&req.topology, &req.demand(), &reply.output.schedule, false);
    assert!(report.is_valid(), "{:?}", report.errors);

    // 2. The identical request again: a hit, and — the acceptance gate — the
    //    solver counters did not move.
    let before = service.stats();
    let reply2 = parse_solve_reply(&round_trip(&solve_request_line(&req))).unwrap();
    assert_eq!(reply2.cache, CacheStatus::Hit);
    assert_eq!(reply2.output.schedule.sends, reply.output.schedule.sends);
    assert_eq!(reply2.output.metrics, reply.output.metrics);
    let after = service.stats();
    assert_eq!(after.solves, before.solves);
    assert_eq!(
        after.solve_simplex_iterations,
        before.solve_simplex_iterations
    );
    assert_eq!(after.hits, before.hits + 1);

    // 3. The stats verb reflects the conversation.
    let stats_line = round_trip(r#"{"verb":"stats"}"#);
    let v = Value::parse(stats_line.trim()).unwrap();
    assert_eq!(v.get("status").and_then(Value::as_str), Some("ok"));
    let stats = v.get("stats").unwrap();
    assert_eq!(stats.get("solves").and_then(Value::as_usize), Some(1));
    assert_eq!(stats.get("hits").and_then(Value::as_usize), Some(1));

    // 4. Evict, then the same request is a miss (and a fresh solve) again.
    let evict_line = round_trip(r#"{"verb":"evict"}"#);
    let v = Value::parse(evict_line.trim()).unwrap();
    assert_eq!(v.get("evicted").and_then(Value::as_usize), Some(1));
    let reply3 = parse_solve_reply(&round_trip(&solve_request_line(&req))).unwrap();
    assert_eq!(reply3.cache, CacheStatus::Miss);
    assert_eq!(
        reply3.output.schedule.sends.len(),
        reply.output.schedule.sends.len()
    );

    // 5. Malformed input gets an error response, not a hangup.
    let err_line = round_trip(r#"{"verb":"solve"}"#);
    let v = Value::parse(err_line.trim()).unwrap();
    assert_eq!(v.get("status").and_then(Value::as_str), Some("error"));

    // 6. Requests the parser refuses never reach the solver or the cache:
    //    degenerate buffer sizes (they would all collapse into the single
    //    `i64::MIN` size bucket and cross-warm-start each other) and config
    //    values that are wrong-typed, non-finite or out of range (an infinite
    //    epoch multiplier used to spend a worker solve and come back as a
    //    solve error; a wrong-typed field was dropped and served under a key
    //    of its own).
    let before = service.stats();
    let bad_sizes = ["0", "-16777216", "1e999"].map(|size| (size, "{}", "invalid_buffer_size"));
    let bad_configs = [
        r#"{"epoch_multiplier":1e999}"#,
        r#"{"astar_gamma":"oops"}"#,
        r#"{"astar_max_rounds":-3}"#,
        r#"{"early_stop_gap":-1e999}"#,
    ]
    .map(|config| ("1024", config, "bad_field"));
    for (size, config, code) in bad_sizes.into_iter().chain(bad_configs) {
        let line = round_trip(&format!(
            r#"{{"verb":"solve","topology":"dgx1","collective":"all_gather","output_buffer":{size},"config":{config}}}"#
        ));
        let v = Value::parse(line.trim()).unwrap();
        assert_eq!(v.get("status").and_then(Value::as_str), Some("error"));
        assert_eq!(
            v.get("code").and_then(Value::as_str),
            Some(code),
            "size {size}, config {config} must be rejected with the typed code: {line}"
        );
    }
    let after = service.stats();
    assert_eq!(after.solves, before.solves);
    assert_eq!(after.misses, before.misses);
    assert_eq!(after.solve_errors, before.solve_errors);

    handle.shutdown();
}

fn quiet_server() -> teccl_service::ServerHandle {
    let service = Arc::new(
        ScheduleService::start(ServiceConfig {
            workers: 1,
            fault_plan: Some(String::new()),
            ..Default::default()
        })
        .unwrap(),
    );
    serve("127.0.0.1:0", service).unwrap()
}

/// A request nested deeper than the parser's limit is answered with a typed
/// error on a connection that keeps working: the parser recurses per level,
/// and without the limit this one line overflowed the connection thread's
/// stack and aborted the whole daemon.
#[test]
fn deeply_nested_request_is_an_error_not_a_crash() {
    let handle = quiet_server();
    let stream = TcpStream::connect(handle.addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut round_trip = |request: &str| -> Value {
        writer
            .write_all(format!("{request}\n").as_bytes())
            .and_then(|_| writer.flush())
            .unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        Value::parse(line.trim()).unwrap()
    };

    for bomb in [
        "[".repeat(300_000),
        "{\"verb\":".repeat(100_000),
        format!(
            "{{\"verb\":\"solve\",\"topology\":{}1{}}}",
            "[".repeat(teccl_util::json::MAX_DEPTH),
            "]".repeat(teccl_util::json::MAX_DEPTH)
        ),
    ] {
        let v = round_trip(&bomb);
        assert_eq!(v.get("status").and_then(Value::as_str), Some("error"));
        assert_eq!(v.get("code").and_then(Value::as_str), Some("bad_json"));
        let message = v.get("message").and_then(Value::as_str).unwrap();
        assert!(message.contains("nesting"), "{message}");
    }

    let v = round_trip(r#"{"verb":"stats"}"#);
    assert_eq!(v.get("status").and_then(Value::as_str), Some("ok"));
    assert_eq!(
        v.get("stats")
            .and_then(|s| s.get("solves"))
            .and_then(Value::as_usize),
        Some(0)
    );
    handle.shutdown();
}

/// A request asking for more chunks or epochs than the caps allow is refused
/// as `bad_field` before it is keyed or queued — its model would be laid out
/// before any deadline is checked — and the connection keeps serving.
#[test]
fn oversized_chunks_or_epochs_are_refused_and_the_daemon_keeps_serving() {
    let handle = quiet_server();
    let stream = TcpStream::connect(handle.addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut round_trip = |request: &str| -> Value {
        writer
            .write_all(format!("{request}\n").as_bytes())
            .and_then(|_| writer.flush())
            .unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        Value::parse(line.trim()).unwrap()
    };

    let solve =
        r#"{"verb":"solve","topology":"dgx1","collective":"all_gather","output_buffer":1024"#;
    for extra in [
        r#""chunks":1e9"#,
        r#""chunks":257"#,
        r#""config":{"max_epochs":1e9}"#,
        r#""config":{"astar_epochs_per_round":1025}"#,
    ] {
        let v = round_trip(&format!("{solve},{extra}}}"));
        assert_eq!(v.get("status").and_then(Value::as_str), Some("error"));
        assert_eq!(
            v.get("code").and_then(Value::as_str),
            Some("bad_field"),
            "{extra}"
        );
    }

    let v = round_trip(r#"{"verb":"stats"}"#);
    assert_eq!(v.get("status").and_then(Value::as_str), Some("ok"));
    let stats = v.get("stats").unwrap();
    for counter in ["solves", "misses"] {
        assert_eq!(stats.get(counter).and_then(Value::as_usize), Some(0));
    }
    handle.shutdown();
}

/// A stream that never sends a newline gets one error reply once it passes
/// the line cap and is then disconnected; the daemon keeps serving others.
#[test]
fn overlong_line_gets_one_error_and_a_close() {
    use std::io::Read;
    use teccl_service::server::MAX_LINE_BYTES;

    let handle = quiet_server();
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    let mut reader = stream.try_clone().unwrap();
    // The reply arrives while the tail of the flood is still in flight.
    let flood = std::thread::spawn(move || {
        let chunk = vec![b' '; 1 << 20];
        for _ in 0..MAX_LINE_BYTES / chunk.len() + 2 {
            if stream.write_all(&chunk).is_err() {
                break;
            }
        }
    });
    let mut replies = String::new();
    reader.read_to_string(&mut replies).unwrap();
    flood.join().unwrap();
    assert_eq!(replies.lines().count(), 1, "{replies}");
    let v = Value::parse(replies.trim()).unwrap();
    assert_eq!(v.get("status").and_then(Value::as_str), Some("error"));
    assert_eq!(v.get("code").and_then(Value::as_str), Some("bad_json"));
    let message = v.get("message").and_then(Value::as_str).unwrap();
    assert!(message.contains("exceeds"), "{message}");

    // A line of exactly the cap is still a line (blank here, so skipped),
    // and the daemon is still there for the next client.
    let stream = TcpStream::connect(handle.addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    writer.write_all(&vec![b' '; MAX_LINE_BYTES]).unwrap();
    writer.write_all(b"\n{\"verb\":\"stats\"}\n").unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let v = Value::parse(line.trim()).unwrap();
    assert_eq!(v.get("status").and_then(Value::as_str), Some("ok"));
    handle.shutdown();
}
