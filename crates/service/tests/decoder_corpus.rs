//! The request decoder reads a line straight off its text
//! (`protocol::parse_request`, which runs `SolveRequest::decode`). This
//! corpus checks that every request the repository can express, restyled
//! the ways other writers would write it, decodes to the `SolveRequest` it
//! was written from, and that every malformed line gets the error code
//! pinned for it. A connection reads its lines through a `TopologyMemo`;
//! the corpus checks that the memo changes no answer.

use std::collections::BTreeMap;

use teccl_collective::CollectiveKind;
use teccl_core::{BufferMode, EpochStrategy, SolverConfig, SwitchModel};
use teccl_service::protocol::{parse_request, solve_request_line, Request, TopologyMemo};
use teccl_service::{builtin_topology, RequestError, RequestMethod, SolveRequest};
use teccl_util::json::Value;

const TOPOLOGIES: &[&str] = &[
    "dgx1",
    "ndv2",
    "dgx2",
    "internal1",
    "internal2",
    "ndv2x2",
    "internal1x2",
    "internal2x3",
];

const COLLECTIVES: &[CollectiveKind] = &[
    CollectiveKind::AllGather,
    CollectiveKind::AllToAll,
    CollectiveKind::Broadcast,
    CollectiveKind::Gather,
    CollectiveKind::Scatter,
    CollectiveKind::ReduceScatter,
    CollectiveKind::AllReduce,
];

const METHODS: &[RequestMethod] = &[
    RequestMethod::Auto,
    RequestMethod::Milp,
    RequestMethod::Lp,
    RequestMethod::AStar,
];

/// Every field of the config away from its default, the buffer mode chosen
/// by `i`.
fn full_config(i: usize) -> SolverConfig {
    SolverConfig {
        epoch_strategy: EpochStrategy::SlowestLink,
        epoch_multiplier: 1.5,
        switch_model: [SwitchModel::NonCopy, SwitchModel::HyperEdge][i % 2],
        buffer_mode: [
            BufferMode::LimitedChunks(4),
            BufferMode::NoStoreAndForward,
            BufferMode::Unlimited,
        ][i % 3],
        max_epochs: Some(12),
        early_stop_gap: Some(0.3),
        time_limit: Some(std::time::Duration::from_millis(2500)),
        astar_epochs_per_round: Some(6),
        astar_gamma: 0.25,
        astar_max_rounds: 10,
        chunk_priorities: Some(vec![1.0, 2.5, 0.125]),
    }
}

/// Every builtin topology x collective x method, each with no config, a
/// full config, and a deadline.
fn requests() -> Vec<SolveRequest> {
    let mut out = Vec::new();
    for (t, name) in TOPOLOGIES.iter().enumerate() {
        let topology = builtin_topology(name).unwrap();
        for (c, &collective) in COLLECTIVES.iter().enumerate() {
            for (m, &method) in METHODS.iter().enumerate() {
                let i = t + c + m;
                let bytes = (1u64 << (20 + i % 7)) as f64 * 1.000_1;
                let plain = SolveRequest::new(topology.clone(), collective, 1 + i % 3, bytes)
                    .with_method(method);
                out.push(plain.clone().with_config(full_config(i)));
                out.push(
                    plain
                        .clone()
                        .with_deadline(std::time::Duration::from_micros(1500 + i as u64)),
                );
                out.push(plain);
            }
        }
    }
    out
}

/// Rewrites the strings of a compact text with `\u` escapes for every
/// lower-case letter (keys included), the way an ASCII-only writer would.
fn escape_letters(text: &str) -> String {
    let mut out = String::new();
    let mut in_string = false;
    let mut escaped = false;
    for c in text.chars() {
        if in_string && !escaped && c.is_ascii_lowercase() {
            out.push_str(&format!("\\u{:04x}", c as u32));
            continue;
        }
        out.push(c);
        if escaped {
            escaped = false;
        } else if in_string && c == '\\' {
            escaped = true;
        } else if c == '"' {
            in_string = !in_string;
        }
    }
    out
}

/// Rewrites every number of a compact text in exponent form (`2.5e10`,
/// `7e-7`, `1e0`), which reads back as the same `f64`.
fn exponent_numbers(text: &str) -> String {
    let mut out = String::new();
    let mut in_string = false;
    let mut escaped = false;
    let mut number = String::new();
    let flush = |number: &mut String, out: &mut String| {
        if !number.is_empty() {
            out.push_str(&format!("{:e}", number.parse::<f64>().unwrap()));
            number.clear();
        }
    };
    for c in text.chars() {
        if !in_string && (c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E')) {
            number.push(c);
            continue;
        }
        flush(&mut number, &mut out);
        out.push(c);
        if escaped {
            escaped = false;
        } else if in_string && c == '\\' {
            escaped = true;
        } else if c == '"' {
            in_string = !in_string;
        }
    }
    flush(&mut number, &mut out);
    out
}

/// The same tree with every object's members in reverse order.
fn reversed(v: &Value) -> Value {
    match v {
        Value::Arr(items) => Value::Arr(items.iter().map(reversed).collect()),
        Value::Obj(pairs) => Value::Obj(
            pairs
                .iter()
                .rev()
                .map(|(k, v)| (k.clone(), reversed(v)))
                .collect(),
        ),
        other => other.clone(),
    }
}

/// Each request line and the restyled forms of it.
fn restyled_lines(req: &SolveRequest, topology_name: &str) -> Vec<String> {
    let line = solve_request_line(req);
    let tree = Value::parse(&line).unwrap();
    let mut named = tree.clone();
    if let Value::Obj(pairs) = &mut named {
        for (k, v) in pairs.iter_mut() {
            if k == "topology" {
                *v = Value::from(topology_name);
            }
        }
    }
    vec![
        line.clone(),
        tree.to_json_pretty(),
        format!(" \t\r\n{line}\n\n "),
        reversed(&tree).to_json(),
        escape_letters(&line),
        exponent_numbers(&line),
        named.to_json(),
    ]
}

/// Decodes a solve line.
fn decode(line: &str) -> Result<SolveRequest, RequestError> {
    parse_request(line).map(|r| match r {
        Request::Solve(req) => *req,
        other => panic!("{line}: not a solve: {other:?}"),
    })
}

/// Checks that `got` is `want`: the same key and the same request written
/// back.
fn assert_same(line: &str, got: &SolveRequest, want: &SolveRequest) {
    assert_eq!(got.key(), want.key(), "{line}");
    assert_eq!(
        got.to_json_value().to_json(),
        want.to_json_value().to_json(),
        "{line}"
    );
}

/// Every corpus line: each request and its restylings, in order.
fn corpus_lines() -> Vec<(SolveRequest, String)> {
    let mut out = Vec::new();
    for req in requests() {
        let name = TOPOLOGIES
            .iter()
            .find(|n| builtin_topology(n).unwrap().fingerprint() == req.topology.fingerprint())
            .unwrap();
        for line in restyled_lines(&req, name) {
            out.push((req.clone(), line));
        }
    }
    out
}

#[test]
fn every_request_and_its_restylings_decode_to_the_request_written() {
    let mut lines = 0;
    for (req, line) in corpus_lines() {
        assert_same(&line, &decode(&line).unwrap(), &req);
        lines += 1;
    }
    assert!(lines > 4_000, "{lines}");
}

/// The members of `line` (a compact solve line) with `extra` appended
/// before its closing brace.
fn with_member(line: &str, extra: &str) -> String {
    format!("{},{extra}}}", &line[..line.len() - 1])
}

#[test]
fn duplicate_keys_take_the_first_value() {
    let dgx1 = builtin_topology("dgx1").unwrap();
    let req = SolveRequest::new(dgx1.clone(), CollectiveKind::AllGather, 2, 1048576.0);
    let line = solve_request_line(&req);
    for extra in [
        r#""collective":"nope""#,
        r#""chunks":0"#,
        r#""output_buffer":-1"#,
        r#""topology":"internal2x3""#,
        r#""verb":"stats""#,
        r#""method":"lp""#,
    ] {
        let line = with_member(&line, extra);
        assert_same(&line, &decode(&line).unwrap(), &req);
    }

    // Inside the topology and the config, too.
    let doubled = |inner: &str| {
        format!(
            r#"{{"verb":"solve","topology":{inner},"collective":"all_gather","output_buffer":1024}}"#
        )
    };
    let small = SolveRequest::new(dgx1.clone(), CollectiveKind::AllGather, 1, 1024.0);
    let text = dgx1.to_json_value().to_json();
    let topo = doubled(&format!(
        r#"{},"name":7,"links":[]}}"#,
        &text[..text.len() - 1]
    ));
    assert_same(&topo, &decode(&topo).unwrap(), &small);

    let config = r#"{"verb":"solve","topology":"dgx1","collective":"all_gather","output_buffer":1024,"config":{"max_epochs":9,"max_epochs":"x","buffer_mode":{"limited_chunks":3,"limited_chunks":-1}}}"#;
    let written = small.with_config(SolverConfig {
        max_epochs: Some(9),
        buffer_mode: BufferMode::LimitedChunks(3),
        ..SolverConfig::default()
    });
    assert_same(config, &decode(config).unwrap(), &written);

    // A bad first value is refused even when a good one follows.
    let line = r#"{"verb":"solve","topology":"dgx1","collective":"nope","collective":"all_gather","output_buffer":1024}"#;
    assert_eq!(decode(line).unwrap_err().code(), "bad_field");
}

/// Malformed lines and the code each gets.
#[test]
fn malformed_lines_get_their_pinned_codes() {
    let solve =
        r#"{"verb":"solve","topology":"dgx1","collective":"all_gather","output_buffer":1024"#;
    let line = |extra: &str| format!("{solve}{extra}}}");
    let deep = format!(
        r#"{{"verb":"solve","topology":{}1{}}}"#,
        "[".repeat(200),
        "]".repeat(200)
    );
    let cases: Vec<(String, &str)> = vec![
        // Syntax errors win over every field error, wherever they are.
        (
            r#"{"verb":"solve","topology":"nope","collective":1,"output_buffer":-1,]"#.into(),
            "bad_json",
        ),
        (
            r#"{"verb":"solve","topology":{"name":5},"collective":"all_gather""#.into(),
            "bad_json",
        ),
        (format!("{} x", line("")), "bad_json"),
        (deep, "bad_json"),
        ("[".repeat(1000), "bad_json"),
        // The verb is checked before the fields.
        (r#"{"topology":"nope","verb":"purge"}"#.into(), "bad_verb"),
        (r#"{"topology":"nope"}"#.into(), "bad_verb"),
        (r#"[1,2]"#.into(), "bad_verb"),
        (r#"{"verb":7}"#.into(), "bad_verb"),
        // Then the fields, in one order whatever the order of the members.
        (
            r#"{"output_buffer":-1,"collective":"x","topology":"nope","verb":"solve"}"#.into(),
            "bad_field",
        ),
        (
            r#"{"output_buffer":-1,"collective":"all_gather","topology":"dgx1","verb":"solve"}"#
                .into(),
            "invalid_buffer_size",
        ),
        (
            r#"{"output_buffer":0,"chunks":0,"topology":"dgx1","collective":"all_gather","verb":"solve"}"#
                .into(),
            "invalid_buffer_size",
        ),
        (r#"{"verb":"solve","collective":"all_gather"}"#.into(), "bad_field"),
        (
            r#"{"verb":"solve","topology":[1],"collective":"all_gather","output_buffer":1}"#.into(),
            "bad_field",
        ),
        (
            r#"{"verb":"solve","topology":{"name":"t","nodes":[{"kind":"gpu","name":"a","chassis":0}],"links":[{"src":0,"dst":1,"capacity":1,"alpha":0}]},"collective":"all_gather","output_buffer":1}"#.into(),
            "bad_field",
        ),
        // The request caps.
        (line(r#","chunks":257"#), "bad_field"),
        (line(r#","chunks":1e300"#), "bad_field"),
        (line(r#","config":{"max_epochs":1025}"#), "bad_field"),
        (line(r#","config":{"astar_epochs_per_round":1e9}"#), "bad_field"),
        (line(r#","config":{"time_limit_s":1e300}"#), "bad_field"),
        (line(r#","deadline_ms":1e25"#), "bad_field"),
        (line(r#","deadline_ms":-1"#), "bad_field"),
        (line(r#","method":"simplex""#), "bad_field"),
        (line(r#","config":{"chunk_priorities":[1,"2"]}"#), "bad_field"),
        (line(r#","config":{"buffer_mode":"some"}"#), "bad_field"),
    ];
    let mut tally = BTreeMap::new();
    for (line, code) in &cases {
        let err = parse_request(line).expect_err(line);
        assert_eq!(err.code(), *code, "{line}: {err}");
        *tally.entry(err.code()).or_insert(0) += 1;
    }
    // The codes these lines got when a tree decoder still checked them.
    let pinned = [
        ("bad_field", 14),
        ("bad_json", 5),
        ("bad_verb", 4),
        ("invalid_buffer_size", 2),
    ];
    assert_eq!(tally, BTreeMap::from(pinned));
}

/// Parses `line` with `memo` and without a memo, and checks that the two
/// answers are the same: the verb, and for a `solve` the key and the
/// request written back, for an error its code and message.
fn assert_memo_agrees(memo: &mut TopologyMemo, line: &str) {
    match (parse_request(line), memo.parse(line)) {
        (Ok(Request::Solve(plain)), Ok(Request::Solve(memoized))) => {
            assert_same(line, &plain, &memoized);
        }
        (Ok(Request::Stats), Ok(Request::Stats)) | (Ok(Request::Evict), Ok(Request::Evict)) => {}
        (Err(plain), Err(memoized)) => {
            assert_eq!(plain.code(), memoized.code(), "{line}");
            assert_eq!(plain.to_string(), memoized.to_string(), "{line}");
        }
        (plain, memoized) => panic!("{line}: {plain:?} against {memoized:?}"),
    }
}

#[test]
fn a_topology_memo_changes_no_answer_cold_or_warm() {
    let corpus = corpus_lines();
    let mut memo = TopologyMemo::new();
    for pass in 0..2 {
        for (_, line) in &corpus {
            assert_memo_agrees(&mut memo, line);
            assert!(memo.len() <= TopologyMemo::MAX_ENTRIES, "pass {pass}");
        }
    }
    assert!(!memo.is_empty());
}

#[test]
fn a_topology_memo_changes_no_answer_on_adversarial_lines() {
    let dgx1 = builtin_topology("dgx1").unwrap().to_json_value().to_json();
    let solve = |topology: &str, rest: &str| {
        format!(
            r#"{{"verb":"solve","topology":{topology},"collective":"all_gather","output_buffer":1024{rest}}}"#
        )
    };
    let mut memo = TopologyMemo::new();
    // The memo learns the topology from a valid line.
    let valid = solve(&dgx1, "");
    assert_memo_agrees(&mut memo, &valid);
    assert_eq!(memo.len(), 1);
    let known_bytes = memo.text_bytes();
    assert_eq!(known_bytes, dgx1.len());

    // A self-loop: valid JSON, invalid topology. Refused twice, never kept.
    let looped = format!(
        r#"{},{{"src":0,"dst":0,"capacity":1e9,"alpha":0}}]}}"#,
        &dgx1[..dgx1.len() - 2]
    );
    assert!(teccl_topology::Topology::from_json_str(&looped).is_ok());
    for _ in 0..2 {
        let line = solve(&looped, "");
        assert_eq!(parse_request(&line).unwrap_err().code(), "bad_field");
        assert_memo_agrees(&mut memo, &line);
        assert_eq!((memo.len(), memo.text_bytes()), (1, known_bytes));
    }

    let last_byte = format!("{}]", &dgx1[..dgx1.len() - 1]);
    let spaced = format!("{} }}", &dgx1[..dgx1.len() - 1]);
    let lines = [
        // The known text, then a malformed tail.
        format!("{},]", &valid[..valid.len() - 1]),
        format!("{valid} x"),
        format!("{valid}}}"),
        solve(&dgx1, r#","chunks":0"#),
        solve(&dgx1, r#","collective":"nope""#).replacen(r#""collective":"all_gather","#, "", 1),
        // The known text under a duplicate `topology` key, first or second.
        solve(&dgx1, &format!(r#","topology":{dgx1}"#)),
        solve(&format!(r#""ndv2","topology":{dgx1}"#), ""),
        solve(&format!(r#"{{"name":"x"}},"topology":{dgx1}"#), ""),
        solve(&format!(r#"{dgx1},"topology":{looped}"#), ""),
        // The known text with its last byte changed, or a space added.
        solve(&last_byte, ""),
        solve(&spaced, ""),
        format!(" {valid}\n"),
        // The known text followed by more than its object.
        solve(&format!("{dgx1}}}"), ""),
        solve(&format!("{dgx1}]"), ""),
        // The known text as another member's value, or as another verb's.
        format!(r#"{{"verb":"stats","topology":{dgx1}}}"#),
        format!(r#"{{"verb":"purge","topology":{dgx1}}}"#),
        format!(
            r#"{{"verb":"solve","note":{dgx1},"topology":"dgx1","collective":"all_gather","output_buffer":1024}}"#
        ),
    ];
    for _ in 0..2 {
        for line in &lines {
            assert_memo_agrees(&mut memo, line);
        }
    }
    // The restyled topology is a valid one of its own, kept beside the first.
    assert_eq!(memo.len(), 2);
}
