//! **panic-hygiene** — no panicking constructs on the service worker path or
//! in the wire protocol.
//!
//! A panic on a worker thread is contained by the `catch_unwind` in
//! `worker_loop` — but only what runs *inside* that guard is contained. An
//! `unwrap()` in the submit path panics the *caller*; one in the protocol
//! layer kills a connection thread. PR 5's fault-injection suite proves the
//! containment works; this rule keeps new panic sites from appearing outside
//! it.
//!
//! Scope: `service.rs` (orchestrator + worker path), `server.rs` (TCP
//! accept/connection threads), `protocol.rs` (wire parsing), `key.rs` (the
//! request decoder), `cache.rs` (the disk store and the stored-entry
//! decoder), the files holding the other decoders of a stored document
//! (`topology/src/json.rs`, `schedule/src/{schedule,metrics,output}.rs`,
//! `lp/src/basis.rs`) and `util/src/json.rs` — the reader and writer those
//! run on connection threads and disk-store probes, over bytes an outsider
//! chose.
//!
//! Besides `unwrap`/`expect` and the panicking macros, the rule flags calls
//! that panic on an out-of-range argument: `Duration::from_secs_f64` (and
//! `_f32`) panic on a finite value past `Duration::MAX`, which a request
//! line can carry; `try_from_secs_f64` is the checked form.
//!
//! Exempt:
//! * test spans (`#[cfg(test)]` / `#[test]`),
//! * code lexically inside a `catch_unwind(...)` argument,
//! * functions *called* from inside a `catch_unwind` argument (one level of
//!   call graph — the solve path runs entirely under the guard).

use crate::lexer::TokKind;
use crate::report::Finding;
use crate::scan::SourceFile;

const RULE: &str = "panic-hygiene";

const SCOPED_FILES: &[&str] = &[
    "crates/service/src/service.rs",
    "crates/service/src/server.rs",
    "crates/service/src/protocol.rs",
    "crates/service/src/key.rs",
    "crates/service/src/cache.rs",
    "crates/topology/src/json.rs",
    "crates/util/src/json.rs",
    "crates/schedule/src/schedule.rs",
    "crates/schedule/src/metrics.rs",
    "crates/schedule/src/output.rs",
    "crates/lp/src/basis.rs",
];

/// Method calls that panic.
const BAD_METHODS: &[&str] = &["unwrap", "expect"];
/// Functions and methods that panic on an argument out of their range.
const BAD_CALLS: &[&str] = &["from_secs_f64", "from_secs_f32"];
/// Macros that panic.
const BAD_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Token ranges lexically inside a `catch_unwind(` … `)` argument.
fn unwind_arg_spans(file: &SourceFile) -> Vec<(usize, usize)> {
    let toks = &file.toks;
    let mut spans = Vec::new();
    for i in 0..toks.len() {
        if toks[i].is_ident("catch_unwind") && toks.get(i + 1).is_some_and(|t| t.is_punct('(')) {
            let mut depth = 0i32;
            let mut j = i + 1;
            while j < toks.len() {
                if toks[j].is_punct('(') {
                    depth += 1;
                } else if toks[j].is_punct(')') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                j += 1;
            }
            spans.push((i + 1, j));
        }
    }
    spans
}

/// Names of functions invoked inside any unwind span — those functions' own
/// bodies are under the guard too (one level).
fn boundary_functions(file: &SourceFile, spans: &[(usize, usize)]) -> Vec<String> {
    let toks = &file.toks;
    let mut names = Vec::new();
    for &(s, e) in spans {
        for i in s..e {
            if toks[i].kind == TokKind::Ident
                && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
                && !toks.get(i.wrapping_sub(1)).is_some_and(|t| t.is_punct('.'))
            {
                names.push(toks[i].text.clone());
            }
        }
    }
    names
}

pub fn check(files: &[SourceFile]) -> Vec<Finding> {
    let mut out = Vec::new();
    for file in files
        .iter()
        .filter(|f| SCOPED_FILES.contains(&f.rel.as_str()))
    {
        let toks = &file.toks;
        let unwind_spans = unwind_arg_spans(file);
        let boundary = boundary_functions(file, &unwind_spans);
        // Body spans of the boundary functions (and, still one level deep,
        // anything lexically inside them).
        let mut exempt: Vec<(usize, usize)> = unwind_spans;
        for f in &file.functions {
            if boundary.contains(&f.name) {
                exempt.push((f.body_open, f.body_close + 1));
            }
        }
        let is_exempt = |i: usize| file.in_test(i) || exempt.iter().any(|&(s, e)| i >= s && i < e);

        for i in 0..toks.len() {
            if toks[i].kind != TokKind::Ident {
                continue;
            }
            let name = toks[i].text.as_str();
            let method = toks.get(i.wrapping_sub(1)).is_some_and(|t| t.is_punct('.'))
                && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
                && BAD_METHODS.contains(&name);
            let call =
                toks.get(i + 1).is_some_and(|t| t.is_punct('(')) && BAD_CALLS.contains(&name);
            let mac =
                toks.get(i + 1).is_some_and(|t| t.is_punct('!')) && BAD_MACROS.contains(&name);
            if (method || call || mac) && !is_exempt(i) {
                let what = if method {
                    format!(".{name}()")
                } else if call {
                    format!("{name}()")
                } else {
                    format!("{name}!")
                };
                out.push(Finding::new(
                    RULE,
                    &file.rel,
                    toks[i].line,
                    format!(
                        "`{what}` outside the catch_unwind boundary — a panic here \
                         escapes fault containment (return a typed error instead)"
                    ),
                ));
            }
        }
    }
    out
}
