//! **lock-discipline** — raw lock primitives are forbidden in
//! `teccl-service` outside `sync.rs` and anywhere in `teccl-lp`.
//!
//! PR 5 made every service lock poison-recovering (`lock_recover`) and every
//! condvar wait recovery-aware (`wait_recover`): a worker that panics while
//! holding the state mutex must not turn every later request into a poison
//! panic. That containment lives entirely in `crates/service/src/sync.rs` —
//! one refactor that reintroduces a plain `.lock()` elsewhere silently
//! regresses it. This rule makes that refactor a CI failure.
//!
//! `teccl-lp` has no locking module at all: every solve runs on one thread
//! and shares nothing, and the service's worker pool is the only
//! parallelism. A raw lock anywhere in the solver is a design change, not a
//! local edit, so the whole crate is in scope with no exemption.
//!
//! Matched: `.lock()`, `.try_lock()`, `.wait(guard)` (one or more
//! arguments — `Ticket::wait()` and `Barrier::wait()` take none and are
//! fine), `.wait_timeout(…)`, `.wait_while(…)`, `.wait_timeout_while(…)`.

use crate::report::Finding;
use crate::scan::SourceFile;

const RULE: &str = "lock-discipline";

/// True for files this rule audits: the service minus its designated lock
/// module (the one place raw primitives are allowed), and all of the solver.
fn in_scope(rel: &str) -> bool {
    let service = rel.starts_with("crates/service/") && !rel.ends_with("/sync.rs");
    let lp = rel.starts_with("crates/lp/");
    (service || lp) && rel.ends_with(".rs")
}

/// The crate-appropriate remedy for a raw-primitive finding.
fn remedy(rel: &str) -> &'static str {
    if rel.starts_with("crates/lp/") {
        "the solver is single-threaded and shares no state; run independent \
         solves on the service's worker pool instead of locking inside one"
    } else {
        "use `sync::lock_recover` / `sync::wait_recover` so poisoned locks \
         recover instead of cascading panics"
    }
}

pub fn check(files: &[SourceFile]) -> Vec<Finding> {
    let mut out = Vec::new();
    for file in files.iter().filter(|f| in_scope(&f.rel)) {
        let toks = &file.toks;
        for i in 0..toks.len() {
            if !toks[i].is_punct('.') {
                continue;
            }
            let Some(name) = toks.get(i + 1) else {
                continue;
            };
            if !toks.get(i + 2).is_some_and(|t| t.is_punct('(')) {
                continue;
            }
            let zero_args = toks.get(i + 3).is_some_and(|t| t.is_punct(')'));
            let bad = match name.text.as_str() {
                "lock" | "try_lock" => zero_args,
                "wait" => !zero_args,
                "wait_timeout" | "wait_while" | "wait_timeout_while" => true,
                _ => false,
            };
            if bad {
                out.push(Finding::new(
                    RULE,
                    &file.rel,
                    name.line,
                    format!("raw `.{}(` — {}", name.text, remedy(&file.rel)),
                ));
            }
        }
    }
    out
}
