//! **no-env-knobs** — the solver and the service read no environment
//! variables.
//!
//! The LP engine once had a `TECCL_LP_TRACE` variable that switched on
//! `eprintln!`s and wall-clock laps inside the pivot loops: a knob no test
//! turned on, a second code path through the hottest loop, and a way for a
//! stray shell setting to change what a solve prints and costs. Its two walk
//! counts live on as always-on `SolveStats` counters. The service once read
//! its fault plan from the environment when its config left it unset, so a
//! stray shell setting could arm panics in any service. Behaviour comes from
//! the request, the service config and the daemon's flags alone, so
//! non-test code in the solver and service crates may not name `env::var`,
//! `env::var_os` or `env::vars` (the call or a `use` of it); `env::args`
//! and `env::temp_dir` are not readers.

use crate::report::Finding;
use crate::scan::SourceFile;

const RULE: &str = "no-env-knobs";

/// Directories whose non-test code is audited.
const SCOPE: &[&str] = &["crates/lp/src/", "crates/core/src/", "crates/service/src/"];

/// The `std::env` readers.
const READERS: &[&str] = &["var", "var_os", "vars", "vars_os"];

pub fn check(files: &[SourceFile]) -> Vec<Finding> {
    let mut out = Vec::new();
    for file in files {
        if !SCOPE.iter().any(|dir| file.rel.starts_with(dir)) {
            continue;
        }
        let toks = &file.toks;
        for i in 0..toks.len() {
            let reads_env = toks[i].is_ident("env")
                && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
                && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
                && toks
                    .get(i + 3)
                    .is_some_and(|t| READERS.iter().any(|r| t.is_ident(r)));
            if reads_env && !file.in_test(i) {
                out.push(Finding::new(
                    RULE,
                    &file.rel,
                    toks[i].line,
                    format!(
                        "`env::{}` in solver or service code — behaviour comes from \
                         the request, its config and the daemon's flags, not the \
                         environment (count what you need in `SolveStats`)",
                        toks[i + 3].text
                    ),
                ));
            }
        }
    }
    out
}
