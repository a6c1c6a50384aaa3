//! **budget-coverage** — every hot loop must charge the cooperative
//! [`SolveBudget`].
//!
//! PR 5's canonical near-miss: the pure-LP path in `Model::solve_with_warm`
//! quietly skipped the budget, turning a 100 ms deadline into a 132 s solve.
//! The invariant "every loop that can burn unbounded solver time charges or
//! checks the budget" is exactly the kind nothing enforces once the PR
//! merges — so this rule does.
//!
//! Scope — the designated hot-loop files:
//! * `crates/lp/src/simplex.rs` (primal pivot loops)
//! * `crates/lp/src/dual.rs` (dual pivot loop)
//! * `crates/lp/src/milp.rs` (B&B node loop)
//! * `crates/lp/src/presolve.rs` (presolve fixpoint)
//! * `crates/core/src/astar.rs` (round loop)
//!
//! Every `loop` / `while` in these files must contain a `charge(` or
//! `exceeded(` call somewhere in its body (a nested covered loop counts —
//! the body text includes it). `for` loops are checked when their body
//! mentions a `solve`-family identifier: a bounded iteration that performs a
//! full solve per step (the A* round loop) is as hot as any `while`.

use crate::report::Finding;
use crate::scan::{LoopKind, SourceFile};

const RULE: &str = "budget-coverage";

/// The designated hot-loop files.
pub const HOT_FILES: &[&str] = &[
    "crates/lp/src/simplex.rs",
    "crates/lp/src/dual.rs",
    "crates/lp/src/milp.rs",
    "crates/lp/src/presolve.rs",
    "crates/core/src/astar.rs",
];

pub fn check(files: &[SourceFile]) -> Vec<Finding> {
    let mut out = Vec::new();
    for file in files.iter().filter(|f| HOT_FILES.contains(&f.rel.as_str())) {
        for lp in &file.loops {
            if file.in_test(lp.kw) {
                continue;
            }
            if lp.kind == LoopKind::For {
                let mentions_solve = (lp.body_open..lp.body_close).any(|i| {
                    let t = &file.toks[i];
                    t.kind == crate::lexer::TokKind::Ident
                        && t.text.to_ascii_lowercase().contains("solve")
                });
                if !mentions_solve {
                    continue;
                }
            }
            let charged = file.calls_in_range(lp.body_open, lp.body_close, "charge")
                || file.calls_in_range(lp.body_open, lp.body_close, "exceeded");
            if !charged {
                out.push(Finding::new(
                    RULE,
                    &file.rel,
                    lp.line,
                    format!(
                        "`{}` in a designated hot-loop file has no `charge(`/`exceeded(` \
                         in its body — a deadline cannot stop it (the PR 5 pure-LP bug \
                         class)",
                        lp.kind.keyword()
                    ),
                ));
            }
        }
    }
    out
}
