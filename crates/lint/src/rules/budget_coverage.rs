//! **budget-coverage** — every hot loop must charge the cooperative
//! `SolveBudget`.
//!
//! PR 5's canonical near-miss: the pure-LP path in `Model::solve_with_warm`
//! quietly skipped the budget, turning a 100 ms deadline into a 132 s solve.
//! That forwarding function is gone: each solve layer now has one public
//! solve function that takes the budget as an argument (`Model::solve_over`
//! for the model layer), so a forgotten budget no longer compiles.
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
//! Every `loop` / `while` in these files must contain a `charge(`,
//! `exceeded(` or `check_budget(` call somewhere in its body (a nested
//! covered loop counts — the body text includes it). `for` loops are checked
//! when their body mentions a `solve`-family identifier: a bounded iteration
//! that performs a full solve per step (the A* round loop) is as hot as any
//! `while`.
//!
//! The model builds are covered too: in `crates/core/src/lp_form.rs` and
//! `crates/core/src/milp_form.rs`, every outermost `for` of `build_over`
//! that lays variables or rows out (`add_var(` / `add_cons(`) must check the
//! budget the same way, and so must every outermost such `for` of any
//! function in `crates/core/src/time_expanded.rs`, the layout both builds
//! call for their shared rows. A build over many commodities and epochs
//! takes milliseconds, which is a 1 ms deadline missed several times over.

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

/// The formulation files whose `build_over` loops are checked.
pub const BUILD_FILES: &[&str] = &["crates/core/src/lp_form.rs", "crates/core/src/milp_form.rs"];

/// The layout module, whose row-laying loops are checked in every function.
pub const LAYOUT_FILES: &[&str] = &["crates/core/src/time_expanded.rs"];

/// Whether `[open, close)` charges or checks the budget.
fn covered(file: &SourceFile, open: usize, close: usize) -> bool {
    ["charge", "exceeded", "check_budget"]
        .iter()
        .any(|name| file.calls_in_range(open, close, name))
}

pub fn check(files: &[SourceFile]) -> Vec<Finding> {
    let mut out = Vec::new();
    for file in files
        .iter()
        .filter(|f| BUILD_FILES.contains(&f.rel.as_str()) || LAYOUT_FILES.contains(&f.rel.as_str()))
    {
        let layout = LAYOUT_FILES.contains(&file.rel.as_str());
        for lp in &file.loops {
            let in_build = layout
                || file
                    .enclosing_function(lp.kw)
                    .is_some_and(|f| f.name == "build_over");
            if file.in_test(lp.kw) || lp.kind != LoopKind::For || !in_build {
                continue;
            }
            let nested = file
                .loops
                .iter()
                .any(|outer| outer.body_open < lp.kw && lp.body_close < outer.body_close);
            let lays_out = file.calls_in_range(lp.body_open, lp.body_close, "add_var")
                || file.calls_in_range(lp.body_open, lp.body_close, "add_cons");
            if !nested && lays_out && !covered(file, lp.body_open, lp.body_close) {
                out.push(Finding::new(
                    RULE,
                    &file.rel,
                    lp.line,
                    "`for` laying out a model in `build_over` or the layout module has \
                     no `check_budget(`/`exceeded(` in its body — a deadline cannot \
                     stop the build"
                        .to_string(),
                ));
            }
        }
    }
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
            if !covered(file, lp.body_open, lp.body_close) {
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
