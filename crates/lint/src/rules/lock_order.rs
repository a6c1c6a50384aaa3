//! **lock-order** — static deadlock detection over the service's named
//! locks.
//!
//! `ensure_workers` acquires the `State` lock while holding `Workers`; if
//! any path ever acquired them the other way round, two threads could each
//! hold one and wait for the other — the classic two-lock deadlock, invisible
//! to every test that doesn't hit the exact interleaving. This rule extracts
//! a static lock-acquisition graph from `crates/service/src` and fails on:
//!
//! * an edge that contradicts the declared `LockRank` order (parsed from
//!   the `enum LockRank` declaration in `sync.rs` — declaration order *is*
//!   the acquisition order),
//! * any cycle in the graph (even among locks with no declared rank),
//! * re-acquiring a lock already held (self-deadlock on a non-reentrant
//!   `std::sync::Mutex`).
//!
//! Extraction is scope-aware: a `let`-bound guard is held to the end of its
//! enclosing block (or an explicit `drop(guard)`); a temporary guard
//! (`lock_recover(&m, R).field…`) is held to the end of its statement. On
//! top of the per-function scan, one level of call graph: a call made while
//! holding lock `A` to a function that itself acquires `B` contributes the
//! edge `A → B`.
//!
//! The runtime complement lives in `sync.rs`: debug builds keep a
//! thread-local stack of held ranks and panic on inversion at the point of
//! acquisition.

use std::collections::BTreeMap;

use crate::lexer::{Tok, TokKind};
use crate::report::Finding;
use crate::scan::SourceFile;

const RULE: &str = "lock-order";

/// One acquisition edge: `from` was held when `to` was acquired.
#[derive(Debug, Clone)]
struct Edge {
    from: String,
    to: String,
    file: String,
    line: u32,
    via: String,
}

/// A lock currently held during the per-function walk.
#[derive(Debug, Clone)]
struct Held {
    lock: String,
    /// Brace depth at acquisition (releases when its scope closes).
    depth: usize,
    /// `let` binding name, if any (releases on `drop(name)`).
    binding: Option<String>,
    /// True for unbound temporaries (releases at end of statement).
    temp: bool,
}

/// A call made while holding locks (for the one-level call-graph pass).
#[derive(Debug, Clone)]
struct HeldCall {
    callee: String,
    held: Vec<String>,
    file: String,
    line: u32,
    caller: String,
}

/// Parses the declared order from `enum LockRank { A, B, … }`: variant name
/// → declaration index. Declaration order is acquisition order.
fn declared_order(files: &[SourceFile]) -> BTreeMap<String, usize> {
    let mut order = BTreeMap::new();
    for file in files {
        let toks = &file.toks;
        for i in 0..toks.len() {
            if !(toks[i].is_ident("enum")
                && toks.get(i + 1).is_some_and(|t| t.is_ident("LockRank")))
            {
                continue;
            }
            let Some(open) = (i + 2..toks.len()).find(|&k| toks[k].is_punct('{')) else {
                continue;
            };
            let close = crate::scan::matching_brace(toks, open);
            // Variants: idents at depth 1 that directly follow `{` or `,`,
            // skipping attributes.
            let mut expect_variant = true;
            let mut k = open + 1;
            while k < close {
                let t = &toks[k];
                if t.is_punct('#') {
                    // Skip `#[...]`.
                    let mut depth = 0i32;
                    k += 1;
                    while k < close {
                        if toks[k].is_punct('[') {
                            depth += 1;
                        } else if toks[k].is_punct(']') {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        k += 1;
                    }
                } else if expect_variant && t.kind == TokKind::Ident {
                    let idx = order.len();
                    order.insert(t.text.clone(), idx);
                    expect_variant = false;
                } else if t.is_punct(',') {
                    expect_variant = true;
                }
                k += 1;
            }
            return order;
        }
    }
    order
}

/// The lock name of a `lock_recover(...)` call starting at the `(` after the
/// identifier: prefers the `LockRank::Variant` argument; falls back to the
/// last identifier of the first argument path.
fn lock_name(toks: &[Tok], open: usize) -> Option<String> {
    let mut depth = 0i32;
    let mut last_first_arg_ident: Option<String> = None;
    let mut in_first_arg = true;
    let mut i = open;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        } else if depth == 1 {
            if t.is_punct(',') {
                in_first_arg = false;
            } else if t.is_ident("LockRank") {
                // `LockRank :: Variant`
                if toks.get(i + 1).is_some_and(|x| x.is_punct(':'))
                    && toks.get(i + 2).is_some_and(|x| x.is_punct(':'))
                {
                    if let Some(v) = toks.get(i + 3) {
                        if v.kind == TokKind::Ident {
                            return Some(v.text.clone());
                        }
                    }
                }
            } else if in_first_arg && t.kind == TokKind::Ident {
                last_first_arg_ident = Some(t.text.clone());
            }
        }
        i += 1;
    }
    last_first_arg_ident
}

/// A call the one-level pass can resolve by bare name: a free call
/// (`degrade(…)`) or a `self.` method (`self.enqueue_miss(…)`). Method calls
/// on other receivers (`st.cache.evict(…)`) are skipped — a method named
/// like a service function is usually a different function, and every lock
/// in the service lives behind `self`-reachable methods anyway.
fn is_resolvable_call(toks: &[Tok], i: usize) -> bool {
    let Some(prev) = i.checked_sub(1).and_then(|p| toks.get(p)) else {
        return true;
    };
    if prev.is_punct('.') {
        return i
            .checked_sub(2)
            .and_then(|p| toks.get(p))
            .is_some_and(|t| t.is_ident("self"));
    }
    // Exclude `Path::call(` — resolved names are crate-local bare fns.
    !prev.is_punct(':')
}

/// Keywords that look like calls when followed by `(`.
fn is_keywordish(s: &str) -> bool {
    matches!(
        s,
        "if" | "while"
            | "for"
            | "match"
            | "loop"
            | "return"
            | "let"
            | "in"
            | "fn"
            | "move"
            | "lock_recover"
            | "wait_recover"
            | "drop"
            | "Some"
            | "Ok"
            | "Err"
            | "None"
    )
}

pub fn check(files: &[SourceFile]) -> Vec<Finding> {
    let scoped: Vec<&SourceFile> = files
        .iter()
        .filter(|f| f.rel.starts_with("crates/service/src/"))
        .collect();
    if scoped.is_empty() {
        return Vec::new();
    }
    let order = declared_order(files);
    check_scoped(&scoped, &order)
}

fn check_scoped(scoped: &[&SourceFile], order: &BTreeMap<String, usize>) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut edges: Vec<Edge> = Vec::new();
    let mut held_calls: Vec<HeldCall> = Vec::new();
    // fn name → locks it acquires directly (outside tests).
    let mut direct: BTreeMap<String, Vec<String>> = BTreeMap::new();

    for file in scoped {
        // sync.rs defines the primitives; its own body (`m.lock()`) and its
        // tests (which deliberately invert the order) are not acquisitions.
        if file.rel.ends_with("/sync.rs") {
            continue;
        }
        for func in &file.functions {
            if file.in_test(func.body_open) {
                continue;
            }
            walk_function(
                file,
                func,
                &mut edges,
                &mut held_calls,
                &mut direct,
                &mut findings,
            );
        }
    }

    // One-level call-graph pass: calls made while holding a lock, into
    // functions that acquire locks directly.
    for call in &held_calls {
        let Some(acquired) = direct.get(&call.callee) else {
            continue;
        };
        for from in &call.held {
            for to in acquired {
                if from == to {
                    findings.push(Finding::new(
                        RULE,
                        &call.file,
                        call.line,
                        format!(
                            "`{}` calls `{}` while holding `{}`, and `{}` acquires \
                             `{}` itself — self-deadlock on a non-reentrant mutex",
                            call.caller, call.callee, from, call.callee, to
                        ),
                    ));
                } else {
                    edges.push(Edge {
                        from: from.clone(),
                        to: to.clone(),
                        file: call.file.clone(),
                        line: call.line,
                        via: format!("{} → {}()", call.caller, call.callee),
                    });
                }
            }
        }
    }

    // Dedup edges by (from, to), keeping the first site.
    let mut seen: Vec<(String, String)> = Vec::new();
    let mut uniq: Vec<Edge> = Vec::new();
    for e in edges {
        let key = (e.from.clone(), e.to.clone());
        if !seen.contains(&key) {
            seen.push(key);
            uniq.push(e);
        }
    }

    // Declared-order check: every edge must go strictly up the rank order.
    for e in &uniq {
        if let (Some(&fi), Some(&ti)) = (order.get(&e.from), order.get(&e.to)) {
            if fi >= ti {
                findings.push(Finding::new(
                    RULE,
                    &e.file,
                    e.line,
                    format!(
                        "acquires `{}` while holding `{}` ({}) — violates the declared \
                         LockRank order ({} < {})",
                        e.to, e.from, e.via, e.to, e.from
                    ),
                ));
            }
        }
    }

    // Cycle detection (covers locks with no declared rank too).
    findings.extend(report_cycles(&uniq));
    findings
}

/// Scope-aware walk of one function body.
fn walk_function(
    file: &SourceFile,
    func: &crate::scan::Function,
    edges: &mut Vec<Edge>,
    held_calls: &mut Vec<HeldCall>,
    direct: &mut BTreeMap<String, Vec<String>>,
    findings: &mut Vec<Finding>,
) {
    let toks = &file.toks;
    let mut held: Vec<Held> = Vec::new();
    let mut depth = 0usize;
    // Most recent `let [mut] NAME =` binding in the current statement.
    let mut pending: Option<String> = None;
    let mut pending_stack: Vec<Option<String>> = Vec::new();

    let mut i = func.body_open;
    while i <= func.body_close {
        let t = &toks[i];
        match t.kind {
            TokKind::Punct => match t.text.as_str() {
                "{" => {
                    depth += 1;
                    pending_stack.push(pending.take());
                }
                "}" => {
                    held.retain(|h| h.depth < depth);
                    depth = depth.saturating_sub(1);
                    pending = pending_stack.pop().flatten();
                }
                ";" => {
                    held.retain(|h| !(h.temp && h.depth == depth));
                    pending = None;
                }
                _ => {}
            },
            TokKind::Ident => {
                if t.text == "let" {
                    // `let [mut] NAME` — capture the binding name.
                    let mut k = i + 1;
                    if toks.get(k).is_some_and(|x| x.is_ident("mut")) {
                        k += 1;
                    }
                    if let Some(name) = toks.get(k) {
                        if name.kind == TokKind::Ident {
                            pending = Some(name.text.clone());
                        }
                    }
                } else if t.text == "drop"
                    && toks.get(i + 1).is_some_and(|x| x.is_punct('('))
                    && toks.get(i + 3).is_some_and(|x| x.is_punct(')'))
                {
                    if let Some(arg) = toks.get(i + 2) {
                        held.retain(|h| h.binding.as_deref() != Some(arg.text.as_str()));
                    }
                } else if t.text == "lock_recover"
                    && toks.get(i + 1).is_some_and(|x| x.is_punct('('))
                {
                    if let Some(lock) = lock_name(toks, i + 1) {
                        for h in &held {
                            if h.lock == lock {
                                findings.push(Finding::new(
                                    RULE,
                                    &file.rel,
                                    t.line,
                                    format!(
                                        "`{}` re-acquires `{}` while already holding it — \
                                         self-deadlock on a non-reentrant mutex",
                                        func.name, lock
                                    ),
                                ));
                            } else {
                                edges.push(Edge {
                                    from: h.lock.clone(),
                                    to: lock.clone(),
                                    file: file.rel.clone(),
                                    line: t.line,
                                    via: format!("{}()", func.name),
                                });
                            }
                        }
                        let entry = direct.entry(func.name.clone()).or_default();
                        if !entry.contains(&lock) {
                            entry.push(lock.clone());
                        }
                        held.push(Held {
                            lock,
                            depth,
                            binding: pending.clone(),
                            temp: pending.is_none(),
                        });
                    }
                } else if toks.get(i + 1).is_some_and(|x| x.is_punct('('))
                    && !is_keywordish(&t.text)
                    && !held.is_empty()
                    && is_resolvable_call(toks, i)
                {
                    held_calls.push(HeldCall {
                        callee: t.text.clone(),
                        held: held.iter().map(|h| h.lock.clone()).collect(),
                        file: file.rel.clone(),
                        line: t.line,
                        caller: func.name.clone(),
                    });
                }
            }
            TokKind::Lit => {}
        }
        i += 1;
    }
}

/// DFS cycle search over the deduped edge list; reports each cycle once.
fn report_cycles(edges: &[Edge]) -> Vec<Finding> {
    let mut nodes: Vec<&str> = Vec::new();
    for e in edges {
        if !nodes.contains(&e.from.as_str()) {
            nodes.push(&e.from);
        }
        if !nodes.contains(&e.to.as_str()) {
            nodes.push(&e.to);
        }
    }
    let mut findings = Vec::new();
    let mut reported: Vec<Vec<String>> = Vec::new();
    for &start in &nodes {
        // DFS from `start`, looking for a path back to `start`.
        let mut stack: Vec<(String, Vec<String>)> =
            vec![(start.to_string(), vec![start.to_string()])];
        while let Some((node, path)) = stack.pop() {
            for e in edges.iter().filter(|e| e.from == node) {
                if e.to == start {
                    let mut cycle = path.clone();
                    cycle.push(start.to_string());
                    // Canonical form: rotate so the smallest lock leads.
                    let mut canon = cycle[..cycle.len() - 1].to_vec();
                    canon.sort();
                    if reported.contains(&canon) {
                        continue;
                    }
                    reported.push(canon);
                    let chain = cycle.join(" → ");
                    let sites: Vec<String> = edges
                        .iter()
                        .filter(|x| cycle.windows(2).any(|w| x.from == w[0] && x.to == w[1]))
                        .map(|x| format!("{}:{} ({})", x.file, x.line, x.via))
                        .collect();
                    findings.push(Finding::new(
                        RULE,
                        &e.file,
                        e.line,
                        format!(
                            "lock acquisition cycle {} — two threads taking opposite \
                             ends deadlock; sites: {}",
                            chain,
                            sites.join("; ")
                        ),
                    ));
                } else if !path.contains(&e.to) {
                    let mut p = path.clone();
                    p.push(e.to.clone());
                    stack.push((e.to.clone(), p));
                }
            }
        }
    }
    findings
}
