//! Per-rule fixture pairs: for every rule, a snippet that must fire and a
//! near-identical snippet that must pass. These are the linter's regression
//! suite — each fire fixture seeds exactly the invariant breach the rule
//! exists to catch (an uncovered pivot loop, a reversed lock acquisition)
//! and fails the test if the rule ever stops seeing it.

use teccl_lint::analyze_snippets;
use teccl_lint::report::{Finding, Outcome};

/// Findings of one rule, errors only.
fn errors<'a>(o: &'a Outcome, rule: &str) -> Vec<&'a Finding> {
    o.errors.iter().filter(|f| f.rule == rule).collect()
}

/// The sync.rs stand-in every lock-order fixture shares: it declares the
/// rank order (declaration order = acquisition order) and is otherwise
/// excluded from the walk, exactly like the real file.
const SYNC_FIXTURE: (&str, &str) = (
    "crates/service/src/sync.rs",
    "pub enum LockRank { Workers, State }\n",
);

// ---------------------------------------------------------------- lock-discipline

#[test]
fn lock_discipline_fires_on_raw_lock_in_service() {
    let o = analyze_snippets(&[(
        "crates/service/src/cache.rs",
        r##"
fn peek(&self) -> usize {
    let g = self.state.lock();
    g.len()
}
"##,
    )]);
    let f = errors(&o, "lock-discipline");
    assert_eq!(f.len(), 1, "{:?}", o.errors);
    assert_eq!(f[0].line, 3);
}

#[test]
fn lock_discipline_fires_on_condvar_wait_with_guard() {
    let o = analyze_snippets(&[(
        "crates/service/src/cache.rs",
        r##"
fn park(&self, g: G) {
    let g = self.cv.wait(g);
    let (g, t) = self.cv.wait_timeout(g, dur);
}
"##,
    )]);
    assert_eq!(errors(&o, "lock-discipline").len(), 2, "{:?}", o.errors);
}

#[test]
fn lock_discipline_passes_zero_arg_wait_and_sync_rs() {
    // `Ticket::wait()` / `Barrier::wait()` take no guard; sync.rs itself
    // wraps the raw primitives and is out of scope.
    let o = analyze_snippets(&[
        (
            "crates/service/src/cache.rs",
            "fn join(&self) { self.ticket.wait(); self.barrier.wait(); }\n",
        ),
        (
            "crates/service/src/sync.rs",
            "fn raw(m: &M) -> G { m.lock().unwrap_or_else(|p| p.into_inner()) }\n",
        ),
    ]);
    assert!(errors(&o, "lock-discipline").is_empty(), "{:?}", o.errors);
}

/// Asserts that every lock-discipline finding in `o` carries the solver's
/// remedy, and returns how many there are.
fn lp_lock_findings(o: &Outcome) -> usize {
    let f = errors(o, "lock-discipline");
    for finding in &f {
        assert!(
            finding.message.contains("single-threaded"),
            "lp findings must point at the lp remedy: {:?}",
            finding.message
        );
    }
    f.len()
}

#[test]
fn lock_discipline_fires_in_lp_outside_par_rs() {
    let o = analyze_snippets(&[(
        "crates/lp/src/milp.rs",
        r##"
fn steal(&self) -> Node {
    let mut pool = self.pool.lock();
    pool.pop()
}
"##,
    )]);
    assert_eq!(lp_lock_findings(&o), 1, "{:?}", o.errors);
}

#[test]
fn lock_discipline_fires_in_par_rs() {
    // The solver has no designated locking module any more: the path that
    // used to hold the exemption is audited like every other lp file.
    let o = analyze_snippets(&[(
        "crates/lp/src/par.rs",
        "fn raw(m: &M) -> G { m.lock().unwrap_or_else(|p| p.into_inner()) }\n",
    )]);
    assert_eq!(lp_lock_findings(&o), 1, "{:?}", o.errors);
}

// ---------------------------------------------------------------- lock-order

#[test]
fn lock_order_fires_on_seeded_cycle() {
    // Seeded deadlock: one function takes Workers → State, another takes
    // State → Workers. The reversed edge violates the declared order AND
    // closes a cycle; both must be reported.
    let o = analyze_snippets(&[
        SYNC_FIXTURE,
        (
            "crates/service/src/service.rs",
            r##"
fn forward(x: &X) {
    let w = lock_recover(&x.workers, LockRank::Workers);
    let s = lock_recover(&x.state, LockRank::State);
}
fn backward(x: &X) {
    let s = lock_recover(&x.state, LockRank::State);
    let w = lock_recover(&x.workers, LockRank::Workers);
}
"##,
        ),
    ]);
    let f = errors(&o, "lock-order");
    assert!(
        f.iter()
            .any(|f| f.message.contains("violates the declared LockRank order")),
        "{:?}",
        o.errors
    );
    assert!(
        f.iter().any(|f| f.message.contains("cycle")),
        "{:?}",
        o.errors
    );
}

#[test]
fn lock_order_passes_ordered_acquisition() {
    let o = analyze_snippets(&[
        SYNC_FIXTURE,
        (
            "crates/service/src/service.rs",
            r##"
fn forward(x: &X) {
    let w = lock_recover(&x.workers, LockRank::Workers);
    let s = lock_recover(&x.state, LockRank::State);
}
"##,
        ),
    ]);
    assert!(errors(&o, "lock-order").is_empty(), "{:?}", o.errors);
}

#[test]
fn lock_order_fires_on_self_deadlock_via_call() {
    // `outer` holds State and calls `helper`, which re-acquires State — a
    // single-thread deadlock the one-level call-graph pass must see.
    let o = analyze_snippets(&[
        SYNC_FIXTURE,
        (
            "crates/service/src/service.rs",
            r##"
fn helper(x: &X) {
    let g = lock_recover(&x.state, LockRank::State);
}
fn outer(x: &X) {
    let g = lock_recover(&x.state, LockRank::State);
    helper(x);
}
"##,
        ),
    ]);
    let f = errors(&o, "lock-order");
    assert_eq!(f.len(), 1, "{:?}", o.errors);
    assert!(f[0].message.contains("self-deadlock"), "{}", f[0].message);
}

#[test]
fn lock_order_fires_on_direct_reacquisition() {
    let o = analyze_snippets(&[
        SYNC_FIXTURE,
        (
            "crates/service/src/service.rs",
            r##"
fn twice(x: &X) {
    let a = lock_recover(&x.state, LockRank::State);
    let b = lock_recover(&x.state, LockRank::State);
}
"##,
        ),
    ]);
    let f = errors(&o, "lock-order");
    assert_eq!(f.len(), 1, "{:?}", o.errors);
    assert!(f[0].message.contains("re-acquires"), "{}", f[0].message);
}

#[test]
fn lock_order_passes_when_guard_dropped_before_next_lock() {
    // Scope-awareness: an explicit drop (or a closed block) ends the hold,
    // so State-then-Workers in *sequence* is not State-while-Workers.
    let o = analyze_snippets(&[
        SYNC_FIXTURE,
        (
            "crates/service/src/service.rs",
            r##"
fn sequential(x: &X) {
    let s = lock_recover(&x.state, LockRank::State);
    drop(s);
    let w = lock_recover(&x.workers, LockRank::Workers);
}
fn block_scoped(x: &X) {
    {
        let s = lock_recover(&x.state, LockRank::State);
    }
    let w = lock_recover(&x.workers, LockRank::Workers);
}
"##,
        ),
    ]);
    assert!(errors(&o, "lock-order").is_empty(), "{:?}", o.errors);
}

#[test]
fn lock_order_ignores_method_calls_on_non_self_receivers() {
    // `st.cache.evict(…)` must not resolve against a *service* fn that
    // happens to share the name `evict` (the PR 7 false positive).
    let o = analyze_snippets(&[
        SYNC_FIXTURE,
        (
            "crates/service/src/service.rs",
            r##"
fn evict(x: &X) {
    let g = lock_recover(&x.state, LockRank::State);
}
fn evict_key(x: &X, hash: u64) -> bool {
    lock_recover(&x.state, LockRank::State).cache.evict(hash)
}
"##,
        ),
    ]);
    assert!(errors(&o, "lock-order").is_empty(), "{:?}", o.errors);
}

// ---------------------------------------------------------------- budget-coverage

#[test]
fn budget_coverage_fires_on_uncovered_pivot_loop() {
    // The seeded breach from the issue: a pivot loop in simplex.rs with no
    // budget charge — a deadline cannot stop it.
    let o = analyze_snippets(&[(
        "crates/lp/src/simplex.rs",
        r##"
fn pivot_to_optimality(&mut self) {
    loop {
        let col = self.choose_column();
        if col.is_none() { break; }
        self.do_pivot(col);
    }
}
"##,
    )]);
    let f = errors(&o, "budget-coverage");
    assert_eq!(f.len(), 1, "{:?}", o.errors);
    assert_eq!(f[0].line, 3);
}

#[test]
fn budget_coverage_passes_charged_loop() {
    let o = analyze_snippets(&[(
        "crates/lp/src/simplex.rs",
        r##"
fn pivot_to_optimality(&mut self) {
    loop {
        if self.budget.exceeded(self.iters) { break; }
        let col = self.choose_column();
        if col.is_none() { break; }
        self.budget.charge(1);
        self.do_pivot(col);
    }
}
"##,
    )]);
    assert!(errors(&o, "budget-coverage").is_empty(), "{:?}", o.errors);
}

#[test]
fn budget_coverage_checks_for_loops_that_solve() {
    // A bounded `for` that runs a solve per iteration (the A* round loop) is
    // as hot as any `while`; a `for` that only shuffles data is not.
    let o = analyze_snippets(&[(
        "crates/core/src/astar.rs",
        r##"
fn run_rounds(&mut self, n: usize) {
    for r in 0..n {
        let s = solve_round(r);
        self.best = pick(self.best, s);
    }
}
fn renumber(&mut self) {
    for e in self.edges.iter_mut() {
        e.id += 1;
    }
}
"##,
    )]);
    let f = errors(&o, "budget-coverage");
    assert_eq!(f.len(), 1, "{:?}", o.errors);
    assert_eq!(f[0].line, 3);
}

#[test]
fn budget_coverage_checks_the_model_build_loops() {
    // An outermost `build_over` loop that lays rows out must check the
    // budget; a covered one, a nested one, one that lays nothing out and one
    // outside `build_over` pass.
    let o = analyze_snippets(&[(
        "crates/core/src/milp_form.rs",
        r##"
fn build_over(budget: Option<&SolveBudget>) {
    for i in 0..n {
        check_budget(budget)?;
        for k in 0..m {
            model.add_var("", 0.0, 1.0, 0.0, true);
        }
    }
    for link in links {
        model.add_cons("", &terms, ConstraintOp::Le, cap);
    }
    for n in nodes {
        seen.push(n);
    }
}
fn update_round(&mut self) {
    for (row, rhs) in rows {
        model.add_cons("", &terms, ConstraintOp::Le, rhs);
    }
}
"##,
    )]);
    let f = errors(&o, "budget-coverage");
    assert_eq!(f.len(), 1, "{:?}", o.errors);
    assert_eq!(f[0].line, 9);
}

#[test]
fn budget_coverage_checks_the_layout_module_in_every_function() {
    // The layout module's shared rows are laid from helpers, not from
    // `build_over`: an outermost row-laying loop in any of its functions
    // must check the budget; a covered one, a nested one and one that lays
    // nothing out pass.
    let o = analyze_snippets(&[(
        "crates/core/src/time_expanded.rs",
        r##"
fn capacity_rows(&self, model: &mut Model, budget: Option<&SolveBudget>) {
    for link in links {
        check_budget(budget)?;
        for k in 0..m {
            model.add_cons("", &terms, ConstraintOp::Le, cap);
        }
    }
}
fn switch_rows(&self, model: &mut Model) {
    for k in 0..m {
        model.add_cons("", &terms, ConstraintOp::Eq, 0.0);
    }
}
fn inflow(&self, terms: &mut Vec<(VarId, f64)>) {
    for inl in links {
        terms.push((v, 1.0));
    }
}
"##,
    )]);
    let f = errors(&o, "budget-coverage");
    assert_eq!(f.len(), 1, "{:?}", o.errors);
    assert_eq!(f[0].line, 11);
}

#[test]
fn budget_coverage_skips_tests_and_cold_files() {
    let o = analyze_snippets(&[
        (
            "crates/lp/src/milp.rs",
            r##"
#[cfg(test)]
mod tests {
    #[test]
    fn spin() {
        while !done() { step(); }
    }
}
"##,
        ),
        (
            "crates/lp/src/tableau.rs",
            "fn fill(&mut self) { while self.next() { self.push(); } }\n",
        ),
    ]);
    assert!(errors(&o, "budget-coverage").is_empty(), "{:?}", o.errors);
}

// ---------------------------------------------------------------- panic-hygiene

#[test]
fn panic_hygiene_fires_outside_the_boundary() {
    let o = analyze_snippets(&[(
        "crates/service/src/protocol.rs",
        r##"
fn read_frame(r: &mut R) -> Frame {
    let len = r.read_u32().unwrap();
    if len > MAX { panic!("oversized frame"); }
    Frame { len }
}
"##,
    )]);
    assert_eq!(errors(&o, "panic-hygiene").len(), 2, "{:?}", o.errors);
}

#[test]
fn panic_hygiene_exempts_catch_unwind_and_its_callees() {
    // `run_solve` is named inside the catch_unwind argument, so its body is
    // under the guard (one level of call graph).
    let o = analyze_snippets(&[(
        "crates/service/src/service.rs",
        r##"
fn worker(&self) {
    let r = catch_unwind(|| run_solve(self));
    self.report(r);
}
fn run_solve(s: &S) -> Out {
    s.model.solve().unwrap()
}
"##,
    )]);
    assert!(errors(&o, "panic-hygiene").is_empty(), "{:?}", o.errors);
}

#[test]
fn panic_hygiene_exempts_tests_and_out_of_scope_files() {
    let o = analyze_snippets(&[
        (
            "crates/service/src/service.rs",
            r##"
#[cfg(test)]
mod tests {
    #[test]
    fn t() { make().unwrap(); }
}
"##,
        ),
        (
            "crates/lp/src/simplex.rs",
            "fn t(&self) -> f64 { self.cell(0, 0).unwrap() }\n",
        ),
    ]);
    assert!(errors(&o, "panic-hygiene").is_empty(), "{:?}", o.errors);
}

#[test]
fn panic_hygiene_covers_the_json_kernels() {
    // The JSON parser reads wire and disk bytes on threads no catch_unwind
    // guards: a panicking shortcut there takes a connection (or a store
    // probe) down with it.
    let o = analyze_snippets(&[(
        "crates/util/src/json.rs",
        r##"
fn digits(out: &mut String, buf: &[u8]) {
    out.push_str(std::str::from_utf8(buf).expect("ascii digits"));
}
fn hex(h: &str) -> u32 {
    u32::from_str_radix(h, 16).unwrap()
}
"##,
    )]);
    assert_eq!(errors(&o, "panic-hygiene").len(), 2, "{:?}", o.errors);

    // The same jobs done with typed errors and lossless fallbacks pass, and
    // the reference implementation frozen in the test module is exempt.
    let o = analyze_snippets(&[(
        "crates/util/src/json.rs",
        r##"
fn digits(out: &mut String, buf: &[u8]) {
    for &d in buf {
        out.push(d as char);
    }
}
fn hex(h: &str, pos: usize) -> Result<u32, JsonError> {
    u32::from_str_radix(h, 16).map_err(|_| JsonError { pos, msg: "bad \\u escape".into() })
}
fn key(keys: &mut Vec<String>) -> String {
    keys.pop().unwrap_or_default()
}
#[cfg(test)]
mod tests {
    mod reference {
        pub fn parse(t: &str) -> Value { parse_value(t).unwrap() }
    }
}
"##,
    )]);
    assert!(errors(&o, "panic-hygiene").is_empty(), "{:?}", o.errors);
}

#[test]
fn panic_hygiene_flags_unchecked_duration_conversions_in_the_decoders() {
    // `Duration::from_secs_f64` panics on a finite value past
    // `Duration::MAX`; a request line chooses that value.
    let o = analyze_snippets(&[
        (
            "crates/service/src/key.rs",
            r##"
fn deadline(ms: f64) -> Duration {
    std::time::Duration::from_secs_f64(ms / 1e3)
}
"##,
        ),
        (
            "crates/topology/src/json.rs",
            "fn t(v: f64) -> Duration { Duration::from_secs_f32(v as f32) }\n",
        ),
    ]);
    assert_eq!(errors(&o, "panic-hygiene").len(), 2, "{:?}", o.errors);

    // The checked conversion passes.
    let o = analyze_snippets(&[(
        "crates/service/src/key.rs",
        r##"
fn deadline(ms: f64) -> Option<Duration> {
    std::time::Duration::try_from_secs_f64(ms / 1e3).ok()
}
"##,
    )]);
    assert!(errors(&o, "panic-hygiene").is_empty(), "{:?}", o.errors);
}

#[test]
fn panic_hygiene_covers_the_stored_document_decoders() {
    // A disk-store probe runs the stored-entry decoder and the decoders of
    // the documents inside it on a connection thread; a stored solve time
    // of -1 once panicked it on every request for the key.
    let o = analyze_snippets(&[
        (
            "crates/service/src/cache.rs",
            r##"
fn solve_time(v: &Value) -> Duration {
    Duration::from_secs_f64(v.get("solve_time_s").and_then(Value::as_f64).unwrap_or(0.0))
}
"##,
        ),
        (
            "crates/schedule/src/schedule.rs",
            "fn name(v: &Value) -> &str { v.as_str().unwrap() }\n",
        ),
        (
            "crates/schedule/src/metrics.rs",
            "fn solver(v: &Value) -> &str { v.as_str().expect(\"solver\") }\n",
        ),
        (
            "crates/schedule/src/output.rs",
            "fn schedule(v: &Value) -> &Value { v.get(\"schedule\").unwrap() }\n",
        ),
        (
            "crates/lp/src/basis.rs",
            "fn status(c: char) -> VarStatus { status_of(c).unwrap() }\n",
        ),
    ]);
    assert_eq!(errors(&o, "panic-hygiene").len(), 5, "{:?}", o.errors);

    // The checked conversion and typed errors pass.
    let o = analyze_snippets(&[
        (
            "crates/service/src/cache.rs",
            r##"
fn solve_time(s: f64) -> Result<Duration, JsonError> {
    Duration::try_from_secs_f64(s).map_err(|_| bad("bad solve_time_s"))
}
"##,
        ),
        (
            "crates/lp/src/basis.rs",
            "fn status(c: char) -> Option<VarStatus> { status_of(c) }\n",
        ),
    ]);
    assert!(errors(&o, "panic-hygiene").is_empty(), "{:?}", o.errors);
}

// ---------------------------------------------------------------- hash-stability

#[test]
fn hash_stability_fires_on_randomized_hashers_and_raw_to_bits() {
    let o = analyze_snippets(&[(
        "crates/service/src/key.rs",
        r##"
use std::collections::HashMap;
fn derive(req: &Request) -> u64 {
    let mut h = DefaultHasher::new();
    h.write_u64(req.alpha.to_bits());
    h.finish()
}
"##,
    )]);
    let f = errors(&o, "hash-stability");
    // HashMap (import), DefaultHasher, and the unquantized to_bits.
    assert_eq!(f.len(), 3, "{:?}", o.errors);
    assert!(f.iter().any(|f| f.message.contains("to_bits")), "{:?}", f);
}

#[test]
fn hash_stability_passes_stable_hashing_and_quantize_fns() {
    let o = analyze_snippets(&[(
        "crates/util/src/hash.rs",
        r##"
use std::collections::BTreeMap;
fn write_f64_quantized(&mut self, v: f64) {
    self.write_u64(quantize(v).to_bits());
}
"##,
    )]);
    assert!(errors(&o, "hash-stability").is_empty(), "{:?}", o.errors);
}

#[test]
fn hash_stability_scopes_graph_rs_to_fingerprint_only() {
    let o = analyze_snippets(&[(
        "crates/topology/src/graph.rs",
        r##"
fn adjacency(&self) -> HashMap<u32, Vec<u32>> {
    build_adjacency(self)
}
fn fingerprint(&self) -> u64 {
    let m: HashMap<u32, u32> = fold(self);
    mix(m)
}
"##,
    )]);
    let f = errors(&o, "hash-stability");
    assert_eq!(f.len(), 1, "{:?}", o.errors);
    assert_eq!(f[0].line, 6);
}

// ---------------------------------------------------------------- forbid-unsafe

#[test]
fn forbid_unsafe_fires_on_missing_attr_and_unsafe_token() {
    let o = analyze_snippets(&[
        ("crates/foo/src/lib.rs", "pub fn f() {}\n"),
        (
            "crates/bar/src/raw.rs",
            "fn g(p: *const u8) -> u8 { unsafe { *p } }\n",
        ),
    ]);
    let f = errors(&o, "forbid-unsafe");
    assert_eq!(f.len(), 2, "{:?}", o.errors);
    assert!(
        f.iter().any(|f| f.message.contains("crate root")),
        "{:?}",
        f
    );
    assert!(
        f.iter().any(|f| f.message.contains("`unsafe` token")),
        "{:?}",
        f
    );
}

#[test]
fn forbid_unsafe_passes_attributed_crate_root() {
    let o = analyze_snippets(&[(
        "crates/foo/src/lib.rs",
        "#![forbid(unsafe_code)]\npub fn f() {}\n",
    )]);
    assert!(errors(&o, "forbid-unsafe").is_empty(), "{:?}", o.errors);
}

// ---------------------------------------------------------------- no-env-knobs

#[test]
fn no_env_knobs_fires_on_env_reads_in_solver_code() {
    let o = analyze_snippets(&[
        (
            "crates/lp/src/simplex.rs",
            "fn trace() -> bool {\n    std::env::var_os(\"TECCL_LP_TRACE\").is_some()\n}\n",
        ),
        (
            "crates/core/src/astar.rs",
            "use std::env::var;\nfn rounds() -> usize { var(\"R\").map_or(0, |v| v.len()) }\n",
        ),
    ]);
    let f: Vec<_> = errors(&o, "no-env-knobs")
        .iter()
        .map(|f| (f.file.as_str(), f.line))
        .collect();
    assert_eq!(
        f,
        [
            ("crates/core/src/astar.rs", 1),
            ("crates/lp/src/simplex.rs", 2)
        ],
        "{:?}",
        o.errors
    );
}

#[test]
fn no_env_knobs_passes_tests_and_other_crates() {
    let o = analyze_snippets(&[
        (
            "crates/lp/src/simplex.rs",
            "#[cfg(test)]\nmod tests {\n    fn seed() -> bool { std::env::var(\"SEED\").is_ok() }\n}\n",
        ),
        (
            "crates/bench/src/bin/bench_lp_json.rs",
            "fn out() -> Option<String> { std::env::var(\"BENCH_OUT\").ok() }\n",
        ),
    ]);
    assert!(errors(&o, "no-env-knobs").is_empty(), "{:?}", o.errors);
}

#[test]
fn no_env_knobs_fires_on_env_reads_in_service_code() {
    let o = analyze_snippets(&[(
        "crates/service/src/fault.rs",
        "fn plan() -> Option<String> {\n    std::env::var(\"FAULT_PLAN\").ok()\n}\n",
    )]);
    let f: Vec<_> = errors(&o, "no-env-knobs")
        .iter()
        .map(|f| (f.file.as_str(), f.line))
        .collect();
    assert_eq!(f, [("crates/service/src/fault.rs", 2)], "{:?}", o.errors);
}

#[test]
fn no_env_knobs_passes_args_and_temp_dirs_in_service_code() {
    let o = analyze_snippets(&[
        (
            "crates/service/src/bin/teccld.rs",
            "fn main() {\n    let args: Vec<String> = std::env::args().skip(1).collect();\n}\n",
        ),
        (
            "crates/service/src/cache.rs",
            "fn scratch() -> std::path::PathBuf { std::env::temp_dir() }\n",
        ),
    ]);
    assert!(errors(&o, "no-env-knobs").is_empty(), "{:?}", o.errors);
}

// ---------------------------------------------------------------- one-reader

#[test]
fn one_reader_fires_on_tree_parses_in_product_code() {
    let o = analyze_snippets(&[
        (
            "crates/service/src/disk.rs",
            "fn load(text: &str) -> Option<Value> {\n    Value::parse(text).ok()\n}\n",
        ),
        (
            "crates/schedule/src/output.rs",
            "fn read(t: &str) -> bool { teccl_util::json::Value::parse(t).is_ok() }\n",
        ),
    ]);
    let f: Vec<_> = errors(&o, "one-reader")
        .iter()
        .map(|f| (f.file.as_str(), f.line))
        .collect();
    assert_eq!(
        f,
        [
            ("crates/schedule/src/output.rs", 1),
            ("crates/service/src/disk.rs", 2)
        ],
        "{:?}",
        o.errors
    );
}

#[test]
fn one_reader_passes_tests_the_cli_and_other_crates() {
    let o = analyze_snippets(&[
        (
            "crates/service/src/server.rs",
            "#[cfg(test)]\nmod tests {\n    fn reply(t: &str) -> Value { Value::parse(t).unwrap() }\n}\n",
        ),
        (
            "crates/service/src/bin/teccl_cli.rs",
            "fn pretty(t: &str) -> String { Value::parse(t).map(|v| v.to_json_pretty()).unwrap_or_default() }\n",
        ),
        (
            "crates/bench/src/bin/bench_lp_json.rs",
            "fn load(t: &str) -> Option<Value> { Value::parse(t).ok() }\n",
        ),
        (
            "crates/service/src/protocol.rs",
            "fn decode(t: &str) -> Result<Topology, JsonError> { json::decode_text(t, Topology::decode) }\n",
        ),
    ]);
    assert!(errors(&o, "one-reader").is_empty(), "{:?}", o.errors);
}

// ---------------------------------------------------------------- lint:allow escapes

#[test]
fn allow_with_reason_suppresses_and_is_reported() {
    let o = analyze_snippets(&[(
        "crates/service/src/cache.rs",
        r##"
fn peek(&self) -> usize {
    // lint:allow(lock-discipline): fixture demonstrating a justified escape
    let g = self.state.lock();
    g.len()
}
"##,
    )]);
    assert!(o.errors.is_empty(), "{:?}", o.errors);
    assert_eq!(o.allowed.len(), 1);
    assert_eq!(o.allowed[0].rule, "lock-discipline");
    assert_eq!(
        o.allowed[0].allowed.as_deref(),
        Some("fixture demonstrating a justified escape")
    );
}

#[test]
fn trailing_allow_suppresses_its_own_line() {
    let o = analyze_snippets(&[(
        "crates/service/src/cache.rs",
        "fn peek(&self) -> usize { self.state.lock().len() } \
         // lint:allow(lock-discipline): trailing escape fixture\n",
    )]);
    assert!(o.errors.is_empty(), "{:?}", o.errors);
    assert_eq!(o.allowed.len(), 1);
}

#[test]
fn allow_without_reason_is_an_error_and_does_not_suppress() {
    let o = analyze_snippets(&[(
        "crates/service/src/cache.rs",
        r##"
fn peek(&self) -> usize {
    // lint:allow(lock-discipline)
    let g = self.state.lock();
    g.len()
}
"##,
    )]);
    // Both the reasonless escape and the original finding are errors.
    assert_eq!(errors(&o, "lint-allow").len(), 1, "{:?}", o.errors);
    assert_eq!(errors(&o, "lock-discipline").len(), 1, "{:?}", o.errors);
    assert!(o.allowed.is_empty());
}

#[test]
fn allow_with_unknown_rule_is_an_error() {
    let o = analyze_snippets(&[(
        "crates/lp/src/tableau.rs",
        "// lint:allow(lock-disciplin): typo in the rule name\nfn f() {}\n",
    )]);
    let f = errors(&o, "lint-allow");
    assert_eq!(f.len(), 1, "{:?}", o.errors);
    assert!(f[0].message.contains("unknown rule"), "{}", f[0].message);
}

#[test]
fn allow_must_target_the_finding_line() {
    // An allow two lines above the violation targets the blank-separated
    // next code line only; a finding elsewhere stays an error.
    let o = analyze_snippets(&[(
        "crates/service/src/cache.rs",
        r##"
fn peek(&self) -> usize {
    // lint:allow(lock-discipline): aimed at the wrong line
    let n = self.len;
    let g = self.state.lock();
    g.len()
}
"##,
    )]);
    assert_eq!(errors(&o, "lock-discipline").len(), 1, "{:?}", o.errors);
    assert!(o.allowed.is_empty());
}

#[test]
fn doc_comment_mentions_are_not_escapes() {
    // Prose describing the syntax (as the linter's own docs do) must not
    // parse as a real escape.
    let o = analyze_snippets(&[(
        "crates/lp/src/tableau.rs",
        "//! The escape hatch is `// lint:allow(rule-name): reason`.\nfn f() {}\n",
    )]);
    assert!(errors(&o, "lint-allow").is_empty(), "{:?}", o.errors);
}

#[test]
fn lint_allow_meta_findings_cannot_be_suppressed() {
    use teccl_lint::allow::{suppressing, Allow};
    let a = Allow {
        rule: "lint-allow".to_string(),
        reason: "trying to silence the meta-rule".to_string(),
        line: 3,
        target_line: Some(3),
    };
    let f = Finding::new("lint-allow", "f.rs", 3, "m".to_string());
    assert!(suppressing(&[a], &f).is_none());
}

// ---------------------------------------------------------------- report shape

#[test]
fn json_report_carries_errors_and_allow_reasons() {
    let o = analyze_snippets(&[(
        "crates/service/src/cache.rs",
        r##"
fn peek(&self) -> usize {
    // lint:allow(lock-discipline): reason preserved in the report
    let g = self.state.lock();
    self.other.lock()
}
"##,
    )]);
    let json = o.to_json(teccl_lint::rules::RULE_NAMES).to_json_pretty();
    assert!(json.contains("\"error_count\": 1"), "{json}");
    assert!(json.contains("\"allowed_count\": 1"), "{json}");
    assert!(json.contains("reason preserved in the report"), "{json}");
}
