//! The exact work columns of `BENCH_lp.json`: every gated row that solves
//! is run once, timed not at all, and its pivots, dual pivots,
//! factorizations, branch-and-bound nodes and warm / cold LP starts must
//! equal the committed `_work` record exactly. Unlike the medians these do
//! not depend on the host, so a change that claims to leave the solvers
//! alone proves it here; one that changes a solver path re-pins the record
//! with its reason.

use teccl_bench::gated_row_work;
use teccl_util::json::Value;

#[test]
fn gated_rows_do_the_committed_work() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_lp.json");
    let committed = Value::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let record = committed
        .get("_work")
        .expect("BENCH_lp.json has a _work record");
    let ran = gated_row_work();
    let mut differs = Vec::new();
    if let Value::Obj(pinned) = record {
        let names: Vec<&str> = ran.iter().map(|(name, _)| name.as_str()).collect();
        for (name, _) in pinned {
            if !names.contains(&name.as_str()) {
                differs.push(format!("{name}: committed, but no row reported it"));
            }
        }
    }
    for (name, work) in &ran {
        let pinned = record
            .get(name)
            .unwrap_or_else(|| panic!("{name} has no _work entry"));
        for (counter, n) in work.counts() {
            let want = pinned.get(counter).and_then(Value::as_usize);
            if want != Some(n) {
                differs.push(format!("{name} {counter}: committed {want:?}, ran {n}"));
            }
        }
    }
    assert!(differs.is_empty(), "{}", differs.join("\n"));
}
