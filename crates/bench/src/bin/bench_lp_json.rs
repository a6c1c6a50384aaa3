//! The micro-benchmark runner: times every `teccl_bench::bench_*` row and
//! writes `BENCH_lp.json` — a `{name: median_ns}` object — so the perf
//! trajectory of the solver and service hot paths is tracked across PRs with
//! `cargo run -p teccl-bench --release --bin bench_lp_json`. The gated rows
//! abort the run on a regression against the committed file.

use std::time::Duration;

use teccl_bench::microbench::{BenchConfig, Harness};

fn main() {
    let mut h = Harness::new(BenchConfig {
        measurement_time: Duration::from_secs(2),
        sample_count: 7,
        ..Default::default()
    });

    teccl_bench::bench_lp_form_alltoall(&mut h);
    teccl_bench::bench_milp_form_allgather(&mut h);

    // The `allgather_copy` MILP key end to end through `TeCcl::solve`;
    // aborts if its first horizon is refuted.
    teccl_bench::bench_milp_dgx1_allgather(&mut h);

    // The `allgather_copy` A* key with the most rounds per request.
    teccl_bench::bench_astar_internal2x8_allgather(&mut h);

    // The 16-GPU Table-4 ALLTOALL through `TeCcl::solve`.
    teccl_bench::bench_lp_internal1x4_alltoall(&mut h);

    teccl_bench::bench_simplex_resolves(&mut h);
    teccl_bench::bench_dual_resolve(&mut h);
    teccl_bench::bench_degenerate_alltoall(&mut h);

    // What a warm dual pivot costs on an A* round (per pivot), and the two
    // solves inside it on that round's optimal basis, sparse kernel and
    // dense kernel side by side.
    teccl_bench::bench_dual_pivot_rows(&mut h);

    teccl_bench::bench_internal1x2_alltoall(&mut h);
    teccl_bench::bench_presolve_warm_rounds(&mut h);
    teccl_bench::bench_service(&mut h);
    teccl_bench::bench_simulator(&mut h);

    // LU fill-in of the degenerate instance's optimal basis: the metric the
    // Markowitz tie-breaking in `LuFactors::factorize` optimizes. Tracked in
    // BENCH_lp.json (`lu_fill_nnz` vs the basis matrix's own `lu_basis_nnz`)
    // so fill regressions show up across PRs.
    let (lu_m, basis_cols) = teccl_bench::lu_refactor_fixture();
    let mut lu =
        teccl_lp::LuFactors::factorize(lu_m, &basis_cols).expect("optimal basis factorizes");
    let basis_nnz: usize = basis_cols.iter().map(|c| c.indices.len()).sum();
    let fill_nnz = lu.fill_nnz();
    // Exercise a solve so the factors are demonstrably usable.
    let mut probe = vec![1.0; lu_m];
    lu.ftran(&mut probe);
    println!(
        "\nlp/lu_fill: basis nnz {basis_nnz} -> L+U nnz {fill_nnz} ({:.2}x)",
        fill_nnz as f64 / basis_nnz as f64
    );
    teccl_bench::bench_lu_refactor_fill(&mut h);

    let mut json = h.to_json();
    if let teccl_util::json::Value::Obj(pairs) = &mut json {
        pairs.push((
            "lp/lu_basis_nnz".to_string(),
            teccl_util::json::Value::from(basis_nnz),
        ));
        pairs.push((
            "lp/lu_fill_nnz".to_string(),
            teccl_util::json::Value::from(fill_nnz),
        ));
    }

    let median = |v: &teccl_util::json::Value, name: &str| -> Option<f64> {
        v.get(name).and_then(teccl_util::json::Value::as_f64)
    };

    // Gate: >25% regression against the committed medians for the gated
    // rows. Sub-millisecond rows get a 2x allowance instead — at that scale
    // scheduler noise alone crosses 25% on shared CI runners.
    let path = "BENCH_lp.json";
    let gated = [
        "lp_form/internal2x2_alltoall",
        "core/milp_dgx1_allgather",
        "core/astar_internal2x8_allgather",
        "core/lp_internal1x4_alltoall",
        "lp/degenerate_alltoall",
        "lp/lu_refactor_fill",
        "lp/dual_pivot_astar_round",
        "lp/btran_unit",
        "lp/ftran_col",
        "lp/presolve_warm_rounds",
        "lp/internal1x2_alltoall",
        "service/wire_hit",
    ];
    if let Some(committed) = std::fs::read_to_string(path)
        .ok()
        .and_then(|t| teccl_util::json::Value::parse(&t).ok())
    {
        for name in gated {
            let (Some(old), Some(new)) = (median(&committed, name), median(&json, name)) else {
                continue; // row added after the committed baseline
            };
            let allowance = if old < 1e6 { 2.0 } else { 1.25 };
            assert!(
                new <= old * allowance,
                "{name} regressed >{:.0}% vs committed BENCH_lp.json: {:.2} ms -> {:.2} ms",
                (allowance - 1.0) * 100.0,
                old / 1e6,
                new / 1e6
            );
        }
    }

    let json = json.to_json_pretty();
    std::fs::write(path, format!("{json}\n")).expect("write BENCH_lp.json");
    println!("\nwrote {path}");
}
