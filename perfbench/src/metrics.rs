//! The metric catalogue: every name the benchmark emits, with its unit and
//! direction. `BENCHMARK.json` at the repo root lists the same names; the
//! `manifest_matches_catalogue` test keeps the two in step.

#[derive(Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// `lower` or `higher` (read by the manifest test only).
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// Reported by every workload with `--trace 0`.
pub const END_TO_END: [EndToEnd; 5] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("throughput_rps", "1/s", "higher", 0.25),
    e2e("latency_p50_ms", "ms", "lower", 0.25),
    e2e("latency_tail_ms", "ms", "lower", 0.25),
    e2e("algo_bw_gbps", "GB/s", "higher", 0.08),
];

/// Reported by every workload with `--trace 1`: `(name, unit, better)`. A
/// layer the workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str, &str); 76] = [
    ("wire.hit_p50_us", "us", "lower"),
    ("wire.hit_p99_us", "us", "lower"),
    ("wire.disk_hit_p50_us", "us", "lower"),
    ("wire.degraded_p50_us", "us", "lower"),
    ("wire.miss_cold_p50_ms", "ms", "lower"),
    ("wire.miss_warm_p50_ms", "ms", "lower"),
    ("service.protocol.parse_us", "us", "lower"),
    ("service.protocol.serialize_us", "us", "lower"),
    ("service.protocol.request_bytes", "B", "lower"),
    ("service.protocol.reply_bytes", "B", "lower"),
    ("util.json.parse_mb_s", "MB/s", "higher"),
    ("util.json.write_mb_s", "MB/s", "higher"),
    ("service.key.key_us", "us", "lower"),
    ("topology.fingerprint_us", "us", "lower"),
    ("service.cache.get_us", "us", "lower"),
    ("service.cache.insert_us", "us", "lower"),
    ("service.cache.hit_share", "share", "higher"),
    ("service.cache.evictions", "count", "lower"),
    ("service.disk.save_us", "us", "lower"),
    ("service.disk.load_us", "us", "lower"),
    ("service.disk.entry_bytes", "B", "lower"),
    ("service.disk.hit_share", "share", "higher"),
    ("service.queue.miss_overhead_us", "us", "lower"),
    ("service.queue.hinted_share", "share", "higher"),
    ("service.queue.coalesced_share", "share", "lower"),
    ("service.queue.degraded_share", "share", "lower"),
    ("service.queue.upgrades", "count", "lower"),
    ("service.queue.solve_iterations", "count", "lower"),
    ("service.server.wire_overhead_us", "us", "lower"),
    ("collective.demand_us", "us", "lower"),
    ("core.epochs.horizon_attempts", "count", "lower"),
    ("core.epochs.wasted_s", "s", "lower"),
    ("core.lp_form.build_ms", "ms", "lower"),
    ("core.lp_form.rows", "count", "lower"),
    ("core.lp_form.cols", "count", "lower"),
    ("core.lp_form.nnz", "count", "lower"),
    ("core.milp_form.build_ms", "ms", "lower"),
    ("core.milp_form.rows", "count", "lower"),
    ("core.milp_form.cols", "count", "lower"),
    ("core.milp_form.int_vars", "count", "lower"),
    ("core.astar.solve_ms", "ms", "lower"),
    ("core.astar.rounds", "count", "lower"),
    ("lp.presolve.ms", "ms", "lower"),
    ("lp.presolve.cols_fixed", "count", "higher"),
    ("lp.presolve.rows_freed", "count", "higher"),
    ("lp.standard.build_ms", "ms", "lower"),
    ("lp.simplex.ms", "ms", "lower"),
    ("lp.simplex.iterations", "count", "lower"),
    ("lp.simplex.us_per_iter", "us", "lower"),
    ("lp.simplex.factorizations", "count", "lower"),
    ("lp.simplex.share", "share", "lower"),
    ("lp.milp.ms", "ms", "lower"),
    ("lp.milp.nodes", "count", "lower"),
    ("lp.milp.warm_starts", "count", "higher"),
    ("lp.milp.cold_starts", "count", "lower"),
    ("lp.dual.iterations", "count", "lower"),
    ("lp.dual.share", "share", "higher"),
    ("lp.basis.factorize_ms", "ms", "lower"),
    ("lp.basis.ftran_us", "us", "lower"),
    ("lp.basis.btran_us", "us", "lower"),
    ("lp.basis.fill_ratio", "ratio", "lower"),
    ("core.extract.ms", "ms", "lower"),
    ("core.extract.sends", "count", "lower"),
    ("schedule.validate.us", "us", "lower"),
    ("schedule.sim.us", "us", "lower"),
    ("schedule.sim.bytes_on_wire_mb", "MB", "lower"),
    ("schedule.output.to_json_us", "us", "lower"),
    ("schedule.output.from_json_us", "us", "lower"),
    ("baselines.fallback_us", "us", "lower"),
    ("trace.coverage", "share", "higher"),
    ("trace.inproc_coverage", "share", "higher"),
    ("trace.overhead_share", "share", "lower"),
    ("trace.mirror_share", "share", "higher"),
    ("trace.spans", "count", "lower"),
    ("trace.requests", "count", "higher"),
    ("process.peak_rss_mb", "MB", "lower"),
];

/// Per-layer counts that a fixed `--seed` must reproduce exactly on the
/// solver workloads (the service workloads race background upgrades).
pub const EXACT_REPEAT: [&str; 11] = [
    "lp.simplex.iterations",
    "lp.dual.iterations",
    "lp.milp.nodes",
    "core.lp_form.rows",
    "core.lp_form.cols",
    "core.lp_form.nnz",
    "core.milp_form.rows",
    "core.milp_form.cols",
    "core.milp_form.int_vars",
    "core.astar.rounds",
    "core.extract.sends",
];

/// Attaches the catalogue's units to measured values, and insists that the
/// run emitted exactly the catalogue's names in the catalogue's order.
pub fn with_units(
    catalogue: &[(&'static str, &'static str)],
    values: Vec<(&str, f64)>,
) -> Vec<crate::run::Metric> {
    assert_eq!(
        values.len(),
        catalogue.len(),
        "metric count differs from the catalogue"
    );
    catalogue
        .iter()
        .zip(values)
        .map(|(&(name, unit), (got, value))| {
            assert_eq!(name, got, "metric order differs from the catalogue");
            (name, value, unit)
        })
        .collect()
}
