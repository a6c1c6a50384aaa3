//! A minimal micro-benchmark harness (the offline build has no `criterion`).
//!
//! Mirrors the parts of criterion's API the benches use — named
//! `bench_function`s timing a closure — and reports the **median** wall-clock
//! time per iteration, which is robust to scheduler noise. Results can be
//! dumped as machine-readable JSON (`BENCH_lp.json`) so the perf trajectory is
//! tracked across PRs.

use std::time::{Duration, Instant};

use teccl_util::json::Value;

/// Result of one named benchmark.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark name (e.g. `lp_form/internal2x2_alltoall`).
    pub name: String,
    /// Median time per iteration in nanoseconds.
    pub median_ns: f64,
    /// Minimum observed iteration time in nanoseconds.
    pub min_ns: f64,
    /// Number of timed samples.
    pub samples: usize,
    /// What the benchmarked body reported doing, if it solves.
    pub work: Option<Work>,
}

/// The deterministic work of one run of a row body that solves: pivots
/// (dual ones included), dual pivots, LU factorizations, branch-and-bound
/// nodes, and the LP starts, warm and cold (one per round on an A\* row).
/// Unlike a row's time it does not depend on the host, so `BENCH_lp.json`
/// keeps it under `_work` and `tests/work_columns.rs` compares it exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Work {
    /// Simplex pivots, primal and dual.
    pub pivots: usize,
    /// Dual-simplex pivots.
    pub dual_pivots: usize,
    /// LU basis (re)factorizations.
    pub factorizations: usize,
    /// Branch-and-bound nodes.
    pub nodes: usize,
    /// LP solves started warm.
    pub warm_starts: usize,
    /// LP solves started cold.
    pub cold_starts: usize,
}

impl Work {
    /// The work `stats` counts.
    pub fn of(stats: &teccl_lp::SolveStats) -> Work {
        Work {
            pivots: stats.simplex_iterations,
            dual_pivots: stats.dual_iterations,
            factorizations: stats.factorizations,
            nodes: stats.nodes_explored,
            warm_starts: stats.warm_starts,
            cold_starts: stats.cold_starts,
        }
    }

    /// The counters by name, in the order `_work` lists them.
    pub fn counts(&self) -> [(&'static str, usize); 6] {
        [
            ("pivots", self.pivots),
            ("dual_pivots", self.dual_pivots),
            ("factorizations", self.factorizations),
            ("nodes", self.nodes),
            ("warm_starts", self.warm_starts),
            ("cold_starts", self.cold_starts),
        ]
    }
}

/// What a benchmarked body returns: nothing, or the [`Work`] it did.
pub trait Reported {
    /// The work, if any.
    fn work(self) -> Option<Work>;
}

impl Reported for () {
    fn work(self) -> Option<Work> {
        None
    }
}

impl Reported for Work {
    fn work(self) -> Option<Work> {
        Some(self)
    }
}

/// Harness configuration.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Target measurement time per benchmark (split over samples).
    pub measurement_time: Duration,
    /// Number of timed samples (each sample may run several iterations).
    pub sample_count: usize,
    /// Warm-up iterations before timing starts.
    pub warmup_iters: usize,
}

impl Default for BenchConfig {
    fn default() -> Self {
        Self {
            measurement_time: Duration::from_secs(3),
            sample_count: 11,
            warmup_iters: 2,
        }
    }
}

/// A named collection of benchmark results.
#[derive(Debug, Default)]
pub struct Harness {
    config: BenchConfig,
    results: Vec<BenchResult>,
    /// Run each body once and time nothing ([`Harness::once`]).
    once: bool,
}

impl Harness {
    /// Creates a harness with the given configuration.
    pub fn new(config: BenchConfig) -> Self {
        Self {
            config,
            ..Default::default()
        }
    }

    /// A harness that runs each body once and times nothing: it records
    /// only what the bodies report ([`BenchResult::work`]).
    pub fn once() -> Self {
        Self {
            once: true,
            ..Default::default()
        }
    }

    /// Times `f`, printing the result criterion-style, and records it with
    /// the work its last call reported.
    pub fn bench_function<R: Reported, F: FnMut() -> R>(
        &mut self,
        name: &str,
        mut f: F,
    ) -> &BenchResult {
        if self.once {
            let work = f().work();
            self.results.push(BenchResult {
                name: name.to_string(),
                median_ns: 0.0,
                min_ns: 0.0,
                samples: 0,
                work,
            });
            return &self.results[self.results.len() - 1];
        }
        // Warm-up and calibration: how many iterations fit in one sample?
        for _ in 0..self.config.warmup_iters {
            f();
        }
        let t0 = Instant::now();
        f();
        let once = t0.elapsed().max(Duration::from_nanos(50));
        let per_sample =
            self.config.measurement_time.as_secs_f64() / self.config.sample_count as f64;
        let iters_per_sample =
            ((per_sample / once.as_secs_f64()).floor() as usize).clamp(1, 1_000_000);

        let mut samples_ns: Vec<f64> = Vec::with_capacity(self.config.sample_count);
        let mut work = None;
        for _ in 0..self.config.sample_count {
            let start = Instant::now();
            for _ in 0..iters_per_sample {
                work = f().work();
            }
            samples_ns.push(start.elapsed().as_nanos() as f64 / iters_per_sample as f64);
        }
        samples_ns.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median_ns = samples_ns[samples_ns.len() / 2];
        let min_ns = samples_ns[0];
        println!(
            "{name:<44} median {:>12}  min {:>12}  ({} samples x {} iters)",
            format_ns(median_ns),
            format_ns(min_ns),
            samples_ns.len(),
            iters_per_sample
        );
        self.results.push(BenchResult {
            name: name.to_string(),
            median_ns,
            min_ns,
            samples: samples_ns.len(),
            work,
        });
        self.results.last().unwrap()
    }

    /// Re-expresses the last recorded result per unit of work, for a closure
    /// that does `units` of them per call (pivots of a fixed re-solve, say).
    pub fn per_unit(&mut self, units: usize) {
        if let Some(last) = self.results.last_mut() {
            last.median_ns /= units as f64;
            last.min_ns /= units as f64;
            println!(
                "{:<44} = {} per unit ({units} units per iteration)",
                last.name,
                format_ns(last.median_ns)
            );
        }
    }

    /// All recorded results.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// Renders the results as a `{name: median_ns}` JSON object, plus a
    /// `_detail` block with minima and sample counts and a `_work` block
    /// with the [`Work`] of the rows that report it.
    pub fn to_json(&self) -> Value {
        let mut pairs: Vec<(String, Value)> = self
            .results
            .iter()
            .map(|r| (r.name.clone(), Value::Num(r.median_ns)))
            .collect();
        let detail: Vec<(String, Value)> = self
            .results
            .iter()
            .map(|r| {
                (
                    r.name.clone(),
                    Value::obj(vec![
                        ("median_ns", Value::Num(r.median_ns)),
                        ("min_ns", Value::Num(r.min_ns)),
                        ("samples", Value::from(r.samples)),
                    ]),
                )
            })
            .collect();
        pairs.push(("_detail".to_string(), Value::Obj(detail)));
        let work = self
            .results
            .iter()
            .filter_map(|r| {
                let counts = r
                    .work?
                    .counts()
                    .map(|(k, n)| (k.to_string(), Value::from(n)));
                Some((r.name.clone(), Value::Obj(counts.to_vec())))
            })
            .collect();
        pairs.push(("_work".to_string(), Value::Obj(work)));
        Value::Obj(pairs)
    }
}

/// The machine a run measured, as the `_machine` object of `BENCH_lp.json`:
/// the CPU model and logical CPU count from `/proc/cpuinfo` and the CPUs the
/// process may run on (`Cpus_allowed_list` of `/proc/self/status`, which a
/// `taskset` pin narrows). A file that cannot be read leaves its fields
/// `"unknown"` / 0.
pub fn machine() -> Value {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    machine_from(&cpuinfo, &status)
}

/// [`machine`] from the text of `/proc/cpuinfo` and `/proc/self/status`.
pub fn machine_from(cpuinfo: &str, status: &str) -> Value {
    let field = |text: &str, key: &str| -> Option<String> {
        text.lines().find_map(|line| {
            let (k, v) = line.split_once(':')?;
            (k.trim() == key).then(|| v.trim().to_string())
        })
    };
    let logical = cpuinfo
        .lines()
        .filter(|line| {
            line.split_once(':')
                .is_some_and(|(k, _)| k.trim() == "processor")
        })
        .count();
    let unknown = || "unknown".to_string();
    Value::obj(vec![
        (
            "cpu_model",
            Value::Str(field(cpuinfo, "model name").unwrap_or_else(unknown)),
        ),
        ("logical_cpus", Value::from(logical)),
        (
            "cpus_allowed_list",
            Value::Str(field(status, "Cpus_allowed_list").unwrap_or_else(unknown)),
        ),
    ])
}

/// Human-friendly nanosecond formatting (`1.234 ms` style).
pub fn format_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.1} ns")
    } else if ns < 1e6 {
        format!("{:.3} us", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.3} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_serializes_results() {
        let mut h = Harness::new(BenchConfig {
            measurement_time: Duration::from_millis(20),
            sample_count: 3,
            warmup_iters: 1,
        });
        let mut acc = 0u64;
        h.bench_function("noop/add", || {
            acc = acc.wrapping_add(std::hint::black_box(1));
        });
        assert_eq!(h.results().len(), 1);
        assert!(h.results()[0].median_ns >= 0.0);
        let json = h.to_json();
        assert!(json.get("noop/add").is_some());
        assert!(json
            .get("_detail")
            .and_then(|d| d.get("noop/add"))
            .is_some());
    }

    #[test]
    fn machine_reads_the_cpu_model_count_and_mask() {
        let cpuinfo = "processor\t: 0\nmodel name\t: Example CPU @ 2.0GHz\n\n\
                       processor\t: 1\nmodel name\t: Example CPU @ 2.0GHz\n";
        let status = "Name:\tbench\nCpus_allowed:\t2\nCpus_allowed_list:\t1\n";
        let m = machine_from(cpuinfo, status);
        assert_eq!(
            m.get("cpu_model").and_then(Value::as_str),
            Some("Example CPU @ 2.0GHz")
        );
        assert_eq!(m.get("logical_cpus").and_then(Value::as_f64), Some(2.0));
        assert_eq!(
            m.get("cpus_allowed_list").and_then(Value::as_str),
            Some("1")
        );
        let blank = machine_from("", "");
        assert_eq!(
            blank.get("cpu_model").and_then(Value::as_str),
            Some("unknown")
        );
    }

    #[test]
    fn format_ns_scales() {
        assert!(format_ns(12.0).ends_with("ns"));
        assert!(format_ns(12_000.0).ends_with("us"));
        assert!(format_ns(12_000_000.0).ends_with("ms"));
        assert!(format_ns(2.0e9).ends_with(" s"));
    }
}
