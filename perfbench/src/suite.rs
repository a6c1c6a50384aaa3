//! The whole benchmark in one command: every workload in a fresh child
//! process (so `peak_rss_mb` is the workload's own), untraced then traced,
//! `--repeat` times; prints every metric, judges the spread between
//! repeats against each metric's bound, and writes `results.json`.

use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

use teccl_util::json::Value;

use crate::metrics::{END_TO_END, EXACT_REPEAT};
use crate::stats;
use crate::workloads::Workload;
use crate::{out_dir, Args};

/// One workload run, as its result line describes it.
#[derive(Debug, Clone)]
pub struct RunReport {
    pub workload: String,
    pub trace: bool,
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    /// `(name, value, unit)` in emission order.
    pub metrics: Vec<(String, f64, String)>,
    pub wall_s: f64,
}

impl RunReport {
    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn to_result_line(&self) -> String {
        Value::obj(vec![
            ("correct", Value::from(self.correct)),
            ("attempted", Value::from(self.attempted.max(1))),
            ("failed", Value::from(self.failed)),
            (
                "metrics",
                Value::Obj(
                    self.metrics
                        .iter()
                        .map(|(name, value, unit)| {
                            let pairs = vec![
                                ("value", Value::from(*value)),
                                ("unit", Value::from(unit.as_str())),
                            ];
                            (name.clone(), Value::obj(pairs))
                        })
                        .collect(),
                ),
            ),
        ])
        .to_json()
    }

    fn from_result_line(
        workload: &str,
        trace: bool,
        line: &str,
        wall_s: f64,
    ) -> Result<RunReport, String> {
        let v =
            Value::parse(line.trim()).map_err(|e| format!("{workload}: bad result line: {e}"))?;
        let field = |k: &str| v.get(k).ok_or(format!("{workload}: result without `{k}`"));
        let Value::Obj(pairs) = field("metrics")? else {
            return Err(format!("{workload}: `metrics` is not an object"));
        };
        Ok(RunReport {
            workload: workload.to_string(),
            trace,
            correct: field("correct")?.as_bool().unwrap_or(false),
            attempted: field("attempted")?.as_usize().unwrap_or(0),
            failed: field("failed")?.as_usize().unwrap_or(0),
            metrics: pairs
                .iter()
                .map(|(name, m)| {
                    (
                        name.clone(),
                        m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN),
                        m.get("unit")
                            .and_then(Value::as_str)
                            .unwrap_or("")
                            .to_string(),
                    )
                })
                .collect(),
            wall_s,
        })
    }

    fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }
}

/// `BENCHMARK.json`, from the working directory (the driver runs from the
/// checkout root) or from beside this package.
pub fn manifest() -> Result<Value, String> {
    let beside = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string("BENCHMARK.json")
        .or_else(|_| std::fs::read_to_string(&beside))
        .map_err(|e| format!("BENCHMARK.json: {e}"))?;
    Value::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))
}

fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// What the numbers were measured on.
fn machine() -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split(':').nth(1)?.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let unknown = || "unknown".to_string();
    let dirty = command_output("git", &["status", "--porcelain"]).map(|s| !s.is_empty());
    Value::obj(vec![
        (
            "nproc",
            Value::from(std::thread::available_parallelism().map_or(1, |n| n.get())),
        ),
        ("cpu", Value::from(cpu)),
        (
            "rustc",
            Value::from(command_output("rustc", &["--version"]).unwrap_or_else(unknown)),
        ),
        (
            "git_head",
            Value::from(command_output("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown)),
        ),
        ("git_dirty", dirty.map_or(Value::Null, Value::from)),
    ])
}

/// Runs one workload in a child process and parses its result line.
fn run_child(
    args: &Args,
    workload: Workload,
    trace: bool,
    seconds: f64,
) -> Result<RunReport, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.quick {
        cmd.arg("--quick");
    }
    let started = Instant::now();
    let out = cmd.output().map_err(|e| e.to_string())?;
    let wall_s = started.elapsed().as_secs_f64();
    let stdout = String::from_utf8_lossy(&out.stdout);
    print!("{stdout}");
    let Some(line) = stdout.lines().last().filter(|l| l.starts_with('{')) else {
        return Err(format!(
            "{} ended with {} and no result line: {}",
            workload.name(),
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    };
    RunReport::from_result_line(workload.name(), trace, line, wall_s)
}

/// Runs the whole set `args.repeat` times: `(repeat, report)` per run.
fn collect(args: &Args) -> Result<Vec<(usize, RunReport)>, String> {
    let seconds = args.window_seconds()?;
    let mut runs = Vec::new();
    for repeat in 0..args.repeat {
        for workload in Workload::ALL {
            for trace in [false, true] {
                runs.push((repeat, run_child(args, workload, trace, seconds)?));
            }
        }
    }
    Ok(runs)
}

/// `(max - min) / median` of the repeats of one metric.
fn spread(values: &[f64]) -> f64 {
    let (lo, hi) = values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    let mid = stats::median(values);
    if mid == 0.0 {
        0.0
    } else {
        (hi - lo) / mid.abs()
    }
}

/// Suite mode. `Ok(false)` when a run was incorrect or `--check` found a
/// spread outside its bound.
pub fn run(args: &Args) -> Result<bool, String> {
    let runs = collect(args)?;
    let mut ok = runs.iter().all(|(_, r)| r.correct);

    let mut spreads = Vec::new();
    if args.repeat > 1 {
        println!(
            "\nspread over {} repeats (seed {}):",
            args.repeat, args.seed
        );
        for workload in Workload::ALL {
            let of = |trace: bool| {
                runs.iter()
                    .map(|(_, r)| r)
                    .filter(move |r| r.workload == workload.name() && r.trace == trace)
            };
            for m in &END_TO_END {
                let values: Vec<f64> = of(false).filter_map(|r| r.metric(m.name)).collect();
                let s = spread(&values);
                let inside = s <= m.bound;
                println!(
                    "  {:<15} {:<16} {:?} median {:.4} {} spread {:.4} {} bound {}",
                    workload.name(),
                    m.name,
                    values,
                    stats::median(&values),
                    m.unit,
                    s,
                    if inside { "inside" } else { "OUTSIDE" },
                    m.bound
                );
                ok &= inside || !args.check;
                spreads.push(Value::obj(vec![
                    ("workload", Value::from(workload.name())),
                    ("metric", Value::from(m.name)),
                    (
                        "values",
                        Value::Arr(values.iter().map(|&v| Value::from(v)).collect()),
                    ),
                    ("median", Value::from(stats::median(&values))),
                    ("spread", Value::from(s)),
                    ("inside_bound", Value::from(inside)),
                ]));
            }
            if workload.is_solver() {
                for name in EXACT_REPEAT {
                    let values: Vec<f64> = of(true).filter_map(|r| r.metric(name)).collect();
                    if values.windows(2).any(|w| w[0] != w[1]) {
                        println!(
                            "  {:<15} {name} does not repeat exactly: {values:?}",
                            workload.name()
                        );
                        ok &= !args.check;
                    }
                }
            }
        }
    }

    let total: f64 = runs.iter().map(|(_, r)| r.wall_s).sum();
    let n_runs = runs.len();
    let runs: Vec<Value> = runs
        .iter()
        .map(|&(repeat, ref r)| {
            let side = out_dir().join(format!(
                "run-{}-trace{}.json",
                r.workload,
                u8::from(r.trace)
            ));
            let load = std::fs::read_to_string(side)
                .ok()
                .and_then(|t| Value::parse(&t).ok())
                .unwrap_or(Value::Null);
            Value::obj(vec![
                ("workload", Value::from(r.workload.as_str())),
                ("repeat", Value::from(repeat)),
                ("trace", Value::from(r.trace)),
                ("wall_s", Value::from(r.wall_s)),
                ("correct", Value::from(r.correct)),
                ("attempted", Value::from(r.attempted)),
                ("failed", Value::from(r.failed)),
                (
                    "metrics",
                    Value::Obj(
                        r.metrics
                            .iter()
                            .map(|(n, v, _)| (n.clone(), Value::from(*v)))
                            .collect(),
                    ),
                ),
                ("load", load),
            ])
        })
        .collect();
    let results = Value::obj(vec![
        ("machine", machine()),
        ("seed", Value::from(args.seed)),
        ("quick", Value::from(args.quick)),
        ("repeat", Value::from(args.repeat)),
        ("runs", Value::Arr(runs)),
        ("spread", Value::Arr(spreads)),
    ]);
    let path = out_dir().join("results.json");
    std::fs::create_dir_all(out_dir()).map_err(|e| e.to_string())?;
    std::fs::write(&path, results.to_json_pretty()).map_err(|e| e.to_string())?;
    println!("\n{n_runs} runs in {total:.1} s; wrote {}", path.display());
    Ok(ok)
}
