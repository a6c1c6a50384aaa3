#![forbid(unsafe_code)]
//! The repo's benchmark. See `README.md` beside `Cargo.toml` and
//! `BENCHMARK.json` at the repo root.
//!
//! Driver interface (one workload, one result line on stdout):
//!   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--quick]
//! Suite (every workload in a child process, untraced then traced):
//!   perfbench [--seed N] [--seconds S] [--repeat N] [--check] [--quick]

mod calib;
mod check;
mod metrics;
mod pin;
mod run;
mod stats;
mod suite;
mod trace;
mod traced;
mod walk;
mod wire;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use teccl_util::json::Value;

use run::{Plan, WireRun};
use suite::RunReport;
use workloads::Workload;

/// Parsed command line.
#[derive(Debug, Default)]
pub struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    repeat: usize,
    check: bool,
}

impl Args {
    /// `--seconds`, else 1 s with `--quick`, else `run_seconds` of
    /// `BENCHMARK.json`.
    fn window_seconds(&self) -> Result<f64, String> {
        match (self.seconds, self.quick) {
            (Some(s), _) => Ok(s),
            (None, true) => Ok(1.0),
            (None, false) => suite::manifest()?
                .get("run_seconds")
                .and_then(Value::as_f64)
                .ok_or_else(|| "BENCHMARK.json: no `run_seconds`".to_string()),
        }
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        seed: 1,
        repeat: 1,
        ..Args::default()
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        let bad = |v: &str| format!("bad value `{v}` for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?.to_string()),
            "--seed" => args.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--seconds" => {
                let s: f64 = value().and_then(|v| v.parse().map_err(|_| bad(v)))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                }
            }
            "--repeat" => {
                args.repeat = value().and_then(|v| v.parse().map_err(|_| bad(v)))?;
                if args.repeat == 0 {
                    return Err("--repeat must be at least 1".into());
                }
            }
            "--quick" => args.quick = true,
            "--check" => args.check = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// Where trace files, results and temp dirs go: under the build directory,
/// which is inside the checkout and ignored by git.
pub fn out_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(
            || PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/target")),
            PathBuf::from,
        )
        .join("benchmark")
}

/// Per-status and per-quality reply counts of the timed window.
fn reply_counts(run: &WireRun) -> Value {
    let mut counts = std::collections::BTreeMap::new();
    for s in &run.samples {
        *counts.entry(s.status.name()).or_insert(0u64) += 1;
        *counts.entry(s.quality.name()).or_insert(0u64) += 1;
    }
    Value::Obj(
        counts
            .into_iter()
            .map(|(k, n)| (k.to_string(), Value::from(n)))
            .collect(),
    )
}

/// Runs one workload and prints its metrics. `Err` means the run could not
/// be completed at all, so there is no result to print.
fn run_workload(args: &Args, workload: Workload) -> Result<RunReport, String> {
    let started = std::time::Instant::now();
    let seconds = args.window_seconds()?;
    let plan = Plan {
        workload,
        seed: args.seed,
        seconds,
        quick: args.quick,
        out_dir: out_dir(),
    };
    let targets = workloads::targets(workload, plan.seed, plan.quick);
    let (run, metrics) = if args.trace {
        // A short untraced run of the same requests gives the wire's view
        // (one pass of a solver list, a third of a service window).
        let wire_plan = Plan {
            seconds: if workload.is_solver() {
                0.0
            } else {
                seconds / 3.0
            },
            ..plan.clone()
        };
        let run = run::wire_run(&wire_plan, &targets, workload == Workload::ServiceHot)?;
        let (metrics, tracer) = traced::per_layer(&plan, &targets, &run)?;
        let path = plan.out_dir.join(format!("trace-{}.json", workload.name()));
        std::fs::write(&path, tracer.to_json().to_json()).map_err(|e| e.to_string())?;
        (run, metrics)
    } else {
        let run = run::wire_run(&plan, &targets, false)?;
        let metrics = run::end_to_end(&run.at_nominal_speed(), targets.len(), workload.tail_pm());
        (run, metrics)
    };

    let n = run.samples.len();
    println!(
        "{} seed {} {}: {n} timed replies in {:.2} s over 1 closed-loop connection, {} keys",
        workload.name(),
        plan.seed,
        if args.trace { "traced" } else { "untraced" },
        run.window_s,
        targets.len(),
    );
    for &(name, value, unit) in &metrics {
        println!("  {name:<34} {value:>16.4} {unit}");
    }
    println!(
        "  requests sent {} ok {} failed {} (failed_share {:.6}); percentiles over n = {n}",
        run.attempted,
        run.attempted - run.failed,
        run.failed,
        run.failed as f64 / run.attempted.max(1) as f64,
    );
    if !args.trace {
        let slices = run::per_slice(&run, workload.tail_pm());
        let row = |what: &str, values: &[f64], scale: f64| {
            if !values.is_empty() {
                let cells: Vec<String> =
                    values.iter().map(|v| format!("{:.4}", v * scale)).collect();
                println!("  per slice, {what}: {}", cells.join(" "));
            }
        };
        row("machine slowdown", &run.slice_slowdown, 1.0);
        row("wall-clock replies/s", &slices.rates, 1.0);
        row("wall-clock median latency ms", &slices.medians, 1e3);
        row("wall-clock tail latency ms", &slices.tails, 1e3);
        let nominal = run::per_slice(&run.at_nominal_speed(), workload.tail_pm());
        row("replies/s", &nominal.rates, 1.0);
        row("median latency ms", &nominal.medians, 1e3);
        row("tail latency ms", &nominal.tails, 1e3);
        let wall: Vec<String> = run::end_to_end(&run, targets.len(), workload.tail_pm())
            .iter()
            .map(|(name, value, _)| format!("{name} {value:.4}"))
            .collect();
        println!("  by the wall clock: {}", wall.join(", "));
    }
    for failure in &run.failures {
        println!("  FAILED: {failure}");
    }
    let correct = run.failed == 0 && run.attempted > 0 && metrics.iter().all(|m| m.1.is_finite());

    // Details for the suite (load shape, reply mix); not part of the result.
    let details = Value::obj(vec![
        ("workload", Value::from(workload.name())),
        ("seed", Value::from(plan.seed)),
        ("seconds", Value::from(seconds)),
        ("loop", Value::from("closed")),
        ("connections", Value::from(1usize)),
        ("keys", Value::from(targets.len())),
        ("timed_replies", Value::from(n)),
        ("window_s", Value::from(run.window_s)),
        ("replies", reply_counts(&run)),
    ]);
    let side = plan.out_dir.join(format!(
        "run-{}-trace{}.json",
        workload.name(),
        u8::from(args.trace)
    ));
    std::fs::write(side, details.to_json_pretty()).map_err(|e| e.to_string())?;

    Ok(RunReport {
        workload: workload.name().to_string(),
        trace: args.trace,
        correct,
        attempted: run.attempted,
        failed: run.failed,
        metrics: metrics
            .iter()
            .map(|&(name, value, unit)| (name.to_string(), value, unit.to_string()))
            .collect(),
        wall_s: started.elapsed().as_secs_f64(),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&argv).and_then(|args| match &args.workload {
        Some(name) => {
            let workload = Workload::from_name(name).ok_or(format!("unknown workload `{name}`"))?;
            // Before any thread exists, so that every thread inherits it.
            match pin::to_one_cpu() {
                Some(cpu) => println!("pinned to CPU {cpu}"),
                None => println!("not pinned (no `taskset`): latencies include vCPU wake-ups"),
            }
            let report = run_workload(&args, workload)?;
            println!("{}", report.to_result_line());
            Ok(report.correct)
        }
        None => suite::run(&args),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn driver_arguments_parse() {
        let a = parse_args(&argv(
            "--workload service_hot --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("service_hot"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, Some(10.0), true));
        assert!(parse_args(&argv("--trace 2")).is_err());
        assert!(parse_args(&argv("--seconds 0")).is_err());
        assert!(parse_args(&argv("--seed")).is_err());
        assert!(parse_args(&argv("--bogus")).is_err());
    }

    /// The catalogue in `metrics.rs` and `BENCHMARK.json` name the same
    /// workloads and metrics with the same units, directions and bounds.
    #[test]
    fn manifest_matches_catalogue() {
        let m = suite::manifest().unwrap();
        let list = |k: &str| m.get(k).and_then(Value::as_arr).unwrap().to_vec();
        let text = |v: &Value, k: &str| v.get(k).and_then(Value::as_str).unwrap().to_string();
        let workloads: Vec<String> = list("workloads").iter().map(|w| text(w, "name")).collect();
        assert_eq!(workloads, Workload::ALL.map(|w| w.name()));
        let end_to_end: Vec<_> = list("end_to_end")
            .iter()
            .map(|e| {
                let bound = e.get("bound").and_then(Value::as_f64).unwrap();
                (text(e, "name"), text(e, "unit"), text(e, "better"), bound)
            })
            .collect();
        let want: Vec<_> = metrics::END_TO_END
            .iter()
            .map(|e| (e.name.into(), e.unit.into(), e.better.into(), e.bound))
            .collect();
        assert_eq!(end_to_end, want);
        let per_layer: Vec<_> = list("per_layer")
            .iter()
            .map(|p| (text(p, "name"), text(p, "unit"), text(p, "better")))
            .collect();
        let want: Vec<(String, String, String)> = metrics::PER_LAYER
            .iter()
            .map(|p| (p.0.into(), p.1.into(), p.2.into()))
            .collect();
        assert_eq!(per_layer, want);
        for name in metrics::EXACT_REPEAT {
            assert!(metrics::PER_LAYER.iter().any(|p| p.0 == name), "{name}");
        }
    }

    /// `--quick`: every workload, untraced and traced, emits every metric of
    /// its kind with a finite value and no failed request.
    #[test]
    fn quick_run_emits_every_metric() {
        for (workload, trace) in Workload::ALL
            .into_iter()
            .flat_map(|w| [(w, false), (w, true)])
        {
            let r = run_workload(
                &Args {
                    seed: 1,
                    repeat: 1,
                    quick: true,
                    trace,
                    ..Args::default()
                },
                workload,
            )
            .unwrap();
            assert!(
                r.correct && r.failed == 0 && r.attempted > 0,
                "{}",
                r.workload
            );
            let want: Vec<&str> = match r.trace {
                false => metrics::END_TO_END.iter().map(|e| e.name).collect(),
                true => metrics::PER_LAYER.iter().map(|p| p.0).collect(),
            };
            let got: Vec<&str> = r.metrics.iter().map(|m| m.0.as_str()).collect();
            assert_eq!(got, want, "{} trace {}", r.workload, r.trace);
            for (name, value, _) in &r.metrics {
                assert!(value.is_finite(), "{} {name}", r.workload);
                if !r.trace {
                    assert!(*value > 0.0, "{} {name} must never be 0", r.workload);
                }
            }
        }
    }
}
