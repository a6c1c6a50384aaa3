//! `teccld` — the TE-CCL schedule server.
//!
//! Serves the line-delimited-JSON protocol (`solve` / `stats` / `evict`)
//! over TCP, backed by the content-addressed schedule cache and the
//! concurrent solve orchestrator.
//!
//! ```text
//! teccld [--addr 127.0.0.1:7677] [--workers N] [--cache-capacity N]
//!        [--disk-cache DIR] [--fault-plan SPEC]
//! ```
//!
//! `--fault-plan` injects deterministic faults for robustness testing — see
//! `teccl_service::fault`.

use std::sync::Arc;

use teccl_service::{serve, ScheduleService, ServiceConfig};

fn main() {
    let mut addr = "127.0.0.1:7677".to_string();
    let mut config = ServiceConfig::default();

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .unwrap_or_else(|| die(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--addr" => addr = value("--addr"),
            "--workers" => {
                config.workers = value("--workers")
                    .parse()
                    .unwrap_or_else(|_| die("--workers must be a positive integer"));
            }
            "--cache-capacity" => {
                config.cache_capacity = value("--cache-capacity")
                    .parse()
                    .unwrap_or_else(|_| die("--cache-capacity must be a positive integer"));
            }
            "--disk-cache" => config.disk_dir = Some(value("--disk-cache").into()),
            "--fault-plan" => config.fault_plan = Some(value("--fault-plan")),
            "--help" | "-h" => {
                println!(
                    "teccld — TE-CCL schedule server\n\n\
                     USAGE:\n  teccld [--addr HOST:PORT] [--workers N] \
                     [--cache-capacity N] [--disk-cache DIR] [--fault-plan SPEC]\n\n\
                     Each worker runs one single-threaded solve at a time.\n\n\
                     Protocol: one JSON request per line over TCP; verbs \
                     `solve`, `stats`, `evict`.\nSee crates/service/README.md."
                );
                return;
            }
            other => die(&format!("unknown flag `{other}` (try --help)")),
        }
    }

    let workers = config.workers;
    let disk = config.disk_dir.clone();
    let service = match ScheduleService::start(config) {
        Ok(s) => Arc::new(s),
        Err(e) => die(&format!("failed to start service: {e}")),
    };
    let handle = match serve(addr.as_str(), service) {
        Ok(h) => h,
        Err(e) => die(&format!("failed to bind {addr}: {e}")),
    };
    println!(
        "teccld listening on {} ({} workers, disk cache: {})",
        handle.addr(),
        workers,
        disk.map(|d| d.display().to_string())
            .unwrap_or_else(|| "off".into()),
    );
    handle.wait();
}

fn die(msg: &str) -> ! {
    eprintln!("teccld: {msg}");
    std::process::exit(2);
}
