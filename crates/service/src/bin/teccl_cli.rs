//! `teccl-cli` — client for the `teccld` schedule server.
//!
//! ```text
//! teccl-cli solve --addr H:P --topology internal1x2 --collective all_gather \
//!                 --buffer 16M [--chunks N] [--method astar] [--deadline-ms D] [...]
//! teccl-cli batch --addr H:P --file requests.jsonl [--repeat N] [--deadline-ms D]
//! teccl-cli stats --addr H:P
//! teccl-cli evict --addr H:P
//! ```
//!
//! `batch` replays a file of solve requests (one JSON object per line — the
//! same documents the `solve` verb accepts, `verb` optional) against the
//! server and reports latency percentiles per cache status and per quality
//! tier, the visible face of the cache and the degradation ladder: misses
//! cost a solve, hits cost a round trip, and deadline-degraded answers sit
//! in between.
//!
//! Connections and requests are retried with exponential backoff plus
//! jitter: solve requests are idempotent (content-addressed and cached
//! server-side), so a dropped connection mid-request is always safe to
//! replay.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use teccl_collective::chunk::{format_size, parse_size};
use teccl_service::protocol::{parse_solve_reply, solve_request_line};
use teccl_service::{builtin_topology, CacheStatus, Quality, RequestMethod, SolveRequest};
use teccl_topology::Topology;
use teccl_util::json::{self, Value};
use teccl_util::rng::Rng64;

/// Total attempts per request (1 initial + retries).
const ATTEMPTS: u32 = 4;
/// Base backoff before the first retry; doubles per attempt, ±50% jitter.
const BACKOFF_BASE_MS: f64 = 50.0;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        die("missing command (solve | batch | stats | evict; try --help)")
    };
    match command.as_str() {
        "solve" => cmd_solve(&args[1..]),
        "batch" => cmd_batch(&args[1..]),
        "stats" => cmd_verb(&args[1..], "stats"),
        "evict" => cmd_verb(&args[1..], "evict"),
        "--help" | "-h" => print_help(),
        other => die(&format!("unknown command `{other}` (try --help)")),
    }
}

fn print_help() {
    println!(
        "teccl-cli — client for the teccld schedule server\n\n\
         COMMANDS:\n  \
         solve  --topology SPEC --collective KIND --buffer SIZE\n         \
         [--chunks N] [--method auto|milp|lp|astar] [--addr H:P]\n         \
         [--max-epochs K] [--early-stop GAP] [--time-limit-s S]\n         \
         [--deadline-ms D]\n  \
         batch  --file requests.jsonl [--repeat N] [--deadline-ms D] [--addr H:P]\n  \
         stats  [--addr H:P]\n  \
         evict  [--addr H:P]\n\n\
         SPEC is a builtin name (dgx1, ndv2x2, internal1x2, …) or @FILE.json;\n\
         SIZE accepts 16M / 64K / 1G suffixes.\n\
         --deadline-ms asks the server for its best answer within D ms; the\n\
         reply's quality tag (exact/incumbent/stale/baseline) says what it\n\
         had to settle for."
    );
}

/// Flag parsing shared by the commands: `(addr, remaining key→value flags)`.
fn parse_flags(args: &[String]) -> (String, Vec<(String, String)>) {
    let mut addr = "127.0.0.1:7677".to_string();
    let mut rest = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| die(&format!("{flag} needs a value")));
        if flag == "--addr" {
            addr = value.clone();
        } else {
            rest.push((flag.clone(), value.clone()));
        }
    }
    (addr, rest)
}

struct Connection {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Connection {
    fn open(addr: &str) -> std::io::Result<Connection> {
        let stream = TcpStream::connect(addr)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Connection {
            writer: stream,
            reader,
        })
    }

    fn round_trip(&mut self, line: &str) -> std::io::Result<String> {
        self.writer.write_all(format!("{line}\n").as_bytes())?;
        self.writer.flush()?;
        let mut reply = String::new();
        let n = self.reader.read_line(&mut reply)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(reply)
    }
}

/// A connection that transparently reconnects and replays on failure, with
/// exponential backoff and jitter so a fleet of clients retrying against a
/// recovering server does not stampede it.
struct Client {
    addr: String,
    conn: Option<Connection>,
    rng: Rng64,
}

impl Client {
    fn new(addr: &str) -> Client {
        // The seed only decorrelates jitter between concurrent clients; it
        // does not need to be strong.
        let seed = std::process::id() as u64 ^ Instant::now().elapsed().subsec_nanos() as u64;
        Client {
            addr: addr.to_string(),
            conn: None,
            rng: Rng64::seed_from_u64(seed ^ 0x74ec_c1c1),
        }
    }

    fn backoff(&mut self, attempt: u32) {
        let ms = BACKOFF_BASE_MS * f64::from(1u32 << attempt) * self.rng.gen_range_f64(0.5, 1.5);
        std::thread::sleep(Duration::from_secs_f64(ms / 1e3));
    }

    /// Sends one line and reads one reply, reconnecting and retrying with
    /// backoff on connection or transport failure. Dies after [`ATTEMPTS`].
    fn request(&mut self, line: &str) -> String {
        let mut last_err = String::new();
        for attempt in 0..ATTEMPTS {
            if attempt > 0 {
                self.backoff(attempt - 1);
            }
            if self.conn.is_none() {
                match Connection::open(&self.addr) {
                    Ok(c) => self.conn = Some(c),
                    Err(e) => {
                        last_err = format!("cannot connect to {}: {e}", self.addr);
                        eprintln!("teccl-cli: {last_err} (attempt {}/{ATTEMPTS})", attempt + 1);
                        continue;
                    }
                }
            }
            match self.conn.as_mut().expect("just set").round_trip(line) {
                Ok(reply) => return reply,
                Err(e) => {
                    // The stream is in an unknown state: reconnect fresh.
                    self.conn = None;
                    last_err = format!("request failed: {e}");
                    eprintln!("teccl-cli: {last_err} (attempt {}/{ATTEMPTS})", attempt + 1);
                }
            }
        }
        die(&format!("{last_err} (giving up after {ATTEMPTS} attempts)"))
    }
}

fn cmd_verb(args: &[String], verb: &str) {
    let (addr, rest) = parse_flags(args);
    if let Some((flag, _)) = rest.first() {
        die(&format!("unknown flag `{flag}` for {verb}"));
    }
    let reply = Client::new(&addr).request(&format!("{{\"verb\":\"{verb}\"}}"));
    match Value::parse(reply.trim()) {
        Ok(v) => println!("{}", v.to_json_pretty()),
        Err(_) => die("malformed server reply"),
    }
}

fn cmd_solve(args: &[String]) {
    let (addr, rest) = parse_flags(args);
    let mut topology: Option<Topology> = None;
    let mut collective = None;
    let mut buffer = None;
    let mut chunks = 1usize;
    let mut method = RequestMethod::Auto;
    let mut config = teccl_core::SolverConfig::default();
    let mut deadline = None;
    for (flag, value) in &rest {
        match flag.as_str() {
            "--topology" => topology = Some(resolve_topology(value)),
            "--collective" => {
                collective = Some(
                    teccl_service::key::collective_from_name(value)
                        .unwrap_or_else(|| die(&format!("unknown collective `{value}`"))),
                )
            }
            "--buffer" => {
                buffer =
                    Some(parse_size(value).unwrap_or_else(|| die(&format!("bad size `{value}`"))))
            }
            "--chunks" => chunks = parse_num(value, "--chunks"),
            "--method" => {
                method = RequestMethod::from_name(value)
                    .unwrap_or_else(|| die(&format!("unknown method `{value}`")))
            }
            "--max-epochs" => config.max_epochs = Some(parse_num(value, "--max-epochs")),
            "--early-stop" => {
                config.early_stop_gap =
                    Some(value.parse().unwrap_or_else(|_| die("bad --early-stop")))
            }
            "--time-limit-s" => {
                config.time_limit = Some(std::time::Duration::from_secs_f64(
                    value.parse().unwrap_or_else(|_| die("bad --time-limit-s")),
                ))
            }
            "--deadline-ms" => {
                deadline = Some(Duration::from_millis(parse_num(value, "--deadline-ms")))
            }
            other => die(&format!("unknown flag `{other}` for solve")),
        }
    }
    let request = SolveRequest {
        topology: topology
            .unwrap_or_else(|| die("--topology is required"))
            .into(),
        collective: collective.unwrap_or_else(|| die("--collective is required")),
        chunks,
        output_buffer: buffer.unwrap_or_else(|| die("--buffer is required")),
        method,
        config,
        deadline,
    };

    let start = Instant::now();
    let reply = Client::new(&addr).request(&solve_request_line(&request));
    let elapsed = start.elapsed();
    match parse_solve_reply(&reply) {
        Ok(r) => {
            let m = &r.output.metrics;
            println!(
                "{} ({}, {}) in {:.3} ms: {} sends over {} epochs, transfer {:.3} us, \
                 algo bw {:.3} GB/s, chunk {}",
                r.key,
                r.cache.name(),
                r.quality.name(),
                elapsed.as_secs_f64() * 1e3,
                r.output.schedule.num_sends(),
                r.output.schedule.num_epochs,
                m.transfer_time * 1e6,
                m.algorithmic_bandwidth_gbps(),
                format_size(r.chunk_bytes),
            );
        }
        Err(e) => die(&e),
    }
}

fn cmd_batch(args: &[String]) {
    let (addr, rest) = parse_flags(args);
    let mut file = None;
    let mut repeat = 1usize;
    let mut deadline = None;
    for (flag, value) in &rest {
        match flag.as_str() {
            "--file" => file = Some(value.clone()),
            "--repeat" => repeat = parse_num(value, "--repeat"),
            "--deadline-ms" => {
                deadline = Some(Duration::from_millis(parse_num(value, "--deadline-ms")))
            }
            other => die(&format!("unknown flag `{other}` for batch")),
        }
    }
    let file = file.unwrap_or_else(|| die("--file is required"));
    let text = std::fs::read_to_string(&file).unwrap_or_else(|e| die(&format!("read {file}: {e}")));
    // Pre-parse every line so a malformed file fails before any traffic.
    // `--deadline-ms` overrides whatever each line says (or doesn't).
    let requests: Vec<String> = text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let mut req = json::decode_text(l, SolveRequest::decode)
                .unwrap_or_else(|e| die(&format!("bad request line: {e}")));
            if let Some(d) = deadline {
                req.deadline = Some(d);
            }
            solve_request_line(&req)
        })
        .collect();
    if requests.is_empty() {
        die("request file is empty");
    }

    let mut client = Client::new(&addr);
    // Latencies in microseconds, bucketed by the server-reported cache
    // status and quality tier.
    let mut by_status: Vec<(CacheStatus, Vec<f64>)> = vec![
        (CacheStatus::Hit, Vec::new()),
        (CacheStatus::DiskHit, Vec::new()),
        (CacheStatus::Coalesced, Vec::new()),
        (CacheStatus::Miss, Vec::new()),
    ];
    let mut by_quality: Vec<(Quality, Vec<f64>)> = vec![
        (Quality::Exact, Vec::new()),
        (Quality::Incumbent, Vec::new()),
        (Quality::Stale, Vec::new()),
        (Quality::Baseline, Vec::new()),
    ];
    let batch_start = Instant::now();
    let mut errors = 0usize;
    for _ in 0..repeat {
        for line in &requests {
            let t = Instant::now();
            let reply = client.request(line);
            let us = t.elapsed().as_secs_f64() * 1e6;
            match parse_solve_reply(&reply) {
                Ok(r) => {
                    by_status
                        .iter_mut()
                        .find(|(s, _)| *s == r.cache)
                        .expect("all statuses present")
                        .1
                        .push(us);
                    by_quality
                        .iter_mut()
                        .find(|(q, _)| *q == r.quality)
                        .expect("all qualities present")
                        .1
                        .push(us);
                }
                Err(e) => {
                    eprintln!("request failed: {e}");
                    errors += 1;
                }
            }
        }
    }
    let wall = batch_start.elapsed().as_secs_f64();
    let total = requests.len() * repeat;
    println!(
        "{} requests in {:.3} s ({:.1} req/s), {} errors",
        total,
        wall,
        total as f64 / wall,
        errors
    );
    println!(
        "{:<10} {:>7} {:>12} {:>12} {:>12}",
        "status", "count", "p50_us", "p90_us", "p99_us"
    );
    for (status, lat) in &mut by_status {
        print_latency_row(status.name(), lat);
    }
    println!(
        "{:<10} {:>7} {:>12} {:>12} {:>12}",
        "quality", "count", "p50_us", "p90_us", "p99_us"
    );
    for (quality, lat) in &mut by_quality {
        print_latency_row(quality.name(), lat);
    }
}

/// Prints one percentile row; silent when the bucket is empty.
fn print_latency_row(name: &str, lat: &mut [f64]) {
    if lat.is_empty() {
        return;
    }
    lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
    println!(
        "{:<10} {:>7} {:>12.1} {:>12.1} {:>12.1}",
        name,
        lat.len(),
        percentile(lat, 0.50),
        percentile(lat, 0.90),
        percentile(lat, 0.99),
    );
}

/// Nearest-rank percentile of an ascending-sorted slice.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    let idx = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

/// Resolves `--topology`: a builtin name or `@file.json`.
fn resolve_topology(spec: &str) -> Topology {
    if let Some(path) = spec.strip_prefix('@') {
        let text =
            std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("read {path}: {e}")));
        return Topology::from_json_str(&text)
            .unwrap_or_else(|e| die(&format!("parse {path}: {e}")));
    }
    builtin_topology(spec).unwrap_or_else(|| die(&format!("unknown builtin topology `{spec}`")))
}

fn parse_num<T: std::str::FromStr>(value: &str, flag: &str) -> T {
    value
        .parse()
        .unwrap_or_else(|_| die(&format!("{flag} must be a number")))
}

fn die(msg: &str) -> ! {
    eprintln!("teccl-cli: {msg}");
    std::process::exit(2);
}
