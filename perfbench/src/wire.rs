//! The end-to-end path: an in-process `teccld` (the same `serve` call the
//! daemon makes) driven over real loopback TCP, one line per request.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use teccl_service::protocol::{parse_solve_reply, SolveReply};
use teccl_service::{serve, ScheduleService, ServerHandle, ServiceConfig, ServiceStats};
use teccl_util::json::Value;

/// `ServiceConfig::default()` but for an explicitly inert fault plan (an
/// ambient `TECCL_FAULT_PLAN` must not reach a benchmark) and what a workload
/// overrides.
pub fn service_config(
    cache_capacity: Option<usize>,
    disk_dir: Option<std::path::PathBuf>,
) -> ServiceConfig {
    let default = ServiceConfig::default();
    ServiceConfig {
        workers: 2,
        cache_capacity: cache_capacity.unwrap_or(default.cache_capacity),
        disk_dir,
        fault_plan: Some(String::new()),
        ..default
    }
}

pub struct Server {
    handle: ServerHandle,
}

impl Server {
    pub fn start(config: ServiceConfig) -> std::io::Result<Server> {
        let service = Arc::new(ScheduleService::start(config)?);
        Ok(Server {
            handle: serve("127.0.0.1:0", service)?,
        })
    }

    pub fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }

    pub fn service(&self) -> &Arc<ScheduleService> {
        self.handle.service()
    }

    /// Stops accepting, fails queued work and joins the workers (a running
    /// background upgrade finishes first).
    pub fn stop(self) {
        self.handle.shutdown();
    }
}

/// A parsed `solve` reply with what the raw line adds to `SolveReply`.
pub struct Solved {
    pub reply: SolveReply,
    pub latency: Duration,
    /// `solve.simplex_iterations` of the entry's original solve.
    pub iterations: usize,
}

/// `"solve":{"simplex_iterations":N` of a raw reply line.
pub fn reply_iterations(line: &str) -> Option<usize> {
    let tag = "\"simplex_iterations\":";
    let rest = &line[line.rfind(tag)? + tag.len()..];
    rest[..rest.find(|c: char| !c.is_ascii_digit())?]
        .parse()
        .ok()
}

/// One closed-loop client connection.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    reply: String,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        // A reply that never comes must fail the run, not hang it.
        writer.set_read_timeout(Some(Duration::from_secs(120)))?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Conn {
            writer,
            reader,
            reply: String::new(),
        })
    }

    /// Sends one `\n`-terminated line and reads one reply line. The latency
    /// runs from the first byte written to the reply line read.
    pub fn round_trip(&mut self, line: &str) -> std::io::Result<(&str, Duration)> {
        debug_assert!(line.ends_with('\n'));
        self.reply.clear();
        let start = Instant::now();
        self.writer.write_all(line.as_bytes())?;
        let n = self.reader.read_line(&mut self.reply)?;
        let latency = start.elapsed();
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok((&self.reply, latency))
    }

    /// A `solve` round trip with the reply parsed in full.
    pub fn solve(&mut self, line: &str) -> Result<Solved, String> {
        let (raw, latency) = self.round_trip(line).map_err(|e| e.to_string())?;
        Ok(Solved {
            iterations: reply_iterations(raw).unwrap_or(0),
            reply: parse_solve_reply(raw)?,
            latency,
        })
    }

    /// The `stats` verb.
    pub fn stats(&mut self) -> Result<ServiceStats, String> {
        let (reply, _) = self
            .round_trip("{\"verb\":\"stats\"}\n")
            .map_err(|e| e.to_string())?;
        let v = Value::parse(reply.trim()).map_err(|e| e.to_string())?;
        v.get("stats")
            .map(ServiceStats::from_json_value)
            .ok_or_else(|| "stats reply without stats".to_string())
    }

    /// The `evict` verb (memory and disk; published bases are kept).
    pub fn evict(&mut self) -> Result<(), String> {
        let (reply, _) = self
            .round_trip("{\"verb\":\"evict\"}\n")
            .map_err(|e| e.to_string())?;
        if reply.contains("\"status\":\"ok\"") {
            Ok(())
        } else {
            Err(format!("evict failed: {}", reply.trim()))
        }
    }
}
