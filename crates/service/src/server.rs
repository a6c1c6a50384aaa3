//! The TCP front end: a thread-per-connection line server over
//! [`crate::protocol`], backed by a shared [`ScheduleService`].
//!
//! Connection threads block inside [`ScheduleService::request`] while a solve
//! is in flight, so N clients asking for the same schedule cost one solve and
//! N (cheap) parked threads — the single-flight logic lives in the service,
//! not here.
//!
//! A connection owns one line buffer and one reply buffer for its lifetime,
//! and capacity past [`KEEP_BUFFER_BYTES`] is handed back after each
//! request. It also owns a [`TopologyMemo`]: the last few topologies it was
//! sent, by their text, each with the `Arc<Topology>` decoded from it and
//! its fingerprint. A hit whose topology text is one of them decodes no
//! topology and hashes none; what it allocates is the boxed request and
//! whatever else its line holds (a `config`, say). Neither the line nor the
//! reply allocates: the reply is rendered into the connection's buffer
//! ([`crate::protocol::solve_response`]), its schedule copied from the
//! entry's kept text.
//!
//! The server bounds its peers: at most [`MAX_CONNECTIONS`] are open at
//! once (a peer past the cap gets one error line and is closed), and a
//! connection must deliver each request line within [`IDLE_TIMEOUT`] of
//! the server starting to wait for it.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::key::RequestError;
use crate::protocol::{
    error_response, evict_response, request_error_response, solve_response, stats_response,
    Request, TopologyMemo,
};
use crate::service::ScheduleService;
use teccl_util::json::write_json;

/// Longest request line a connection accepts, newline excluded. The largest
/// builtin topology makes a ~40 kB `solve` line; nothing legitimate comes
/// near this, and without a cap one newline-free stream grows a buffer
/// until the daemon is out of memory.
pub const MAX_LINE_BYTES: usize = 16 << 20;

/// Largest `chunks` a request may ask for. The chunk count sizes the dense
/// nodes × chunks × nodes demand matrix and multiplies the commodities of
/// every formulation, and both are laid out before the solve's budget is
/// first consulted, so a line such as `"chunks": 1e9` would fill memory
/// however short its deadline. The repository sends at most 6; a larger
/// value is refused as `bad_field` at parse time.
pub const MAX_REQUEST_CHUNKS: usize = 256;

/// Largest `max_epochs` or `astar_epochs_per_round` a request's config may
/// set. Each epoch adds one copy of every link's flow variables to the
/// time-expanded model, which is built before the solve's budget is first
/// consulted. The repository sets at most 24; a larger value is refused as
/// `bad_field` at parse time.
pub const MAX_REQUEST_EPOCHS: usize = 1024;

/// Most connections the server holds open at once. Each one is a thread
/// and two buffers for as long as the peer stays; past the cap a new peer
/// gets one error line and is closed, and the next peer is accepted once an
/// open connection ends.
pub const MAX_CONNECTIONS: usize = 1024;

/// How long a connection may take to deliver its next request line,
/// counted from the moment the server starts waiting for it; a peer that
/// sends nothing, or half a line, for this long is closed. The clock runs
/// only while the connection waits for a line, never while a request it
/// sent is being served, however long the solve.
pub const IDLE_TIMEOUT: Duration = Duration::from_secs(300);

/// Buffer capacity a connection keeps between requests: above every builtin
/// request line (~40 kB) and far below [`MAX_LINE_BYTES`], so one outsized
/// line does not pin megabytes for the life of an idle connection; a larger
/// line or reply regrows its buffer each time. It also bounds the topology
/// text a connection's [`TopologyMemo`] keeps.
pub const KEEP_BUFFER_BYTES: usize = 64 << 10;

/// A running server. Dropping the handle does *not* stop the server; call
/// [`ServerHandle::shutdown`] (tests) or [`ServerHandle::wait`] (the daemon).
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    service: Arc<ScheduleService>,
}

impl ServerHandle {
    /// The address the server actually bound (relevant with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The backing service (e.g. to read stats in-process).
    pub fn service(&self) -> &Arc<ScheduleService> {
        &self.service
    }

    /// Blocks until the accept loop exits (i.e. forever, short of
    /// [`ServerHandle::shutdown`] from another thread).
    pub fn wait(mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }

    /// Stops accepting connections and shuts the service down. Connections
    /// that are already established finish their current request and then
    /// fail on the next one.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a no-op connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        self.service.shutdown();
    }
}

/// The bounds a server puts on its peers: [`MAX_CONNECTIONS`] and
/// [`IDLE_TIMEOUT`], which tests lower.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Limits {
    pub(crate) max_connections: usize,
    pub(crate) idle_timeout: Duration,
}

impl Limits {
    const DEFAULT: Limits = Limits {
        max_connections: MAX_CONNECTIONS,
        idle_timeout: IDLE_TIMEOUT,
    };
}

/// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and serves the
/// protocol on it with the given service.
pub fn serve(
    addr: impl ToSocketAddrs,
    service: Arc<ScheduleService>,
) -> std::io::Result<ServerHandle> {
    serve_with(addr, service, Limits::DEFAULT)
}

pub(crate) fn serve_with(
    addr: impl ToSocketAddrs,
    service: Arc<ScheduleService>,
    limits: Limits,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let accept_stop = Arc::clone(&stop);
    let accept_service = Arc::clone(&service);
    let open = Arc::new(AtomicUsize::new(0));
    let accept_thread = std::thread::Builder::new()
        .name("teccld-accept".into())
        .spawn(move || {
            for stream in listener.incoming() {
                if accept_stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                // Only this thread adds to `open`, so the check cannot race
                // another admission; connections leaving only lower it.
                if open.load(Ordering::SeqCst) >= limits.max_connections {
                    refuse(stream, limits.max_connections);
                    continue;
                }
                open.fetch_add(1, Ordering::SeqCst);
                let slot = Slot(Arc::clone(&open));
                let service = Arc::clone(&accept_service);
                // A failed spawn drops the closure, and the slot with it.
                let _ = std::thread::Builder::new()
                    .name("teccld-conn".into())
                    .spawn(move || {
                        let _slot = slot;
                        handle_connection(stream, &service, limits.idle_timeout);
                    });
            }
        })?;
    Ok(ServerHandle {
        addr,
        stop,
        accept_thread: Some(accept_thread),
        service,
    })
}

/// One open connection's place under [`MAX_CONNECTIONS`], given back when
/// the connection's thread ends, however it ends.
struct Slot(Arc<AtomicUsize>);

impl Drop for Slot {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Answers a peer past the connection cap with one error line and closes.
/// The line is short and the socket new, so the write does not block; the
/// timeout is there in case it would.
fn refuse(mut stream: TcpStream, cap: usize) {
    let mut line = String::new();
    write_json(
        &error_response(&format!(
            "server busy: {cap} connections open, try again later"
        )),
        &mut line,
    );
    line.push('\n');
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let _ = stream.write_all(line.as_bytes());
    let _ = stream.shutdown(Shutdown::Write);
}

/// A connection's reads, bounded so that each request line arrives within
/// the idle timeout of the wait for it starting ([`LineReads::wait`]).
/// The socket's read timeout is the whole allowance, set once, so a line
/// that arrives in one read costs no extra system call; only the later
/// reads of a line that comes in pieces re-arm it with what is left.
struct LineReads {
    stream: TcpStream,
    idle: Duration,
    /// When the wait for the current line began, and whether a read for it
    /// has been made.
    since: Instant,
    first: bool,
    /// The socket's timeout is below `idle` and must be reset.
    rearmed: bool,
}

impl LineReads {
    fn new(stream: TcpStream, idle: Duration) -> std::io::Result<LineReads> {
        stream.set_read_timeout(Some(idle))?;
        Ok(LineReads {
            stream,
            idle,
            since: Instant::now(),
            first: true,
            rearmed: false,
        })
    }

    /// Starts the clock for the next request line.
    fn wait(&mut self) -> std::io::Result<()> {
        if self.rearmed {
            self.stream.set_read_timeout(Some(self.idle))?;
            self.rearmed = false;
        }
        self.since = Instant::now();
        self.first = true;
        Ok(())
    }
}

impl Read for LineReads {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if !std::mem::take(&mut self.first) {
            let left = self.idle.saturating_sub(self.since.elapsed());
            if left.is_zero() {
                return Err(std::io::ErrorKind::TimedOut.into());
            }
            self.stream.set_read_timeout(Some(left))?;
            self.rearmed = true;
        }
        self.stream.read(buf)
    }
}

/// Appends the reply to one request line to `reply` (no newline): what a
/// connection thread does between reading a line and writing the answer.
/// The line is read through the connection's `memo`, and a `solve` whose
/// topology the memo knows is keyed with the fingerprint kept there.
pub fn respond(service: &ScheduleService, memo: &mut TopologyMemo, line: &str, reply: &mut String) {
    match memo.read(line) {
        Err(e) => write_json(&request_error_response(&e), reply),
        Ok((Request::Stats, _)) => write_json(&stats_response(&service.stats()), reply),
        Ok((Request::Evict, _)) => write_json(&evict_response(service.evict()), reply),
        Ok((Request::Solve(req), fingerprint)) => {
            let key = fingerprint.map_or_else(|| req.key(), |f| req.key_with(f));
            match service.submit_keyed(*req, key).wait() {
                Ok(served) => write_json(&solve_response(&served), reply),
                Err(e) => write_json(&error_response(&e.to_string()), reply),
            }
        }
    }
}

/// Serves one connection until EOF, a write error, an over-long line or a
/// line that does not arrive within `idle`.
fn handle_connection(stream: TcpStream, service: &ScheduleService, idle: Duration) {
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    let Ok(reads) = LineReads::new(stream, idle) else {
        return;
    };
    let mut reader = BufReader::new(reads);
    // Both buffers live as long as the connection: a request in the steady
    // state allocates for neither its line nor its reply. The memo does too:
    // a line whose topology text the connection sent before decodes no
    // topology.
    let mut line = Vec::new();
    let mut reply = String::new();
    let mut memo = TopologyMemo::new();
    // One byte past the cap tells an over-long line from one of exactly the cap.
    const READ_LIMIT: u64 = MAX_LINE_BYTES as u64 + 1;
    loop {
        line.clear();
        line.shrink_to(KEEP_BUFFER_BYTES);
        reply.clear();
        reply.shrink_to(KEEP_BUFFER_BYTES);
        if reader.get_mut().wait().is_err() {
            break;
        }
        match (&mut reader).take(READ_LIMIT).read_until(b'\n', &mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        let too_long = line.len() > MAX_LINE_BYTES && line.last() != Some(&b'\n');
        if too_long {
            let e = RequestError::Json(format!("request line exceeds {MAX_LINE_BYTES} bytes"));
            write_json(&request_error_response(&e), &mut reply);
        } else {
            let Ok(text) = std::str::from_utf8(&line) else {
                break;
            };
            if text.trim().is_empty() {
                continue;
            }
            respond(service, &mut memo, text, &mut reply);
        }
        reply.push('\n');
        // Fault injection: hang up instead of answering (the request itself
        // was fully processed — clients must treat a dropped connection as
        // retriable, and a retry is served from cache).
        if service.fault_plan().should_drop_connection() {
            return;
        }
        if writer
            .write_all(reply.as_bytes())
            .and_then(|_| writer.flush())
            .is_err()
        {
            break;
        }
        if too_long {
            // The rest of the line cannot be told from the next request, so
            // the connection ends here. Closing with input unread would
            // reset it and could take the reply with it: read off (a bounded
            // amount of) what the peer is still sending first.
            let _ = writer.shutdown(Shutdown::Write);
            let _ = std::io::copy(&mut reader.take(READ_LIMIT), &mut std::io::sink());
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;
    use teccl_util::json::Value;

    fn server(limits: Limits) -> ServerHandle {
        let service = ScheduleService::start(ServiceConfig {
            workers: 1,
            ..Default::default()
        })
        .unwrap();
        serve_with("127.0.0.1:0", Arc::new(service), limits).unwrap()
    }

    /// Sends `{"verb":"stats"}` and returns the reply's `status`, or `None`
    /// when the server closed the connection instead of answering.
    fn stats(stream: &TcpStream) -> Option<String> {
        let mut writer = stream.try_clone().unwrap();
        writer.write_all(b"{\"verb\":\"stats\"}\n").ok()?;
        let mut line = String::new();
        BufReader::new(stream).read_line(&mut line).ok()?;
        let v = Value::parse(line.trim()).ok()?;
        v.get("status").and_then(Value::as_str).map(str::to_string)
    }

    /// Reads until the server closes, returning what it sent.
    fn read_to_close(mut stream: &TcpStream) -> String {
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn a_peer_that_sends_half_a_line_is_closed_after_the_idle_timeout() {
        let idle = Duration::from_millis(300);
        let handle = server(Limits {
            max_connections: 4,
            idle_timeout: idle,
        });
        let mut loris = TcpStream::connect(handle.addr()).unwrap();
        let started = Instant::now();
        loris.write_all(b"{\"verb\":").unwrap();
        std::thread::sleep(idle / 3);
        // A trickle does not restart the clock: the line as a whole is due.
        loris.write_all(b" ").unwrap();
        assert_eq!(read_to_close(&loris), "");
        let waited = started.elapsed();
        assert!(waited >= idle, "{waited:?}");
        assert!(waited < idle * 10, "{waited:?}");

        // A peer that keeps up is served across several idle periods, and
        // a request's own service time does not count against it.
        let patient = TcpStream::connect(handle.addr()).unwrap();
        for _ in 0..3 {
            assert_eq!(stats(&patient).as_deref(), Some("ok"));
            std::thread::sleep(idle / 2);
        }
        handle.shutdown();
    }

    /// A reply with its `cache` status taken out.
    fn without_cache(reply: &str) -> Value {
        match Value::parse(reply).unwrap() {
            Value::Obj(pairs) => {
                Value::Obj(pairs.into_iter().filter(|(k, _)| k != "cache").collect())
            }
            other => panic!("not an object: {other}"),
        }
    }

    #[test]
    fn a_connection_memo_stays_bounded_and_changes_no_reply() {
        use crate::key::SolveRequest;
        use crate::protocol::solve_request_line;
        use teccl_collective::CollectiveKind;
        use teccl_topology::ring_topology;

        let service = ScheduleService::start(ServiceConfig {
            workers: 1,
            ..Default::default()
        })
        .unwrap();
        let request = |topology| SolveRequest::new(topology, CollectiveKind::AllGather, 1, 1024.0);
        let mut lines: Vec<_> = (0..100)
            .map(|i| request(ring_topology(3, 1e9 + 1e7 * i as f64, 0.0)))
            .collect();
        // Larger than the memo's byte bound: its name alone is.
        let mut oversized = ring_topology(3, 1e9, 0.0);
        oversized.name = "n".repeat(KEEP_BUFFER_BYTES + 1);
        lines.push(request(oversized));

        let mut memo = TopologyMemo::new();
        for round in 0..2 {
            for req in &lines {
                let line = solve_request_line(req);
                let mut reply = String::new();
                respond(&service, &mut memo, &line, &mut reply);
                let mut plain = String::new();
                respond(&service, &mut TopologyMemo::new(), &line, &mut plain);
                assert_eq!(without_cache(&reply), without_cache(&plain));
                let key = format!("{:016x}", req.key().hash);
                let v = Value::parse(&reply).unwrap();
                assert_eq!(v.get("key").and_then(Value::as_str), Some(key.as_str()));
                assert!(memo.len() <= TopologyMemo::MAX_ENTRIES, "round {round}");
                assert!(memo.text_bytes() <= KEEP_BUFFER_BYTES, "round {round}");
            }
            // The oversized topology was never kept: the memo holds the
            // last eight others, and it is read afresh every time.
            assert_eq!(memo.len(), TopologyMemo::MAX_ENTRIES);
            let oversized = solve_request_line(&lines[100]);
            let (Ok((Request::Solve(a), None)), Ok((Request::Solve(b), None))) =
                (memo.read(&oversized), memo.read(&oversized))
            else {
                panic!("the oversized topology is not decoded afresh");
            };
            assert!(!Arc::ptr_eq(&a.topology, &b.topology));
        }
        let stats = service.stats();
        assert_eq!(stats.misses, 100, "the oversized ring shares a key");
        service.shutdown();
    }

    #[test]
    fn peers_past_the_cap_are_refused_until_one_leaves() {
        let handle = server(Limits {
            max_connections: 2,
            idle_timeout: Duration::from_secs(60),
        });
        let first = TcpStream::connect(handle.addr()).unwrap();
        let second = TcpStream::connect(handle.addr()).unwrap();
        // Both are admitted (and idle from here on).
        assert_eq!(stats(&first).as_deref(), Some("ok"));
        assert_eq!(stats(&second).as_deref(), Some("ok"));

        let third = TcpStream::connect(handle.addr()).unwrap();
        let refusal = read_to_close(&third);
        assert_eq!(refusal.lines().count(), 1, "{refusal}");
        let v = Value::parse(refusal.trim()).unwrap();
        assert_eq!(v.get("status").and_then(Value::as_str), Some("error"));
        let message = v.get("message").and_then(Value::as_str).unwrap();
        assert!(message.contains("busy"), "{message}");
        // The idle peers were not disturbed.
        assert_eq!(stats(&first).as_deref(), Some("ok"));

        // Once one leaves, its slot frees up as soon as its thread sees the
        // close.
        drop(second);
        let started = Instant::now();
        let admitted = loop {
            let peer = TcpStream::connect(handle.addr()).unwrap();
            if stats(&peer).as_deref() == Some("ok") {
                break peer;
            }
            assert!(
                started.elapsed() < Duration::from_secs(10),
                "never admitted"
            );
            std::thread::sleep(Duration::from_millis(20));
        };
        assert_eq!(stats(&admitted).as_deref(), Some("ok"));
        assert_eq!(stats(&first).as_deref(), Some("ok"));
        handle.shutdown();
    }
}
