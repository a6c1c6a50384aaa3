//! The TCP front end: a thread-per-connection line server over
//! [`crate::protocol`], backed by a shared [`ScheduleService`].
//!
//! Connection threads block inside [`ScheduleService::request`] while a solve
//! is in flight, so N clients asking for the same schedule cost one solve and
//! N (cheap) parked threads — the single-flight logic lives in the service,
//! not here.
//!
//! A connection owns one line buffer and one reply buffer for its lifetime;
//! a reply is rendered into the latter straight from the cache entry
//! ([`crate::protocol::solve_response`]), so a hit allocates for neither.
//! Capacity past [`KEEP_BUFFER_BYTES`] is handed back after each request.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::key::RequestError;
use crate::protocol::{
    error_response, evict_response, parse_request, request_error_response, solve_response,
    stats_response, Request,
};
use crate::service::ScheduleService;
use teccl_util::json::write_json;

/// Longest request line a connection accepts, newline excluded. The largest
/// builtin topology makes a ~40 kB `solve` line; nothing legitimate comes
/// near this, and without a cap one newline-free stream grows a buffer
/// until the daemon is out of memory.
pub const MAX_LINE_BYTES: usize = 16 << 20;

/// Buffer capacity a connection keeps between requests: above every builtin
/// request line (~40 kB) and far below [`MAX_LINE_BYTES`], so one outsized
/// line does not pin megabytes for the life of an idle connection; a larger
/// line or reply regrows its buffer each time.
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

/// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and serves the
/// protocol on it with the given service.
pub fn serve(
    addr: impl ToSocketAddrs,
    service: Arc<ScheduleService>,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let accept_stop = Arc::clone(&stop);
    let accept_service = Arc::clone(&service);
    let accept_thread = std::thread::Builder::new()
        .name("teccld-accept".into())
        .spawn(move || {
            for stream in listener.incoming() {
                if accept_stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let service = Arc::clone(&accept_service);
                let _ = std::thread::Builder::new()
                    .name("teccld-conn".into())
                    .spawn(move || handle_connection(stream, &service));
            }
        })?;
    Ok(ServerHandle {
        addr,
        stop,
        accept_thread: Some(accept_thread),
        service,
    })
}

/// Appends the reply to one request line to `reply` (no newline): what a
/// connection thread does between reading a line and writing the answer.
pub fn respond(service: &ScheduleService, line: &str, reply: &mut String) {
    match parse_request(line) {
        Err(e) => write_json(&request_error_response(&e), reply),
        Ok(Request::Stats) => write_json(&stats_response(&service.stats()), reply),
        Ok(Request::Evict) => write_json(&evict_response(service.evict()), reply),
        Ok(Request::Solve(req)) => match service.request(*req) {
            Ok(served) => write_json(&solve_response(&served), reply),
            Err(e) => write_json(&error_response(&e.to_string()), reply),
        },
    }
}

/// Serves one connection until EOF, a write error or an over-long line.
fn handle_connection(stream: TcpStream, service: &ScheduleService) {
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    // Both buffers live as long as the connection: a request in the steady
    // state allocates for neither its line nor its reply.
    let mut line = Vec::new();
    let mut reply = String::new();
    // One byte past the cap tells an over-long line from one of exactly the cap.
    const READ_LIMIT: u64 = MAX_LINE_BYTES as u64 + 1;
    loop {
        line.clear();
        line.shrink_to(KEEP_BUFFER_BYTES);
        reply.clear();
        reply.shrink_to(KEEP_BUFFER_BYTES);
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
            respond(service, text, &mut reply);
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
