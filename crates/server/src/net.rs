//! The network serving front-end: a dependency-free, threaded TCP server
//! that puts the cluster's one admission door behind a real wire
//! protocol, plus a minimal HTTP shim so Prometheus can scrape the same
//! socket.
//!
//! ```text
//!            ┌──────────────────────── NetServer ────────────────────────┐
//! phone ──TCP┤ acceptor thread ── handler thread per connection          │
//!            │   "SIRF…" frames → Request → SiriusCluster::submit        │
//!            │                    → Answer/Error frame                   │
//!            │   "GET /metrics"  → Prometheus text of the shared registry│
//!            └───────────────────────────────────────────────────────────┘
//! ```
//!
//! The paper's warehouse-scale argument is about *services*: Sirius queries
//! arrive from phones over a network and land on a datacenter front-end.
//! Until this module, the cluster, its QoS classes and its result caches
//! were exercised only by in-process function calls; [`NetServer`] is the
//! missing protocol boundary. Queries arrive as [`Frame::Submit`] over the
//! versioned, length-prefixed codec of [`crate::wire`], become the same
//! [`Request`] an in-process caller would build and enter through the same
//! [`SiriusCluster::submit`] — so remote answers (and remote sheds) are
//! **bit-identical** to in-process ones — and
//! complete as [`Frame::Answer`] or a typed [`Frame::Error`] that carries
//! every [`SiriusError`](sirius::error::SiriusError)/
//! [`ClusterError`](sirius::error::ClusterError) variant losslessly
//! (`retry_after` hints included).
//!
//! **Threading.** One acceptor thread; one handler thread per connection,
//! its work wrapped in `catch_unwind` so a handler bug costs one
//! connection, never the listener. Hostile bytes — wrong magic, an alien
//! version, an oversize length claim, an undecodable body — are answered
//! with a typed protocol-error frame and the connection closed; a peer
//! that goes silent mid-frame is cut off by the read timeout. Nothing a
//! client sends can panic the server or wedge a thread forever.
//!
//! **Shutdown.** [`NetServer::shutdown`] (and `Drop`) stops accepting,
//! half-closes every connection's read side — in-flight answers still
//! flush — joins every handler, then drops the cluster, which drains every
//! admitted query. Graceful end to end.
//!
//! **Telemetry.** Connection, frame and byte counters live in the same
//! shared registry as every replica's metrics (under `net.`), so one
//! `GET /metrics` scrape exports the whole serving stack.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use sirius::pipeline::{SiriusInput, SiriusResponse};
use sirius_obs::{Counter, Gauge, Registry};

use crate::cluster::SiriusCluster;
use crate::runtime::Request;
use crate::wire::{read_frame, Frame, FrameRead, SubmitFrame, WireFault};

/// Tuning of the network front-end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetConfig {
    /// How long a connection may sit silent (between or inside frames)
    /// before the server closes it. `None` disables the timeout; shutdown
    /// still unblocks such readers via the read-side half-close.
    pub read_timeout: Option<Duration>,
    /// Upper bound on waiting for an admitted query's completion before
    /// the connection is answered with a typed
    /// [`Timeout`](sirius::error::SiriusError::Timeout) error. The
    /// pipeline completes every admitted ticket, so this only fires if a
    /// query is pathologically slow — it guarantees the connection answers.
    pub answer_timeout: Duration,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self {
            read_timeout: Some(Duration::from_secs(30)),
            answer_timeout: Duration::from_secs(120),
        }
    }
}

impl NetConfig {
    /// Sets the idle/read timeout.
    pub fn with_read_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.read_timeout = timeout;
        self
    }

    /// Sets the bound on waiting for a query's completion.
    pub fn with_answer_timeout(mut self, timeout: Duration) -> Self {
        self.answer_timeout = timeout;
        self
    }
}

/// Connection/frame/byte telemetry, registered under `net.` in the
/// cluster's shared registry so scrapes export it next to the replicas.
#[derive(Debug, Clone)]
pub struct NetMetrics {
    /// Connections accepted.
    pub connections_opened: Counter,
    /// Connections that finished (cleanly or not).
    pub connections_closed: Counter,
    /// Connections currently being served.
    pub active_connections: Gauge,
    /// Well-formed frames read off the wire.
    pub frames_in: Counter,
    /// Frames written (answers and typed errors).
    pub frames_out: Counter,
    /// Bytes read off accepted connections.
    pub bytes_in: Counter,
    /// Bytes written to accepted connections.
    pub bytes_out: Counter,
    /// Protocol violations answered with a typed error frame.
    pub errors_protocol: Counter,
    /// Connections cut off by the read timeout.
    pub read_timeouts: Counter,
    /// Successful `GET /metrics` scrapes served.
    pub http_scrapes: Counter,
    /// Handler panics caught at the connection boundary.
    pub handler_panics: Counter,
}

impl NetMetrics {
    /// Registers the front-end metrics under `net.…` names.
    pub fn register(registry: &Registry) -> Self {
        Self {
            connections_opened: registry.counter("net.connections_opened"),
            connections_closed: registry.counter("net.connections_closed"),
            active_connections: registry.gauge("net.active_connections"),
            frames_in: registry.counter("net.frames_in"),
            frames_out: registry.counter("net.frames_out"),
            bytes_in: registry.counter("net.bytes_in"),
            bytes_out: registry.counter("net.bytes_out"),
            errors_protocol: registry.counter("net.errors_protocol"),
            read_timeouts: registry.counter("net.read_timeouts"),
            http_scrapes: registry.counter("net.http_scrapes"),
            handler_panics: registry.counter("net.handler_panics"),
        }
    }
}

struct Shared {
    cluster: SiriusCluster,
    config: NetConfig,
    metrics: NetMetrics,
    shutdown: AtomicBool,
    next_conn: AtomicU64,
    /// Read-side handles of live connections, so shutdown can unblock
    /// readers without cutting off in-flight answer writes.
    streams: Mutex<HashMap<u64, TcpStream>>,
    /// Handler threads not yet seen finished: reaped on each accept, the
    /// rest joined (instantly, once their connections close) at shutdown.
    handlers: Mutex<Vec<JoinHandle<()>>>,
}

/// The TCP front-end over one [`SiriusCluster`]. See the module docs.
pub struct NetServer {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
}

impl NetServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral loopback port)
    /// and starts serving `cluster` over it.
    ///
    /// # Errors
    ///
    /// Any I/O error from binding the listener.
    pub fn serve(
        cluster: SiriusCluster,
        addr: impl ToSocketAddrs,
        config: NetConfig,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let metrics = NetMetrics::register(cluster.registry());
        let shared = Arc::new(Shared {
            cluster,
            config,
            metrics,
            shutdown: AtomicBool::new(false),
            next_conn: AtomicU64::new(0),
            streams: Mutex::new(HashMap::new()),
            handlers: Mutex::new(Vec::new()),
        });
        let acceptor = std::thread::spawn({
            let shared = Arc::clone(&shared);
            move || accept_loop(&listener, &shared)
        });
        Ok(Self {
            shared,
            local_addr,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address clients should connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The cluster this front-end serves — in-process submits through it
    /// are exactly what remote submits are gated bit-identical against.
    pub fn cluster(&self) -> &SiriusCluster {
        &self.shared.cluster
    }

    /// The front-end's own telemetry handles.
    pub fn metrics(&self) -> &NetMetrics {
        &self.shared.metrics
    }

    /// Stops accepting, drains every connection (in-flight answers still
    /// flush), joins every handler thread, then shuts the cluster down,
    /// draining every admitted query.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock `accept` with a throwaway self-connection; the acceptor
        // sees the flag and exits.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        // Half-close every connection's read side: blocked readers wake
        // with EOF, while handlers mid-answer can still write.
        for stream in self.shared.streams.lock().expect("streams lock").values() {
            let _ = stream.shutdown(Shutdown::Read);
        }
        let handlers = std::mem::take(&mut *self.shared.handlers.lock().expect("handlers lock"));
        for handler in handlers {
            let _ = handler.join();
        }
        // Dropping the front-end drops the cluster (the only owner),
        // which drains and joins every replica runtime.
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

impl std::fmt::Debug for NetServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetServer")
            .field("local_addr", &self.local_addr)
            .field("replicas", &self.shared.cluster.len())
            .finish_non_exhaustive()
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _peer)) => stream,
            Err(_) if shared.shutdown.load(Ordering::SeqCst) => return,
            Err(_) => continue,
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            // The shutdown wake-up connection (or a raced client).
            return;
        }
        let id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
        if let Ok(read_half) = stream.try_clone() {
            shared
                .streams
                .lock()
                .expect("streams lock")
                .insert(id, read_half);
        }
        let handler = std::thread::spawn({
            let shared = Arc::clone(shared);
            move || {
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    handle_connection(&shared, stream);
                }));
                if outcome.is_err() {
                    shared.metrics.handler_panics.inc();
                }
                shared.streams.lock().expect("streams lock").remove(&id);
                shared.metrics.active_connections.dec();
                shared.metrics.connections_closed.inc();
            }
        });
        let mut handlers = shared.handlers.lock().expect("handlers lock");
        // Reap the handlers of closed connections, so a long-lived server
        // keeps a handle only per live connection.
        handlers.retain(|h| !h.is_finished());
        handlers.push(handler);
    }
}

/// `Read` adapter that counts every byte pulled off the connection.
struct CountingReader<'a> {
    stream: &'a TcpStream,
    bytes: &'a Counter,
}

impl Read for CountingReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = (&mut &*self.stream).read(buf)?;
        self.bytes.add(n as u64);
        Ok(n)
    }
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

fn handle_connection(shared: &Shared, stream: TcpStream) {
    let metrics = &shared.metrics;
    metrics.connections_opened.inc();
    metrics.active_connections.inc();
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(shared.config.read_timeout);

    // One peeked byte dispatches the protocol: frames open with the magic
    // `b"SIRF"`, an HTTP scrape opens with `GET`, so the first byte is
    // unambiguous (and the HTTP path re-validates the full request line).
    let mut probe = [0u8; 1];
    match stream.peek(&mut probe) {
        Ok(1) if probe[0] == b'G' => {
            serve_http(shared, &stream);
            return;
        }
        Ok(1) => {}
        Ok(_) => return, // EOF before a single byte
        Err(e) => {
            if is_timeout(&e) {
                metrics.read_timeouts.inc();
            }
            return;
        }
    }

    loop {
        let mut reader = CountingReader {
            stream: &stream,
            bytes: &metrics.bytes_in,
        };
        match read_frame(&mut reader) {
            FrameRead::Frame(Frame::Submit(submit)) => {
                metrics.frames_in.inc();
                let answer = serve_submit(shared, submit);
                if write_frame(metrics, &stream, &answer).is_err() {
                    return;
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
            }
            FrameRead::Frame(_) => {
                // Answer/Error frames only travel server → client.
                metrics.frames_in.inc();
                metrics.errors_protocol.inc();
                let fault = Frame::Error(WireFault::Protocol {
                    message: "only Submit frames may be sent to the server".into(),
                });
                let _ = write_frame(metrics, &stream, &fault);
                return;
            }
            FrameRead::Closed => return,
            FrameRead::Malformed(message) => {
                metrics.errors_protocol.inc();
                let fault = Frame::Error(WireFault::Protocol { message });
                let _ = write_frame(metrics, &stream, &fault);
                return;
            }
            FrameRead::Io(e) => {
                if is_timeout(&e) {
                    metrics.read_timeouts.inc();
                }
                return;
            }
        }
    }
}

fn write_frame(metrics: &NetMetrics, mut stream: &TcpStream, frame: &Frame) -> io::Result<()> {
    let written = frame.write_to(&mut stream)?;
    metrics.bytes_out.add(written as u64);
    metrics.frames_out.inc();
    Ok(())
}

/// The wire's encoding of "absent" — an empty class name, a zero deadline —
/// decoded once, here, into the request an in-process caller would build.
impl From<SubmitFrame> for Request {
    fn from(submit: SubmitFrame) -> Self {
        Self {
            input: SiriusInput {
                audio: submit.audio,
                image: submit.image,
            },
            class: Some(submit.tenant_class).filter(|class| !class.is_empty()),
            deadline: Some(Duration::from_nanos(submit.deadline_ns)).filter(|d| !d.is_zero()),
        }
    }
}

/// Serves one submission through the cluster's one door, exactly as an
/// in-process caller would. Always produces a frame — an answer or a typed
/// error.
fn serve_submit(shared: &Shared, submit: SubmitFrame) -> Frame {
    let served = shared
        .cluster
        .submit(submit)
        .and_then(|ticket| ticket.wait_timeout(shared.config.answer_timeout));
    match served {
        Ok(response) => Frame::Answer(Box::new(response)),
        Err(e) => Frame::Error(WireFault::Cluster(e)),
    }
}

// ---------------------------------------------------------------------------
// HTTP shim

const MAX_HTTP_REQUEST: usize = 8 * 1024;

/// Serves one HTTP request on the connection: `GET /metrics` renders the
/// shared registry (every replica plus the `net.` front-end counters) in
/// Prometheus exposition format; anything else is a 404. One request per
/// connection (`Connection: close`), which is exactly a scraper's pattern.
fn serve_http(shared: &Shared, stream: &TcpStream) {
    let metrics = &shared.metrics;
    let mut request = Vec::with_capacity(512);
    let mut buf = [0u8; 512];
    // Read until the header terminator; a peer that never sends it is cut
    // off by the size cap or the read timeout.
    loop {
        match (&mut &*stream).read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                metrics.bytes_in.add(n as u64);
                request.extend_from_slice(&buf[..n]);
                if request.windows(4).any(|w| w == b"\r\n\r\n") {
                    break;
                }
                if request.len() > MAX_HTTP_REQUEST {
                    return;
                }
            }
            Err(e) => {
                if is_timeout(&e) {
                    metrics.read_timeouts.inc();
                }
                return;
            }
        }
    }
    let head = String::from_utf8_lossy(&request);
    let path = head
        .lines()
        .next()
        .and_then(|line| line.strip_prefix("GET "))
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or("");
    let (status, body) = if path == "/metrics" {
        metrics.http_scrapes.inc();
        ("200 OK", shared.cluster.metrics_snapshot().to_prometheus())
    } else {
        ("404 Not Found", String::from("not found\n"))
    };
    let response = format!(
        "HTTP/1.1 {status}\r\n\
         Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len()
    );
    if (&mut &*stream).write_all(response.as_bytes()).is_ok() {
        metrics.bytes_out.add(response.len() as u64);
    }
}

// ---------------------------------------------------------------------------
// Client

/// Why a [`NetClient`] call failed.
#[derive(Debug)]
pub enum NetClientError {
    /// The socket failed.
    Io(io::Error),
    /// The server answered with a typed fault frame.
    Fault(WireFault),
    /// The server broke the protocol (sent something other than an answer
    /// or fault).
    Unexpected(String),
}

impl std::fmt::Display for NetClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetClientError::Io(e) => write!(f, "socket error: {e}"),
            NetClientError::Fault(fault) => write!(f, "server fault: {fault}"),
            NetClientError::Unexpected(m) => write!(f, "unexpected server frame: {m}"),
        }
    }
}

impl std::error::Error for NetClientError {}

/// A minimal synchronous client for the frame protocol: one connection,
/// one in-flight query at a time. Load harnesses run one per thread.
#[derive(Debug)]
pub struct NetClient {
    stream: TcpStream,
}

impl NetClient {
    /// Connects to a [`NetServer`].
    ///
    /// # Errors
    ///
    /// Any I/O error from connecting.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self { stream })
    }

    /// Submits one query and blocks for its answer. An empty
    /// `tenant_class` is a class-less request and `None` a deadline-free
    /// one; the server applies [`SiriusServer::submit`](crate::SiriusServer::submit)'s
    /// rule to whatever combination arrives.
    ///
    /// # Errors
    ///
    /// [`NetClientError::Fault`] for every typed server-side error —
    /// admission sheds with their `retry_after` hints included —
    /// [`NetClientError::Io`]/[`NetClientError::Unexpected`] for transport
    /// failures.
    pub fn submit(
        &mut self,
        input: &SiriusInput,
        tenant_class: &str,
        deadline: Option<Duration>,
    ) -> Result<SiriusResponse, NetClientError> {
        let frame = Frame::Submit(SubmitFrame {
            tenant_class: tenant_class.to_owned(),
            deadline_ns: deadline.map_or(0, |d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)),
            audio: input.audio.clone(),
            image: input.image.clone(),
        });
        frame
            .write_to(&mut self.stream)
            .map_err(NetClientError::Io)?;
        match read_frame(&mut self.stream) {
            FrameRead::Frame(Frame::Answer(response)) => Ok(*response),
            FrameRead::Frame(Frame::Error(fault)) => Err(NetClientError::Fault(fault)),
            FrameRead::Frame(Frame::Submit(_)) => Err(NetClientError::Unexpected(
                "server sent a Submit frame".into(),
            )),
            FrameRead::Closed => Err(NetClientError::Unexpected(
                "connection closed before an answer".into(),
            )),
            FrameRead::Malformed(m) => Err(NetClientError::Unexpected(m)),
            FrameRead::Io(e) => Err(NetClientError::Io(e)),
        }
    }
}

/// Scrapes `GET {path}` from the front-end over a fresh connection,
/// returning the status line's code and the body — a tiny test/bench
/// client for the HTTP shim, not a general HTTP implementation.
///
/// # Errors
///
/// Any I/O error, or a malformed status line.
pub fn http_get(addr: impl ToSocketAddrs, path: &str) -> io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.write_all(format!("GET {path} HTTP/1.1\r\nHost: sirius\r\n\r\n").as_bytes())?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let status = raw
        .strip_prefix("HTTP/1.1 ")
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed status line"))?;
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, body)| body.to_owned())
        .unwrap_or_default();
    Ok((status, body))
}

#[cfg(test)]
mod tests {
    use sirius::pipeline::{Sirius, SiriusConfig};

    use super::*;
    use crate::cluster::ClusterConfig;

    /// Regression: the acceptor kept the `JoinHandle` of every connection
    /// it ever accepted until shutdown.
    #[test]
    fn closed_connections_are_reaped_and_shutdown_joins_the_rest() {
        let sirius = Sirius::build(SiriusConfig::default());
        let cluster = SiriusCluster::start(&sirius, ClusterConfig::new(1)).expect("cluster starts");
        let server =
            NetServer::serve(cluster, "127.0.0.1:0", NetConfig::default()).expect("listener binds");
        for _ in 0..64 {
            let (status, _) = http_get(server.local_addr(), "/nope").expect("GET");
            assert_eq!(status, 404);
        }
        let shared = Arc::clone(&server.shared);
        let retained = shared.handlers.lock().expect("handlers lock").len();
        assert!(retained <= 8, "{retained} of 64 handler handles retained");
        server.shutdown();
        assert!(shared.handlers.lock().expect("handlers lock").is_empty());
        assert_eq!(shared.metrics.connections_closed.get(), 64);
        assert_eq!(shared.metrics.active_connections.get(), 0);
    }
}
