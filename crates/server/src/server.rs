//! The blocking TCP [`Server`]: a fixed worker-thread pool over a
//! [`TcpListener`], pure `std` — no async runtime.
//!
//! ## Life of a connection
//!
//! The accept loop (nonblocking, ~25 ms poll so shutdown is prompt) hands
//! each accepted stream to a fixed pool of worker threads over an mpsc
//! channel. A worker performs the 6-byte version handshake — echoing the
//! client's version when it matches, answering with its **own** version
//! and closing when it does not — then serves frames until the client
//! closes, a protocol error terminates the connection, or the server
//! shuts down. Socket reads run under a short read timeout with a manual
//! accumulate loop, so a worker parked on an idle connection still
//! observes shutdown within ~100 ms.
//!
//! ## Shutdown drains, it does not drop
//!
//! [`ShutdownHandle::trigger`] (wired to SIGINT/SIGTERM by the CLI) sets
//! the shutdown flag **and** cancels the server-owned
//! [`CancelToken`] shared by every session
//! config. In-flight solves observe the token at their next checkpoint
//! and return a typed cancellation carrying an
//! [`InterruptReport`](ugraph_cluster::InterruptReport); the worker sends
//! that report to the client as an [`ErrorCode::Cancelled`] frame before
//! closing. Requests arriving after the trigger get
//! [`ErrorCode::ShuttingDown`].

use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use ugraph_cluster::{ClusterConfig, ClusterError};
use ugraph_graph::UncertainGraph;
use ugraph_sampling::CancelToken;

use crate::protocol::{
    self, ClusterCall, ErrorCode, ErrorFrame, ProtocolError, Request, Response, ServerStats,
    WireSolve, MAGIC, MAX_FRAME_LEN, PROTOCOL_VERSION,
};
use crate::registry::{RegistryConfig, RegistryError, SessionRegistry};

/// How often parked reads and the accept loop re-check the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(25);
/// Per-`read` socket timeout; the accumulate loop spans many of these.
const READ_TIMEOUT: Duration = Duration::from_millis(100);

/// Server construction parameters.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Worker threads serving connections (also the maximum number of
    /// concurrently-served connections).
    pub workers: usize,
    /// Server-side ceiling applied to every cluster request's wall clock.
    /// Composes with a client-supplied deadline by *minimum*, so a client
    /// cannot extend it.
    pub request_timeout: Option<Duration>,
    /// Global solver-memory ceiling across all sessions (`None` =
    /// unbounded) — the registry's admission/eviction budget.
    pub global_budget: Option<usize>,
    /// Optional additional per-session ceiling.
    pub session_budget: Option<usize>,
    /// Evict sessions idle for at least this long, regardless of memory
    /// pressure (`None` = only budget pressure evicts).
    pub idle_evict: Option<Duration>,
    /// Per-connection IO deadline against a **stalled** peer (`None` =
    /// wait forever, the pre-hardening behavior). A peer that stops
    /// making progress *mid-frame* for this long — on the read side
    /// (slow-loris half-frames) or the write side (a dead TCP half that
    /// never drains our response) — is disconnected and tallied in
    /// [`ServerStats::peer_stalled`]. Idle time **between** frames is
    /// not limited: parked keep-alive connections are legitimate.
    pub io_timeout: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            request_timeout: None,
            global_budget: None,
            session_budget: None,
            idle_evict: None,
            io_timeout: Some(Duration::from_secs(10)),
        }
    }
}

/// Monotonic server counters, reported by the wire `stats` request.
#[derive(Debug, Default)]
struct Counters {
    connections: AtomicU64,
    cluster_requests: AtomicU64,
    stats_requests: AtomicU64,
    protocol_errors: AtomicU64,
    admission_rejections: AtomicU64,
    deadline_rejections: AtomicU64,
    cancelled_rejections: AtomicU64,
    solve_errors: AtomicU64,
    peer_stalled: AtomicU64,
}

impl Counters {
    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// Triggers a cooperative server shutdown from any thread: sets the stop
/// flag (accept loop and parked reads exit within one poll interval) and
/// cancels the server-owned token (in-flight solves return a typed
/// cancellation that is *answered*, not dropped).
#[derive(Clone, Debug)]
pub struct ShutdownHandle {
    flag: Arc<AtomicBool>,
    cancel: CancelToken,
}

impl ShutdownHandle {
    /// Requests shutdown. Idempotent.
    pub fn trigger(&self) {
        self.flag.store(true, Ordering::SeqCst);
        self.cancel.cancel();
    }

    /// Whether shutdown has been requested.
    pub fn is_triggered(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

/// The serve-mode front end — see the [module docs](self).
pub struct Server {
    listener: TcpListener,
    registry: Arc<SessionRegistry>,
    counters: Arc<Counters>,
    config: ServerConfig,
    shutdown: ShutdownHandle,
}

impl Server {
    /// Binds the listener and builds the session registry over `graphs`.
    /// `base` is the solver configuration every session inherits (the
    /// engine is overridden per request shape); the server
    /// attaches its own [`CancelToken`] so shutdown reaches every solve.
    ///
    /// # Errors
    /// [`ProtocolError::Io`] when the address cannot be bound.
    pub fn bind(
        addr: impl ToSocketAddrs,
        graphs: Vec<(String, Arc<UncertainGraph>)>,
        base: ClusterConfig,
        config: ServerConfig,
    ) -> Result<Server, ProtocolError> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let cancel = CancelToken::new();
        let registry = Arc::new(SessionRegistry::new(
            graphs,
            RegistryConfig {
                base: base.with_cancel_token(cancel.clone()),
                global_budget: config.global_budget,
                session_budget: config.session_budget,
            },
        ));
        Ok(Server {
            listener,
            registry,
            counters: Arc::new(Counters::default()),
            config,
            shutdown: ShutdownHandle { flag: Arc::new(AtomicBool::new(false)), cancel },
        })
    }

    /// The bound address (useful with port 0).
    ///
    /// # Errors
    /// [`ProtocolError::Io`] when the socket cannot report its address.
    pub fn local_addr(&self) -> Result<SocketAddr, ProtocolError> {
        Ok(self.listener.local_addr()?)
    }

    /// A handle that shuts this server down from another thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        self.shutdown.clone()
    }

    /// The session registry (stats and tests).
    pub fn registry(&self) -> &Arc<SessionRegistry> {
        &self.registry
    }

    /// Runs the accept loop on the calling thread until
    /// [`ShutdownHandle::trigger`] fires, then joins every worker —
    /// workers finish (and answer) their in-flight request first.
    ///
    /// # Errors
    /// [`ProtocolError::Io`] when the worker pool cannot be spawned.
    pub fn run(self) -> Result<(), ProtocolError> {
        let (tx, rx) = mpsc::channel::<TcpStream>();
        let rx = Arc::new(Mutex::new(rx));
        let mut workers = Vec::with_capacity(self.config.workers.max(1));
        for i in 0..self.config.workers.max(1) {
            let rx = Arc::clone(&rx);
            let ctx = ConnCtx {
                registry: Arc::clone(&self.registry),
                counters: Arc::clone(&self.counters),
                shutdown: self.shutdown.clone(),
                request_timeout: self.config.request_timeout,
                io_timeout: self.config.io_timeout,
            };
            let worker =
                thread::Builder::new().name(format!("ugraph-serve-{i}")).spawn(move || loop {
                    let next = {
                        let guard = rx.lock().unwrap_or_else(|e| e.into_inner());
                        guard.recv()
                    };
                    match next {
                        Ok(stream) => ctx.serve_connection(stream),
                        // Channel closed: the accept loop is gone.
                        Err(_) => return,
                    }
                })?;
            workers.push(worker);
        }

        while !self.shutdown.is_triggered() {
            if let Some(age) = self.config.idle_evict {
                self.registry.evict_idle_for(age);
            }
            match self.listener.accept() {
                Ok((stream, _)) => {
                    Counters::bump(&self.counters.connections);
                    if tx.send(stream).is_err() {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    thread::sleep(POLL_INTERVAL);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                // Transient accept failures (per-connection resets) must
                // not take the server down.
                Err(_) => thread::sleep(POLL_INTERVAL),
            }
        }
        drop(tx);
        for worker in workers {
            let _ = worker.join();
        }
        Ok(())
    }

    /// Spawns [`Server::run`] on a background thread and returns a
    /// [`RunningServer`] that stops (and joins) it on drop — the loopback
    /// harness the tests and the CLI smoke path build on.
    ///
    /// # Errors
    /// [`ProtocolError::Io`] when the thread cannot be spawned.
    pub fn start(self) -> Result<RunningServer, ProtocolError> {
        let addr = self.local_addr()?;
        let shutdown = self.shutdown_handle();
        let registry = Arc::clone(&self.registry);
        let join =
            thread::Builder::new().name("ugraph-serve-accept".into()).spawn(move || self.run())?;
        Ok(RunningServer { addr, shutdown, registry, join: Some(join) })
    }
}

/// A server running on a background thread. Dropping it triggers shutdown
/// and joins the accept loop (which drains the workers first).
pub struct RunningServer {
    addr: SocketAddr,
    shutdown: ShutdownHandle,
    registry: Arc<SessionRegistry>,
    join: Option<thread::JoinHandle<Result<(), ProtocolError>>>,
}

impl RunningServer {
    /// The address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shutdown trigger.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        self.shutdown.clone()
    }

    /// The session registry (stats and tests).
    pub fn registry(&self) -> &Arc<SessionRegistry> {
        &self.registry
    }

    /// Triggers shutdown and waits for the drain to finish.
    ///
    /// # Errors
    /// The accept loop's error, if it failed to start its worker pool.
    pub fn stop(mut self) -> Result<(), ProtocolError> {
        self.shutdown.trigger();
        match self.join.take() {
            Some(join) => join.join().unwrap_or_else(|_| {
                Err(ProtocolError::Io(std::io::Error::other("accept loop panicked")))
            }),
            None => Ok(()),
        }
    }
}

impl Drop for RunningServer {
    fn drop(&mut self) {
        self.shutdown.trigger();
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

/// What one shutdown-aware socket read produced.
enum ReadStatus {
    /// The buffer is full.
    Done,
    /// Clean EOF before the first byte (peer closed between frames).
    Eof,
    /// Shutdown was requested while waiting.
    Shutdown,
    /// The peer went silent mid-message for longer than the IO deadline.
    Stalled,
}

/// One frame off the wire, or the reason the connection is over.
enum NextFrame {
    Frame(u8, Vec<u8>),
    Closed,
    /// The peer stalled mid-frame; drop it without a response (its read
    /// half may be as dead as its write half).
    Stalled,
}

/// Everything a worker needs to serve connections.
struct ConnCtx {
    registry: Arc<SessionRegistry>,
    counters: Arc<Counters>,
    shutdown: ShutdownHandle,
    request_timeout: Option<Duration>,
    io_timeout: Option<Duration>,
}

/// Whether a transport failure is a stalled peer (our send never
/// drained) rather than a hard disconnect — the write-deadline analogue
/// of [`ReadStatus::Stalled`].
fn is_write_stall(e: &ProtocolError) -> bool {
    matches!(
        e,
        ProtocolError::Io(io) if matches!(
            io.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        )
    )
}

impl ConnCtx {
    /// Serves one connection to completion. Never panics; protocol
    /// violations are answered (best effort) and counted, then the
    /// connection is closed.
    fn serve_connection(&self, mut stream: TcpStream) {
        let _ = stream.set_nodelay(true);
        if stream.set_read_timeout(Some(READ_TIMEOUT)).is_err() {
            return;
        }
        // The write deadline: a peer that never drains our response frame
        // cannot pin this worker past the IO deadline. Progress resets
        // it (each accepted chunk gets a fresh window), so only a fully
        // stalled peer trips it.
        if stream.set_write_timeout(self.io_timeout).is_err() {
            return;
        }
        match self.handshake(&mut stream) {
            Ok(true) => {}
            Ok(false) => return,
            Err(_) => {
                Counters::bump(&self.counters.protocol_errors);
                return;
            }
        }
        loop {
            match self.next_frame(&mut stream) {
                Ok(NextFrame::Frame(kind, payload)) => {
                    let (response, close) = self.respond(kind, &payload);
                    if close {
                        Counters::bump(&self.counters.protocol_errors);
                    }
                    let frame = protocol::encode_response(&response);
                    if let Err(e) = protocol::write_frame(&mut stream, &frame) {
                        if is_write_stall(&e) {
                            Counters::bump(&self.counters.peer_stalled);
                        }
                        return;
                    }
                    if close {
                        return;
                    }
                }
                Ok(NextFrame::Closed) => return,
                Ok(NextFrame::Stalled) => {
                    Counters::bump(&self.counters.peer_stalled);
                    return;
                }
                Err(e) => {
                    Counters::bump(&self.counters.protocol_errors);
                    // Best-effort: tell the client why before closing.
                    let frame =
                        protocol::encode_response(&Response::Error(error_frame_of_protocol(&e)));
                    if let Err(e) = protocol::write_frame(&mut stream, &frame) {
                        if is_write_stall(&e) {
                            Counters::bump(&self.counters.peer_stalled);
                        }
                    }
                    return;
                }
            }
        }
    }

    /// Fills `buf`, tolerating read timeouts and checking the shutdown
    /// flag between them. `read_exact` cannot be used here: it discards
    /// partial data when a timeout splits a frame.
    ///
    /// The stall clock: with an IO deadline configured, a peer that stops
    /// delivering bytes **mid-message** for that long yields
    /// [`ReadStatus::Stalled`]. When `idle_ok` is set (waiting at a
    /// message boundary) the clock only starts once the first byte
    /// arrives — idle keep-alive connections may park forever; half a
    /// header may not. Every received byte restarts the clock, so a slow
    /// but live peer is served, and only a silent one is cut.
    fn read_full(
        &self,
        stream: &mut TcpStream,
        buf: &mut [u8],
        idle_ok: bool,
    ) -> Result<ReadStatus, ProtocolError> {
        let mut got = 0;
        let mut last_progress = if idle_ok { None } else { Some(Instant::now()) };
        while got < buf.len() {
            if self.shutdown.is_triggered() {
                return Ok(ReadStatus::Shutdown);
            }
            if let (Some(since), Some(limit)) = (last_progress, self.io_timeout) {
                if since.elapsed() >= limit {
                    return Ok(ReadStatus::Stalled);
                }
            }
            match stream.read(&mut buf[got..]) {
                Ok(0) if got == 0 && idle_ok => return Ok(ReadStatus::Eof),
                Ok(0) => {
                    return Err(ProtocolError::Io(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "peer closed mid-message",
                    )))
                }
                Ok(n) => {
                    got += n;
                    last_progress = Some(Instant::now());
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock
                            | std::io::ErrorKind::TimedOut
                            | std::io::ErrorKind::Interrupted
                    ) => {}
                Err(e) => return Err(ProtocolError::Io(e)),
            }
        }
        Ok(ReadStatus::Done)
    }

    /// Server side of the version handshake. Returns `Ok(true)` when the
    /// connection may proceed; `Ok(false)` closes it quietly (clean
    /// disconnect, shutdown, or a version mismatch already answered).
    fn handshake(&self, stream: &mut TcpStream) -> Result<bool, ProtocolError> {
        let mut hello = [0u8; 6];
        match self.read_full(stream, &mut hello, true)? {
            ReadStatus::Done => {}
            ReadStatus::Eof | ReadStatus::Shutdown => return Ok(false),
            ReadStatus::Stalled => {
                Counters::bump(&self.counters.peer_stalled);
                return Ok(false);
            }
        }
        if hello[..4] != MAGIC {
            let mut magic = [0u8; 4];
            magic.copy_from_slice(&hello[..4]);
            return Err(ProtocolError::BadMagic(magic));
        }
        let theirs = u16::from_le_bytes([hello[4], hello[5]]);
        // Always answer with the version *we* speak: on a match this is
        // the echo the client expects; on a mismatch it tells the old
        // client exactly what to report before we close.
        protocol::write_hello(stream, PROTOCOL_VERSION)?;
        if theirs != PROTOCOL_VERSION {
            Counters::bump(&self.counters.protocol_errors);
            return Ok(false);
        }
        Ok(true)
    }

    /// Reads one frame under the shutdown-aware accumulate loop.
    fn next_frame(&self, stream: &mut TcpStream) -> Result<NextFrame, ProtocolError> {
        let mut header = [0u8; 4];
        match self.read_full(stream, &mut header, true)? {
            ReadStatus::Done => {}
            ReadStatus::Eof | ReadStatus::Shutdown => return Ok(NextFrame::Closed),
            ReadStatus::Stalled => return Ok(NextFrame::Stalled),
        }
        let len = u32::from_le_bytes(header);
        if len == 0 || len > MAX_FRAME_LEN {
            return Err(ProtocolError::Oversized(len));
        }
        let mut body = vec![0u8; len as usize];
        match self.read_full(stream, &mut body, false)? {
            ReadStatus::Done => {}
            // Shutdown mid-frame: the bytes are part of a request we will
            // no longer serve; drop them with the connection.
            ReadStatus::Eof | ReadStatus::Shutdown => return Ok(NextFrame::Closed),
            ReadStatus::Stalled => return Ok(NextFrame::Stalled),
        }
        let kind = body[0];
        body.drain(..1);
        Ok(NextFrame::Frame(kind, body))
    }

    /// Turns one decoded frame into a response. The `bool` asks the
    /// caller to close the connection after sending (decode failures —
    /// the stream may be desynchronized even though framing held).
    fn respond(&self, kind: u8, payload: &[u8]) -> (Response, bool) {
        let request = match protocol::decode_request(kind, payload) {
            Ok(request) => request,
            Err(e) => return (Response::Error(error_frame_of_protocol(&e)), true),
        };
        match request {
            Request::Cluster(call) => {
                Counters::bump(&self.counters.cluster_requests);
                if self.shutdown.is_triggered() {
                    let frame = ErrorFrame::new(
                        ErrorCode::ShuttingDown,
                        "server is shutting down and accepts no new work",
                    );
                    return (Response::Error(frame), false);
                }
                (self.cluster(&call), false)
            }
            Request::Stats { graph } => {
                Counters::bump(&self.counters.stats_requests);
                (Response::Stats(self.stats(graph.as_deref())), false)
            }
            // Health checks are answered even during shutdown (the pool
            // uses them to decide where to retry) and left out of the
            // request counters so probing never skews traffic stats.
            Request::Ping { nonce } => (Response::Pong { nonce }, false),
        }
    }

    /// Serves one cluster call through the registry.
    fn cluster(&self, call: &ClusterCall) -> Response {
        let lease = match self.registry.acquire(call) {
            Ok(lease) => lease,
            Err(RegistryError::UnknownGraph(name)) => {
                Counters::bump(&self.counters.admission_rejections);
                let frame = ErrorFrame::new(
                    ErrorCode::UnknownGraph,
                    format!("graph {name:?} is not loaded on this server"),
                );
                return Response::Error(frame);
            }
            Err(e @ RegistryError::AdmissionRejected { .. }) => {
                Counters::bump(&self.counters.admission_rejections);
                return Response::Error(ErrorFrame::new(
                    ErrorCode::AdmissionRejected,
                    e.to_string(),
                ));
            }
            Err(RegistryError::Session(e)) => {
                Counters::bump(&self.counters.solve_errors);
                return Response::Error(ErrorFrame::from_cluster_error(&e));
            }
        };
        let mut request = call.to_request();
        if let Some(timeout) = self.request_timeout {
            // `with_deadline` takes the minimum, so a client deadline can
            // only tighten the server's ceiling, never extend it.
            request = request.with_deadline(timeout);
        }
        match lease.solve(request) {
            Ok(result) => Response::Cluster(WireSolve::from_result(&result)),
            Err(e) => {
                match &e {
                    ClusterError::DeadlineExceeded(_) => {
                        Counters::bump(&self.counters.deadline_rejections)
                    }
                    ClusterError::Cancelled(_) => {
                        Counters::bump(&self.counters.cancelled_rejections)
                    }
                    ClusterError::SessionClosed => {
                        Counters::bump(&self.counters.solve_errors);
                        // The actor behind this session is gone; drop the
                        // poisoned entry so a retry respawns a fresh one
                        // (bit-identical answers) instead of re-leasing
                        // the corpse.
                        self.registry.discard(lease.key());
                    }
                    _ => Counters::bump(&self.counters.solve_errors),
                }
                Response::Error(ErrorFrame::from_cluster_error(&e))
            }
        }
    }

    /// Assembles the wire stats report.
    fn stats(&self, graph_filter: Option<&str>) -> ServerStats {
        let memory = self.registry.global_stats();
        ServerStats {
            connections: self.counters.connections.load(Ordering::Relaxed),
            cluster_requests: self.counters.cluster_requests.load(Ordering::Relaxed),
            stats_requests: self.counters.stats_requests.load(Ordering::Relaxed),
            protocol_errors: self.counters.protocol_errors.load(Ordering::Relaxed),
            admission_rejections: self.counters.admission_rejections.load(Ordering::Relaxed),
            deadline_rejections: self.counters.deadline_rejections.load(Ordering::Relaxed),
            cancelled_rejections: self.counters.cancelled_rejections.load(Ordering::Relaxed),
            solve_errors: self.counters.solve_errors.load(Ordering::Relaxed),
            peer_stalled: self.counters.peer_stalled.load(Ordering::Relaxed),
            sessions_evicted: self.registry.sessions_evicted(),
            bytes_held: memory.bytes_held as u64,
            bytes_limit: memory.bytes_limit.map(|l| l as u64),
            graphs: self.registry.graph_names().to_vec(),
            sessions: self.registry.stats_entries(graph_filter),
        }
    }
}

/// The wire error a protocol violation is answered with.
fn error_frame_of_protocol(e: &ProtocolError) -> ErrorFrame {
    let code = match e {
        ProtocolError::VersionMismatch { .. } => ErrorCode::UnsupportedVersion,
        ProtocolError::Oversized(_) => ErrorCode::Oversized,
        ProtocolError::UnknownKind(_) => ErrorCode::UnknownKind,
        _ => ErrorCode::Malformed,
    };
    ErrorFrame::new(code, e.to_string())
}
