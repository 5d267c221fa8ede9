//! The versioned, length-prefixed binary wire protocol of serve mode.
//!
//! Everything here is hand-serialized — no serde, no external codec — and
//! documented byte-for-byte in the repository's `PROTOCOL.md`. The layer
//! split is deliberate:
//!
//! * **pure codecs** ([`encode_request`], [`decode_request`],
//!   [`encode_response`], [`decode_response`]) turn typed frames into
//!   bytes and back with no IO, so robustness tests can fuzz them
//!   directly;
//! * **blocking IO helpers** ([`read_frame`], [`write_frame`], the
//!   handshake functions) move whole frames over any `Read`/`Write`;
//!   [`write_frame`] carries the
//!   [`FaultSite::WireWrite`](ugraph_sampling::FaultSite) failpoint, which
//!   tests use to simulate torn writes on the socket path.
//!
//! ## Framing
//!
//! A connection opens with a 6-byte handshake in each direction: the
//! 4-byte magic `b"UGRP"` followed by a little-endian `u16` protocol
//! version. The server echoes the client's version when it speaks it and
//! answers with its **own** version (then closes) when it does not, so an
//! old client sees a typed [`ProtocolError::VersionMismatch`] rather than
//! garbage. After the handshake, every message is one frame:
//!
//! ```text
//! [len: u32 LE] [kind: u8] [payload: len-1 bytes]
//! ```
//!
//! `len` counts the kind byte plus the payload and must be in
//! `1..=`[`MAX_FRAME_LEN`]; integers are little-endian, `f64`s travel as
//! their IEEE-754 bit patterns (estimates survive the wire
//! **bit-identically**), strings as a `u32` length + UTF-8 bytes.
//! Decoders reject trailing bytes, truncated payloads, unknown
//! discriminants, and oversized or empty frames with a typed
//! [`ProtocolError`] — never a panic.

use std::fmt;
use std::io::{Read, Write};
use std::time::Duration;

use ugraph_cluster::{
    ClusterError, ClusterRequest, Clustering, InterruptReport, Objective, SolveResult,
};
use ugraph_graph::NodeId;
use ugraph_sampling::{
    faults, BlockWidth, EngineKind, FaultSite, Interrupt, SamplingError, SamplingPhase,
};

/// The 4-byte connection magic (`b"UGRP"`).
pub const MAGIC: [u8; 4] = *b"UGRP";
/// The protocol version this build speaks. Version 2 added the
/// `Ping`/`Pong` health frames (pool health checks) and the
/// `peer_stalled` counter in the stats payload.
pub const PROTOCOL_VERSION: u16 = 2;
/// Hard ceiling on `len` (kind + payload bytes) of a single frame. A
/// larger announced length is rejected **before** any allocation, so a
/// hostile header cannot balloon server memory.
pub const MAX_FRAME_LEN: u32 = 1 << 24; // 16 MiB

/// Frame kind: cluster request (client → server).
pub const KIND_CLUSTER: u8 = 0x01;
/// Frame kind: stats request (client → server).
pub const KIND_STATS: u8 = 0x02;
/// Frame kind: health-check ping (client → server), since v2.
pub const KIND_PING: u8 = 0x03;
/// Frame kind: successful cluster response (server → client).
pub const KIND_CLUSTER_OK: u8 = 0x81;
/// Frame kind: successful stats response (server → client).
pub const KIND_STATS_OK: u8 = 0x82;
/// Frame kind: health-check pong (server → client), since v2.
pub const KIND_PONG: u8 = 0x83;
/// Frame kind: typed error response (server → client).
pub const KIND_ERROR: u8 = 0xEE;
/// How long the [`FaultSite::WireStall`] failpoint holds the second half
/// of a frame mid-write — long enough to trip any realistic server IO
/// deadline in tests.
pub const STALL_PAUSE: Duration = Duration::from_millis(300);

/// Protocol-level failures: transport errors, handshake mismatches, and
/// malformed frames. Solver-level failures travel inside [`ErrorFrame`]s
/// instead.
#[derive(Debug)]
pub enum ProtocolError {
    /// The underlying transport failed.
    Io(std::io::Error),
    /// The peer's handshake did not start with [`MAGIC`].
    BadMagic([u8; 4]),
    /// The peer speaks a different protocol version.
    VersionMismatch {
        /// The version this side speaks.
        ours: u16,
        /// The version the peer announced.
        theirs: u16,
    },
    /// A frame announced a length outside `1..=`[`MAX_FRAME_LEN`].
    Oversized(u32),
    /// A frame kind this side does not know.
    UnknownKind(u8),
    /// A payload that does not decode (truncated, trailing bytes, or an
    /// invalid discriminant/value), with a description of the violation.
    Malformed(String),
    /// An injected [`FaultSite::WireWrite`] failpoint fired (simulated
    /// torn write; test-only in practice).
    Fault(SamplingError),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Io(e) => write!(f, "transport failed: {e}"),
            ProtocolError::BadMagic(m) => write!(f, "bad connection magic {m:02x?}"),
            ProtocolError::VersionMismatch { ours, theirs } => {
                write!(f, "protocol version mismatch: we speak v{ours}, peer speaks v{theirs}")
            }
            ProtocolError::Oversized(len) => {
                write!(f, "frame length {len} outside 1..={MAX_FRAME_LEN}")
            }
            ProtocolError::UnknownKind(k) => write!(f, "unknown frame kind {k:#04x}"),
            ProtocolError::Malformed(why) => write!(f, "malformed frame: {why}"),
            ProtocolError::Fault(e) => write!(f, "injected wire fault: {e}"),
        }
    }
}

impl std::error::Error for ProtocolError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtocolError::Io(e) => Some(e),
            ProtocolError::Fault(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ProtocolError {
    fn from(e: std::io::Error) -> Self {
        ProtocolError::Io(e)
    }
}

/// Depth restriction of a wire cluster call — mirrors the request
/// constructors of [`ClusterRequest`] (`mcp`/`acp`, the `*_depth`
/// variants, and the explicit `with_depths` form).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireDepth {
    /// Unlimited path length.
    Unlimited,
    /// The uniform `d` of `mcp_depth`/`acp_depth`.
    Uniform(u32),
    /// Explicit `(d_select, d_cover)`.
    Explicit {
        /// Selection-disk depth.
        d_select: u32,
        /// Cover-disk depth.
        d_cover: u32,
    },
}

/// One cluster call as it travels over the wire: the graph whose session
/// the registry leases, the engine and block width (validated, then
/// ignored), plus the request proper (objective, `k`, depths, optional
/// deadline).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClusterCall {
    /// Name of the graph to query (a dataset loaded at serve time).
    pub graph: String,
    /// Engine backend ([`EngineKind::name`] form). Every engine string of
    /// protocol v2 decodes to the one engine pools use; the server ignores
    /// it.
    pub engine: EngineKind,
    /// Mask-block width ([`BlockWidth::name`] form). Every width string of
    /// protocol v2 decodes to the one width pools use; the server ignores
    /// it.
    pub width: BlockWidth,
    /// MCP or ACP.
    pub objective: Objective,
    /// Number of clusters.
    pub k: u32,
    /// Depth restriction.
    pub depth: WireDepth,
    /// Per-request wall-clock deadline in microseconds (`Some(0)` is a
    /// valid, deterministically-expired deadline — useful in tests).
    pub deadline_micros: Option<u64>,
}

impl ClusterCall {
    /// The [`ClusterRequest`] this call denotes (deadline attached; the
    /// clock starts when the session's solve starts).
    pub fn to_request(&self) -> ClusterRequest {
        let k = self.k as usize;
        let mut request = match (self.objective, self.depth) {
            (Objective::MinProb, WireDepth::Unlimited) => ClusterRequest::mcp(k),
            (Objective::MinProb, WireDepth::Uniform(d)) => ClusterRequest::mcp_depth(k, d),
            (Objective::AvgProb, WireDepth::Unlimited) => ClusterRequest::acp(k),
            (Objective::AvgProb, WireDepth::Uniform(d)) => ClusterRequest::acp_depth(k, d),
            (Objective::MinProb, WireDepth::Explicit { d_select, d_cover }) => {
                ClusterRequest::mcp(k).with_depths(d_select, d_cover)
            }
            (Objective::AvgProb, WireDepth::Explicit { d_select, d_cover }) => {
                ClusterRequest::acp(k).with_depths(d_select, d_cover)
            }
        };
        if let Some(micros) = self.deadline_micros {
            request = request.with_deadline(Duration::from_micros(micros));
        }
        request
    }
}

/// A client → server frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Solve one clustering request.
    Cluster(ClusterCall),
    /// Report server and per-session statistics, optionally filtered to
    /// one graph.
    Stats {
        /// `Some(name)` restricts the per-session listing to that graph.
        graph: Option<String>,
    },
    /// Health check (since v2): the server echoes `nonce` in a
    /// [`Response::Pong`] without touching any session — connection pools
    /// use it to validate idle connections before reuse.
    Ping {
        /// Opaque value echoed back verbatim.
        nonce: u64,
    },
}

/// An interruption report as it travels over the wire (see
/// [`InterruptReport`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WireInterrupt {
    /// 0 = deadline exceeded, 1 = cancelled.
    pub kind: u8,
    /// [`SamplingPhase`] discriminant (0 = generation … 3 = admission).
    pub phase: u8,
    /// Worlds fully sampled when the solve stopped.
    pub worlds_sampled: u64,
    /// `min-partial` guesses completed before the stop.
    pub guesses_completed: u64,
}

impl WireInterrupt {
    /// Encodes a report.
    pub fn from_report(r: &InterruptReport) -> WireInterrupt {
        WireInterrupt {
            kind: match r.kind {
                Interrupt::DeadlineExceeded => 0,
                Interrupt::Cancelled => 1,
            },
            phase: match r.phase {
                SamplingPhase::Generation => 0,
                SamplingPhase::Sweep => 1,
                SamplingPhase::Labeling => 2,
                SamplingPhase::Admission => 3,
            },
            worlds_sampled: r.worlds_sampled as u64,
            guesses_completed: r.guesses_completed as u64,
        }
    }

    /// Decodes back into a typed report.
    ///
    /// # Errors
    /// [`ProtocolError::Malformed`] on an unknown kind or phase
    /// discriminant.
    pub fn to_report(&self) -> Result<InterruptReport, ProtocolError> {
        let kind = match self.kind {
            0 => Interrupt::DeadlineExceeded,
            1 => Interrupt::Cancelled,
            other => {
                return Err(ProtocolError::Malformed(format!("unknown interrupt kind {other}")))
            }
        };
        let phase = match self.phase {
            0 => SamplingPhase::Generation,
            1 => SamplingPhase::Sweep,
            2 => SamplingPhase::Labeling,
            3 => SamplingPhase::Admission,
            other => {
                return Err(ProtocolError::Malformed(format!("unknown interrupt phase {other}")))
            }
        };
        Ok(InterruptReport {
            kind,
            phase,
            worlds_sampled: self.worlds_sampled as usize,
            guesses_completed: self.guesses_completed as usize,
        })
    }
}

/// A [`SolveResult`] as it travels over the wire. Floats are carried as
/// bit patterns, so a decoded result is **bit-identical** to the solver's.
#[derive(Clone, Debug, PartialEq)]
pub struct WireSolve {
    /// Number of nodes of the graph the clustering partitions.
    pub num_nodes: u32,
    /// Cluster centers, in cluster order.
    pub centers: Vec<u32>,
    /// Cluster index per node; `u32::MAX` = unassigned outlier.
    pub assignment: Vec<u32>,
    /// Estimated connection probability of each node to its center.
    pub assign_probs: Vec<f64>,
    /// The driver's objective estimate.
    pub objective_estimate: f64,
    /// The threshold `q` that produced the clustering.
    pub final_q: f64,
    /// `min-partial` invocations performed.
    pub guesses: u64,
    /// Monte-Carlo samples backing the estimates.
    pub samples_used: u64,
    /// Row-cache counters of this request: hits, top-ups, fulls.
    pub row_cache: [u64; 3],
    /// Engine counters of this request: finalized blocks, finalized
    /// lanes, label queries, mask queries.
    pub engine: [u64; 4],
    /// Server-side solve time in microseconds.
    pub elapsed_micros: u64,
    /// Present iff the solve completed best-effort after an interruption.
    pub interrupt: Option<WireInterrupt>,
}

impl WireSolve {
    /// Encodes a solver result.
    pub fn from_result(r: &SolveResult) -> WireSolve {
        let n = r.clustering.num_nodes();
        let assignment = (0..n)
            .map(|u| r.clustering.cluster_of(NodeId::from_index(u)).map_or(u32::MAX, |c| c as u32))
            .collect();
        WireSolve {
            num_nodes: n as u32,
            centers: r.clustering.centers().iter().map(|c| c.0).collect(),
            assignment,
            assign_probs: r.assign_probs.clone(),
            objective_estimate: r.objective_estimate,
            final_q: r.final_q,
            guesses: r.guesses as u64,
            samples_used: r.samples_used as u64,
            row_cache: [
                r.row_cache.hits as u64,
                r.row_cache.topups as u64,
                r.row_cache.fulls as u64,
            ],
            engine: [
                r.engine.finalized_blocks as u64,
                r.engine.finalized_lanes as u64,
                r.engine.label_queries as u64,
                r.engine.mask_queries as u64,
            ],
            elapsed_micros: r.elapsed.as_micros() as u64,
            interrupt: r.interrupt.as_ref().map(WireInterrupt::from_report),
        }
    }

    /// Reconstructs the typed [`Clustering`], re-validating every
    /// invariant — wire data is untrusted, so a forged payload yields a
    /// typed error, never a panic.
    ///
    /// # Errors
    /// [`ProtocolError::Malformed`] when the parts violate a clustering
    /// invariant.
    pub fn clustering(&self) -> Result<Clustering, ProtocolError> {
        let centers = self.centers.iter().map(|&c| NodeId(c)).collect();
        let assignment = self.assignment.iter().map(|&a| (a != u32::MAX).then_some(a)).collect();
        Clustering::try_new(centers, assignment)
            .map_err(|why| ProtocolError::Malformed(format!("invalid clustering: {why}")))
    }
}

/// One session's row in a [`ServerStats`] listing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SessionEntry {
    /// Graph the session is bound to.
    pub graph: String,
    /// Engine backend name (always `"adaptive"`).
    pub engine: String,
    /// Block width name (always `"256"`).
    pub width: String,
    /// Requests currently executing or queued on the session.
    pub in_flight: u32,
    /// The session's [`SessionStats`](ugraph_cluster::SessionStats) in
    /// its machine-readable `kv_line` form.
    pub kv: String,
}

/// The stats response: server-level counters plus one [`SessionEntry`]
/// per live session.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted since start.
    pub connections: u64,
    /// Cluster requests received.
    pub cluster_requests: u64,
    /// Stats requests received.
    pub stats_requests: u64,
    /// Connections terminated by a protocol error (malformed frame,
    /// version mismatch, oversized length, …).
    pub protocol_errors: u64,
    /// Cluster requests rejected at admission (unknown graph, or the
    /// global budget cannot fit a new session).
    pub admission_rejections: u64,
    /// Cluster requests that exceeded their deadline.
    pub deadline_rejections: u64,
    /// Cluster requests cancelled (shutdown drain included).
    pub cancelled_rejections: u64,
    /// Cluster requests failing with any other solver error.
    pub solve_errors: u64,
    /// Connections terminated because the peer stalled mid-frame past the
    /// server's IO deadline (slow-loris reads or unread responses), so the
    /// worker was reclaimed instead of pinned (since v2).
    pub peer_stalled: u64,
    /// Whole idle sessions evicted under global memory pressure.
    pub sessions_evicted: u64,
    /// Bytes currently charged to the global ledger.
    pub bytes_held: u64,
    /// The global byte ceiling (`None` = unbounded).
    pub bytes_limit: Option<u64>,
    /// Graphs loaded in the catalog, in registration order — present even
    /// when no session exists yet, so clients can discover what to query.
    pub graphs: Vec<String>,
    /// Live sessions.
    pub sessions: Vec<SessionEntry>,
}

/// Typed error codes carried by [`ErrorFrame`]s — stable wire values,
/// documented in `PROTOCOL.md`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u16)]
pub enum ErrorCode {
    /// Handshake version not supported by the server.
    UnsupportedVersion = 1,
    /// The request frame did not decode.
    Malformed = 2,
    /// The request frame announced an out-of-range length.
    Oversized = 3,
    /// Unknown request kind.
    UnknownKind = 4,
    /// The named graph is not loaded on this server.
    UnknownGraph = 5,
    /// Admission rejected: the global memory budget cannot fit a session
    /// for this request.
    AdmissionRejected = 6,
    /// `k` out of range for the graph.
    KOutOfRange = 7,
    /// No full k-clustering above the probability floor.
    NoFullClustering = 8,
    /// Invalid configuration or request parameters.
    InvalidConfig = 9,
    /// The sampling layer failed (invalid depths, injected fault, …).
    Sampling = 10,
    /// The request's deadline passed (report attached).
    DeadlineExceeded = 11,
    /// The solve was cancelled, e.g. by shutdown drain (report attached).
    Cancelled = 12,
    /// The session's worker is gone; retry re-opens it.
    SessionClosed = 13,
    /// The server is shutting down and accepts no new work.
    ShuttingDown = 14,
}

impl ErrorCode {
    /// Parses a wire value.
    pub fn from_u16(v: u16) -> Option<ErrorCode> {
        use ErrorCode::*;
        Some(match v {
            1 => UnsupportedVersion,
            2 => Malformed,
            3 => Oversized,
            4 => UnknownKind,
            5 => UnknownGraph,
            6 => AdmissionRejected,
            7 => KOutOfRange,
            8 => NoFullClustering,
            9 => InvalidConfig,
            10 => Sampling,
            11 => DeadlineExceeded,
            12 => Cancelled,
            13 => SessionClosed,
            14 => ShuttingDown,
            _ => return None,
        })
    }

    /// Whether a retry of the *same* request can succeed. Solves are
    /// idempotent (per-index RNG streams make every re-issue
    /// bit-identical), so the only question is whether the refusal is
    /// transient:
    ///
    /// * [`AdmissionRejected`](ErrorCode::AdmissionRejected) — memory
    ///   pressure passes as other sessions go idle;
    /// * [`SessionClosed`](ErrorCode::SessionClosed) — the retry respawns
    ///   the session (the code's own contract);
    /// * [`ShuttingDown`](ErrorCode::ShuttingDown) — a restarted or
    ///   failed-over server will take the work.
    ///
    /// Everything else is terminal: the request itself is at fault
    /// (malformed, invalid parameters, unknown graph), the solver
    /// genuinely failed, or the deadline already passed — re-sending the
    /// identical bytes cannot change the answer. The retryability column
    /// of the error-code table in `PROTOCOL.md` mirrors this method.
    pub fn is_retryable(self) -> bool {
        matches!(
            self,
            ErrorCode::AdmissionRejected | ErrorCode::SessionClosed | ErrorCode::ShuttingDown
        )
    }
}

/// A typed error response: a stable [`ErrorCode`], a human-readable
/// message, and — for interrupted solves — the [`InterruptReport`] saying
/// how far the solve got before it stopped.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ErrorFrame {
    /// Stable error code.
    pub code: ErrorCode,
    /// Human-readable description.
    pub message: String,
    /// Progress report of an interrupted solve.
    pub interrupt: Option<WireInterrupt>,
}

impl ErrorFrame {
    /// A frame with `code` and `message`, no report.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> ErrorFrame {
        ErrorFrame { code, message: message.into(), interrupt: None }
    }

    /// Maps a solver error onto its wire code, attaching the interrupt
    /// report of deadline/cancellation errors.
    pub fn from_cluster_error(e: &ClusterError) -> ErrorFrame {
        let code = match e {
            ClusterError::KOutOfRange { .. } => ErrorCode::KOutOfRange,
            ClusterError::NoFullClustering { .. } => ErrorCode::NoFullClustering,
            ClusterError::InvalidConfig { .. } => ErrorCode::InvalidConfig,
            ClusterError::Sampling(_) => ErrorCode::Sampling,
            ClusterError::DeadlineExceeded(_) => ErrorCode::DeadlineExceeded,
            ClusterError::Cancelled(_) => ErrorCode::Cancelled,
            ClusterError::SessionClosed => ErrorCode::SessionClosed,
        };
        ErrorFrame {
            code,
            message: e.to_string(),
            interrupt: e.interrupt_report().map(WireInterrupt::from_report),
        }
    }
}

/// A server → client frame.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// A successful solve.
    Cluster(WireSolve),
    /// A stats report.
    Stats(ServerStats),
    /// The echo of a [`Request::Ping`] (since v2).
    Pong {
        /// The nonce of the ping being answered.
        nonce: u64,
    },
    /// A typed error.
    Error(ErrorFrame),
}

// ---------------------------------------------------------------------
// Byte-level helpers
// ---------------------------------------------------------------------

/// Append-only frame builder.
struct FrameWriter {
    buf: Vec<u8>,
}

impl FrameWriter {
    /// Starts a frame of `kind`; the length header is patched by
    /// [`FrameWriter::finish`].
    fn new(kind: u8) -> FrameWriter {
        FrameWriter { buf: vec![0, 0, 0, 0, kind] }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Patches the length header and returns the frame bytes.
    fn finish(mut self) -> Vec<u8> {
        let len = (self.buf.len() - 4) as u32;
        self.buf[..4].copy_from_slice(&len.to_le_bytes());
        self.buf
    }
}

/// Strict payload reader: every read is bounds-checked and
/// [`finish`](FrameCursor::finish) rejects trailing bytes.
struct FrameCursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> FrameCursor<'a> {
    fn new(buf: &'a [u8]) -> FrameCursor<'a> {
        FrameCursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], ProtocolError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len()).ok_or_else(|| {
            ProtocolError::Malformed(format!(
                "truncated payload reading {what} at offset {}",
                self.pos
            ))
        })?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self, what: &str) -> Result<u8, ProtocolError> {
        Ok(self.take(1, what)?[0])
    }

    fn u16(&mut self, what: &str) -> Result<u16, ProtocolError> {
        let b = self.take(2, what)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self, what: &str) -> Result<u32, ProtocolError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, what: &str) -> Result<u64, ProtocolError> {
        let b = self.take(8, what)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    fn f64(&mut self, what: &str) -> Result<f64, ProtocolError> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    fn str(&mut self, what: &str) -> Result<String, ProtocolError> {
        let len = self.u32(what)? as usize;
        // A string cannot be longer than the bytes that remain — checked
        // by `take` — but reject absurd lengths before allocating.
        if len > self.buf.len() {
            return Err(ProtocolError::Malformed(format!(
                "string length {len} for {what} exceeds payload size {}",
                self.buf.len()
            )));
        }
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| ProtocolError::Malformed(format!("non-UTF-8 {what}")))
    }

    /// Bounded element count for a repeated field: each element occupies
    /// at least `min_elem_bytes`, so a count the remaining payload cannot
    /// possibly hold is rejected before any allocation.
    fn count(&mut self, min_elem_bytes: usize, what: &str) -> Result<usize, ProtocolError> {
        let n = self.u32(what)? as usize;
        let remaining = self.buf.len() - self.pos;
        if n.saturating_mul(min_elem_bytes) > remaining {
            return Err(ProtocolError::Malformed(format!(
                "{what} count {n} exceeds remaining payload ({remaining} bytes)"
            )));
        }
        Ok(n)
    }

    fn finish(self) -> Result<(), ProtocolError> {
        if self.pos != self.buf.len() {
            return Err(ProtocolError::Malformed(format!(
                "{} trailing byte(s) after payload",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Codecs
// ---------------------------------------------------------------------

/// Encodes a request into one full frame (header included).
pub fn encode_request(request: &Request) -> Vec<u8> {
    match request {
        Request::Cluster(call) => {
            let mut w = FrameWriter::new(KIND_CLUSTER);
            w.str(&call.graph);
            w.str(call.engine.name());
            w.str(call.width.name());
            w.u8(match call.objective {
                Objective::MinProb => 0,
                Objective::AvgProb => 1,
            });
            w.u32(call.k);
            match call.depth {
                WireDepth::Unlimited => w.u8(0),
                WireDepth::Uniform(d) => {
                    w.u8(1);
                    w.u32(d);
                }
                WireDepth::Explicit { d_select, d_cover } => {
                    w.u8(2);
                    w.u32(d_select);
                    w.u32(d_cover);
                }
            }
            match call.deadline_micros {
                None => w.u8(0),
                Some(micros) => {
                    w.u8(1);
                    w.u64(micros);
                }
            }
            w.finish()
        }
        Request::Stats { graph } => {
            let mut w = FrameWriter::new(KIND_STATS);
            match graph {
                None => w.u8(0),
                Some(name) => {
                    w.u8(1);
                    w.str(name);
                }
            }
            w.finish()
        }
        Request::Ping { nonce } => {
            let mut w = FrameWriter::new(KIND_PING);
            w.u64(*nonce);
            w.finish()
        }
    }
}

/// Decodes a request payload (frame header already stripped).
///
/// # Errors
/// [`ProtocolError::UnknownKind`] / [`ProtocolError::Malformed`]; never
/// panics on hostile input.
pub fn decode_request(kind: u8, payload: &[u8]) -> Result<Request, ProtocolError> {
    let mut c = FrameCursor::new(payload);
    let request = match kind {
        KIND_CLUSTER => {
            let graph = c.str("graph name")?;
            let engine_name = c.str("engine name")?;
            let engine = EngineKind::from_name(&engine_name).ok_or_else(|| {
                ProtocolError::Malformed(format!("unknown engine {engine_name:?}"))
            })?;
            let width_name = c.str("block width")?;
            let width = BlockWidth::from_name(&width_name).ok_or_else(|| {
                ProtocolError::Malformed(format!("unknown block width {width_name:?}"))
            })?;
            let objective = match c.u8("objective")? {
                0 => Objective::MinProb,
                1 => Objective::AvgProb,
                other => {
                    return Err(ProtocolError::Malformed(format!("unknown objective {other}")))
                }
            };
            let k = c.u32("k")?;
            let depth = match c.u8("depth tag")? {
                0 => WireDepth::Unlimited,
                1 => WireDepth::Uniform(c.u32("depth")?),
                2 => {
                    WireDepth::Explicit { d_select: c.u32("d_select")?, d_cover: c.u32("d_cover")? }
                }
                other => {
                    return Err(ProtocolError::Malformed(format!("unknown depth tag {other}")))
                }
            };
            let deadline_micros = match c.u8("deadline flag")? {
                0 => None,
                1 => Some(c.u64("deadline")?),
                other => {
                    return Err(ProtocolError::Malformed(format!("unknown deadline flag {other}")))
                }
            };
            Request::Cluster(ClusterCall {
                graph,
                engine,
                width,
                objective,
                k,
                depth,
                deadline_micros,
            })
        }
        KIND_STATS => {
            let graph = match c.u8("stats filter flag")? {
                0 => None,
                1 => Some(c.str("graph filter")?),
                other => {
                    return Err(ProtocolError::Malformed(format!("unknown stats flag {other}")))
                }
            };
            Request::Stats { graph }
        }
        KIND_PING => Request::Ping { nonce: c.u64("ping nonce")? },
        other => return Err(ProtocolError::UnknownKind(other)),
    };
    c.finish()?;
    Ok(request)
}

fn encode_interrupt(w: &mut FrameWriter, interrupt: &Option<WireInterrupt>) {
    match interrupt {
        None => w.u8(0),
        Some(i) => {
            w.u8(1);
            w.u8(i.kind);
            w.u8(i.phase);
            w.u64(i.worlds_sampled);
            w.u64(i.guesses_completed);
        }
    }
}

fn decode_interrupt(c: &mut FrameCursor<'_>) -> Result<Option<WireInterrupt>, ProtocolError> {
    match c.u8("interrupt flag")? {
        0 => Ok(None),
        1 => {
            let interrupt = WireInterrupt {
                kind: c.u8("interrupt kind")?,
                phase: c.u8("interrupt phase")?,
                worlds_sampled: c.u64("worlds sampled")?,
                guesses_completed: c.u64("guesses completed")?,
            };
            // Reject unknown discriminants at decode time, not first use.
            interrupt.to_report()?;
            Ok(Some(interrupt))
        }
        other => Err(ProtocolError::Malformed(format!("unknown interrupt flag {other}"))),
    }
}

/// Encodes a response into one full frame (header included).
pub fn encode_response(response: &Response) -> Vec<u8> {
    match response {
        Response::Cluster(solve) => {
            let mut w = FrameWriter::new(KIND_CLUSTER_OK);
            w.u32(solve.num_nodes);
            w.u32(solve.centers.len() as u32);
            for &c in &solve.centers {
                w.u32(c);
            }
            for &a in &solve.assignment {
                w.u32(a);
            }
            w.u32(solve.assign_probs.len() as u32);
            for &p in &solve.assign_probs {
                w.f64(p);
            }
            w.f64(solve.objective_estimate);
            w.f64(solve.final_q);
            w.u64(solve.guesses);
            w.u64(solve.samples_used);
            for &v in &solve.row_cache {
                w.u64(v);
            }
            for &v in &solve.engine {
                w.u64(v);
            }
            w.u64(solve.elapsed_micros);
            encode_interrupt(&mut w, &solve.interrupt);
            w.finish()
        }
        Response::Stats(stats) => {
            let mut w = FrameWriter::new(KIND_STATS_OK);
            for v in [
                stats.connections,
                stats.cluster_requests,
                stats.stats_requests,
                stats.protocol_errors,
                stats.admission_rejections,
                stats.deadline_rejections,
                stats.cancelled_rejections,
                stats.solve_errors,
                stats.peer_stalled,
                stats.sessions_evicted,
                stats.bytes_held,
            ] {
                w.u64(v);
            }
            match stats.bytes_limit {
                None => w.u8(0),
                Some(limit) => {
                    w.u8(1);
                    w.u64(limit);
                }
            }
            w.u32(stats.graphs.len() as u32);
            for g in &stats.graphs {
                w.str(g);
            }
            w.u32(stats.sessions.len() as u32);
            for s in &stats.sessions {
                w.str(&s.graph);
                w.str(&s.engine);
                w.str(&s.width);
                w.u32(s.in_flight);
                w.str(&s.kv);
            }
            w.finish()
        }
        Response::Pong { nonce } => {
            let mut w = FrameWriter::new(KIND_PONG);
            w.u64(*nonce);
            w.finish()
        }
        Response::Error(e) => {
            let mut w = FrameWriter::new(KIND_ERROR);
            w.u16(e.code as u16);
            w.str(&e.message);
            encode_interrupt(&mut w, &e.interrupt);
            w.finish()
        }
    }
}

/// Decodes a response payload (frame header already stripped).
///
/// # Errors
/// [`ProtocolError::UnknownKind`] / [`ProtocolError::Malformed`]; never
/// panics on hostile input.
pub fn decode_response(kind: u8, payload: &[u8]) -> Result<Response, ProtocolError> {
    let mut c = FrameCursor::new(payload);
    let response = match kind {
        KIND_CLUSTER_OK => {
            let num_nodes = c.u32("node count")?;
            let k = c.count(4, "center")?;
            let centers = (0..k).map(|_| c.u32("center")).collect::<Result<Vec<_>, _>>()?;
            if num_nodes as usize * 4 > payload.len() {
                return Err(ProtocolError::Malformed(format!(
                    "assignment for {num_nodes} nodes exceeds payload"
                )));
            }
            let assignment =
                (0..num_nodes).map(|_| c.u32("assignment")).collect::<Result<Vec<_>, _>>()?;
            let np = c.count(8, "assign prob")?;
            let assign_probs =
                (0..np).map(|_| c.f64("assign prob")).collect::<Result<Vec<_>, _>>()?;
            let objective_estimate = c.f64("objective estimate")?;
            let final_q = c.f64("final q")?;
            let guesses = c.u64("guesses")?;
            let samples_used = c.u64("samples used")?;
            let row_cache = [c.u64("cache hits")?, c.u64("cache topups")?, c.u64("cache fulls")?];
            let engine = [
                c.u64("finalized blocks")?,
                c.u64("finalized lanes")?,
                c.u64("label queries")?,
                c.u64("mask queries")?,
            ];
            let elapsed_micros = c.u64("elapsed")?;
            let interrupt = decode_interrupt(&mut c)?;
            Response::Cluster(WireSolve {
                num_nodes,
                centers,
                assignment,
                assign_probs,
                objective_estimate,
                final_q,
                guesses,
                samples_used,
                row_cache,
                engine,
                elapsed_micros,
                interrupt,
            })
        }
        KIND_STATS_OK => {
            let mut counters = [0u64; 11];
            for (i, slot) in counters.iter_mut().enumerate() {
                *slot = c.u64(&format!("counter {i}"))?;
            }
            let bytes_limit = match c.u8("limit flag")? {
                0 => None,
                1 => Some(c.u64("limit")?),
                other => {
                    return Err(ProtocolError::Malformed(format!("unknown limit flag {other}")))
                }
            };
            let ng = c.count(4, "graph name")?;
            let graphs = (0..ng).map(|_| c.str("graph name")).collect::<Result<Vec<_>, _>>()?;
            let n = c.count(17, "session entry")?;
            let mut sessions = Vec::with_capacity(n);
            for _ in 0..n {
                sessions.push(SessionEntry {
                    graph: c.str("session graph")?,
                    engine: c.str("session engine")?,
                    width: c.str("session width")?,
                    in_flight: c.u32("session in-flight")?,
                    kv: c.str("session kv")?,
                });
            }
            Response::Stats(ServerStats {
                connections: counters[0],
                cluster_requests: counters[1],
                stats_requests: counters[2],
                protocol_errors: counters[3],
                admission_rejections: counters[4],
                deadline_rejections: counters[5],
                cancelled_rejections: counters[6],
                solve_errors: counters[7],
                peer_stalled: counters[8],
                sessions_evicted: counters[9],
                bytes_held: counters[10],
                bytes_limit,
                graphs,
                sessions,
            })
        }
        KIND_PONG => Response::Pong { nonce: c.u64("pong nonce")? },
        KIND_ERROR => {
            let raw = c.u16("error code")?;
            let code = ErrorCode::from_u16(raw)
                .ok_or_else(|| ProtocolError::Malformed(format!("unknown error code {raw}")))?;
            let message = c.str("error message")?;
            let interrupt = decode_interrupt(&mut c)?;
            Response::Error(ErrorFrame { code, message, interrupt })
        }
        other => return Err(ProtocolError::UnknownKind(other)),
    };
    c.finish()?;
    Ok(response)
}

// ---------------------------------------------------------------------
// Blocking IO
// ---------------------------------------------------------------------

/// Writes one side's 6-byte hello (`MAGIC` + `version`).
///
/// # Errors
/// [`ProtocolError::Io`] on transport failure.
pub fn write_hello(w: &mut impl Write, version: u16) -> Result<(), ProtocolError> {
    let mut hello = [0u8; 6];
    hello[..4].copy_from_slice(&MAGIC);
    hello[4..].copy_from_slice(&version.to_le_bytes());
    w.write_all(&hello)?;
    w.flush()?;
    Ok(())
}

/// Reads the peer's 6-byte hello, returning the version it announced.
///
/// # Errors
/// [`ProtocolError::BadMagic`] when the magic differs;
/// [`ProtocolError::Io`] on transport failure.
pub fn read_hello(r: &mut impl Read) -> Result<u16, ProtocolError> {
    let mut hello = [0u8; 6];
    r.read_exact(&mut hello)?;
    if hello[..4] != MAGIC {
        let mut magic = [0u8; 4];
        magic.copy_from_slice(&hello[..4]);
        return Err(ProtocolError::BadMagic(magic));
    }
    Ok(u16::from_le_bytes([hello[4], hello[5]]))
}

/// Writes one already-encoded frame, honoring two failpoints:
///
/// * [`FaultSite::WireWrite`] — half the frame is written (a torn write)
///   and the injected fault is returned;
/// * [`FaultSite::WireStall`] — half the frame is written, the writer
///   pauses for [`STALL_PAUSE`], then finishes normally. The stall is
///   invisible to the writer (`Ok` is returned) but a peer enforcing an
///   IO deadline shorter than the pause will have hung up in between —
///   exactly the slow-peer scenario the server's stall hardening covers.
///
/// # Errors
/// [`ProtocolError::Fault`] from the torn-write failpoint;
/// [`ProtocolError::Io`] on transport failure.
pub fn write_frame(w: &mut impl Write, frame: &[u8]) -> Result<(), ProtocolError> {
    if let Err(fault) = faults::hit(FaultSite::WireWrite) {
        let torn = frame.len() / 2;
        let _ = w.write_all(&frame[..torn]);
        let _ = w.flush();
        return Err(ProtocolError::Fault(fault));
    }
    if faults::hit(FaultSite::WireStall).is_err() {
        let half = frame.len() / 2;
        w.write_all(&frame[..half])?;
        w.flush()?;
        std::thread::sleep(STALL_PAUSE);
        w.write_all(&frame[half..])?;
        w.flush()?;
        return Ok(());
    }
    w.write_all(frame)?;
    w.flush()?;
    Ok(())
}

/// Reads one frame, returning `(kind, payload)` — or `None` on a clean
/// EOF at a frame boundary (the peer closed the connection). Carries the
/// [`FaultSite::WireRead`] failpoint (symmetric to the torn-write one in
/// [`write_frame`]): a scheduled hit fails the read before any byte is
/// consumed, simulating a receive path dying under the reader.
///
/// # Errors
/// [`ProtocolError::Fault`] from the failpoint;
/// [`ProtocolError::Oversized`] for an announced length outside
/// `1..=`[`MAX_FRAME_LEN`] (nothing is allocated);
/// [`ProtocolError::Io`] for transport failures, including EOF inside a
/// frame.
pub fn read_frame(r: &mut impl Read) -> Result<Option<(u8, Vec<u8>)>, ProtocolError> {
    faults::hit(FaultSite::WireRead).map_err(ProtocolError::Fault)?;
    let mut header = [0u8; 4];
    // Distinguish "peer closed between frames" from "died mid-frame".
    let mut got = 0;
    while got < header.len() {
        match r.read(&mut header[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => {
                return Err(ProtocolError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "EOF inside frame header",
                )))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(ProtocolError::Io(e)),
        }
    }
    let len = u32::from_le_bytes(header);
    if len == 0 || len > MAX_FRAME_LEN {
        return Err(ProtocolError::Oversized(len));
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body)?;
    let kind = body[0];
    body.drain(..1);
    Ok(Some((kind, body)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_call() -> ClusterCall {
        ClusterCall {
            graph: "krogan-like".into(),
            engine: EngineKind::Adaptive,
            width: BlockWidth::W256,
            objective: Objective::AvgProb,
            k: 7,
            depth: WireDepth::Explicit { d_select: 2, d_cover: 5 },
            deadline_micros: Some(1_500_000),
        }
    }

    fn roundtrip_request(request: &Request) -> Request {
        let frame = encode_request(request);
        let len = u32::from_le_bytes([frame[0], frame[1], frame[2], frame[3]]) as usize;
        assert_eq!(len, frame.len() - 4);
        decode_request(frame[4], &frame[5..]).unwrap()
    }

    fn roundtrip_response(response: &Response) -> Response {
        let frame = encode_response(response);
        decode_response(frame[4], &frame[5..]).unwrap()
    }

    #[test]
    fn requests_roundtrip() {
        for request in [
            Request::Cluster(sample_call()),
            Request::Cluster(ClusterCall {
                depth: WireDepth::Unlimited,
                deadline_micros: None,
                objective: Objective::MinProb,
                ..sample_call()
            }),
            Request::Cluster(ClusterCall { depth: WireDepth::Uniform(3), ..sample_call() }),
            Request::Stats { graph: None },
            Request::Stats { graph: Some("collins".into()) },
        ] {
            assert_eq!(roundtrip_request(&request), request);
        }
    }

    #[test]
    fn retired_scalar_engine_name_decodes_as_adaptive() {
        // Clients may still send the retired `scalar` engine name: it
        // decodes as the adaptive engine, whose answers are identical.
        let frame = encode_request(&Request::Cluster(sample_call()));
        let name = EngineKind::Adaptive.name().as_bytes();
        let at = frame.windows(name.len()).position(|w| w == name).unwrap();
        let mut payload = frame[5..at - 4].to_vec();
        payload.extend_from_slice(&6u32.to_le_bytes());
        payload.extend_from_slice(b"scalar");
        payload.extend_from_slice(&frame[at + name.len()..]);
        assert_eq!(decode_request(frame[4], &payload).unwrap(), Request::Cluster(sample_call()));
    }

    #[test]
    fn every_v2_width_and_engine_alias_decodes_to_one_call() {
        // Protocol v2 clients may send any of the retired widths and the
        // retired engine names: each decodes to the same call.
        let decode = |engine: &str, width: &str| {
            let mut w = FrameWriter::new(KIND_CLUSTER);
            w.str("krogan-like");
            w.str(engine);
            w.str(width);
            w.u8(1); // ACP
            w.u32(7);
            w.u8(0); // unlimited depth
            w.u8(0); // no deadline
            let frame = w.finish();
            decode_request(frame[4], &frame[5..])
        };
        let want = Request::Cluster(ClusterCall {
            depth: WireDepth::Unlimited,
            deadline_micros: None,
            ..sample_call()
        });
        for width in ["64", "256", "512"] {
            for engine in ["adaptive", "bitparallel", "scalar"] {
                assert_eq!(decode(engine, width).unwrap(), want, "engine {engine}, width {width}");
            }
        }
        assert!(matches!(decode("adaptive", "128"), Err(ProtocolError::Malformed(_))));
    }

    #[test]
    fn responses_roundtrip_bit_identically() {
        let solve = WireSolve {
            num_nodes: 5,
            centers: vec![0, 3],
            assignment: vec![0, 0, 0, 1, u32::MAX],
            assign_probs: vec![1.0, 0.25, f64::MIN_POSITIVE, 0.75, 0.0],
            objective_estimate: 0.123_456_789_012_345_67,
            final_q: 0.5,
            guesses: 9,
            samples_used: 512,
            row_cache: [1, 2, 3],
            engine: [4, 5, 6, 7],
            elapsed_micros: 123_456,
            interrupt: Some(WireInterrupt {
                kind: 0,
                phase: 1,
                worlds_sampled: 64,
                guesses_completed: 2,
            }),
        };
        let Response::Cluster(back) = roundtrip_response(&Response::Cluster(solve.clone())) else {
            panic!("kind changed in roundtrip")
        };
        assert_eq!(back, solve);
        assert_eq!(back.objective_estimate.to_bits(), solve.objective_estimate.to_bits());
        let c = back.clustering().unwrap();
        assert_eq!(c.num_clusters(), 2);
        assert_eq!(c.cluster_of(NodeId(4)), None);

        let stats = ServerStats {
            connections: 3,
            cluster_requests: 2,
            bytes_limit: Some(1 << 20),
            graphs: vec!["collins".into(), "krogan".into()],
            sessions: vec![SessionEntry {
                graph: "collins".into(),
                engine: "adaptive".into(),
                width: "256".into(),
                in_flight: 1,
                kv: "requests=2 evaluations=0".into(),
            }],
            ..ServerStats::default()
        };
        assert_eq!(roundtrip_response(&Response::Stats(stats.clone())), Response::Stats(stats));

        let error = ErrorFrame {
            code: ErrorCode::DeadlineExceeded,
            message: "solve deadline exceeded during sweep".into(),
            interrupt: Some(WireInterrupt {
                kind: 0,
                phase: 1,
                worlds_sampled: 100,
                guesses_completed: 1,
            }),
        };
        assert_eq!(roundtrip_response(&Response::Error(error.clone())), Response::Error(error));
    }

    #[test]
    fn cluster_call_maps_onto_request_constructors() {
        let call = ClusterCall {
            depth: WireDepth::Uniform(4),
            deadline_micros: None,
            objective: Objective::MinProb,
            ..sample_call()
        };
        assert_eq!(call.to_request(), ClusterRequest::mcp_depth(7, 4));
        let call = ClusterCall { deadline_micros: Some(2_000_000), ..call };
        assert_eq!(
            call.to_request(),
            ClusterRequest::mcp_depth(7, 4).with_deadline(Duration::from_secs(2))
        );
        assert_eq!(
            sample_call().to_request(),
            ClusterRequest::acp(7)
                .with_depths(2, 5)
                .with_deadline(Duration::from_micros(1_500_000))
        );
    }

    #[test]
    fn malformed_payloads_are_typed_errors() {
        // Truncation at every prefix length of a valid frame.
        let frame = encode_request(&Request::Cluster(sample_call()));
        for cut in 0..frame.len() - 5 {
            let r = decode_request(frame[4], &frame[5..5 + cut]);
            assert!(r.is_err(), "prefix of {cut} bytes must not decode");
        }
        // Trailing garbage.
        let mut long = frame[5..].to_vec();
        long.push(0xAB);
        assert!(matches!(decode_request(frame[4], &long), Err(ProtocolError::Malformed(_))));
        // Unknown kind.
        assert!(matches!(decode_request(0x77, &[]), Err(ProtocolError::UnknownKind(0x77))));
        // Absurd string length does not allocate or panic.
        let mut evil = Vec::new();
        evil.extend_from_slice(&u32::MAX.to_le_bytes());
        evil.extend_from_slice(b"hi");
        assert!(decode_request(KIND_CLUSTER, &evil).is_err());
    }

    #[test]
    fn forged_clusterings_are_rejected_not_panicked() {
        let mut solve = WireSolve {
            num_nodes: 3,
            centers: vec![0, 0], // duplicate center
            assignment: vec![0, 1, 1],
            assign_probs: vec![1.0; 3],
            objective_estimate: 0.5,
            final_q: 0.5,
            guesses: 1,
            samples_used: 8,
            row_cache: [0; 3],
            engine: [0; 4],
            elapsed_micros: 1,
            interrupt: None,
        };
        assert!(solve.clustering().is_err());
        solve.centers = vec![0, 9]; // out-of-bounds center
        assert!(solve.clustering().is_err());
        solve.centers = vec![0, 1];
        solve.assignment = vec![0, 1, 7]; // nonexistent cluster
        assert!(solve.clustering().is_err());
    }

    #[test]
    fn frame_io_roundtrips_and_rejects_oversize() {
        let frame = encode_request(&Request::Stats { graph: None });
        let mut wire = Vec::new();
        write_frame(&mut wire, &frame).unwrap();
        let mut r = &wire[..];
        let (kind, payload) = read_frame(&mut r).unwrap().unwrap();
        assert_eq!(kind, KIND_STATS);
        assert_eq!(decode_request(kind, &payload).unwrap(), Request::Stats { graph: None });
        // Clean EOF at a boundary.
        assert!(read_frame(&mut r).unwrap().is_none());
        // Oversized header is rejected without allocating.
        let huge = (MAX_FRAME_LEN + 1).to_le_bytes();
        assert!(matches!(read_frame(&mut &huge[..]), Err(ProtocolError::Oversized(_))));
        // Zero-length frame is invalid.
        let zero = 0u32.to_le_bytes();
        assert!(matches!(read_frame(&mut &zero[..]), Err(ProtocolError::Oversized(0))));
    }

    #[test]
    fn wire_write_failpoint_tears_the_frame() {
        use ugraph_sampling::FaultPlan;
        let frame = encode_request(&Request::Stats { graph: None });
        let _guard = faults::install(FaultPlan::new().fail_at(FaultSite::WireWrite, 1));
        let mut wire = Vec::new();
        let err = write_frame(&mut wire, &frame).unwrap_err();
        assert!(matches!(err, ProtocolError::Fault(_)));
        assert_eq!(wire.len(), frame.len() / 2, "torn write leaves half a frame");
        // The next write succeeds and a reader sees the torn bytes as a
        // broken stream, not a panic.
        let mut wire2 = Vec::new();
        write_frame(&mut wire2, &frame).unwrap();
        assert_eq!(wire2, frame);
        assert!(read_frame(&mut &wire[..]).is_err() || wire.len() < 4);
    }
}
