//! # ugraph-server — the network front end of the solver stack
//!
//! Serve mode for uncertain-graph clustering (*Clustering Uncertain
//! Graphs*, Ceccarello et al., VLDB 2017): long-lived graphs answer many
//! clustering queries, which is precisely the read-mostly, session-
//! amortized shape [`UgraphSession`](ugraph_cluster::UgraphSession)
//! optimizes. This crate puts a TCP socket in front of it:
//!
//! * [`protocol`] — a versioned, length-prefixed **binary wire protocol**
//!   (magic + version handshake, typed request/response frames,
//!   hand-serialized with no external dependency, documented in the
//!   repository's `PROTOCOL.md`);
//! * [`registry`] — the [`SessionRegistry`]: one
//!   [`SessionHandle`](ugraph_cluster::SessionHandle) per
//!   `(graph, engine)` shape, requests serialized per session but
//!   parallel across sessions, and admission + LRU eviction of whole
//!   *idle* sessions under one global
//!   [`MemoryBudget`](ugraph_sampling::MemoryBudget) — evicted sessions
//!   are respawned on demand and, thanks to per-index RNG streams, answer
//!   **bit-identically**;
//! * [`server`] — a pure-`std` blocking [`Server`]: fixed worker-thread
//!   pool over a `TcpListener` (no async runtime — dependencies are
//!   vendored offline), per-request deadlines wired into
//!   [`ClusterRequest::with_deadline`](ugraph_cluster::ClusterRequest::with_deadline),
//!   and a server-owned [`CancelToken`](ugraph_cluster::CancelToken)
//!   fan-out so shutdown drains in-flight solves cooperatively and
//!   responds with their
//!   [`InterruptReport`](ugraph_cluster::InterruptReport) instead of
//!   dropping connections;
//! * [`client`] — a small blocking [`Client`] used by the `ugraph client`
//!   subcommand and the loopback test suites;
//! * [`retry`] — the [`RetryPolicy`]: deterministic exponential backoff
//!   with seeded jitter, a cumulative retry budget, and a
//!   retryable-vs-terminal classification of every failure, all
//!   min-composed with the request deadline (retrying is safe because
//!   wire answers are bit-identical and solves idempotent);
//! * [`pool`] — the [`ClientPool`]: lazily-dialed, `Ping`-health-checked
//!   connections with transparent reconnect-on-failure, driving requests
//!   under the retry policy.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code must surface failures as typed errors, not panics; tests,
// benches, and doctests (separate crates / cfg(test) builds) may unwrap.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod client;
pub mod pool;
pub mod protocol;
pub mod registry;
pub mod retry;
pub mod server;

pub use client::Client;
pub use pool::ClientPool;
pub use protocol::{
    ClusterCall, ErrorCode, ErrorFrame, ProtocolError, Request, Response, ServerStats,
    SessionEntry, WireDepth, WireSolve, PROTOCOL_VERSION,
};
pub use registry::{Lease, RegistryConfig, RegistryError, SessionKey, SessionRegistry};
pub use retry::{RetryError, RetryPolicy, RetryReport};
pub use server::{RunningServer, Server, ServerConfig, ShutdownHandle};
