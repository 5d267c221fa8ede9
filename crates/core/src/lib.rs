//! # ugraph-cluster — clustering uncertain graphs with provable guarantees
//!
//! This crate is the primary contribution of *Clustering Uncertain Graphs*
//! (Ceccarello, Fantozzi, Pietracaprina, Pucci, Vandin — VLDB 2017):
//! approximation algorithms for partitioning the nodes of an uncertain
//! graph into `k` clusters around distinguished **centers** so as to
//! maximize
//!
//! * the **minimum** connection probability of any node to its cluster
//!   center (**MCP** — the k-center analogue, [`mcp()`](mcp::mcp)), or
//! * the **average** connection probability of the nodes to their cluster
//!   centers (**ACP** — the k-median analogue, [`acp()`](acp::acp)),
//!
//! where the connection probability `Pr(u ~ v)` is the probability that `u`
//! and `v` are connected in a random possible world. Both algorithms build
//! on the [`min_partial()`](min_partial::min_partial) primitive (Algorithm 1), which covers a maximal
//! set of nodes at a probability threshold `q`, embedded in geometric
//! guessing schedules over `q` (Algorithms 2 and 3). Depth-limited variants
//! ([`mcp_depth`], [`acp_depth`]) restrict the paths contributing to
//! connection probabilities to a maximum length `d` (paper §3.4,
//! Algorithm 4).
//!
//! Guarantees (with exact probabilities): MCP achieves minimum connection
//! probability `≥ p²_opt-min/(1+γ)` (Theorem 3); ACP achieves average
//! connection probability `≥ (p_opt-avg/((1+γ)H(n)))³` (Theorem 4). With
//! Monte-Carlo estimation the bounds degrade by a `(1−ε)` factor with high
//! probability (Theorems 7 and 8). The MCP *decision* problem is NP-hard
//! even given an oracle (Theorem 2); the [`hardness`] module contains the
//! constructive Set-Cover reduction used in that proof.
//!
//! ## Quickstart
//!
//! ```
//! use ugraph_graph::GraphBuilder;
//! use ugraph_cluster::{mcp, ClusterConfig};
//!
//! // Two reliable communities joined by one flaky edge.
//! let mut b = GraphBuilder::new(6);
//! for (u, v) in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)] {
//!     b.add_edge(u, v, 0.9).unwrap();
//! }
//! b.add_edge(2, 3, 0.05).unwrap();
//! let g = b.build().unwrap();
//!
//! let result = mcp(&g, 2, &ClusterConfig::default()).unwrap();
//! let c = &result.clustering;
//! assert_eq!(c.num_clusters(), 2);
//! // The flaky bridge separates the two triangles.
//! assert_eq!(c.cluster_of_u32(0), c.cluster_of_u32(2));
//! assert_eq!(c.cluster_of_u32(3), c.cluster_of_u32(5));
//! assert_ne!(c.cluster_of_u32(0), c.cluster_of_u32(3));
//! ```
//!
//! Running several requests on one graph (a k-sweep, depth comparisons,
//! metric re-evaluation)? Hold a [`UgraphSession`] instead of calling the
//! free functions repeatedly: each `session.solve(ClusterRequest::mcp(k))`
//! is bit-identical to the matching one-shot call, but the sampled worlds
//! and cached probability rows carry over between requests.
//!
//! ```
//! use ugraph_graph::GraphBuilder;
//! use ugraph_cluster::{ClusterConfig, ClusterRequest, UgraphSession};
//!
//! let mut b = GraphBuilder::new(6);
//! for (u, v) in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)] {
//!     b.add_edge(u, v, 0.9).unwrap();
//! }
//! b.add_edge(2, 3, 0.05).unwrap();
//! let g = b.build().unwrap();
//!
//! let mut session = UgraphSession::new(&g, ClusterConfig::default()).unwrap();
//! for k in 2..=4 {
//!     let r = session.solve(ClusterRequest::mcp(k)).unwrap();
//!     assert_eq!(r.clustering.num_clusters(), k);
//! }
//! assert_eq!(session.stats().requests, 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code must surface failures as typed errors, not panics; tests,
// benches, and doctests (separate crates / cfg(test) builds) may unwrap.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod acp;
pub mod brute;
pub mod clustering;
pub mod config;
mod driver;
pub mod error;
pub mod handle;
pub mod hardness;
pub mod mcp;
pub mod min_partial;
pub mod objectives;
pub mod request;
pub mod session;

pub use acp::{acp, acp_depth, acp_with_oracle, AcpResult};
pub use clustering::{Clustering, PartialClustering};
pub use config::{AcpInvocation, ClusterConfig, DegradeMode, GuessStrategy};
pub use error::{ClusterError, InterruptReport};
pub use handle::SessionHandle;
pub use mcp::{mcp, mcp_depth, mcp_with_oracle, McpResult};
pub use min_partial::{min_partial, min_partial_with, MinPartialParams, MinPartialWorkspace};
pub use objectives::{avg_prob, min_prob};
pub use request::{ClusterRequest, Objective, SolveResult};
pub use session::{EvalQuality, RequestRecord, SessionStats, UgraphSession};
pub use ugraph_sampling::{
    CancelToken, EngineKind, Interrupt, RowCacheStats, SamplingError, SamplingPhase,
};
