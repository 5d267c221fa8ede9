//! # ugraph — clustering uncertain graphs
//!
//! A from-scratch Rust implementation of *Clustering Uncertain Graphs*
//! (Ceccarello, Fantozzi, Pietracaprina, Pucci, Vandin — VLDB 2017),
//! including the **MCP** and **ACP** approximation algorithms, the
//! Monte-Carlo reliability oracles they build on, the baselines they are
//! evaluated against (MCL, GMM, KPT), synthetic stand-ins for the paper's
//! datasets, and the full evaluation-metric suite.
//!
//! ## Crate map
//!
//! | module (re-export) | crate (directory) | contents |
//! |---|---|---|
//! | [`graph`] | `ugraph-graph` (`crates/graph`) | uncertain-graph substrate: CSR, union-find, BFS/Dijkstra, worlds, I/O |
//! | [`sampling`] | `ugraph-sampling` (`crates/sampling`) | possible-world sampling, progressive pools, exact + Monte-Carlo oracles |
//! | [`cluster`] | `ugraph-cluster` (`crates/core`) | **the paper's contribution**: `min-partial`, MCP, ACP, depth variants |
//! | [`baselines`] | `ugraph-baselines` (`crates/baselines`) | MCL, GMM (k-center), KPT comparators |
//! | [`datasets`] | `ugraph-datasets` (`crates/datasets`) | Collins/Gavin/Krogan/DBLP-like generators + planted ground truth |
//! | [`metrics`] | `ugraph-metrics` (`crates/metrics`) | `p_min`/`p_avg`, inner/outer-AVPR, TPR/FPR |
//! | [`server`] | `ugraph-server` (`crates/server`) | serve mode: session registry, binary wire protocol, global memory admission |
//!
//! ## Quickstart
//!
//! ```
//! use ugraph::prelude::*;
//!
//! // An uncertain graph: two reliable triangles, one flaky bridge.
//! let mut b = GraphBuilder::new(6);
//! for (u, v) in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)] {
//!     b.add_edge(u, v, 0.9).unwrap();
//! }
//! b.add_edge(2, 3, 0.05).unwrap();
//! let g = b.build().unwrap();
//!
//! // Cluster into k = 2 parts maximizing the minimum connection
//! // probability of a node to its cluster center.
//! let result = mcp(&g, 2, &ClusterConfig::default()).unwrap();
//! assert_eq!(result.clustering.num_clusters(), 2);
//! assert!(result.min_prob_estimate > 0.8);
//!
//! // Many requests on one graph? Hold a session: sampled worlds and row
//! // caches carry across requests, each one bit-identical to its
//! // one-shot counterpart.
//! let mut session = UgraphSession::new(&g, ClusterConfig::default()).unwrap();
//! for k in 2..=4 {
//!     let r = session.solve(ClusterRequest::mcp(k)).unwrap();
//!     assert_eq!(r.clustering.num_clusters(), k);
//! }
//! assert!(session.stats().row_cache.hits + session.stats().row_cache.topups > 0);
//! ```
//!
//! See `examples/` for full scenarios (PPI complex prediction,
//! collaboration networks, oracle validation, schedule tuning) and
//! `crates/bench` for the harness that regenerates every table and figure
//! of the paper's evaluation section.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code must surface failures as typed errors, not panics; tests,
// benches, and doctests (separate crates / cfg(test) builds) may unwrap.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub use ugraph_baselines as baselines;
pub use ugraph_cluster as cluster;
pub use ugraph_datasets as datasets;
pub use ugraph_graph as graph;
pub use ugraph_metrics as metrics;
pub use ugraph_sampling as sampling;
pub use ugraph_server as server;

pub mod util;

/// Everything a typical application needs, in one import.
pub mod prelude {
    pub use ugraph_baselines::{gmm, kpt, mcl, KptConfig, MclConfig};
    pub use ugraph_cluster::{
        acp, acp_depth, mcp, mcp_depth, AcpInvocation, AcpResult, ClusterConfig, ClusterError,
        ClusterRequest, Clustering, EngineKind, EvalQuality, GuessStrategy, McpResult, Objective,
        SessionStats, SolveResult, UgraphSession,
    };
    pub use ugraph_datasets::{DatasetSpec, GeneratedDataset, ProbDistribution};
    pub use ugraph_graph::{
        largest_connected_component, DedupPolicy, EdgeId, GraphBuilder, GraphError, NodeId,
        UncertainGraph,
    };
    pub use ugraph_metrics::{avpr, clustering_quality, confusion, depth_clustering_quality};
    pub use ugraph_sampling::{BitParallelPool, ExactOracle, SampleSchedule, WorldEngine};
    pub use ugraph_server::{
        Client, ClientPool, ClusterCall, RetryPolicy, Server, ServerConfig, SessionRegistry,
        WireDepth,
    };
}
