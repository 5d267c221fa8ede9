//! # ugraph-graph — uncertain-graph substrate
//!
//! Deterministic and uncertain graph data structures underpinning the
//! clustering algorithms of *Clustering Uncertain Graphs* (Ceccarello,
//! Fantozzi, Pietracaprina, Pucci, Vandin — VLDB 2017).
//!
//! An **uncertain graph** `G = (V, E, p : E → (0, 1])` is an undirected
//! graph where each edge `e` exists independently with probability `p(e)`.
//! `G` induces a probability space whose outcomes — *possible worlds* — are
//! the subgraphs of `G` obtained by keeping each edge independently with its
//! probability.
//!
//! This crate provides:
//!
//! * [`UncertainGraph`] — a compact CSR representation with per-edge
//!   probabilities, built through [`GraphBuilder`];
//! * [`WorldView`] — a zero-copy deterministic view of one possible world,
//!   defined by an edge [`Bitset`];
//! * classic machinery used by the algorithms upstream: [`UnionFind`],
//!   BFS/DFS [`traversal`], Dijkstra [`shortest_path`] on `ln(1/p)` weights,
//!   induced-[`subgraph`] extraction, and a plain-text edge-list [`io`]
//!   format.
//!
//! Everything is implemented from scratch on `std` only; the crate has no
//! runtime dependencies.
//!
//! ## Quick example
//!
//! ```
//! use ugraph_graph::{GraphBuilder, NodeId};
//!
//! let mut b = GraphBuilder::new(4);
//! b.add_edge(0, 1, 0.9).unwrap();
//! b.add_edge(1, 2, 0.5).unwrap();
//! b.add_edge(2, 3, 0.1).unwrap();
//! let g = b.build().unwrap();
//!
//! assert_eq!(g.num_nodes(), 4);
//! assert_eq!(g.num_edges(), 3);
//! assert_eq!(g.degree(NodeId(1)), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code must surface failures as typed errors, not panics; tests,
// benches, and doctests (separate crates / cfg(test) builds) may unwrap.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod bitset;
pub mod builder;
pub mod csr;
pub mod error;
pub mod ids;
pub mod io;
pub mod multiworld;
pub mod shortest_path;
pub mod stats;
pub mod subgraph;
pub mod traversal;
pub mod uncertain;
pub mod union_find;
pub mod view;

pub use bitset::Bitset;
pub use builder::GraphBuilder;
pub use csr::Csr;
pub use error::GraphError;
pub use ids::{EdgeId, NodeId};
pub use multiworld::{Mask, MultiWorldBfs, LANES};
pub use shortest_path::{dijkstra, MultiSourceDijkstra};
pub use stats::GraphStats;
pub use subgraph::{induced_subgraph, largest_connected_component, Subgraph};
pub use traversal::{bfs_distances, connected_components, Adjacency, DepthBfs};
pub use uncertain::UncertainGraph;
pub use union_find::UnionFind;
pub use view::WorldView;
