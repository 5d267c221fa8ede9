//! # ugraph-metrics — evaluation metrics of the paper's experiments
//!
//! Implements every measurement reported in §5 of *Clustering Uncertain
//! Graphs* (VLDB 2017):
//!
//! * [`quality`] — `p_min` and `p_avg`, the minimum/average connection
//!   probability of nodes to their cluster centers (Figure 1), estimated
//!   over a fresh Monte-Carlo sample pool (so an algorithm is never graded
//!   on its own training samples). The pool counts them with its
//!   members-only kernel, `BitParallelPool::assignment_counts`;
//! * [`avpr()`](avpr::avpr) — the **inner** and **outer Average Vertex Pairwise
//!   Reliability** (Figure 2): the average connection probability over
//!   same-cluster and cross-cluster node pairs respectively. Computed per
//!   sample from component/cluster contingency counts, tallied densely by
//!   component label through the cluster member lists, in `O(n)` per
//!   sample — not by enumerating the `Θ(n²)` pairs;
//! * [`prediction`] — the confusion matrix of co-clustered protein pairs
//!   against ground-truth complexes, with TPR/FPR (Table 2).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code must surface failures as typed errors, not panics; tests,
// benches, and doctests (separate crates / cfg(test) builds) may unwrap.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod avpr;
pub mod prediction;
pub mod quality;
pub mod report;

pub use avpr::{avpr, Avpr};
pub use prediction::{confusion, ConfusionMatrix};
pub use quality::{clustering_quality, Quality};
pub use report::Table;
