//! # ugraph-sampling — possible-world sampling and reliability oracles
//!
//! Monte-Carlo machinery for estimating **connection probabilities**
//! (two-terminal reliabilities) on uncertain graphs, as required by the
//! clustering algorithms of *Clustering Uncertain Graphs* (Ceccarello et
//! al., VLDB 2017, §2 and §4).
//!
//! Exact computation of `Pr(u ~ v)` is #P-complete, so the paper estimates
//! it by sampling `r` independent possible worlds `G_1, …, G_r` and counting
//! in how many of them `u` and `v` are connected (Eq. 3). This crate
//! provides:
//!
//! * deterministic, thread-count-independent [`WorldSampler`]s — sample `i`
//!   is always generated from the same per-index RNG stream;
//! * the [`WorldEngine`] backend seam and its implementation
//!   [`BitParallelPool`]: blocks of 256 worlds as
//!   structure-of-arrays edge masks, queried by mask-propagating
//!   multi-world BFS — one traversal answers a whole block, for plain and
//!   for **depth-limited** d-connection probabilities (paper §3.4). While
//!   its memory budget can keep them, it caches per-block component
//!   labels, so repeated unlimited queries run in time proportional to
//!   the size of the center's components, not `n·r`; labelled and
//!   mask-swept blocks return identical counts;
//! * [`ExactOracle`]: exhaustive possible-world enumeration for small
//!   graphs, used to validate the estimators and for tiny-instance
//!   optimality tests; it implements [`Oracle`];
//! * sample-size [`bounds`]: the `(ε, δ)` bound of Eq. 4 and the progressive
//!   schedules of Eq. 9 / Eq. 10, plus the paper's *practical* 50-sample
//!   starting schedule (§5);
//! * the [`Oracle`] trait consumed by the clustering algorithms, with
//!   its Monte-Carlo implementation [`McOracle`] built on the engine seam;
//! * the parallel-dispatch and finalization [`tuning`] heuristics;
//! * sharded, memory-budgeted storage ([`budget`]): every pool
//!   allocates in [`SHARD_WORLDS`]-world shards charged against a shared
//!   [`MemoryBudget`]; under pressure, least-recently-used shards are
//!   evicted and later regenerated **bit-identically** from their
//!   per-index RNG streams;
//! * cooperative interruption ([`interrupt`]): a [`RunBudget`] of
//!   wall-clock deadlines and shareable [`CancelToken`]s, polled through
//!   a [`RunState`] at shard/block checkpoints in generation, sweeps,
//!   and label finalization — one relaxed atomic load per block, results
//!   bit-identical whenever no interruption fires;
//! * deterministic failpoints ([`faults`], always compiled in): a
//!   [`FaultPlan`] fails the nth shard regeneration, pool growth, dataset
//!   read, or row-cache admission with a typed
//!   [`SamplingError::FaultInjected`] so tests can assert the error paths
//!   roll back cleanly.
//!
//! ## Example: estimating a reliability
//!
//! ```
//! use ugraph_graph::{GraphBuilder, NodeId};
//! use ugraph_sampling::{BitParallelPool, ExactOracle, WorldEngine};
//!
//! let mut b = GraphBuilder::new(3);
//! b.add_edge(0, 1, 0.5).unwrap();
//! b.add_edge(1, 2, 0.5).unwrap();
//! let g = b.build().unwrap();
//!
//! // Exact: Pr(0 ~ 2) = 0.25 (both edges must exist).
//! let exact = ExactOracle::new(&g).unwrap();
//! assert!((exact.pair_probability(NodeId(0), NodeId(2)) - 0.25).abs() < 1e-12);
//!
//! // Monte-Carlo converges to the same value.
//! let mut pool = BitParallelPool::<4>::new_adaptive(&g, 42, 1);
//! pool.ensure(4000);
//! let est = pool.pair_estimate(NodeId(0), NodeId(2));
//! assert!((est - 0.25).abs() < 0.05);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code must surface failures as typed errors, not panics; tests,
// benches, and doctests (separate crates / cfg(test) builds) may unwrap.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod bounds;
pub mod budget;
pub mod engine;
pub mod error;
pub mod exact;
pub mod faults;
pub mod interrupt;
pub mod oracle;
pub mod pool;
pub mod queries;
pub mod rng;
pub mod tuning;
pub mod world;

pub use bounds::{harmonic, SampleSchedule};
pub use budget::{MemoryBudget, MemoryStats};
pub use engine::{BlockWidth, EngineKind, EngineStats, WorldEngine, DEPTH_UNLIMITED};
pub use error::{SamplingError, SamplingPhase};
pub use exact::ExactOracle;
pub use faults::{FaultPlan, FaultSite};
pub use interrupt::{CancelToken, Interrupt, RunBudget, RunState};
pub use oracle::{DepthMcOracle, McOracle, Oracle, RowCacheStats};
pub use pool::{BitParallelPool, SHARD_WORLDS};
pub use queries::{
    most_reliable_source, quality_from_counts, reliability_knn, reliability_knn_within,
    SourceObjective,
};
pub use rng::sample_rng;
pub use world::WorldSampler;
