//! [`UgraphSession`] — a graph-bound solver that amortizes sampled state
//! across many clustering requests.
//!
//! The MCP/ACP drivers are rarely run once: real workloads sweep `k`,
//! compare depth variants, and re-evaluate metrics on the *same* uncertain
//! graph. The one-shot free functions ([`crate::mcp()`](crate::mcp::mcp)
//! and friends) construct a fresh engine per call, resample the world pool
//! from scratch, and discard the oracle's row cache on return. A session
//! keeps all of that alive:
//!
//! * one **engine + grow-only pool per request shape** (seeded exactly as
//!   the one-shot entry points seed theirs), so a k-sweep's later requests
//!   reuse every world the earlier ones sampled;
//! * the oracles' **incremental row caches** carry across requests —
//!   grow-only pools mean cached integer rows are never invalid, so later
//!   requests start warm;
//! * per-request **bit-identity** with the one-shot functions: each
//!   request re-runs the schedule over an *active sample window* that
//!   contains exactly the worlds a fresh oracle would have drawn (see
//!   [`Oracle::begin_request`]), so `session.solve(ClusterRequest::mcp(k))`
//!   returns the same clustering, probabilities, and guess trace as
//!   `mcp(&g, k, &config)` — only faster;
//! * one shared **evaluation pool** for [`UgraphSession::evaluate`],
//!   [`UgraphSession::evaluate_depth`] and the `ugraph-metrics` quality
//!   functions, replacing the ad-hoc pools callers used to build;
//! * cumulative [`SessionStats`]: worlds held, rows served per cache
//!   tier, and per-request timings.
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
//! // A k-sweep through one session: later requests reuse the sampled
//! // worlds and cached rows of the earlier ones.
//! for k in 2..=4 {
//!     let r = session.solve(ClusterRequest::mcp(k)).unwrap();
//!     assert_eq!(r.clustering.num_clusters(), k);
//! }
//! let best = session.solve(ClusterRequest::mcp(2)).unwrap();
//! let quality = session.evaluate(&best.clustering);
//! assert!(quality.p_min > 0.5);
//! let stats = session.stats();
//! assert_eq!(stats.requests, 4);
//! assert!(stats.row_cache.hits + stats.row_cache.topups > 0);
//! ```

use std::fmt;
use std::time::{Duration, Instant};

use ugraph_graph::{NodeId, UncertainGraph};
use ugraph_sampling::rng::mix_seed;
use ugraph_sampling::{
    assignment_probs, quality_from_probs, BitParallelPool, EngineStats, McOracle, MemoryBudget,
    MemoryStats, Oracle, RowCacheStats, RunState, WorldEngine, DEPTH_UNLIMITED,
};

use crate::acp::acp_with_oracle;
use crate::clustering::Clustering;
use crate::config::ClusterConfig;
use crate::error::ClusterError;
use crate::mcp::mcp_with_oracle;
use crate::request::{ClusterRequest, Objective, SolveResult};

/// Seed tags decorrelating each oracle family's sampling streams from the
/// candidate rng — identical to the tags the one-shot entry points use, so
/// session-served requests see the very same worlds.
const TAG_MCP: u64 = 0x4d43_5031; // "MCP1"
const TAG_MCP_DEPTH: u64 = 0x4d43_5044; // "MCPD"
const TAG_ACP: u64 = 0x4143_5031; // "ACP1"
const TAG_ACP_DEPTH: u64 = 0x4143_5044; // "ACPD"
/// Seed tag of the session's evaluation pool (decorrelated from every
/// solver pool, so evaluation is an unbiased re-estimate).
const TAG_EVAL: u64 = 0x4556_414c; // "EVAL"

/// Default size of the evaluation pool backing
/// [`UgraphSession::evaluate`].
pub const DEFAULT_EVAL_SAMPLES: usize = 512;

/// The oracle shape a request resolves to: one cached oracle (engine +
/// pool + row cache) exists per distinct key.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct OracleKey {
    /// MCP or ACP: each family samples its own seed stream.
    objective: Objective,
    /// `None` = unlimited path length; `Some` = the resolved
    /// `(d_select, d_cover)` pair. The two get different seed tags, so a
    /// `Some` key keeps its own [`McOracle`] even at unlimited depths.
    depths: Option<(u32, u32)>,
}

/// Per-request record kept in [`SessionStats::per_request`].
#[derive(Clone, Debug)]
pub struct RequestRecord {
    /// Human-readable request label (the request's `Display` form).
    pub label: String,
    /// Monte-Carlo samples the request's estimates integrated over.
    pub samples_used: usize,
    /// `min-partial` invocations performed.
    pub guesses: usize,
    /// Row-cache service counters of this request alone.
    pub row_cache: RowCacheStats,
    /// Block-finalization counters of this request alone (adaptive
    /// backend only).
    pub engine: EngineStats,
    /// Memory-ledger snapshot of this request alone: bytes held at
    /// completion, plus shards evicted/regenerated while it ran (all
    /// relevant only when [`ClusterConfig::memory_budget`] is set).
    pub memory: MemoryStats,
    /// Wall-clock solve time.
    pub elapsed: Duration,
}

/// Cumulative statistics of a [`UgraphSession`].
#[derive(Clone, Debug, Default)]
pub struct SessionStats {
    /// Solve requests issued (successful or not).
    pub requests: usize,
    /// [`UgraphSession::evaluate`] calls served.
    pub evaluations: usize,
    /// Worlds currently held across all of the session's pools (solver
    /// oracles + evaluation pool). On a warm session this is what the
    /// requests *shared*; the same requests one-shot would have sampled
    /// roughly `Σ samples_used` worlds instead.
    pub worlds_held: usize,
    /// Aggregate row-cache service across all solver oracles.
    pub row_cache: RowCacheStats,
    /// Aggregate lazy block-finalization counters across all solver
    /// oracles (all zero unless the adaptive backend ran).
    pub engine: EngineStats,
    /// Solver oracles (engine + pool + row cache) the session holds: one
    /// per objective and depth shape served.
    pub solver_pools: usize,
    /// Bytes currently charged to the session's shared memory ledger
    /// (resident sample shards across every pool, plus cached rows).
    pub bytes_held: usize,
    /// Sample shards evicted under memory pressure across the session's
    /// lifetime (0 without a [`ClusterConfig::memory_budget`]).
    pub shards_evicted: u64,
    /// Evicted shards regenerated bit-identically from their per-index
    /// RNG streams when a query touched them again.
    pub shards_regenerated: u64,
    /// Total wall-clock time spent in [`UgraphSession::solve`].
    pub solve_time: Duration,
    /// One record per successful solve request, in issue order.
    pub per_request: Vec<RequestRecord>,
}

impl SessionStats {
    /// Compact machine-readable `key=value` rendering (space-separated,
    /// one line, fixed key set) — the stable form consumed by the wire
    /// protocol's `stats` response and by scripts, kept separate from the
    /// human-oriented [`Display`](fmt::Display) text so the latter can
    /// evolve freely. Durations are reported in integer milliseconds.
    pub fn kv_line(&self) -> String {
        format!(
            "requests={} evaluations={} worlds_held={} solver_pools={} cache_hits={} \
             cache_topups={} cache_fulls={} finalized_blocks={} finalized_lanes={} \
             label_queries={} mask_queries={} bytes_held={} shards_evicted={} \
             shards_regenerated={} solve_time_ms={}",
            self.requests,
            self.evaluations,
            self.worlds_held,
            self.solver_pools,
            self.row_cache.hits,
            self.row_cache.topups,
            self.row_cache.fulls,
            self.engine.finalized_blocks,
            self.engine.finalized_lanes,
            self.engine.label_queries,
            self.engine.mask_queries,
            self.bytes_held,
            self.shards_evicted,
            self.shards_regenerated,
            self.solve_time.as_millis(),
        )
    }
}

impl fmt::Display for SessionStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} request(s), {} evaluation(s), {} world(s) held in {} solver pool(s); row cache: \
             {} hits, {} top-ups, {} full recomputes; finalized {} block(s) / {} lane(s), {} \
             label-served / {} mask-served block-queries; memory: {} byte(s) held, {} shard(s) \
             evicted, {} regenerated; solve time {:.2?}",
            self.requests,
            self.evaluations,
            self.worlds_held,
            self.solver_pools,
            self.row_cache.hits,
            self.row_cache.topups,
            self.row_cache.fulls,
            self.engine.finalized_blocks,
            self.engine.finalized_lanes,
            self.engine.label_queries,
            self.engine.mask_queries,
            self.bytes_held,
            self.shards_evicted,
            self.shards_regenerated,
            self.solve_time
        )
    }
}

/// `p_min`/`p_avg` of a clustering over the session's evaluation pool (an
/// unbiased re-estimate with samples decorrelated from the solver pools).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EvalQuality {
    /// Minimum estimated connection probability of a covered node to its
    /// center (1.0 if nothing is covered).
    pub p_min: f64,
    /// Average estimated connection probability over all nodes, outliers
    /// contributing 0.
    pub p_avg: f64,
    /// Samples the estimate integrated over.
    pub samples: usize,
}

/// A graph-bound clustering solver serving many typed requests over shared
/// sampled state — see the [module docs](self) for the full contract.
pub struct UgraphSession<'g> {
    graph: &'g UncertainGraph,
    config: ClusterConfig,
    /// One oracle (engine + grow-only pool + row cache) per request shape
    /// seen so far; linear scan — a session holds a handful at most.
    oracles: Vec<(OracleKey, Box<dyn Oracle + 'g>)>,
    /// Lazily-built evaluation pool shared by [`UgraphSession::evaluate`],
    /// [`UgraphSession::evaluate_depth`] and the metrics layer
    /// ([`UgraphSession::eval_pool`]). It is adaptive whatever
    /// [`ClusterConfig::engine`] says: counts do not depend on it, and
    /// metrics callers get one concrete pool type.
    eval: Option<BitParallelPool<'g, 4>>,
    /// One shared memory ledger for every solver oracle and evaluation
    /// pool — bounded by [`ClusterConfig::memory_budget`], unbounded
    /// (accounting only) otherwise. The shared recency clock makes shard
    /// eviction LRU across all of the session's pools.
    budget: MemoryBudget,
    eval_samples: usize,
    requests: usize,
    evaluations: usize,
    solve_time: Duration,
    per_request: Vec<RequestRecord>,
}

impl<'g> UgraphSession<'g> {
    /// Creates a session over `graph`. The configuration is fixed for the
    /// session's lifetime — it determines the sampling seeds, so changing
    /// it mid-session would silently break the bit-identity contract.
    ///
    /// # Errors
    /// Returns [`ClusterError::InvalidConfig`] for invalid parameter
    /// ranges (same validation as the one-shot entry points).
    pub fn new(graph: &'g UncertainGraph, config: ClusterConfig) -> Result<Self, ClusterError> {
        let budget =
            config.memory_budget.map_or_else(MemoryBudget::unbounded, MemoryBudget::bounded);
        UgraphSession::with_ledger(graph, config, budget)
    }

    /// Creates a session whose pools and caches charge against a
    /// caller-supplied `ledger` instead of a private one — the seam a
    /// server uses to place many sessions under one *global*
    /// [`MemoryBudget`]: hand each session
    /// [`MemoryBudget::subledger`]`(config.memory_budget)` of the shared
    /// budget, and every session's shards feel global pressure while its
    /// own stats still report only its own bytes. The supplied ledger
    /// takes precedence over [`ClusterConfig::memory_budget`] (which
    /// [`UgraphSession::new`] would otherwise derive a private ledger
    /// from).
    ///
    /// # Errors
    /// Returns [`ClusterError::InvalidConfig`] for invalid parameter
    /// ranges, exactly as [`UgraphSession::new`].
    pub fn with_ledger(
        graph: &'g UncertainGraph,
        config: ClusterConfig,
        ledger: MemoryBudget,
    ) -> Result<Self, ClusterError> {
        config.validate()?;
        Ok(UgraphSession {
            graph,
            config,
            oracles: Vec::new(),
            eval: None,
            budget: ledger,
            eval_samples: DEFAULT_EVAL_SAMPLES,
            requests: 0,
            evaluations: 0,
            solve_time: Duration::ZERO,
            per_request: Vec::new(),
        })
    }

    /// Builder-style setter for the evaluation-pool size (default
    /// [`DEFAULT_EVAL_SAMPLES`]). The pool is grow-only: raising the value
    /// later tops it up, lowering it has no effect on an existing pool.
    pub fn with_eval_samples(mut self, samples: usize) -> Self {
        self.set_eval_samples(samples);
        self
    }

    /// In-place variant of [`UgraphSession::with_eval_samples`].
    pub fn set_eval_samples(&mut self, samples: usize) {
        self.eval_samples = samples.max(1);
    }

    /// The graph this session is bound to.
    pub fn graph(&self) -> &'g UncertainGraph {
        self.graph
    }

    /// The session's (immutable) configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// The memory ledger every pool and cache of this session charges
    /// against (the caller-supplied one under
    /// [`UgraphSession::with_ledger`]).
    pub fn ledger(&self) -> &MemoryBudget {
        &self.budget
    }

    /// Solves one typed request against the session's shared state.
    ///
    /// The result is **bit-identical** to the corresponding one-shot call
    /// (`mcp`, `mcp_depth`, `acp`, `acp_depth`) with this session's
    /// configuration: the request is served over an active sample window
    /// holding exactly the worlds a fresh oracle would have drawn, while
    /// already-sampled worlds and cached rows are reused instead of
    /// recomputed ([`SolveResult::row_cache`] shows the reuse).
    ///
    /// # Errors
    /// The same failure modes as the one-shot entry points:
    /// [`ClusterError::KOutOfRange`], [`ClusterError::NoFullClustering`]
    /// (MCP on graphs with more than `k` components), and
    /// [`ClusterError::Sampling`] (e.g. `d_select > d_cover`, or an
    /// injected fault). With a deadline or cancellation token attached
    /// (on the config or the request), an interruption surfaces as
    /// [`ClusterError::DeadlineExceeded`] / [`ClusterError::Cancelled`] —
    /// or, under [`DegradeMode::BestEffort`](crate::config::DegradeMode),
    /// as a best-effort result with [`SolveResult::interrupt`] set. Every
    /// error leaves the session consistent: pools hold only fully
    /// generated shards, caches only complete rows, and re-issuing the
    /// same request completes bit-identically to an undisturbed run.
    pub fn solve(&mut self, request: ClusterRequest) -> Result<SolveResult, ClusterError> {
        let t0 = Instant::now();
        self.requests += 1;
        let label = request.to_string();
        let key = OracleKey {
            objective: request.objective(),
            depths: request.resolved_depths(&self.config),
        };
        let idx = self.oracle_index(key)?;
        let config = self.config.clone();
        // Every solve gets a fresh interruption state (a recorded
        // interruption is sticky for the state's lifetime), armed with the
        // merged session + request budget.
        let run = RunState::new(config.run_budget(&request));
        let mem_before = self.budget.stats();
        let oracle = &mut self.oracles[idx].1;
        let cache_before = oracle.cache_stats();
        let engine_before = oracle.engine_stats();
        oracle.begin_request();
        oracle.set_run_state(run);
        let result = match request.objective() {
            Objective::MinProb => {
                let r = mcp_with_oracle(oracle.as_mut(), request.k(), &config)?;
                SolveResult {
                    request,
                    clustering: r.clustering,
                    assign_probs: r.assign_probs,
                    objective_estimate: r.min_prob_estimate,
                    final_q: r.final_q,
                    guesses: r.guesses,
                    samples_used: r.samples_used,
                    row_cache: r.row_cache.since(cache_before),
                    engine: r.engine.since(engine_before),
                    elapsed: t0.elapsed(),
                    interrupt: r.interrupt,
                }
            }
            Objective::AvgProb => {
                let r = acp_with_oracle(oracle.as_mut(), request.k(), &config)?;
                SolveResult {
                    request,
                    clustering: r.clustering,
                    assign_probs: r.assign_probs,
                    objective_estimate: r.avg_prob_estimate,
                    final_q: r.final_q,
                    guesses: r.guesses,
                    samples_used: r.samples_used,
                    row_cache: r.row_cache.since(cache_before),
                    engine: r.engine.since(engine_before),
                    elapsed: t0.elapsed(),
                    interrupt: r.interrupt,
                }
            }
        };
        self.solve_time += result.elapsed;
        self.per_request.push(RequestRecord {
            label,
            samples_used: result.samples_used,
            guesses: result.guesses,
            row_cache: result.row_cache,
            engine: result.engine,
            memory: self.budget.stats().since(&mem_before),
            elapsed: result.elapsed,
        });
        Ok(result)
    }

    /// Estimates `p_min`/`p_avg` of `clustering` over the session's
    /// evaluation pool (built lazily, grow-only, seeded independently of
    /// every solver pool). Centers are fetched through the engine's
    /// batched multi-center queries.
    ///
    /// Probabilities count paths of **unlimited** length; when measuring
    /// the output of a depth-limited request, use
    /// [`UgraphSession::evaluate_depth`] so the quality is computed under
    /// the same §3.4 semantics as the objective.
    ///
    /// # Panics
    /// Panics if `clustering` is sized for a different graph.
    pub fn evaluate(&mut self, clustering: &Clustering) -> EvalQuality {
        let n = self.graph.num_nodes();
        assert_eq!(n, clustering.num_nodes(), "clustering and session disagree on n");
        self.evaluate_within(clustering, None)
    }

    /// Depth-limited [`UgraphSession::evaluate`]: probabilities count only
    /// paths of length ≤ `depth` (paper §3.4), over the **same worlds** as
    /// the unlimited variant (one shared evaluation pool), so the two
    /// differ only in path semantics, never in sampling noise.
    ///
    /// # Panics
    /// Panics if `clustering` is sized for a different graph.
    pub fn evaluate_depth(&mut self, clustering: &Clustering, depth: u32) -> EvalQuality {
        self.evaluate_within(clustering, Some(depth))
    }

    fn evaluate_within(&mut self, clustering: &Clustering, depth: Option<u32>) -> EvalQuality {
        let n = self.graph.num_nodes();
        assert_eq!(n, clustering.num_nodes(), "clustering and session disagree on n");
        self.evaluations += 1;
        let pool = self.eval_pool();
        let samples = pool.num_samples();
        let cluster_of = |u| clustering.cluster_of(NodeId::from_index(u));
        let probs = assignment_probs(pool, clustering.centers(), cluster_of, depth);
        let (p_min, p_avg) = quality_from_probs(&probs, |u| cluster_of(u).is_some());
        EvalQuality { p_min, p_avg, samples }
    }

    /// The session's evaluation pool, built and grown on first use — hand
    /// this to the `ugraph-metrics` quality functions
    /// (`clustering_quality`, `avpr`, …) so they share the session's
    /// samples instead of building their own pool.
    pub fn eval_pool(&mut self) -> &mut BitParallelPool<'g, 4> {
        let pool = self.eval.get_or_insert_with(|| {
            let seed = mix_seed(self.config.seed, TAG_EVAL);
            let mut p = BitParallelPool::new_adaptive(self.graph, seed, self.config.threads);
            p.set_memory_budget(self.budget.clone());
            p
        });
        pool.ensure(self.eval_samples);
        pool
    }

    /// Cumulative statistics: requests and evaluations served, worlds held
    /// across all pools, aggregate row-cache service, and per-request
    /// records.
    pub fn stats(&self) -> SessionStats {
        let mut row_cache = RowCacheStats::default();
        let mut engine = EngineStats::default();
        let mut worlds = 0usize;
        for (_, oracle) in &self.oracles {
            row_cache = row_cache.merged(oracle.cache_stats());
            engine = engine.merged(oracle.engine_stats());
            worlds += oracle.pool_samples();
        }
        worlds += self.eval.as_ref().map_or(0, |p| p.num_samples());
        let memory = self.budget.stats();
        SessionStats {
            requests: self.requests,
            evaluations: self.evaluations,
            worlds_held: worlds,
            row_cache,
            engine,
            solver_pools: self.oracles.len(),
            bytes_held: memory.bytes_held,
            shards_evicted: memory.shards_evicted,
            shards_regenerated: memory.shards_regenerated,
            solve_time: self.solve_time,
            per_request: self.per_request.clone(),
        }
    }

    /// Returns the index of the oracle serving `key`, constructing it on
    /// first use with the same seeds, engine backend, and row-cache
    /// setting the one-shot entry points use.
    fn oracle_index(&mut self, key: OracleKey) -> Result<usize, ClusterError> {
        if let Some(i) = self.oracles.iter().position(|(k, _)| *k == key) {
            return Ok(i);
        }
        let cfg = &self.config;
        let tag = match (key.objective, key.depths.is_some()) {
            (Objective::MinProb, false) => TAG_MCP,
            (Objective::MinProb, true) => TAG_MCP_DEPTH,
            (Objective::AvgProb, false) => TAG_ACP,
            (Objective::AvgProb, true) => TAG_ACP_DEPTH,
        };
        let (d_select, d_cover) = key.depths.unwrap_or((DEPTH_UNLIMITED, DEPTH_UNLIMITED));
        let oracle = McOracle::with_engine(
            self.graph,
            mix_seed(cfg.seed, tag),
            cfg.threads,
            cfg.schedule,
            cfg.epsilon,
            d_select,
            d_cover,
            cfg.engine,
        )?
        .with_row_cache(cfg.row_cache)
        .with_memory_budget(self.budget.clone());
        self.oracles.push((key, Box::new(oracle)));
        Ok(self.oracles.len() - 1)
    }
}

impl fmt::Debug for UgraphSession<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("UgraphSession")
            .field("nodes", &self.graph.num_nodes())
            .field("oracles", &self.oracles.len())
            .field("requests", &self.requests)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ugraph_graph::GraphBuilder;

    fn two_communities() -> UncertainGraph {
        let mut b = GraphBuilder::new(6);
        for (u, v) in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)] {
            b.add_edge(u, v, 0.9).unwrap();
        }
        b.add_edge(2, 3, 0.2).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn session_reuses_one_oracle_per_shape() {
        let g = two_communities();
        let mut s = UgraphSession::new(&g, ClusterConfig::default().with_seed(5)).unwrap();
        s.solve(ClusterRequest::mcp(2)).unwrap();
        s.solve(ClusterRequest::mcp(3)).unwrap();
        assert_eq!(s.oracles.len(), 1, "same shape shares one oracle");
        s.solve(ClusterRequest::acp(2)).unwrap();
        s.solve(ClusterRequest::mcp_depth(2, 3)).unwrap();
        assert_eq!(s.oracles.len(), 3, "each shape gets its own oracle");
        let stats = s.stats();
        assert_eq!(stats.requests, 4);
        assert_eq!(stats.per_request.len(), 4);
        assert_eq!(stats.per_request[0].label, "mcp(k=2)");
        assert!(stats.worlds_held > 0);
        assert!(stats.solve_time > Duration::ZERO);
        // The k = 3 request re-requested overlapping center rows: reuse
        // must be visible.
        assert!(stats.row_cache.hits + stats.row_cache.topups > 0, "{stats}");
    }

    #[test]
    fn session_errors_match_one_shot_errors() {
        let g = two_communities();
        let mut s = UgraphSession::new(&g, ClusterConfig::default()).unwrap();
        assert!(matches!(s.solve(ClusterRequest::mcp(0)), Err(ClusterError::KOutOfRange { .. })));
        assert!(matches!(s.solve(ClusterRequest::mcp(6)), Err(ClusterError::KOutOfRange { .. })));
        // d_select > d_cover is rejected at oracle construction, with the
        // sampling-layer source preserved.
        assert!(matches!(
            s.solve(ClusterRequest::mcp(2).with_depths(4, 2)),
            Err(ClusterError::Sampling(ugraph_sampling::SamplingError::InvalidDepths { .. }))
        ));
        assert!(UgraphSession::new(&g, ClusterConfig::default().with_gamma(0.0)).is_err());
    }

    #[test]
    fn evaluate_uses_a_grow_only_decorrelated_pool() {
        let g = two_communities();
        let mut s = UgraphSession::new(&g, ClusterConfig::default().with_seed(3))
            .unwrap()
            .with_eval_samples(64);
        let r = s.solve(ClusterRequest::mcp(2)).unwrap();
        let q1 = s.evaluate(&r.clustering);
        assert_eq!(q1.samples, 64);
        assert!(q1.p_min > 0.5, "two strong triangles: {q1:?}");
        assert!(q1.p_avg >= q1.p_min);
        s.set_eval_samples(128);
        let q2 = s.evaluate(&r.clustering);
        assert_eq!(q2.samples, 128);
        // Lowering never shrinks the pool.
        s.set_eval_samples(32);
        assert_eq!(s.evaluate(&r.clustering).samples, 128);
        assert_eq!(s.stats().evaluations, 3);
    }

    #[test]
    fn depth_evaluation_respects_path_semantics() {
        // Certain 5-path, one cluster centered at node 0: unlimited
        // evaluation sees everything connected (p_min = 1), depth-2 sees
        // nodes 3+ hops away as unreachable (p_min = 0).
        let mut b = GraphBuilder::new(5);
        for i in 0..4 {
            b.add_edge(i, i + 1, 1.0).unwrap();
        }
        let g = b.build().unwrap();
        let mut s = UgraphSession::new(&g, ClusterConfig::default()).unwrap().with_eval_samples(8);
        let c = crate::Clustering::new(
            vec![ugraph_graph::NodeId(0)],
            vec![Some(0), Some(0), Some(0), Some(0), Some(0)],
        );
        let unlimited = s.evaluate(&c);
        assert_eq!(unlimited.p_min, 1.0);
        let depth2 = s.evaluate_depth(&c, 2);
        assert_eq!(depth2.p_min, 0.0);
        assert!((depth2.p_avg - 3.0 / 5.0).abs() < 1e-12);
        let depth4 = s.evaluate_depth(&c, 4);
        assert_eq!(depth4.p_min, 1.0);
        // Both variants share one eval pool, counted once toward worlds
        // held, and all calls count as evaluations.
        assert_eq!(s.stats().evaluations, 3);
        assert_eq!(s.stats().worlds_held, 8);
    }

    #[test]
    fn budgeted_session_is_bit_identical_and_stays_under_the_limit() {
        let g = two_communities();
        let cfg = ClusterConfig::default().with_seed(9);
        let mut free = UgraphSession::new(&g, cfg.clone()).unwrap().with_eval_samples(64);
        // A 4 KiB ceiling is far below what the solver pools want on even
        // this tiny instance, forcing evict-and-regenerate cycles.
        let mut tight =
            UgraphSession::new(&g, cfg.with_memory_budget(4 << 10)).unwrap().with_eval_samples(64);
        for k in [2usize, 3] {
            let a = free.solve(ClusterRequest::mcp(k)).unwrap();
            let b = tight.solve(ClusterRequest::mcp(k)).unwrap();
            assert_eq!(a.clustering, b.clustering, "k={k}: budget changed the clustering");
            assert_eq!(a.objective_estimate, b.objective_estimate);
            assert_eq!(a.assign_probs, b.assign_probs);
        }
        let ca = free.solve(ClusterRequest::acp(2)).unwrap().clustering;
        let cb = tight.solve(ClusterRequest::acp(2)).unwrap().clustering;
        let qa = free.evaluate(&ca);
        let qb = tight.evaluate(&cb);
        assert_eq!(qa, qb, "evaluation must be budget-independent too");
        let stats = tight.stats();
        assert!(stats.shards_evicted > 0, "tight budget must evict: {stats}");
        assert!(stats.shards_regenerated > 0, "requeried shards must regenerate: {stats}");
        assert!(
            stats.bytes_held <= 4 << 10,
            "ledger over budget at rest: {} > {}",
            stats.bytes_held,
            4 << 10
        );
        assert!(stats.per_request.last().unwrap().memory.shards_regenerated > 0);
        let free_stats = free.stats();
        assert_eq!(free_stats.shards_evicted, 0, "unbounded session never evicts");
        assert!(free_stats.bytes_held > 0, "ledger still accounts without a limit");
    }

    #[test]
    fn evaluation_stays_under_the_hard_memory_bound() {
        // 1,034 evaluation worlds span two shards; a 1,000 B ledger holds
        // neither with its block labels, so evaluation evicts. Once both
        // evaluations return, the ledger is back under its limit, and the
        // estimates equal an unbounded session's.
        let mut b = GraphBuilder::new(4);
        for i in 0..3 {
            b.add_edge(i, i + 1, 0.5).unwrap();
        }
        let g = b.build().unwrap();
        let c = crate::Clustering::new(vec![NodeId(0)], vec![Some(0); 4]);
        let mut free = UgraphSession::new(&g, ClusterConfig::default()).unwrap();
        let cfg = ClusterConfig::default().with_memory_budget(1_000);
        let mut tight = UgraphSession::new(&g, cfg).unwrap();
        for s in [&mut free, &mut tight] {
            s.set_eval_samples(1_034);
        }
        assert_eq!(tight.evaluate(&c), free.evaluate(&c));
        assert_eq!(tight.evaluate_depth(&c, 2), free.evaluate_depth(&c, 2));
        let held = tight.ledger().bytes_held();
        assert!(held <= 1_000, "ledger holds {held} B over its 1,000 B limit");
        assert!(tight.stats().shards_evicted > 0, "{}", tight.stats());
    }

    #[test]
    fn kv_line_is_stable_and_machine_readable() {
        let g = two_communities();
        let mut s = UgraphSession::new(&g, ClusterConfig::default().with_seed(5)).unwrap();
        s.solve(ClusterRequest::mcp(2)).unwrap();
        let line = s.stats().kv_line();
        assert_eq!(line.lines().count(), 1, "must be a single line: {line:?}");
        for key in [
            "requests=1",
            "evaluations=0",
            "solver_pools=1",
            "cache_hits=",
            "cache_topups=",
            "cache_fulls=",
            "finalized_blocks=",
            "label_queries=",
            "mask_queries=",
            "bytes_held=",
            "shards_evicted=0",
            "shards_regenerated=0",
            "solve_time_ms=",
        ] {
            assert!(line.contains(key), "missing {key} in {line:?}");
        }
        // Every token parses as key=value with an integer value.
        for token in line.split(' ') {
            let (k, v) = token.split_once('=').expect("token must be key=value");
            assert!(!k.is_empty());
            v.parse::<u128>().unwrap_or_else(|_| panic!("non-integer value in {token}"));
        }
        // The human Display is unchanged by the satellite: still the prose
        // form, not the kv form.
        let human = s.stats().to_string();
        assert!(human.contains("request(s)"), "{human}");
        assert!(!human.contains("requests="), "{human}");
    }

    #[test]
    fn with_ledger_shares_a_global_budget_across_sessions() {
        let g = two_communities();
        let cfg = ClusterConfig::default().with_seed(9);
        let global = ugraph_sampling::MemoryBudget::unbounded();
        let mut a = UgraphSession::with_ledger(&g, cfg.clone(), global.subledger(None)).unwrap();
        let mut b = UgraphSession::with_ledger(&g, cfg, global.subledger(None)).unwrap();
        a.solve(ClusterRequest::mcp(2)).unwrap();
        b.solve(ClusterRequest::acp(2)).unwrap();
        let (sa, sb) = (a.stats(), b.stats());
        assert!(sa.bytes_held > 0 && sb.bytes_held > 0);
        // The global ledger sees the sum of both sessions' charges.
        assert_eq!(global.bytes_held(), sa.bytes_held + sb.bytes_held);
        // Dropping a session releases its whole footprint globally.
        drop(a);
        assert_eq!(global.bytes_held(), sb.bytes_held);
    }

    #[test]
    fn eval_pool_is_shared_with_metrics_callers() {
        let g = two_communities();
        let mut s = UgraphSession::new(&g, ClusterConfig::default()).unwrap().with_eval_samples(40);
        let r = s.solve(ClusterRequest::acp(2)).unwrap();
        let q = s.evaluate(&r.clustering);
        // The pool handed out is the very pool evaluate() used.
        assert_eq!(s.eval_pool().num_samples(), q.samples);
    }
}
