//! The MCP driver — Algorithm 2 with the paper's accelerated guessing
//! schedule and binary-search refinement (§5), plus Theorem 7's
//! Monte-Carlo integration.
//!
//! MCP repeatedly invokes [`min_partial`](crate::min_partial::min_partial) with a decreasing probability
//! threshold `q` until the returned partial clustering covers **all**
//! nodes; Lemma 2 guarantees this happens no later than
//! `q ≤ p²_opt-min(k)`, yielding the `p²_opt-min/(1+γ)` approximation of
//! Theorem 3. Crucially, no connection probability smaller than
//! `p²_opt-min/(1+γ)` is ever estimated — the feature that makes Monte-Carlo
//! integration affordable (§4.2).

use rand::rngs::SmallRng;
use rand::SeedableRng;

use ugraph_graph::UncertainGraph;
use ugraph_sampling::rng::mix_seed;
use ugraph_sampling::{EngineStats, Oracle, RowCacheStats};

use crate::clustering::{Clustering, PartialClustering};
use crate::config::{ClusterConfig, DegradeMode, GuessStrategy};
use crate::error::{interrupted, ClusterError, InterruptReport};
use crate::min_partial::{min_partial_with, MinPartialParams, MinPartialWorkspace};
use crate::request::{ClusterRequest, SolveResult};
use crate::session::UgraphSession;

/// Output of the MCP driver.
#[derive(Clone, Debug)]
pub struct McpResult {
    /// The full k-clustering.
    pub clustering: Clustering,
    /// Estimated connection probability of each node to its center.
    pub assign_probs: Vec<f64>,
    /// The algorithm's own estimate of `min-prob` (minimum of
    /// `assign_probs`); an unbiased evaluation should re-estimate with
    /// fresh samples (see `ugraph-metrics`).
    pub min_prob_estimate: f64,
    /// The threshold `q` that produced the returned clustering.
    pub final_q: f64,
    /// Number of `min-partial` invocations performed.
    pub guesses: usize,
    /// Monte-Carlo samples in the pool at termination (1 for exact oracles).
    pub samples_used: usize,
    /// How the oracle's row cache served the schedule's probability rows
    /// (all zero for oracles without a cache) — the observable measure of
    /// how much work the guessing schedule reused.
    pub row_cache: RowCacheStats,
    /// Lazy block-finalization counters of the backing engine (all zero
    /// unless the adaptive backend ran).
    pub engine: EngineStats,
    /// `Some` iff the run was interrupted mid-refinement and completed
    /// best-effort under [`DegradeMode::BestEffort`] (see
    /// [`crate::SolveResult::interrupt`]).
    pub interrupt: Option<InterruptReport>,
}

impl From<SolveResult> for McpResult {
    /// Projects a session [`SolveResult`] onto the legacy MCP shape.
    fn from(r: SolveResult) -> McpResult {
        McpResult {
            clustering: r.clustering,
            assign_probs: r.assign_probs,
            min_prob_estimate: r.objective_estimate,
            final_q: r.final_q,
            guesses: r.guesses,
            samples_used: r.samples_used,
            row_cache: r.row_cache,
            engine: r.engine,
            interrupt: r.interrupt,
        }
    }
}

/// Runs MCP on `graph` with Monte-Carlo estimation (unlimited path
/// length), on the backend selected by `cfg.engine`.
///
/// A thin wrapper over a single-request [`UgraphSession`] — workloads
/// issuing many requests on one graph (k-sweeps, depth comparisons) should
/// hold a session instead, which serves each request bit-identically to
/// this function while reusing the sampled worlds and cached rows.
pub fn mcp(
    graph: &UncertainGraph,
    k: usize,
    cfg: &ClusterConfig,
) -> Result<McpResult, ClusterError> {
    let mut session = UgraphSession::new(graph, cfg.clone())?;
    session.solve(ClusterRequest::mcp(k)).map(McpResult::from)
}

/// Runs the depth-limited MCP variant (paper §3.4): connection
/// probabilities only count paths of length at most `d`. Per Lemma 5 the
/// oracle uses depth `d` for both selection and cover disks
/// (`min-partial-d(G, k, q, α, q̄, d, d)`). A thin wrapper over a
/// single-request [`UgraphSession`] (see [`mcp()`]).
pub fn mcp_depth(
    graph: &UncertainGraph,
    k: usize,
    d: u32,
    cfg: &ClusterConfig,
) -> Result<McpResult, ClusterError> {
    let mut session = UgraphSession::new(graph, cfg.clone())?;
    session.solve(ClusterRequest::mcp_depth(k, d)).map(McpResult::from)
}

/// Runs MCP against an arbitrary [`Oracle`] (exact oracles included).
pub fn mcp_with_oracle<O: Oracle + ?Sized>(
    oracle: &mut O,
    k: usize,
    cfg: &ClusterConfig,
) -> Result<McpResult, ClusterError> {
    cfg.validate()?;
    let n = oracle.num_nodes();
    if k < 1 || k >= n {
        return Err(ClusterError::KOutOfRange { k, n });
    }
    let mut rng = SmallRng::seed_from_u64(mix_seed(cfg.seed, 0x6d63_7001));
    let mut guesses = 0usize;
    // One workspace for the whole schedule: every guess reuses the same
    // min-partial buffers, and the oracle's row cache carries center rows
    // across guesses (including the binary-search refinement).
    let mut ws = MinPartialWorkspace::new(n);

    // One guess of the schedule. The guess counter only advances for
    // invocations that ran to completion, so an interruption reports the
    // number of *completed* guesses.
    let run = |oracle: &mut O,
               q: f64,
               rng: &mut SmallRng,
               ws: &mut MinPartialWorkspace,
               g: &mut usize| {
        oracle.prepare(q)?;
        let eps = oracle.epsilon();
        let params = MinPartialParams { k, q, alpha: cfg.alpha, q_bar: q, epsilon: eps };
        let pc = min_partial_with(oracle, &params, rng, ws)?;
        *g += 1;
        Ok(pc)
    };

    let (success, final_q, interrupt): (PartialClustering, f64, Option<InterruptReport>) =
        match cfg.guess {
            GuessStrategy::Geometric => {
                // Algorithm 2 verbatim: q ← q/(1+γ) from 1 until coverage.
                // Until the first full clustering exists there is nothing
                // to degrade to, so interruptions always surface as typed
                // errors here (BestEffort included).
                let mut q = 1.0f64;
                loop {
                    let pc = match run(oracle, q, &mut rng, &mut ws, &mut guesses) {
                        Ok(pc) => pc,
                        Err(e) => return Err(interrupted(e, oracle.num_samples(), guesses)),
                    };
                    if pc.clustering.is_full() {
                        break (pc, q, None);
                    }
                    if q <= cfg.p_l {
                        return Err(ClusterError::NoFullClustering {
                            floor: cfg.p_l,
                            uncovered: pc.clustering.outliers().len(),
                        });
                    }
                    q = (q / (1.0 + cfg.gamma)).max(cfg.p_l);
                }
            }
            GuessStrategy::Accelerated => {
                // §5: q_i = max{1 − γ·2^i, p_L}, then binary search between
                // the last failing and the first succeeding guess.
                let mut hi = 1.0f64; // highest threshold known (or assumed) to fail
                let mut i = 0u32;
                let (mut best_pc, mut lo) = loop {
                    let q = (1.0 - cfg.gamma * f64::from(2u32.saturating_pow(i))).max(cfg.p_l);
                    let pc = match run(oracle, q, &mut rng, &mut ws, &mut guesses) {
                        Ok(pc) => pc,
                        Err(e) => return Err(interrupted(e, oracle.num_samples(), guesses)),
                    };
                    if pc.clustering.is_full() {
                        break (pc, q);
                    }
                    if q <= cfg.p_l {
                        return Err(ClusterError::NoFullClustering {
                            floor: cfg.p_l,
                            uncovered: pc.clustering.outliers().len(),
                        });
                    }
                    hi = q;
                    i += 1;
                };
                // Binary search in log space; stop when lo/hi > 1 − γ. A
                // full clustering is in hand from here on, so under
                // BestEffort an interruption just stops the refinement
                // early; injected faults still surface as errors.
                let mut interrupt = None;
                while lo / hi <= 1.0 - cfg.gamma {
                    let mid = (lo * hi).sqrt();
                    match run(oracle, mid, &mut rng, &mut ws, &mut guesses) {
                        Ok(pc) => {
                            if pc.clustering.is_full() {
                                best_pc = pc;
                                lo = mid;
                            } else {
                                hi = mid;
                            }
                        }
                        Err(e) => {
                            let err = interrupted(e, oracle.num_samples(), guesses);
                            match (cfg.degrade, err.interrupt_report().copied()) {
                                (DegradeMode::BestEffort, Some(report)) => {
                                    interrupt = Some(report);
                                    break;
                                }
                                _ => return Err(err),
                            }
                        }
                    }
                }
                (best_pc, lo, interrupt)
            }
        };

    let min_prob_estimate = success.min_covered_prob().unwrap_or(0.0);
    Ok(McpResult {
        clustering: success.clustering,
        assign_probs: success.assign_probs,
        min_prob_estimate,
        final_q,
        guesses,
        samples_used: oracle.num_samples(),
        row_cache: oracle.cache_stats(),
        engine: oracle.engine_stats(),
        interrupt,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ugraph_graph::{GraphBuilder, NodeId};
    use ugraph_sampling::{ExactOracle, ExactOracleAdapter};

    fn two_communities(bridge: f64) -> UncertainGraph {
        let mut b = GraphBuilder::new(6);
        for (u, v) in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)] {
            b.add_edge(u, v, 0.9).unwrap();
        }
        b.add_edge(2, 3, bridge).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn splits_communities_exact_oracle() {
        let g = two_communities(0.05);
        let mut oracle = ExactOracleAdapter::new(ExactOracle::new(&g).unwrap());
        let r = mcp_with_oracle(&mut oracle, 2, &ClusterConfig::default()).unwrap();
        assert!(r.clustering.is_full());
        let a = r.clustering.cluster_of(NodeId(0)).unwrap();
        assert_eq!(r.clustering.cluster_of(NodeId(1)), Some(a));
        assert_eq!(r.clustering.cluster_of(NodeId(2)), Some(a));
        let b = r.clustering.cluster_of(NodeId(3)).unwrap();
        assert_ne!(a, b);
        assert!(r.min_prob_estimate > 0.8, "pmin {}", r.min_prob_estimate);
        assert!(r.guesses >= 1);
        assert!(r.final_q > 0.0 && r.final_q <= 1.0);
    }

    #[test]
    fn splits_communities_monte_carlo() {
        let g = two_communities(0.05);
        let cfg = ClusterConfig::default().with_seed(7);
        let r = mcp(&g, 2, &cfg).unwrap();
        assert!(r.clustering.is_full());
        let a = r.clustering.cluster_of(NodeId(0));
        assert_eq!(r.clustering.cluster_of(NodeId(2)), a);
        assert_ne!(r.clustering.cluster_of(NodeId(4)), a);
        assert!(r.samples_used >= 50);
    }

    #[test]
    fn geometric_strategy_matches_quality() {
        let g = two_communities(0.05);
        let cfg = ClusterConfig::default().with_guess(GuessStrategy::Geometric).with_seed(3);
        let r = mcp(&g, 2, &cfg).unwrap();
        assert!(r.clustering.is_full());
        assert!(r.min_prob_estimate > 0.5);
        // Both strategies find equally good clusterings here.
        let acc = mcp(&g, 2, &ClusterConfig::default().with_seed(3)).unwrap();
        assert!((r.min_prob_estimate - acc.min_prob_estimate).abs() < 0.2);
    }

    #[test]
    fn k_out_of_range() {
        let g = two_communities(0.5);
        assert!(matches!(
            mcp(&g, 0, &ClusterConfig::default()),
            Err(ClusterError::KOutOfRange { .. })
        ));
        assert!(matches!(
            mcp(&g, 6, &ClusterConfig::default()),
            Err(ClusterError::KOutOfRange { .. })
        ));
    }

    #[test]
    fn disconnected_graph_with_small_k_fails_gracefully() {
        // 3 components, k = 2: no full clustering exists.
        let mut b = GraphBuilder::new(6);
        b.add_edge(0, 1, 0.9).unwrap();
        b.add_edge(2, 3, 0.9).unwrap();
        b.add_edge(4, 5, 0.9).unwrap();
        let g = b.build().unwrap();
        let err = mcp(&g, 2, &ClusterConfig::default()).unwrap_err();
        assert!(matches!(err, ClusterError::NoFullClustering { .. }));
    }

    #[test]
    fn disconnected_graph_with_matching_k_succeeds() {
        let mut b = GraphBuilder::new(6);
        b.add_edge(0, 1, 0.9).unwrap();
        b.add_edge(2, 3, 0.9).unwrap();
        b.add_edge(4, 5, 0.9).unwrap();
        let g = b.build().unwrap();
        let r = mcp(&g, 3, &ClusterConfig::default()).unwrap();
        assert!(r.clustering.is_full());
        assert!(r.min_prob_estimate > 0.8);
    }

    #[test]
    fn k_equals_n_minus_1() {
        let g = two_communities(0.5);
        let r = mcp(&g, 5, &ClusterConfig::default()).unwrap();
        assert!(r.clustering.is_full());
        assert_eq!(r.clustering.num_clusters(), 5);
        // With k = n−1, min-prob is at least the strongest pair's prob.
        assert!(r.min_prob_estimate > 0.5);
    }

    #[test]
    fn reproducible_with_seed() {
        let g = two_communities(0.2);
        let cfg = ClusterConfig::default().with_seed(1234);
        let r1 = mcp(&g, 2, &cfg).unwrap();
        let r2 = mcp(&g, 2, &cfg).unwrap();
        assert_eq!(r1.clustering, r2.clustering);
        assert_eq!(r1.min_prob_estimate, r2.min_prob_estimate);
        assert_eq!(r1.guesses, r2.guesses);
    }

    #[test]
    fn depth_limited_restricts_coverage() {
        // Path of 6 certain edges; depth-2 MCP with k=2 must use centers
        // that 2-hop-cover the path: e.g. centers at 1 and 4 cover 0..=3 and
        // 2..=5. So it succeeds with pmin = 1. With k = 1 no depth-2 center
        // covers nodes 4 hops away, so it must fail.
        let mut b = GraphBuilder::new(7);
        for i in 0..6 {
            b.add_edge(i, i + 1, 1.0).unwrap();
        }
        let g = b.build().unwrap();
        let cfg = ClusterConfig::default();
        let r = mcp_depth(&g, 2, 3, &cfg).unwrap();
        assert!(r.clustering.is_full());
        assert!(r.min_prob_estimate >= 0.99);
        let err = mcp_depth(&g, 1, 2, &cfg).unwrap_err();
        assert!(matches!(err, ClusterError::NoFullClustering { .. }));
    }

    #[test]
    fn row_cache_and_batching_do_not_change_results() {
        use ugraph_sampling::EngineKind;
        let g = two_communities(0.2);
        for engine in [EngineKind::Adaptive, EngineKind::BitParallel] {
            for alpha in [1usize, 4] {
                let on =
                    ClusterConfig::default().with_seed(9).with_engine(engine).with_alpha(alpha);
                let off = on.clone().with_row_cache(false);
                let a = mcp(&g, 2, &on).unwrap();
                let b = mcp(&g, 2, &off).unwrap();
                assert_eq!(a.clustering, b.clustering, "{engine:?} α={alpha}");
                assert_eq!(a.assign_probs, b.assign_probs, "{engine:?} α={alpha}");
                assert_eq!(a.min_prob_estimate, b.min_prob_estimate);
                assert_eq!((a.guesses, a.samples_used), (b.guesses, b.samples_used));
                // The cache must actually have been exercised, and the
                // uncached run must report only full recomputes.
                assert_eq!(a.row_cache.rows_served(), b.row_cache.rows_served());
                assert_eq!((b.row_cache.hits, b.row_cache.topups), (0, 0));
            }
        }
    }

    #[test]
    fn depth_row_cache_does_not_change_results() {
        use ugraph_sampling::EngineKind;
        let mut b = GraphBuilder::new(7);
        for i in 0..6 {
            b.add_edge(i, i + 1, 0.95).unwrap();
        }
        let g = b.build().unwrap();
        for engine in [EngineKind::Adaptive, EngineKind::BitParallel] {
            let on = ClusterConfig::default().with_seed(4).with_engine(engine);
            let off = on.clone().with_row_cache(false);
            let a = mcp_depth(&g, 3, 2, &on).unwrap();
            let c = mcp_depth(&g, 3, 2, &off).unwrap();
            assert_eq!(a.clustering, c.clustering, "{engine:?}");
            assert_eq!(a.assign_probs, c.assign_probs, "{engine:?}");
            assert_eq!((c.row_cache.hits, c.row_cache.topups), (0, 0));
        }
    }

    #[test]
    fn theorem3_bound_on_exact_oracle() {
        // With the exact oracle the returned min-prob must satisfy
        // min-prob ≥ p²_opt-min / (1+γ) (Theorem 3). Brute-force the optimum.
        let g = two_communities(0.3);
        let exact = ExactOracle::new(&g).unwrap();
        let opt = crate::brute::brute_force_opt(&exact, 2).unwrap();
        let mut oracle = ExactOracleAdapter::new(ExactOracle::new(&g).unwrap());
        let r = mcp_with_oracle(&mut oracle, 2, &ClusterConfig::default()).unwrap();
        let bound = opt.best_min_prob * opt.best_min_prob / 1.1;
        assert!(
            r.min_prob_estimate >= bound - 1e-9,
            "min-prob {} below Theorem 3 bound {bound}",
            r.min_prob_estimate
        );
    }
}
