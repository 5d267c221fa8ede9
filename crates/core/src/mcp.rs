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
//!
//! This module writes only Algorithm 2's stop rule. Validation, the
//! threshold descent, the guess step, the best-effort rule and the result
//! are shared with ACP in one solve path, which [`mcp()`], [`mcp_depth`],
//! [`mcp_with_oracle`] and [`UgraphSession::solve`] all run.

use ugraph_graph::UncertainGraph;
use ugraph_sampling::{EngineStats, Oracle, RowCacheStats};

use crate::clustering::Clustering;
use crate::config::{ClusterConfig, GuessStrategy};
use crate::driver::{solve_on, Found, Guesser};
use crate::error::{ClusterError, InterruptReport};
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
    /// unless the pool labelled or swept blocks for unlimited queries).
    pub engine: EngineStats,
    /// `Some` iff the run was interrupted mid-refinement and completed
    /// best-effort under
    /// [`DegradeMode::BestEffort`](crate::DegradeMode::BestEffort) (see
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
/// length).
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
    solve_on(oracle, ClusterRequest::mcp(k), cfg).map(McpResult::from)
}

/// Algorithm 2's guess loop. Geometric guessing tries `q = 1` and then
/// the descent; the accelerated schedule assumes `q = 1` fails and then
/// binary-searches between the last failing and the first succeeding
/// guess (in log space, until `lo/hi > 1 − γ`). Until the first full
/// clustering exists there is nothing to degrade to, so interruptions
/// before it are errors under every [`DegradeMode`](crate::DegradeMode).
pub(crate) fn schedule<O: Oracle + ?Sized>(g: &mut Guesser<'_, O>) -> Result<Found, ClusterError> {
    let cfg = g.cfg;
    let first = (cfg.guess == GuessStrategy::Geometric).then_some(1.0);
    let mut hi = 1.0f64; // highest threshold known (or assumed) to fail
    for q in first.into_iter().chain(cfg.descent()) {
        let pc = g.run(q, cfg.alpha, q)?;
        if !pc.clustering.is_full() {
            if q <= cfg.p_l {
                let uncovered = pc.clustering.outliers().len();
                return Err(ClusterError::NoFullClustering { floor: cfg.p_l, uncovered });
            }
            hi = q;
            continue;
        }
        let (mut best, mut lo) = (pc, q);
        while cfg.guess == GuessStrategy::Accelerated && lo / hi <= 1.0 - cfg.gamma {
            let mid = (lo * hi).sqrt();
            match g.run(mid, cfg.alpha, mid) {
                Ok(pc) if pc.clustering.is_full() => (best, lo) = (pc, mid),
                Ok(_) => hi = mid,
                Err(e) => {
                    g.stop(e)?;
                    break;
                }
            }
        }
        let min_prob = best.min_covered_prob().unwrap_or(0.0);
        return Ok((best.clustering, best.assign_probs, min_prob, lo));
    }
    unreachable!("the descent is endless")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ugraph_graph::{GraphBuilder, NodeId};
    use ugraph_sampling::ExactOracle;

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
        let mut oracle = ExactOracle::new(&g).unwrap();
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
        let g = two_communities(0.2);
        // Unbounded, and under 4 KiB, which holds the masks but declines
        // the labels, so every row sweeps masks.
        for memory_budget in [None, Some(4 << 10)] {
            for alpha in [1usize, 4] {
                let on = ClusterConfig { memory_budget, ..ClusterConfig::default() }
                    .with_seed(9)
                    .with_alpha(alpha);
                let off = on.clone().with_row_cache(false);
                let a = mcp(&g, 2, &on).unwrap();
                let b = mcp(&g, 2, &off).unwrap();
                assert_eq!(a.clustering, b.clustering, "{memory_budget:?} α={alpha}");
                assert_eq!(a.assign_probs, b.assign_probs, "{memory_budget:?} α={alpha}");
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
        let mut b = GraphBuilder::new(7);
        for i in 0..6 {
            b.add_edge(i, i + 1, 0.95).unwrap();
        }
        let g = b.build().unwrap();
        let on = ClusterConfig::default().with_seed(4);
        let off = on.clone().with_row_cache(false);
        let a = mcp_depth(&g, 3, 2, &on).unwrap();
        let c = mcp_depth(&g, 3, 2, &off).unwrap();
        assert_eq!(a.clustering, c.clustering);
        assert_eq!(a.assign_probs, c.assign_probs);
        assert_eq!((c.row_cache.hits, c.row_cache.topups), (0, 0));
    }

    #[test]
    fn theorem3_bound_on_exact_oracle() {
        // With the exact oracle the returned min-prob must satisfy
        // min-prob ≥ p²_opt-min / (1+γ) (Theorem 3). Brute-force the optimum.
        let g = two_communities(0.3);
        let exact = ExactOracle::new(&g).unwrap();
        let opt = crate::brute::brute_force_opt(&exact, 2).unwrap();
        let mut oracle = ExactOracle::new(&g).unwrap();
        let r = mcp_with_oracle(&mut oracle, 2, &ClusterConfig::default()).unwrap();
        let bound = opt.best_min_prob * opt.best_min_prob / 1.1;
        assert!(
            r.min_prob_estimate >= bound - 1e-9,
            "min-prob {} below Theorem 3 bound {bound}",
            r.min_prob_estimate
        );
    }
}
