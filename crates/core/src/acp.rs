//! The ACP driver — Algorithm 3 with Theorem 8's Monte-Carlo integration.
//!
//! ACP trades coverage against threshold: for progressively smaller
//! guesses `q`, it computes a maximal partial clustering (Lemma 4 bounds
//! its outliers by `t_q`, the best possible), completes it by attaching
//! outliers to their most-reliable centers, and keeps the completion with
//! the best average assignment probability `φ`. Lemma 3 guarantees some
//! `q` achieves `q·(n − t_q)/n ≥ p_opt-avg/H(n)`, which yields the
//! `(p_opt-avg/((1+γ)H(n)))³` bound of Theorem 4.
//!
//! Two invocation flavors are supported (see
//! [`AcpInvocation`]: Theorem 4's
//! `min-partial(G, k, q³, n, q)` and the paper's practical
//! `min-partial(G, k, q, 1, q)` (§5), which the authors found to offer a
//! better time/quality trade-off. One deliberate deviation from the
//! pseudocode: Algorithm 3 lowers `q` only on non-improving iterations,
//! re-running the same threshold after improvements; since each threshold
//! is deterministic given the seed, re-running cannot change the outcome
//! here, so every threshold is evaluated exactly once (the authors'
//! `q_i = max{1 − γ·2^i, p_L}` schedule does the same).
//!
//! This module writes only Algorithm 3's stop rule and its choice of
//! clustering. Validation, the threshold descent, the guess step, the
//! best-effort rule and the result are shared with MCP in one solve path,
//! which [`acp()`], [`acp_depth`], [`acp_with_oracle`] and
//! [`UgraphSession::solve`] all run.

use ugraph_graph::UncertainGraph;
use ugraph_sampling::{EngineStats, Oracle, RowCacheStats};

use crate::clustering::Clustering;
use crate::config::{AcpInvocation, ClusterConfig};
use crate::driver::{solve_on, Found, Guesser};
use crate::error::{ClusterError, InterruptReport};
use crate::request::{ClusterRequest, SolveResult};
use crate::session::UgraphSession;

/// Output of the ACP driver.
#[derive(Clone, Debug)]
pub struct AcpResult {
    /// The full k-clustering (partial best completed by attaching outliers
    /// to their most-reliable centers).
    pub clustering: Clustering,
    /// Estimated connection probability of each node to its center in the
    /// completed clustering.
    pub assign_probs: Vec<f64>,
    /// The driver's `φ_best`: average assignment probability of the best
    /// **partial** clustering (outliers counted as 0, per Algorithm 3). The
    /// completed clustering's true average is at least this.
    pub avg_prob_estimate: f64,
    /// The threshold `q` that produced the returned clustering.
    pub final_q: f64,
    /// Number of `min-partial` invocations performed.
    pub guesses: usize,
    /// Monte-Carlo samples in the pool at termination (1 for exact oracles).
    pub samples_used: usize,
    /// How the oracle's row cache served the schedule's probability rows
    /// (all zero for oracles without a cache).
    pub row_cache: RowCacheStats,
    /// Lazy block-finalization counters of the backing engine (all zero
    /// unless the pool labelled or swept blocks for unlimited queries).
    pub engine: EngineStats,
    /// `Some` iff the run was interrupted mid-schedule and completed
    /// best-effort under
    /// [`DegradeMode::BestEffort`](crate::DegradeMode::BestEffort) (see
    /// [`crate::SolveResult::interrupt`]).
    pub interrupt: Option<InterruptReport>,
}

impl From<SolveResult> for AcpResult {
    /// Projects a session [`SolveResult`] onto the legacy ACP shape.
    fn from(r: SolveResult) -> AcpResult {
        AcpResult {
            clustering: r.clustering,
            assign_probs: r.assign_probs,
            avg_prob_estimate: r.objective_estimate,
            final_q: r.final_q,
            guesses: r.guesses,
            samples_used: r.samples_used,
            row_cache: r.row_cache,
            engine: r.engine,
            interrupt: r.interrupt,
        }
    }
}

/// Runs ACP on `graph` with Monte-Carlo estimation (unlimited path
/// length).
///
/// A thin wrapper over a single-request [`UgraphSession`] — workloads
/// issuing many requests on one graph should hold a session instead (see
/// [`crate::mcp()`](crate::mcp::mcp)).
pub fn acp(
    graph: &UncertainGraph,
    k: usize,
    cfg: &ClusterConfig,
) -> Result<AcpResult, ClusterError> {
    let mut session = UgraphSession::new(graph, cfg.clone())?;
    session.solve(ClusterRequest::acp(k)).map(AcpResult::from)
}

/// Runs the depth-limited ACP variant (paper §3.4).
///
/// In `Theory` mode this is Theorem 6's
/// `min-partial-d(G, k, q³, n, q, d, ⌊d/3⌋)`: selection disks at depth
/// `⌊d/3⌋`, cover disks at depth `d`. In `Practical` mode both disks use
/// depth `d`, mirroring the practical unlimited invocation. A thin
/// wrapper over a single-request [`UgraphSession`].
pub fn acp_depth(
    graph: &UncertainGraph,
    k: usize,
    d: u32,
    cfg: &ClusterConfig,
) -> Result<AcpResult, ClusterError> {
    let mut session = UgraphSession::new(graph, cfg.clone())?;
    session.solve(ClusterRequest::acp_depth(k, d)).map(AcpResult::from)
}

/// Runs ACP against an arbitrary [`Oracle`].
pub fn acp_with_oracle<O: Oracle + ?Sized>(
    oracle: &mut O,
    k: usize,
    cfg: &ClusterConfig,
) -> Result<AcpResult, ClusterError> {
    solve_on(oracle, ClusterRequest::acp(k), cfg).map(AcpResult::from)
}

/// Algorithm 3's guess loop: `q = 1` (lines 1–3), then the descent (lines
/// 4–13), keeping the partial clustering of best `φ` and returning its
/// completion. The first run already yields a usable clustering, so from
/// the second guess on an interruption under
/// [`DegradeMode::BestEffort`](crate::DegradeMode::BestEffort) just ends
/// the schedule.
pub(crate) fn schedule<O: Oracle + ?Sized>(g: &mut Guesser<'_, O>) -> Result<Found, ClusterError> {
    let cfg = g.cfg;
    // Theorem 4 covers at q³ with every uncovered node a candidate; the
    // practical invocation covers at q. The cover threshold is also the
    // largest φ a threshold-q clustering is guaranteed to reach, so the
    // loop stops once it falls below the best φ seen (line 5).
    let (cube, alpha) = match cfg.acp_invocation {
        AcpInvocation::Theory => (true, usize::MAX),
        AcpInvocation::Practical => (false, cfg.alpha),
    };
    let cover = |q: f64| if cube { q * q * q } else { q };
    let mut best = g.run(cover(1.0), alpha, 1.0)?;
    let (mut phi_best, mut best_q) = (best.phi(), 1.0f64);
    let mut last = 1.0f64;
    for q in cfg.descent() {
        // The descent repeats p_L once it gets there, and starts there
        // when p_L = 1: a threshold not below the last one run ends it.
        if q >= last || cover(q) < phi_best {
            break;
        }
        let pc = match g.run(cover(q), alpha, q) {
            Ok(pc) => pc,
            Err(e) => {
                g.stop(e)?;
                break;
            }
        };
        let phi = pc.phi();
        if phi >= phi_best {
            (phi_best, best, best_q) = (phi, pc, q);
        }
        last = q;
    }
    let (clustering, assign_probs) = best.complete();
    Ok((clustering, assign_probs, phi_best, best_q))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ugraph_graph::{GraphBuilder, NodeId};
    use ugraph_sampling::{ExactOracle, SampleSchedule};

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
        let r = acp_with_oracle(&mut oracle, 2, &ClusterConfig::default()).unwrap();
        assert!(r.clustering.is_full());
        let a = r.clustering.cluster_of(NodeId(0));
        assert_eq!(r.clustering.cluster_of(NodeId(2)), a);
        assert_ne!(r.clustering.cluster_of(NodeId(4)), a);
        assert!(r.avg_prob_estimate > 0.8, "φ = {}", r.avg_prob_estimate);
    }

    #[test]
    fn splits_communities_monte_carlo() {
        let g = two_communities(0.05);
        let cfg = ClusterConfig::default().with_seed(11);
        let r = acp(&g, 2, &cfg).unwrap();
        assert!(r.clustering.is_full());
        let a = r.clustering.cluster_of(NodeId(0));
        assert_eq!(r.clustering.cluster_of(NodeId(1)), a);
        assert_ne!(r.clustering.cluster_of(NodeId(5)), a);
    }

    #[test]
    fn theory_invocation_also_works() {
        let g = two_communities(0.05);
        let cfg = ClusterConfig::default()
            .with_acp_invocation(AcpInvocation::Theory)
            .with_seed(5)
            .with_schedule(SampleSchedule::Fixed(400));
        let r = acp(&g, 2, &cfg).unwrap();
        assert!(r.clustering.is_full());
        assert!(r.avg_prob_estimate > 0.5);
    }

    #[test]
    fn always_returns_full_clustering_even_when_disconnected() {
        // 3 components but k = 2: ACP completes by arbitrary attachment
        // (unlike MCP, which must fail).
        let mut b = GraphBuilder::new(6);
        b.add_edge(0, 1, 0.9).unwrap();
        b.add_edge(2, 3, 0.9).unwrap();
        b.add_edge(4, 5, 0.9).unwrap();
        let g = b.build().unwrap();
        let r = acp(&g, 2, &ClusterConfig::default()).unwrap();
        assert!(r.clustering.is_full());
        // Two of three pairs get a real center; φ ≈ 4/6 · 0.9-ish.
        assert!(r.avg_prob_estimate > 0.5);
    }

    #[test]
    fn k_out_of_range() {
        let g = two_communities(0.5);
        assert!(matches!(
            acp(&g, 0, &ClusterConfig::default()),
            Err(ClusterError::KOutOfRange { .. })
        ));
        assert!(matches!(
            acp(&g, 7, &ClusterConfig::default()),
            Err(ClusterError::KOutOfRange { .. })
        ));
    }

    #[test]
    fn reproducible_with_seed() {
        let g = two_communities(0.2);
        let cfg = ClusterConfig::default().with_seed(77);
        let r1 = acp(&g, 2, &cfg).unwrap();
        let r2 = acp(&g, 2, &cfg).unwrap();
        assert_eq!(r1.clustering, r2.clustering);
        assert_eq!(r1.avg_prob_estimate, r2.avg_prob_estimate);
    }

    #[test]
    fn row_cache_and_batching_do_not_change_results() {
        let g = two_communities(0.2);
        // Unbounded, and under 4 KiB, which holds the masks but declines
        // the labels, so every row sweeps masks.
        for memory_budget in [None, Some(4 << 10)] {
            for inv in [AcpInvocation::Practical, AcpInvocation::Theory] {
                let on = ClusterConfig { memory_budget, ..ClusterConfig::default() }
                    .with_seed(13)
                    .with_acp_invocation(inv);
                let off = on.clone().with_row_cache(false);
                let a = acp(&g, 2, &on).unwrap();
                let b = acp(&g, 2, &off).unwrap();
                assert_eq!(a.clustering, b.clustering, "{memory_budget:?} {inv:?}");
                assert_eq!(a.assign_probs, b.assign_probs, "{memory_budget:?} {inv:?}");
                assert_eq!(a.avg_prob_estimate, b.avg_prob_estimate);
                assert_eq!(a.guesses, b.guesses);
                assert_eq!(a.row_cache.rows_served(), b.row_cache.rows_served());
                assert_eq!((b.row_cache.hits, b.row_cache.topups), (0, 0));
                if inv == AcpInvocation::Theory {
                    // α = n re-queries candidates across guesses: at least
                    // some rows must have been served from cache.
                    assert!(
                        a.row_cache.hits > 0,
                        "{memory_budget:?} Theory: expected cached rows, got {:?}",
                        a.row_cache
                    );
                }
            }
        }
    }

    #[test]
    fn theorem4_bound_on_exact_oracle() {
        // avg-prob ≥ (p_opt-avg / ((1+γ)·H(n)))³ — loose, but must hold.
        let g = two_communities(0.3);
        let mut exact = ExactOracle::new(&g).unwrap();
        let opt = crate::brute::brute_force_opt(&exact, 2).unwrap();
        let mut oracle = ExactOracle::new(&g).unwrap();
        let cfg = ClusterConfig::default().with_acp_invocation(AcpInvocation::Theory);
        let r = acp_with_oracle(&mut oracle, 2, &cfg).unwrap();
        let h6 = ugraph_sampling::harmonic(6);
        let bound = (opt.best_avg_prob / (1.1 * h6)).powi(3);
        // Evaluate the actual achieved average against the exact oracle.
        let achieved = crate::objectives::avg_prob(&mut exact, &r.clustering).unwrap();
        assert!(achieved >= bound - 1e-9, "avg {achieved} below bound {bound}");
    }

    #[test]
    fn depth_limited_acp_runs() {
        let mut b = GraphBuilder::new(7);
        for i in 0..6 {
            b.add_edge(i, i + 1, 1.0).unwrap();
        }
        let g = b.build().unwrap();
        let r = acp_depth(&g, 2, 2, &ClusterConfig::default()).unwrap();
        assert!(r.clustering.is_full());
        // Depth-2 coverage of a 7-path with 2 centers misses at least one
        // node (2 centers × 5-node balls = 10 ≥ 7, so full φ can be 1 — but
        // with completion it is in (0, 1]).
        assert!(r.avg_prob_estimate > 0.0);
        let r_theory = acp_depth(
            &g,
            2,
            3,
            &ClusterConfig::default().with_acp_invocation(AcpInvocation::Theory),
        )
        .unwrap();
        assert!(r_theory.clustering.is_full());
    }

    #[test]
    fn phi_best_not_worse_than_first_guess() {
        let g = two_communities(0.4);
        let mut oracle = ExactOracle::new(&g).unwrap();
        let cfg = ClusterConfig::default();
        let r = acp_with_oracle(&mut oracle, 2, &cfg).unwrap();
        // First guess is q=1, φ = covered/strong fraction; final φ_best must
        // be at least that (monotone tracking).
        assert!(r.avg_prob_estimate >= 0.0);
        assert!(r.final_q <= 1.0);
        assert!(r.guesses >= 1);
    }
}
