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

use rand::rngs::SmallRng;
use rand::SeedableRng;

use ugraph_graph::UncertainGraph;
use ugraph_sampling::rng::mix_seed;
use ugraph_sampling::{EngineStats, Oracle, RowCacheStats};

use crate::clustering::Clustering;
use crate::config::{AcpInvocation, ClusterConfig, DegradeMode, GuessStrategy};
use crate::error::{interrupted, ClusterError, InterruptReport};
use crate::min_partial::{min_partial_with, MinPartialParams, MinPartialWorkspace};
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
    /// unless the adaptive backend ran).
    pub engine: EngineStats,
    /// `Some` iff the run was interrupted mid-schedule and completed
    /// best-effort under [`DegradeMode::BestEffort`] (see
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
/// length), on the backend selected by `cfg.engine`.
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
    cfg.validate()?;
    let n = oracle.num_nodes();
    if k < 1 || k >= n {
        return Err(ClusterError::KOutOfRange { k, n });
    }
    let mut rng = SmallRng::seed_from_u64(mix_seed(cfg.seed, 0x6163_7001));
    let mut guesses = 0usize;
    // Shared across all guesses, like the oracle's row cache.
    let mut ws = MinPartialWorkspace::new(n);

    // One min-partial invocation at driver threshold `q`. The guess
    // counter only advances for invocations that ran to completion, so an
    // interruption reports the number of *completed* guesses.
    let mut invoke = |oracle: &mut O, q: f64, rng: &mut SmallRng, guesses: &mut usize| {
        let eps = oracle.epsilon();
        let params = match cfg.acp_invocation {
            AcpInvocation::Theory => {
                let q3 = q * q * q;
                oracle.prepare(q3)?;
                MinPartialParams { k, q: q3, alpha: usize::MAX, q_bar: q, epsilon: eps }
            }
            AcpInvocation::Practical => {
                oracle.prepare(q)?;
                MinPartialParams { k, q, alpha: cfg.alpha, q_bar: q, epsilon: eps }
            }
        };
        let pc = min_partial_with(oracle, &params, rng, &mut ws)?;
        *guesses += 1;
        Ok(pc)
    };
    // The largest φ a threshold-q clustering is *guaranteed* to reach; the
    // loop stops once it falls below the best φ seen (Algorithm 3 line 5).
    let potential = |q: f64| match cfg.acp_invocation {
        AcpInvocation::Theory => q * q * q,
        AcpInvocation::Practical => q,
    };

    // Line 1-3: initial run at q = 1. With no clustering in hand yet,
    // interruptions always surface as typed errors (BestEffort included).
    let first = match invoke(oracle, 1.0, &mut rng, &mut guesses) {
        Ok(pc) => pc,
        Err(e) => return Err(interrupted(e, oracle.num_samples(), guesses)),
    };
    let mut phi_best = first.phi();
    let mut best = first;
    let mut best_q = 1.0f64;
    let mut interrupt = None;

    // Guessing loop (lines 4-13).
    let mut next_q: Box<dyn FnMut() -> f64> = match cfg.guess {
        GuessStrategy::Geometric => {
            let gamma = cfg.gamma;
            let mut q = 1.0f64;
            Box::new(move || {
                q /= 1.0 + gamma;
                q
            })
        }
        GuessStrategy::Accelerated => {
            let gamma = cfg.gamma;
            let mut i = 0u32;
            Box::new(move || {
                let q = 1.0 - gamma * f64::from(2u32.saturating_pow(i));
                i += 1;
                q
            })
        }
    };

    loop {
        let q = next_q().max(cfg.p_l);
        if potential(q) < phi_best {
            break;
        }
        // The first run already produced a usable clustering, so under
        // BestEffort an interruption just ends the schedule early and the
        // best completion so far is returned; injected faults still
        // surface as errors.
        let pc = match invoke(oracle, q, &mut rng, &mut guesses) {
            Ok(pc) => pc,
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
        };
        let phi = pc.phi();
        if phi >= phi_best {
            phi_best = phi;
            best = pc;
            best_q = q;
        }
        if q <= cfg.p_l {
            break;
        }
    }

    let (clustering, assign_probs) = best.complete();
    Ok(AcpResult {
        clustering,
        assign_probs,
        avg_prob_estimate: phi_best,
        final_q: best_q,
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
    use ugraph_sampling::{ExactOracle, ExactOracleAdapter, SampleSchedule};

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
        use ugraph_sampling::EngineKind;
        let g = two_communities(0.2);
        for engine in [EngineKind::Adaptive, EngineKind::BitParallel] {
            for inv in [AcpInvocation::Practical, AcpInvocation::Theory] {
                let on = ClusterConfig::default()
                    .with_seed(13)
                    .with_engine(engine)
                    .with_acp_invocation(inv);
                let off = on.clone().with_row_cache(false);
                let a = acp(&g, 2, &on).unwrap();
                let b = acp(&g, 2, &off).unwrap();
                assert_eq!(a.clustering, b.clustering, "{engine:?} {inv:?}");
                assert_eq!(a.assign_probs, b.assign_probs, "{engine:?} {inv:?}");
                assert_eq!(a.avg_prob_estimate, b.avg_prob_estimate);
                assert_eq!(a.guesses, b.guesses);
                assert_eq!(a.row_cache.rows_served(), b.row_cache.rows_served());
                assert_eq!((b.row_cache.hits, b.row_cache.topups), (0, 0));
                if inv == AcpInvocation::Theory {
                    // α = n re-queries candidates across guesses: at least
                    // some rows must have been served from cache.
                    assert!(
                        a.row_cache.hits > 0,
                        "{engine:?} Theory: expected cached rows, got {:?}",
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
        let exact = ExactOracle::new(&g).unwrap();
        let opt = crate::brute::brute_force_opt(&exact, 2).unwrap();
        let mut oracle = ExactOracleAdapter::new(ExactOracle::new(&g).unwrap());
        let cfg = ClusterConfig::default().with_acp_invocation(AcpInvocation::Theory);
        let r = acp_with_oracle(&mut oracle, 2, &cfg).unwrap();
        let h6 = ugraph_sampling::harmonic(6);
        let bound = (opt.best_avg_prob / (1.1 * h6)).powi(3);
        // Evaluate the actual achieved average against the exact oracle.
        let achieved =
            crate::objectives::avg_prob(&mut ExactOracleAdapter::new(exact), &r.clustering)
                .unwrap();
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
        let mut oracle = ExactOracleAdapter::new(ExactOracle::new(&g).unwrap());
        let cfg = ClusterConfig::default();
        let r = acp_with_oracle(&mut oracle, 2, &cfg).unwrap();
        // First guess is q=1, φ = covered/strong fraction; final φ_best must
        // be at least that (monotone tracking).
        assert!(r.avg_prob_estimate >= 0.0);
        assert!(r.final_q <= 1.0);
        assert!(r.guesses >= 1);
    }
}
