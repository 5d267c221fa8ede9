//! Property-based validation of the paper's theorems on
//! exhaustively-solvable instances, using the exact oracle so that the
//! guarantees must hold deterministically (no Monte-Carlo slack).

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use ugraph_cluster::brute::brute_force_opt;
use ugraph_cluster::hardness::{set_cover_to_mcp, SetCoverInstance};
use ugraph_cluster::{
    acp_with_oracle, avg_prob, mcp_with_oracle, min_partial, min_prob, AcpInvocation,
    ClusterConfig, GuessStrategy, MinPartialParams,
};
use ugraph_graph::{GraphBuilder, NodeId, UncertainGraph};
use ugraph_sampling::ExactOracle;

/// Random connected-ish small graph (n ≤ 8, ≤ 12 uncertain edges).
fn small_graph() -> impl Strategy<Value = UncertainGraph> {
    (4..=8u32).prop_flat_map(|n| {
        let spine = Just(n);
        let extra = proptest::collection::vec((0..n, 0..n, 0.1f64..=1.0), 0..6);
        (spine, extra, 0.2f64..=0.95).prop_map(|(n, extra, p_spine)| {
            let mut b = GraphBuilder::new(n as usize);
            // A spine keeps most instances connected so full clusterings exist.
            for i in 0..n - 1 {
                b.add_edge(i, i + 1, p_spine).unwrap();
            }
            for (u, v, p) in extra {
                if u != v {
                    b.add_edge(u, v, p).unwrap();
                }
            }
            b.build().unwrap()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// min-partial postconditions (Lemma-level semantics):
    /// covered nodes meet the threshold, centers are pinned, and when
    /// q ≤ p²_opt-min(k) the clustering covers every node (Lemma 2).
    #[test]
    fn min_partial_postconditions(g in small_graph(), k in 1usize..4, seed in any::<u64>()) {
        let n = g.num_nodes();
        prop_assume!(k < n);
        let exact = ExactOracle::new(&g).unwrap();
        let opt = brute_force_opt(&exact, k).unwrap();
        let mut oracle = exact;
        let mut rng = SmallRng::seed_from_u64(seed);

        for q in [0.9, 0.5, 0.2] {
            let pc = min_partial(&mut oracle, &MinPartialParams::simple(k, q), &mut rng).unwrap();
            // Covered nodes meet the threshold.
            for u in 0..n {
                if pc.clustering.cluster_of(NodeId::from_index(u)).is_some() {
                    prop_assert!(pc.assign_probs[u] >= q - 1e-12);
                }
            }
            // Centers pinned to their own clusters.
            for (i, &c) in pc.clustering.centers().iter().enumerate() {
                prop_assert_eq!(pc.clustering.cluster_of(c), Some(i));
            }
            prop_assert!(pc.clustering.validate().is_ok());
            // Lemma 2: q ≤ p²_opt ⇒ full coverage.
            if q <= opt.best_min_prob * opt.best_min_prob {
                prop_assert!(
                    pc.clustering.is_full(),
                    "Lemma 2 violated: q = {q} ≤ p²_opt = {} but {} outliers",
                    opt.best_min_prob * opt.best_min_prob,
                    pc.clustering.outliers().len()
                );
            }
        }
    }

    /// Theorem 3: MCP with exact probabilities returns
    /// min-prob ≥ p²_opt-min(k)/(1+γ), and never beats the optimum.
    #[test]
    fn mcp_theorem3_bound(g in small_graph(), k in 1usize..4, seed in any::<u64>()) {
        let n = g.num_nodes();
        prop_assume!(k < n);
        let exact = ExactOracle::new(&g).unwrap();
        let opt = brute_force_opt(&exact, k).unwrap();
        prop_assume!(opt.best_min_prob > 1e-3); // needs a feasible clustering
        let cfg = ClusterConfig::default().with_seed(seed);
        let mut oracle = ExactOracle::new(&g).unwrap();
        let r = mcp_with_oracle(&mut oracle, k, &cfg).unwrap();
        // Evaluate truly (not via the algorithm's own estimate).
        let mut eval = exact;
        let achieved = min_prob(&mut eval, &r.clustering).unwrap();
        let bound = opt.best_min_prob * opt.best_min_prob / (1.0 + cfg.gamma);
        prop_assert!(
            achieved >= bound - 1e-9,
            "Theorem 3 violated: achieved {achieved} < bound {bound} (opt {})",
            opt.best_min_prob
        );
        prop_assert!(achieved <= opt.best_min_prob + 1e-9, "beat the optimum?!");
    }

    /// Same bound under the Geometric (pseudocode-faithful) strategy.
    #[test]
    fn mcp_theorem3_geometric(g in small_graph(), k in 1usize..3, seed in any::<u64>()) {
        let n = g.num_nodes();
        prop_assume!(k < n);
        let exact = ExactOracle::new(&g).unwrap();
        let opt = brute_force_opt(&exact, k).unwrap();
        prop_assume!(opt.best_min_prob > 1e-3);
        let cfg = ClusterConfig::default()
            .with_seed(seed)
            .with_guess(GuessStrategy::Geometric);
        let mut oracle = ExactOracle::new(&g).unwrap();
        let r = mcp_with_oracle(&mut oracle, k, &cfg).unwrap();
        let mut eval = exact;
        let achieved = min_prob(&mut eval, &r.clustering).unwrap();
        let bound = opt.best_min_prob * opt.best_min_prob / (1.0 + cfg.gamma);
        prop_assert!(achieved >= bound - 1e-9);
    }

    /// Theorem 4: ACP with exact probabilities returns
    /// avg-prob ≥ (p_opt-avg(k)/((1+γ)·H(n)))³, and never beats the optimum.
    #[test]
    fn acp_theorem4_bound(g in small_graph(), k in 1usize..4, seed in any::<u64>()) {
        let n = g.num_nodes();
        prop_assume!(k < n);
        let exact = ExactOracle::new(&g).unwrap();
        let opt = brute_force_opt(&exact, k).unwrap();
        for invocation in [AcpInvocation::Theory, AcpInvocation::Practical] {
            let cfg = ClusterConfig::default()
                .with_seed(seed)
                .with_acp_invocation(invocation);
            let mut oracle = ExactOracle::new(&g).unwrap();
            let r = acp_with_oracle(&mut oracle, k, &cfg).unwrap();
            let mut eval = ExactOracle::new(&g).unwrap();
            let achieved = avg_prob(&mut eval, &r.clustering).unwrap();
            let h = ugraph_sampling::harmonic(n);
            let bound = (opt.best_avg_prob / ((1.0 + cfg.gamma) * h)).powi(3);
            prop_assert!(
                achieved >= bound - 1e-9,
                "Theorem 4 violated ({invocation:?}): achieved {achieved} < bound {bound}"
            );
            prop_assert!(achieved <= opt.best_avg_prob + 1e-9, "beat the optimum?!");
        }
    }

    /// Theorem 5 (depth-limited MCP): with exact d-connection
    /// probabilities, min-prob_d ≥ p²_opt-min(k, ⌊d/2⌋)/(1+γ).
    #[test]
    fn mcp_theorem5_depth_bound(g in small_graph(), k in 2usize..4, d in 2u32..5, seed in any::<u64>()) {
        let n = g.num_nodes();
        prop_assume!(k < n);
        let half = ExactOracle::with_depth(&g, d / 2).unwrap();
        let opt_half = brute_force_opt(&half, k).unwrap();
        prop_assume!(opt_half.best_min_prob > 1e-3);
        let cfg = ClusterConfig::default().with_seed(seed);
        // Oracle with selection and cover disks both at depth d (Lemma 5).
        let full = ExactOracle::with_depth(&g, d).unwrap();
        let mut oracle = full;
        let r = mcp_with_oracle(&mut oracle, k, &cfg).unwrap();
        let mut eval = ExactOracle::with_depth(&g, d).unwrap();
        let achieved = min_prob(&mut eval, &r.clustering).unwrap();
        let bound = opt_half.best_min_prob * opt_half.best_min_prob / (1.0 + cfg.gamma);
        prop_assert!(
            achieved >= bound - 1e-9,
            "Theorem 5 violated: achieved {achieved} < bound {bound} at d = {d}"
        );
    }

    /// Theorem 2's reduction: on random small Set-Cover instances, the
    /// gadget admits a k-clustering with min-prob ≥ p̂ iff a size-k cover
    /// exists.
    #[test]
    fn set_cover_reduction_equivalence(
        sets in proptest::collection::vec(
            proptest::collection::btree_set(0usize..4, 1..4), 2..4),
        k in 1usize..3,
    ) {
        let universe = 4;
        let inst = SetCoverInstance {
            universe,
            sets: sets.into_iter().map(|s| s.into_iter().collect()).collect(),
        };
        prop_assume!(inst.every_element_coverable());
        let (g, p_hat) = set_cover_to_mcp(&inst);
        let oracle = ExactOracle::new(&g).unwrap();
        let opt = brute_force_opt(&oracle, k).unwrap();
        // Relative tolerance: the exact oracle reassembles p̂ from 2^u world
        // probabilities, so equality holds only up to float round-off. The
        // no-cover case sits orders of magnitude below p̂ (≈ N·p̂²), far
        // outside the tolerance band.
        prop_assert_eq!(
            opt.best_min_prob >= p_hat * (1.0 - 1e-9),
            inst.has_cover_of_size(k),
            "reduction equivalence broken: min-prob {} vs p̂ {}",
            opt.best_min_prob, p_hat
        );
    }

    /// Monte-Carlo MCP on well-separated instances agrees with the exact
    /// optimum's cluster structure (end-to-end sanity of §4's integration).
    #[test]
    fn mc_mcp_respects_strong_structure(seed in any::<u64>(), p_in in 0.85f64..0.99) {
        // Two 4-cliques bridged weakly.
        let mut b = GraphBuilder::new(8);
        for base in [0u32, 4] {
            for i in base..base + 4 {
                for j in (i + 1)..base + 4 {
                    b.add_edge(i, j, p_in).unwrap();
                }
            }
        }
        b.add_edge(3, 4, 0.02).unwrap();
        let g = b.build().unwrap();
        let cfg = ClusterConfig::default().with_seed(seed);
        let r = ugraph_cluster::mcp(&g, 2, &cfg).unwrap();
        let side0 = r.clustering.cluster_of(NodeId(0));
        for u in 1..4u32 {
            prop_assert_eq!(r.clustering.cluster_of(NodeId(u)), side0);
        }
        let side1 = r.clustering.cluster_of(NodeId(4));
        prop_assert_ne!(side0, side1);
        for u in 5..8u32 {
            prop_assert_eq!(r.clustering.cluster_of(NodeId(u)), side1);
        }
    }
}
