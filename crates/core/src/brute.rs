//! Brute-force optimal clusterings on exhaustively-solvable instances.
//!
//! For a fixed set of centers, the optimal assignment for **both** the MCP
//! and ACP objectives attaches every node to its highest-probability center
//! (each node's contribution depends only on its own assignment), so the
//! optimum over all k-clusterings is the maximum over all
//! `C(n, k)` center subsets. This is exponential and exists purely to
//! validate the approximation guarantees (Theorems 3 and 4) in tests and to
//! compute `p_opt` on the tiny instances of the hardness reduction.

use ugraph_graph::NodeId;
use ugraph_sampling::{ExactOracle, Oracle};

/// The brute-forced optima for a given `k`.
#[derive(Clone, Debug)]
pub struct BruteForceOpt {
    /// `p_opt-min(k)`: the best achievable `min-prob` (Eq. 1).
    pub best_min_prob: f64,
    /// A center set attaining `best_min_prob`.
    pub best_min_centers: Vec<NodeId>,
    /// `p_opt-avg(k)`: the best achievable `avg-prob` (Eq. 2).
    pub best_avg_prob: f64,
    /// A center set attaining `best_avg_prob`.
    pub best_avg_centers: Vec<NodeId>,
}

/// Enumerates all k-subsets of centers and returns the exact optima.
/// Returns `None` when `k` is zero or exceeds the node count.
///
/// Cost: `C(n, k) · n · k` probability lookups — use only on tiny graphs.
pub fn brute_force_opt(oracle: &ExactOracle, k: usize) -> Option<BruteForceOpt> {
    let n = oracle.num_nodes();
    if k == 0 || k > n {
        return None;
    }
    let mut best_min = f64::NEG_INFINITY;
    let mut best_min_centers = Vec::new();
    let mut best_avg = f64::NEG_INFINITY;
    let mut best_avg_centers = Vec::new();

    // Lexicographic combination enumeration.
    let mut comb: Vec<usize> = (0..k).collect();
    loop {
        let (min_p, avg_p) = evaluate(oracle, &comb);
        if min_p > best_min {
            best_min = min_p;
            best_min_centers = comb.iter().map(|&i| NodeId::from_index(i)).collect();
        }
        if avg_p > best_avg {
            best_avg = avg_p;
            best_avg_centers = comb.iter().map(|&i| NodeId::from_index(i)).collect();
        }
        // Advance to the next combination.
        let mut i = k;
        loop {
            if i == 0 {
                return Some(BruteForceOpt {
                    best_min_prob: best_min,
                    best_min_centers,
                    best_avg_prob: best_avg,
                    best_avg_centers,
                });
            }
            i -= 1;
            if comb[i] != i + n - k {
                comb[i] += 1;
                for j in i + 1..k {
                    comb[j] = comb[j - 1] + 1;
                }
                break;
            }
        }
    }
}

/// Objective values of the best assignment to the given centers.
fn evaluate(oracle: &ExactOracle, centers: &[usize]) -> (f64, f64) {
    let n = oracle.num_nodes();
    let mut min_p = 1.0f64;
    let mut sum_p = 0.0f64;
    for u in 0..n {
        let best = centers
            .iter()
            .map(|&c| oracle.pair_probability(NodeId::from_index(c), NodeId::from_index(u)))
            .fold(0.0f64, f64::max);
        min_p = min_p.min(best);
        sum_p += best;
    }
    (min_p, sum_p / n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ugraph_graph::GraphBuilder;

    fn two_communities(bridge: f64) -> ExactOracle {
        let mut b = GraphBuilder::new(6);
        for (u, v) in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)] {
            b.add_edge(u, v, 0.9).unwrap();
        }
        b.add_edge(2, 3, bridge).unwrap();
        ExactOracle::new(&b.build().unwrap()).unwrap()
    }

    #[test]
    fn k_edge_cases() {
        let oracle = two_communities(0.1);
        assert!(brute_force_opt(&oracle, 0).is_none());
        assert!(brute_force_opt(&oracle, 7).is_none());
        assert!(brute_force_opt(&oracle, 6).is_some());
    }

    #[test]
    fn k_equals_n_is_perfect() {
        let oracle = two_communities(0.1);
        let opt = brute_force_opt(&oracle, 6).unwrap();
        // Exact-oracle world probabilities accumulate tiny float error.
        assert!((opt.best_min_prob - 1.0).abs() < 1e-12);
        assert!((opt.best_avg_prob - 1.0).abs() < 1e-12);
    }

    #[test]
    fn k2_picks_one_center_per_community() {
        let oracle = two_communities(0.05);
        let opt = brute_force_opt(&oracle, 2).unwrap();
        // Optimal centers must straddle the bridge: one in {0,1,2}, one in
        // {3,4,5}.
        let sides: Vec<bool> = opt.best_min_centers.iter().map(|c| c.index() < 3).collect();
        assert_ne!(sides[0], sides[1], "centers {:?}", opt.best_min_centers);
        // Triangle with p = 0.9: Pr(u~v) for adjacent nodes is
        // 0.9 + 0.1·0.81 = 0.981.
        assert!(opt.best_min_prob > 0.9);
        assert!(opt.best_avg_prob >= opt.best_min_prob);
    }

    #[test]
    fn avg_at_least_min_always() {
        let oracle = two_communities(0.4);
        for k in 1..6 {
            let opt = brute_force_opt(&oracle, k).unwrap();
            assert!(
                opt.best_avg_prob >= opt.best_min_prob - 1e-12,
                "k={k}: avg {} < min {}",
                opt.best_avg_prob,
                opt.best_min_prob
            );
        }
    }

    #[test]
    fn opt_is_monotone_in_k() {
        let oracle = two_communities(0.2);
        let mut prev_min = 0.0;
        let mut prev_avg = 0.0;
        for k in 1..=6 {
            let opt = brute_force_opt(&oracle, k).unwrap();
            assert!(opt.best_min_prob >= prev_min - 1e-12, "min not monotone at k={k}");
            assert!(opt.best_avg_prob >= prev_avg - 1e-12, "avg not monotone at k={k}");
            prev_min = opt.best_min_prob;
            prev_avg = opt.best_avg_prob;
        }
    }
}
