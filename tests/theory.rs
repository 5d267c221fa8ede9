//! Cross-crate validation of the paper's analytical claims on concrete
//! instances (complementing the per-crate proptest suites).

use ugraph::cluster::brute::brute_force_opt;
use ugraph::cluster::{acp_with_oracle, avg_prob, mcp_with_oracle, min_prob};
use ugraph::prelude::*;
use ugraph::sampling::{harmonic, ExactOracle};

/// Wheel-ish test graph: hub 0 connected to 6 rim nodes, rim cycle.
fn wheel(p_spoke: f64, p_rim: f64) -> UncertainGraph {
    let mut b = GraphBuilder::new(7);
    for v in 1..7u32 {
        b.add_edge(0, v, p_spoke).unwrap();
    }
    for v in 1..7u32 {
        let w = if v == 6 { 1 } else { v + 1 };
        b.add_edge(v, w, p_rim).unwrap();
    }
    b.build().unwrap()
}

#[test]
fn theorem3_holds_on_wheels() {
    for (ps, pr) in [(0.9, 0.2), (0.5, 0.5), (0.3, 0.8)] {
        let g = wheel(ps, pr);
        for k in 1..4usize {
            let exact = ExactOracle::new(&g).unwrap();
            let opt = brute_force_opt(&exact, k).unwrap();
            let mut oracle = ExactOracle::new(&g).unwrap();
            let cfg = ClusterConfig::default().with_seed(k as u64);
            let r = mcp_with_oracle(&mut oracle, k, &cfg).unwrap();
            let mut eval = exact;
            let achieved = min_prob(&mut eval, &r.clustering).unwrap();
            let bound = opt.best_min_prob.powi(2) / 1.1;
            assert!(achieved >= bound - 1e-9, "wheel({ps},{pr}) k={k}: {achieved} < {bound}");
            assert!(achieved <= opt.best_min_prob + 1e-9);
        }
    }
}

#[test]
fn theorem4_holds_on_wheels() {
    for (ps, pr) in [(0.9, 0.2), (0.4, 0.6)] {
        let g = wheel(ps, pr);
        for k in 1..4usize {
            let exact = ExactOracle::new(&g).unwrap();
            let opt = brute_force_opt(&exact, k).unwrap();
            let mut oracle = ExactOracle::new(&g).unwrap();
            let cfg = ClusterConfig::default().with_seed(k as u64);
            let r = acp_with_oracle(&mut oracle, k, &cfg).unwrap();
            let mut eval = exact;
            let achieved = avg_prob(&mut eval, &r.clustering).unwrap();
            let bound = (opt.best_avg_prob / (1.1 * harmonic(7))).powi(3);
            assert!(achieved >= bound - 1e-9, "wheel({ps},{pr}) k={k}: {achieved} < {bound}");
        }
    }
}

#[test]
fn monte_carlo_mcp_close_to_exact_oracle_result() {
    // With ample samples the MC pipeline should land within estimation
    // noise of the exact-oracle pipeline's objective value.
    let g = wheel(0.8, 0.4);
    let k = 2;
    let cfg = ClusterConfig::default().with_seed(6).with_schedule(SampleSchedule::Fixed(4000));
    let mc = mcp(&g, k, &cfg).unwrap();
    let mut oracle = ExactOracle::new(&g).unwrap();
    let ex = mcp_with_oracle(&mut oracle, k, &ClusterConfig::default()).unwrap();
    let mut eval_a = ExactOracle::new(&g).unwrap();
    let mut eval_b = ExactOracle::new(&g).unwrap();
    let a = min_prob(&mut eval_a, &mc.clustering).unwrap();
    let b = min_prob(&mut eval_b, &ex.clustering).unwrap();
    assert!((a - b).abs() < 0.15, "MC result {a} far from exact-oracle result {b}");
}

#[test]
fn depth_theorems_on_certain_paths() {
    // On a certain path of 7 nodes: p_opt-min(k=2, d=⌊3/2⌋=1) covers via
    // centers with 1-balls: 2 centers × 3 nodes < 7, so p_opt(2,1) = 0.
    // With d = 3 full depth, k = 2 centers at positions 1 and 4(ish) cover
    // everything within 3 hops: the depth-limited MCP must find pmin = 1.
    let mut b = GraphBuilder::new(7);
    for i in 0..6 {
        b.add_edge(i, i + 1, 1.0).unwrap();
    }
    let g = b.build().unwrap();
    let cfg = ClusterConfig::default().with_seed(1);
    let r = mcp_depth(&g, 2, 3, &cfg).unwrap();
    assert!(r.min_prob_estimate >= 0.999);
    // Eq. 7 objective evaluated with the exact depth oracle agrees.
    let mut eval = ExactOracle::with_depth(&g, 3).unwrap();
    assert!((min_prob(&mut eval, &r.clustering).unwrap() - 1.0).abs() < 1e-9);
}

#[test]
fn hardness_gadget_scales() {
    // Build a slightly larger set-cover gadget and verify both directions
    // of Theorem 2 via brute force.
    let inst = ugraph::cluster::hardness::SetCoverInstance {
        universe: 4,
        sets: vec![vec![0, 1], vec![1, 2], vec![2, 3], vec![0, 3]],
    };
    let (g, p_hat) = ugraph::cluster::hardness::set_cover_to_mcp(&inst);
    let oracle = ExactOracle::new(&g).unwrap();
    // Cover of size 2 exists ({0,1},{2,3}); of size 1 does not.
    let opt1 = brute_force_opt(&oracle, 1).unwrap();
    assert!(opt1.best_min_prob < p_hat * (1.0 - 1e-9));
    let opt2 = brute_force_opt(&oracle, 2).unwrap();
    assert!(opt2.best_min_prob >= p_hat * (1.0 - 1e-9));
}

#[test]
fn acp_never_below_k_over_n_by_much() {
    // popt-avg(k) ≥ k/n (centers have probability 1); the returned
    // clustering's φ must respect the cubic bound on that floor at least.
    let g = wheel(0.2, 0.2);
    let mut oracle = ExactOracle::new(&g).unwrap();
    let r = acp_with_oracle(&mut oracle, 3, &ClusterConfig::default()).unwrap();
    let mut eval = ExactOracle::new(&g).unwrap();
    let achieved = avg_prob(&mut eval, &r.clustering).unwrap();
    assert!(achieved >= 3.0 / 7.0 * 0.9, "achieved {achieved}");
}
