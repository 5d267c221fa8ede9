//! Property-based tests for the sampling layer, validating the paper's
//! probabilistic claims on exhaustively-solvable instances.

use proptest::prelude::*;
use ugraph_graph::{GraphBuilder, NodeId, UncertainGraph};
use ugraph_sampling::{
    BitParallelPool, ExactOracle, McOracle, Oracle, SampleSchedule, WorldEngine,
};

/// Strategy: a small random uncertain graph with at most `max_m ≤ 12`
/// uncertain edges, so the exact oracle stays cheap.
fn small_graph(max_n: u32, max_m: usize) -> impl Strategy<Value = UncertainGraph> {
    (3..=max_n).prop_flat_map(move |n| {
        let edge = (0..n, 0..n, 0.05f64..=1.0);
        proptest::collection::vec(edge, 0..max_m).prop_map(move |edges| {
            let mut b = GraphBuilder::new(n as usize);
            for (u, v, p) in edges {
                if u != v {
                    b.add_edge(u, v, p).unwrap();
                }
            }
            b.build().unwrap()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// **Theorem 1**: Pr(u ~ z) ≥ Pr(u ~ v) · Pr(v ~ z) for all triplets.
    #[test]
    fn triangle_inequality_exact(g in small_graph(8, 12)) {
        let oracle = ExactOracle::new(&g).unwrap();
        let n = g.num_nodes() as u32;
        for u in 0..n {
            for v in 0..n {
                for z in 0..n {
                    let puz = oracle.pair_probability(NodeId(u), NodeId(z));
                    let puv = oracle.pair_probability(NodeId(u), NodeId(v));
                    let pvz = oracle.pair_probability(NodeId(v), NodeId(z));
                    prop_assert!(
                        puz >= puv * pvz - 1e-12,
                        "triangle violated: Pr({u}~{z})={puz} < {puv}·{pvz}"
                    );
                }
            }
        }
    }

    /// **Eq. 6** (depth-limited triangle inequality):
    /// Pr(u ~d~ z) ≥ Pr(u ~d1~ v) · Pr(v ~d2~ z) whenever d ≥ d1 + d2.
    #[test]
    fn depth_triangle_inequality_exact(g in small_graph(7, 10), d1 in 1u32..3, d2 in 1u32..3) {
        let d = d1 + d2;
        let od = ExactOracle::with_depth(&g, d).unwrap();
        let od1 = ExactOracle::with_depth(&g, d1).unwrap();
        let od2 = ExactOracle::with_depth(&g, d2).unwrap();
        let n = g.num_nodes() as u32;
        for u in 0..n {
            for v in 0..n {
                for z in 0..n {
                    let lhs = od.pair_probability(NodeId(u), NodeId(z));
                    let rhs = od1.pair_probability(NodeId(u), NodeId(v))
                        * od2.pair_probability(NodeId(v), NodeId(z));
                    prop_assert!(lhs >= rhs - 1e-12);
                }
            }
        }
    }

    /// Monotonicity (consequence of Lemma 1): raising an edge probability
    /// never decreases any connection probability.
    #[test]
    fn raising_edge_prob_is_monotone(g in small_graph(7, 10), bump in 0.01f64..0.5) {
        if g.num_edges() == 0 { return Ok(()); }
        let before = ExactOracle::new(&g).unwrap();
        // Bump the probability of edge 0 (capped at 1).
        let mut b = GraphBuilder::new(g.num_nodes());
        for (e, u, v, p) in g.edges() {
            let p2 = if e.index() == 0 { (p + bump).min(1.0) } else { p };
            b.add_edge(u.0, v.0, p2).unwrap();
        }
        let bumped = ExactOracle::new(&b.build().unwrap()).unwrap();
        let n = g.num_nodes() as u32;
        for u in 0..n {
            for v in 0..n {
                prop_assert!(
                    bumped.pair_probability(NodeId(u), NodeId(v))
                        >= before.pair_probability(NodeId(u), NodeId(v)) - 1e-12
                );
            }
        }
    }

    /// Depth monotonicity: Pr(u ~d~ v) is non-decreasing in d and reaches
    /// the unlimited probability at d = n − 1.
    #[test]
    fn depth_probabilities_monotone(g in small_graph(7, 10)) {
        let n = g.num_nodes();
        let unlimited = ExactOracle::new(&g).unwrap();
        let mut prev: Option<ExactOracle> = None;
        for d in 1..n as u32 {
            let cur = ExactOracle::with_depth(&g, d).unwrap();
            for u in 0..n as u32 {
                for v in 0..n as u32 {
                    let c = cur.pair_probability(NodeId(u), NodeId(v));
                    if let Some(p) = &prev {
                        prop_assert!(c >= p.pair_probability(NodeId(u), NodeId(v)) - 1e-12);
                    }
                    prop_assert!(c <= unlimited.pair_probability(NodeId(u), NodeId(v)) + 1e-12);
                }
            }
            prev = Some(cur);
        }
        if let Some(p) = prev {
            for u in 0..n as u32 {
                for v in 0..n as u32 {
                    let a = p.pair_probability(NodeId(u), NodeId(v));
                    let b = unlimited.pair_probability(NodeId(u), NodeId(v));
                    prop_assert!((a - b).abs() < 1e-12, "depth n-1 must equal unlimited");
                }
            }
        }
    }

    /// The Monte-Carlo estimator is consistent: with 4000 samples the
    /// estimate sits within a generous tolerance of the exact value.
    #[test]
    fn estimator_consistency(g in small_graph(6, 8), seed in any::<u64>()) {
        let exact = ExactOracle::new(&g).unwrap();
        let mut pool = BitParallelPool::<4>::new_adaptive(&g, seed, 1);
        pool.ensure(4000);
        for u in 0..g.num_nodes() as u32 {
            for v in 0..g.num_nodes() as u32 {
                let est = pool.pair_estimate(NodeId(u), NodeId(v));
                let want = exact.pair_probability(NodeId(u), NodeId(v));
                // 4000 samples -> std err <= 0.0079; 6 sigma ≈ 0.05.
                prop_assert!(
                    (est - want).abs() < 0.05,
                    "Pr({u}~{v}): est {est} vs exact {want} (seed {seed})"
                );
            }
        }
    }

    /// Estimated center rows agree with pairwise estimates (internal
    /// consistency of the bucket-trick counting).
    #[test]
    fn center_counts_equal_pair_counts(g in small_graph(8, 14), seed in any::<u64>()) {
        let mut pool = BitParallelPool::<4>::new_adaptive(&g, seed, 1);
        pool.ensure(300);
        let n = g.num_nodes();
        let mut counts = vec![0u32; n];
        for c in 0..n as u32 {
            pool.counts_from_center(NodeId(c), &mut counts);
            for v in 0..n as u32 {
                prop_assert_eq!(
                    counts[v as usize] as usize,
                    pool.pair_count(NodeId(c), NodeId(v))
                );
            }
        }
    }

    /// **Thread-count invariance**: under a fixed master seed, the
    /// Monte-Carlo oracle returns bit-identical estimates whether its pool
    /// is generated and queried with 1 thread, 4 threads, or all cores —
    /// the reproducibility contract of the per-index RNG streams plus
    /// integer count merging.
    #[test]
    fn mc_oracle_estimates_independent_of_thread_count(
        g in small_graph(10, 16),
        seed in any::<u64>(),
    ) {
        let n = g.num_nodes();
        let mut oracles: Vec<McOracle> = [1usize, 4, 0]
            .iter()
            .map(|&threads| {
                let pool = BitParallelPool::<4>::new_adaptive(&g, seed, threads);
                let mut o = McOracle::from_engine(Box::new(pool), SampleSchedule::Fixed(400), 0.1);
                o.prepare(0.5).unwrap();
                o
            })
            .collect();
        prop_assert_eq!(oracles[0].num_samples(), 400);
        let mut reference_select = vec![0.0; n];
        let mut reference_cover = vec![0.0; n];
        let mut select = vec![0.0; n];
        let mut cover = vec![0.0; n];
        for c in 0..n as u32 {
            let (first, rest) = oracles.split_at_mut(1);
            first[0].center_probs(NodeId(c), &mut reference_select, &mut reference_cover).unwrap();
            for o in rest {
                o.center_probs(NodeId(c), &mut select, &mut cover).unwrap();
                // Bit-identical, not approximately equal.
                prop_assert_eq!(&select, &reference_select, "select row differs at center {}", c);
                prop_assert_eq!(&cover, &reference_cover, "cover row differs at center {}", c);
            }
        }
        for v in 1..n as u32 {
            let want = oracles[0].pair_prob(NodeId(0), NodeId(v)).unwrap();
            for o in &mut oracles[1..] {
                prop_assert_eq!(o.pair_prob(NodeId(0), NodeId(v)).unwrap(), want);
            }
        }
    }

    /// Thread-count invariance for the depth-limited oracle.
    #[test]
    fn depth_oracle_estimates_independent_of_thread_count(
        g in small_graph(9, 14),
        seed in any::<u64>(),
        d_select in 1u32..3,
        extra_depth in 0u32..3,
    ) {
        let n = g.num_nodes();
        let d_cover = d_select + extra_depth;
        let mut oracles: Vec<McOracle> = [1usize, 4, 0]
            .iter()
            .map(|&threads| {
                let pool = Box::new(BitParallelPool::<4>::new_adaptive(&g, seed, threads));
                let schedule = SampleSchedule::Fixed(300);
                let mut o = McOracle::from_engine_depths(pool, schedule, 0.1, d_select, d_cover)
                    .expect("valid depths");
                o.prepare(0.5).unwrap();
                o
            })
            .collect();
        let mut reference_select = vec![0.0; n];
        let mut reference_cover = vec![0.0; n];
        let mut select = vec![0.0; n];
        let mut cover = vec![0.0; n];
        for c in 0..n as u32 {
            let (first, rest) = oracles.split_at_mut(1);
            first[0].center_probs(NodeId(c), &mut reference_select, &mut reference_cover).unwrap();
            for o in rest {
                o.center_probs(NodeId(c), &mut select, &mut cover).unwrap();
                prop_assert_eq!(&select, &reference_select, "select row differs at center {}", c);
                prop_assert_eq!(&cover, &reference_cover, "cover row differs at center {}", c);
            }
        }
    }

    /// Thread-count invariance at the pool layer: the sampled worlds
    /// themselves (not just aggregates) are identical across thread counts.
    #[test]
    fn pools_identical_across_thread_counts(g in small_graph(10, 16), seed in any::<u64>()) {
        let n = g.num_nodes();
        let mut serial = BitParallelPool::<1>::new_adaptive(&g, seed, 1);
        let mut parallel = BitParallelPool::<1>::new_adaptive(&g, seed, 4);
        serial.ensure(300);
        parallel.ensure(300);
        let (mut a, mut b) = (vec![0u32; n], vec![0u32; n]);
        for i in 0..300 {
            serial.labels_into(i, &mut a);
            parallel.labels_into(i, &mut b);
            prop_assert_eq!(&a, &b, "sample {} differs", i);
        }
        for block in 0..serial.num_blocks() {
            for e in 0..g.num_edges() {
                prop_assert_eq!(
                    serial.edge_mask(block, e),
                    parallel.edge_mask(block, e),
                    "block {} edge {} differs", block, e
                );
            }
        }
    }

    /// Schedules never return zero samples and respect their caps.
    #[test]
    fn schedules_are_sane(q in 1e-6f64..1.0, n in 2usize..10_000) {
        let practical = SampleSchedule::practical();
        let r = practical.samples_for(q, n);
        prop_assert!((50..=2048).contains(&r));
        let fixed = SampleSchedule::Fixed(7);
        prop_assert_eq!(fixed.samples_for(q, n), 7);
        let theory = SampleSchedule::Theory { epsilon: 0.5, gamma: 0.1, p_l: 1e-4 };
        prop_assert!(theory.samples_for(q, n) > 0);
    }
}
