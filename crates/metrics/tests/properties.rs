//! Property-based tests for the metric implementations.
#![allow(clippy::needless_range_loop)] // parallel-array indexing in strategies

use proptest::prelude::*;
use ugraph_cluster::Clustering;
use ugraph_graph::{GraphBuilder, NodeId, UncertainGraph};
use ugraph_metrics::{avpr, clustering_quality, confusion};
use ugraph_sampling::{BitParallelPool, WorldEngine};

/// Random graph plus a random full clustering over it.
fn graph_and_clustering() -> impl Strategy<Value = (UncertainGraph, Clustering)> {
    (4..=14u32).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n, 0..n, 0.1f64..=1.0), 1..30);
        let ks = 1..=(n as usize - 1).min(4);
        (Just(n), edges, ks, any::<u64>()).prop_map(|(n, edges, k, seed)| {
            let mut b = GraphBuilder::new(n as usize);
            for i in 0..n - 1 {
                b.add_edge(i, i + 1, 0.5).unwrap();
            }
            for (u, v, p) in edges {
                if u != v {
                    b.add_edge(u, v, p).unwrap();
                }
            }
            let g = b.build().unwrap();
            // Random-but-valid clustering: centers = first k nodes scrambled
            // by seed; every other node assigned pseudo-randomly.
            let mut centers: Vec<NodeId> = (0..n).map(NodeId).collect();
            let mut state = seed;
            for i in (1..centers.len()).rev() {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let j = (state >> 33) as usize % (i + 1);
                centers.swap(i, j);
            }
            centers.truncate(k);
            let mut assignment = vec![None; n as usize];
            for (i, c) in centers.iter().enumerate() {
                assignment[c.index()] = Some(i as u32);
            }
            for u in 0..n as usize {
                if assignment[u].is_none() {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    assignment[u] = Some(((state >> 33) as usize % k) as u32);
                }
            }
            (g, Clustering::new(centers, assignment))
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Quality metrics stay in range and p_min ≤ p_avg on full clusterings
    /// (the assigned-center probability of every node is ≥ the minimum).
    #[test]
    fn quality_ranges((g, c) in graph_and_clustering(), seed in any::<u64>()) {
        let mut pool = BitParallelPool::<4>::new_adaptive(&g, seed, 1);
        pool.ensure(150);
        let q = clustering_quality(&mut pool, &c);
        prop_assert!((0.0..=1.0).contains(&q.p_min));
        prop_assert!((0.0..=1.0).contains(&q.p_avg));
        prop_assert!(q.p_avg >= q.p_min - 1e-12, "avg {} < min {}", q.p_avg, q.p_min);
    }

    /// AVPR via contingency counting equals brute-force pair averaging,
    /// and reads the same per-world labels from pure-mask and adaptive
    /// pools.
    #[test]
    fn avpr_matches_bruteforce((g, c) in graph_and_clustering(), seed in any::<u64>()) {
        let mut pool = BitParallelPool::<4>::new_adaptive(&g, seed, 1);
        pool.ensure(120);
        let m = avpr(&mut pool, &c);
        let mut mask = BitParallelPool::<1>::new(&g, seed, 1);
        mask.ensure(120);
        prop_assert_eq!(avpr(&mut mask, &c), m);
        let n = g.num_nodes() as u32;
        let (mut is_, mut ic, mut os, mut oc) = (0.0f64, 0usize, 0.0f64, 0usize);
        for u in 0..n {
            for v in (u + 1)..n {
                let p = pool.pair_estimate(NodeId(u), NodeId(v));
                if c.cluster_of(NodeId(u)) == c.cluster_of(NodeId(v)) {
                    is_ += p;
                    ic += 1;
                } else {
                    os += p;
                    oc += 1;
                }
            }
        }
        let want_inner = if ic == 0 { 1.0 } else { is_ / ic as f64 };
        let want_outer = if oc == 0 { 0.0 } else { os / oc as f64 };
        prop_assert!((m.inner - want_inner).abs() < 1e-9, "{} vs {}", m.inner, want_inner);
        prop_assert!((m.outer - want_outer).abs() < 1e-9, "{} vs {}", m.outer, want_outer);
    }

    /// The confusion matrix always partitions the restricted pair set, and
    /// the rates stay in [0, 1].
    #[test]
    fn confusion_is_a_partition(
        (g, c) in graph_and_clustering(),
        complex_seed in any::<u64>(),
    ) {
        // Build 1-3 random complexes over the node set.
        let n = g.num_nodes();
        let mut state = complex_seed;
        let mut next = |m: usize| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as usize % m
        };
        let num_complexes = 1 + next(3);
        let mut complexes: Vec<Vec<NodeId>> = Vec::new();
        for _ in 0..num_complexes {
            let size = 2 + next(n.saturating_sub(2).max(1));
            let mut members: Vec<NodeId> =
                (0..size).map(|_| NodeId::from_index(next(n))).collect();
            members.sort_unstable();
            members.dedup();
            if members.len() >= 2 {
                complexes.push(members);
            }
        }
        prop_assume!(!complexes.is_empty());
        let m = confusion(&c, &complexes);
        // Restricted protein set size.
        let mut in_truth = std::collections::HashSet::new();
        for cx in &complexes {
            in_truth.extend(cx.iter().copied());
        }
        let t = in_truth.len() as u64;
        prop_assert_eq!(m.tp + m.fp + m.fn_ + m.tn, t * (t - 1) / 2);
        for rate in [m.tpr(), m.fpr(), m.precision(), m.f1()] {
            prop_assert!((0.0..=1.0).contains(&rate));
        }
    }

    /// Perfect clustering of the complexes ⇒ TPR 1; all-singletons ⇒ TPR 0
    /// and FPR 0.
    #[test]
    fn confusion_extremes(sizes in proptest::collection::vec(2usize..5, 1..3)) {
        let n: usize = sizes.iter().sum();
        let mut complexes = Vec::new();
        let mut centers = Vec::new();
        let mut assignment = vec![None; n];
        let mut start = 0usize;
        for (i, &s) in sizes.iter().enumerate() {
            let members: Vec<NodeId> =
                (start..start + s).map(NodeId::from_index).collect();
            centers.push(members[0]);
            for &m in &members {
                assignment[m.index()] = Some(i as u32);
            }
            complexes.push(members);
            start += s;
        }
        let perfect = Clustering::new(centers, assignment);
        let m = confusion(&perfect, &complexes);
        prop_assert_eq!(m.tpr(), 1.0);
        prop_assert_eq!(m.fpr(), 0.0);

        let singles = Clustering::new(
            (0..n).map(NodeId::from_index).collect(),
            (0..n as u32).map(Some).collect(),
        );
        let m = confusion(&singles, &complexes);
        prop_assert_eq!(m.tpr(), 0.0);
        prop_assert_eq!(m.fpr(), 0.0);
    }
}
