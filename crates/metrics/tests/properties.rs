//! Property-based tests for the metric implementations.
#![allow(clippy::needless_range_loop)] // parallel-array indexing in strategies

use proptest::prelude::*;
use ugraph_cluster::Clustering;
use ugraph_graph::{GraphBuilder, NodeId, UncertainGraph};
use ugraph_metrics::{avpr, clustering_quality, confusion, Avpr};
use ugraph_sampling::{BitParallelPool, MemoryBudget, WorldEngine};

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

/// Strategy: a 20–120-node graph whose worlds hold a mix of one large
/// component, smaller multi-node components and isolated nodes — or ties
/// for the largest component. Kinds 0–3 draw `n` to `2n` random edges and
/// scale their probabilities so a world's mean degree lands between 0.5
/// and 2.5, around the percolation threshold at 1; kind 4 is edgeless;
/// kinds 5 and 6 are two equal disjoint cliques, certain or with edge
/// probability 0.9, which tie for the largest component in every or in
/// many worlds.
fn percolating_graph() -> impl Strategy<Value = UncertainGraph> {
    (0u32..7, 20u32..=120, 0.5f64..=2.5).prop_flat_map(|(kind, n, degree)| {
        let edge = (0..n, 0..n, 0.5f64..=1.5);
        proptest::collection::vec(edge, n as usize..=2 * n as usize).prop_map(move |edges| {
            match kind {
                4 => GraphBuilder::new(n as usize).build().unwrap(),
                5 | 6 => {
                    let side = n.min(60) / 2;
                    let p = if kind == 5 { 1.0 } else { 0.9 };
                    let mut b = GraphBuilder::new(2 * side as usize);
                    for half in [0, side] {
                        for u in half..half + side {
                            for v in u + 1..half + side {
                                b.add_edge(u, v, p).unwrap();
                            }
                        }
                    }
                    b.build().unwrap()
                }
                _ => {
                    let scale = degree * f64::from(n) / (2.0 * edges.len() as f64);
                    let mut b = GraphBuilder::new(n as usize);
                    for (u, v, jitter) in edges {
                        if u != v {
                            b.add_edge(u, v, (scale * jitter).min(1.0)).unwrap();
                        }
                    }
                    b.build().unwrap()
                }
            }
        })
    })
}

/// A clustering of `n` nodes from one draw per node: 15 puts the node in
/// a singleton cluster of its own, 12–14 leave it an outlier, and the rest
/// join cluster `draw % k`. Clusters are numbered in order of their
/// smallest member, which is their center.
fn clustering_from_draws(n: usize, k: usize, draws: &[u32]) -> Clustering {
    let mut group = vec![None; n];
    for u in 0..n {
        group[u] = match draws[u % draws.len()] {
            15 => Some(k + u),
            12..=14 => None,
            d => Some(d as usize % k),
        };
    }
    let (mut centers, mut index) = (Vec::new(), std::collections::HashMap::new());
    let assignment = (0..n)
        .map(|u| {
            group[u].map(|g| {
                *index.entry(g).or_insert_with(|| {
                    centers.push(NodeId::from_index(u));
                    centers.len() as u32 - 1
                })
            })
        })
        .collect();
    Clustering::new(centers, assignment)
}

/// Connected pairs `(intra, covered)` summed over the pool's worlds, by
/// brute force over every pair of covered nodes: `u` and `v` are
/// connected in as many worlds as `u`'s row counts for `v`.
fn brute_force_pairs<const W: usize>(
    pool: &mut BitParallelPool<'_, W>,
    c: &Clustering,
) -> (u64, u64) {
    let n = c.num_nodes();
    let (mut intra, mut covered) = (0u64, 0u64);
    let mut row = vec![0u32; n];
    for u in 0..n {
        let Some(cu) = c.cluster_of(NodeId::from_index(u)) else { continue };
        pool.counts_from_center(NodeId::from_index(u), &mut row);
        for v in u + 1..n {
            let Some(cv) = c.cluster_of(NodeId::from_index(v)) else { continue };
            covered += u64::from(row[v]);
            if cu == cv {
                intra += u64::from(row[v]);
            }
        }
    }
    (intra, covered)
}

/// AVPR from connected pair totals over `r` worlds, by the definition.
fn avpr_from_pairs((intra, covered): (u64, u64), r: usize, c: &Clustering) -> Avpr {
    let pairs = |s: usize| (s * s.saturating_sub(1) / 2) as u64;
    let intra_pairs: u64 = c.cluster_sizes().into_iter().map(pairs).sum();
    let cross_pairs = pairs(c.covered_count()) - intra_pairs;
    let r = r as u64;
    Avpr {
        inner: if intra_pairs == 0 { 1.0 } else { intra as f64 / (r * intra_pairs) as f64 },
        outer: if cross_pairs == 0 {
            0.0
        } else {
            (covered - intra) as f64 / (r * cross_pairs) as f64
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// AVPR's connected pairs on an adaptive pool of 256-world blocks equal
    /// a pure-mask pool's and brute force over every pair, on worlds with
    /// a large component, multi-node small components, isolated nodes, or
    /// two components tied for the largest; with outliers, singleton
    /// clusters and clusters split between the largest and a small
    /// component; at pool sizes that are mostly not a multiple of 256.
    /// The first call labels every block. The pool then grows, and under a
    /// budget that holds exactly its grown masks the labelling rule
    /// declines the new lanes, so the next call mixes labelled lanes with
    /// per-world ones, and it leaves the ledger within its limit.
    #[test]
    fn avpr_pairs_agree_on_labelled_and_per_world_blocks(
        g in percolating_graph(),
        k in 1usize..=6,
        draws in proptest::collection::vec(0u32..16, 1..=40),
        seed in any::<u64>(),
        r1 in 1usize..=600,
        grow in 1usize..=300,
    ) {
        let c = clustering_from_draws(g.num_nodes(), k, &draws);
        let clusters = c.clusters();
        let mut adaptive = BitParallelPool::<4>::new_adaptive(&g, seed, 1);
        let mut mask = BitParallelPool::<1>::new(&g, seed, 1);
        for r in [r1, r1 + grow] {
            adaptive.ensure(r);
            mask.ensure(r);
            if r > r1 {
                let held = adaptive.memory_stats().bytes_held;
                adaptive.set_memory_budget(MemoryBudget::bounded(held));
            }
            let want = brute_force_pairs(&mut mask, &c);
            prop_assert_eq!(adaptive.connected_pairs(&clusters), want, "r = {}", r);
            prop_assert_eq!(mask.connected_pairs(&clusters), want, "r = {}", r);
            prop_assert_eq!(adaptive.engine_stats().finalized_lanes, r1, "r = {}", r);
            let memory = adaptive.memory_stats();
            prop_assert!(memory.bytes_limit.is_none_or(|l| memory.bytes_held <= l));
            prop_assert_eq!(memory.shards_evicted, 0);
            let expected = avpr_from_pairs(want, r, &c);
            prop_assert_eq!(avpr(&mut adaptive, &c), expected, "r = {}", r);
            prop_assert_eq!(avpr(&mut mask, &c), expected, "r = {}", r);
        }
    }
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
