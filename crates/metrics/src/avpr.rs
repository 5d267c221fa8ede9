//! Inner and outer Average Vertex Pairwise Reliability (Figure 2).
//!
//! * `inner-AVPR` = average of `Pr(u ~ v)` over all **same-cluster** pairs;
//! * `outer-AVPR` = average of `Pr(u ~ v)` over all **cross-cluster**
//!   pairs.
//!
//! A clustering that isolates high-reliability regions has high inner- and
//! low outer-AVPR. The paper's definitions sum over ordered pairs; both
//! numerator and denominator double, so the unordered computation here is
//! identical in value.
//!
//! **Complexity**: the pairs connected in one world partition by
//! `(component, cluster)`, so per world
//!
//! * connected same-cluster pairs  = `Σ_cells C(size, 2)`,
//! * connected pairs in total      = `Σ_components C(size, 2)` over the
//!   covered nodes,
//! * connected cross-cluster pairs = difference of the two,
//!
//! with no `Θ(n²)` pair enumeration. The pool counts both sums over all
//! its worlds in one call, [`BitParallelPool::connected_pairs`]. On a
//! labelled block the largest components need no loop over worlds: each
//! covered node adds its largest-component lane mask into bit-sliced
//! per-lane counters, once for its cluster and once for the covered set,
//! and a few popcounts per cluster turn the counters into `Σ C(size, 2)`.
//! Each smaller component of two or more nodes is walked once. So a
//! block of 256 worlds costs a few mask operations per covered node, a
//! few popcounts per cluster and one walk of its listed members. Worlds
//! no labels cover are labelled one by one and their components tallied,
//! `O(n)` per world.

use ugraph_cluster::Clustering;
use ugraph_sampling::{BitParallelPool, WorldEngine};

/// Inner/outer AVPR values.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Avpr {
    /// Average reliability over same-cluster pairs (1.0 when no such pairs
    /// exist).
    pub inner: f64,
    /// Average reliability over cross-cluster pairs (0.0 when no such
    /// pairs exist).
    pub outer: f64,
}

#[inline]
fn pairs(c: u64) -> u64 {
    c * (c.saturating_sub(1)) / 2
}

/// Computes inner/outer AVPR of `clustering` over the sample pool, at any
/// block width (the counts do not depend on it).
///
/// Outlier (unassigned) nodes are excluded from both statistics, matching
/// the paper's use on full clusterings. The pool is borrowed mutably
/// because counting may regenerate evicted shards under a memory budget,
/// and an adaptive pool labels the blocks its budget admits (see
/// [`BitParallelPool::connected_pairs`]); the ledger is trimmed on return.
///
/// # Panics
/// Panics if the pool is empty or sized for a different graph.
pub fn avpr<const W: usize>(pool: &mut BitParallelPool<'_, W>, clustering: &Clustering) -> Avpr {
    let n = pool.graph().num_nodes();
    assert_eq!(n, clustering.num_nodes(), "clustering and pool disagree on n");
    let r = pool.num_samples();
    assert!(r > 0, "sample pool is empty");

    // Static pair totals.
    let clusters = clustering.clusters();
    let intra_pairs: u64 = clusters.iter().map(|c| pairs(c.len() as u64)).sum();
    let cross_pairs: u64 = pairs(clustering.covered_count() as u64) - intra_pairs;

    // Connected pair counts summed over samples.
    let (connected_intra, connected_total_covered) = pool.connected_pairs(&clusters);
    let connected_cross = connected_total_covered - connected_intra;

    Avpr {
        inner: if intra_pairs == 0 {
            1.0
        } else {
            connected_intra as f64 / (r as u64 * intra_pairs) as f64
        },
        outer: if cross_pairs == 0 {
            0.0
        } else {
            connected_cross as f64 / (r as u64 * cross_pairs) as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ugraph_graph::{GraphBuilder, NodeId, UncertainGraph};
    use ugraph_sampling::WorldEngine;

    fn two_certain_triangles() -> UncertainGraph {
        let mut b = GraphBuilder::new(6);
        for (u, v) in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)] {
            b.add_edge(u, v, 1.0).unwrap();
        }
        b.build().unwrap()
    }

    fn community_clustering() -> Clustering {
        Clustering::new(
            vec![NodeId(0), NodeId(3)],
            vec![Some(0), Some(0), Some(0), Some(1), Some(1), Some(1)],
        )
    }

    #[test]
    fn separated_certain_triangles_are_perfect() {
        let g = two_certain_triangles();
        let mut pool = BitParallelPool::<4>::new_adaptive(&g, 1, 1);
        pool.ensure(10);
        let m = avpr(&mut pool, &community_clustering());
        assert_eq!(m.inner, 1.0);
        assert_eq!(m.outer, 0.0);
    }

    #[test]
    fn merged_clustering_degrades_inner() {
        let g = two_certain_triangles();
        let mut pool = BitParallelPool::<4>::new_adaptive(&g, 1, 1);
        pool.ensure(10);
        // Everything in one cluster: intra pairs include the 9 disconnected
        // cross-triangle pairs. inner = 6/15, outer undefined -> 0.
        let c = Clustering::new(
            vec![NodeId(0)],
            vec![Some(0), Some(0), Some(0), Some(0), Some(0), Some(0)],
        );
        let m = avpr(&mut pool, &c);
        assert!((m.inner - 6.0 / 15.0).abs() < 1e-12);
        assert_eq!(m.outer, 0.0);
    }

    #[test]
    fn split_cluster_raises_outer() {
        let g = two_certain_triangles();
        let mut pool = BitParallelPool::<4>::new_adaptive(&g, 1, 1);
        pool.ensure(10);
        // Split the first triangle across clusters: {0,1},{2},{3,4,5}.
        let c = Clustering::new(
            vec![NodeId(0), NodeId(2), NodeId(3)],
            vec![Some(0), Some(0), Some(1), Some(2), Some(2), Some(2)],
        );
        let m = avpr(&mut pool, &c);
        // intra pairs: C(2,2)=1 + 0 + C(3,2)=3 -> all connected -> inner 1.
        assert_eq!(m.inner, 1.0);
        // cross pairs: total C(6,2)=15 - 4 = 11; connected cross = pairs
        // (0,2),(1,2) = 2. outer = 2/11.
        assert!((m.outer - 2.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn estimates_converge_on_uncertain_graph() {
        // Single edge 0 -0.5- 1, both in one cluster: inner-AVPR -> 0.5.
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 0.5).unwrap();
        let g = b.build().unwrap();
        let mut pool = BitParallelPool::<4>::new_adaptive(&g, 9, 1);
        pool.ensure(20_000);
        let c = Clustering::new(vec![NodeId(0)], vec![Some(0), Some(0)]);
        let m = avpr(&mut pool, &c);
        assert!((m.inner - 0.5).abs() < 0.02, "inner {}", m.inner);
    }

    #[test]
    fn outliers_are_excluded() {
        let g = two_certain_triangles();
        let mut pool = BitParallelPool::<4>::new_adaptive(&g, 1, 1);
        pool.ensure(5);
        // Only {0,1} clustered; the rest outliers.
        let c = Clustering::new(vec![NodeId(0)], vec![Some(0), Some(0), None, None, None, None]);
        let m = avpr(&mut pool, &c);
        assert_eq!(m.inner, 1.0);
        assert_eq!(m.outer, 0.0, "no covered cross pairs exist");
    }

    #[test]
    fn matches_brute_force_pairwise_average() {
        // Random-ish graph; compare the contingency computation against
        // direct pair enumeration via pool.pair_estimate.
        let mut b = GraphBuilder::new(6);
        for (u, v, p) in
            [(0, 1, 0.9), (1, 2, 0.4), (2, 3, 0.3), (3, 4, 0.8), (4, 5, 0.6), (0, 5, 0.2)]
        {
            b.add_edge(u, v, p).unwrap();
        }
        let g = b.build().unwrap();
        let mut pool = BitParallelPool::<1>::new(&g, 4, 1);
        pool.ensure(500);
        let c = Clustering::new(
            vec![NodeId(1), NodeId(4)],
            vec![Some(0), Some(0), Some(0), Some(1), Some(1), Some(1)],
        );
        let m = avpr(&mut pool, &c);
        let mut inner_sum = 0.0;
        let mut inner_cnt = 0usize;
        let mut outer_sum = 0.0;
        let mut outer_cnt = 0usize;
        for u in 0..6u32 {
            for v in (u + 1)..6 {
                let p = pool.pair_estimate(NodeId(u), NodeId(v));
                if c.cluster_of(NodeId(u)) == c.cluster_of(NodeId(v)) {
                    inner_sum += p;
                    inner_cnt += 1;
                } else {
                    outer_sum += p;
                    outer_cnt += 1;
                }
            }
        }
        assert!((m.inner - inner_sum / inner_cnt as f64).abs() < 1e-12);
        assert!((m.outer - outer_sum / outer_cnt as f64).abs() < 1e-12);
    }
}
