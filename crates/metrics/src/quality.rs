//! `p_min` / `p_avg` estimation (Figure 1 of the paper).
//!
//! Counts come from the pool's members-only kernel
//! ([`BitParallelPool::assignment_counts`]): per block, one mask traversal
//! per center whose component is still unknown, reading only cluster
//! members. It reads masks alike on pure-mask and adaptive pools at any
//! block width, and never labels a block, so the answers do not depend on
//! which pool measures them.

use ugraph_cluster::Clustering;
use ugraph_graph::NodeId;
use ugraph_sampling::{quality_from_counts, BitParallelPool, WorldEngine, DEPTH_UNLIMITED};

/// Connection-probability quality of a clustering.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quality {
    /// Minimum estimated connection probability of a covered node to its
    /// center (`p_min`, Eq. 1). 1.0 if nothing is covered.
    pub p_min: f64,
    /// Average estimated connection probability over **all** nodes, with
    /// outliers contributing 0 (`p_avg`, Eq. 2). 0.0 for empty graphs.
    pub p_avg: f64,
}

/// Estimates `p_min`/`p_avg` of `clustering` from the sample pool,
/// independent of how the clustering was produced, so MCL/GMM/KPT outputs
/// are measured identically.
///
/// The pool is borrowed mutably because the count sweep may regenerate
/// evicted shards under a memory budget; it trims the ledger on return.
///
/// # Panics
/// Panics if the pool is empty or sized for a different graph.
pub fn clustering_quality<const W: usize>(
    pool: &mut BitParallelPool<'_, W>,
    clustering: &Clustering,
) -> Quality {
    let n = pool.graph().num_nodes();
    assert_eq!(n, clustering.num_nodes(), "clustering and pool disagree on n");
    let cluster_of = |u| clustering.cluster_of(NodeId::from_index(u));
    let mut counts = vec![0u32; n];
    pool.assignment_counts(clustering.centers(), cluster_of, DEPTH_UNLIMITED, &mut counts);
    let (p_min, p_avg) =
        quality_from_counts(&counts, pool.num_samples(), |u| cluster_of(u).is_some());
    Quality { p_min, p_avg }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ugraph_graph::GraphBuilder;

    #[test]
    fn certain_chain_quality() {
        // 0-1-2 certain; cluster {0,1,2} centered at 1.
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1.0).unwrap();
        b.add_edge(1, 2, 1.0).unwrap();
        let g = b.build().unwrap();
        let mut pool = BitParallelPool::<4>::new_adaptive(&g, 1, 1);
        pool.ensure(20);
        let c = Clustering::new(vec![NodeId(1)], vec![Some(0), Some(0), Some(0)]);
        let q = clustering_quality(&mut pool, &c);
        assert_eq!(q.p_min, 1.0);
        assert_eq!(q.p_avg, 1.0);
    }

    #[test]
    fn outliers_count_in_avg_not_min() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1.0).unwrap();
        let g = b.build().unwrap();
        let mut pool = BitParallelPool::<4>::new_adaptive(&g, 1, 1);
        pool.ensure(10);
        // Cluster {0,1} center 0; node 2 outlier.
        let c = Clustering::new(vec![NodeId(0)], vec![Some(0), Some(0), None]);
        let q = clustering_quality(&mut pool, &c);
        assert_eq!(q.p_min, 1.0);
        assert!((q.p_avg - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn estimates_converge_to_exact() {
        // Chain 0 -0.8- 1 -0.5- 2, single cluster centered at 0:
        // Pr(0~1) = 0.8, Pr(0~2) = 0.4.
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 0.8).unwrap();
        b.add_edge(1, 2, 0.5).unwrap();
        let g = b.build().unwrap();
        let mut pool = BitParallelPool::<4>::new_adaptive(&g, 3, 1);
        pool.ensure(20_000);
        let c = Clustering::new(vec![NodeId(0)], vec![Some(0), Some(0), Some(0)]);
        let q = clustering_quality(&mut pool, &c);
        assert!((q.p_min - 0.4).abs() < 0.02, "p_min {}", q.p_min);
        assert!((q.p_avg - (1.0 + 0.8 + 0.4) / 3.0).abs() < 0.02, "p_avg {}", q.p_avg);
    }

    #[test]
    #[should_panic(expected = "sample pool is empty")]
    fn empty_pool_panics() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 0.5).unwrap();
        let g = b.build().unwrap();
        let mut pool = BitParallelPool::<4>::new_adaptive(&g, 1, 1);
        let c = Clustering::new(vec![NodeId(0)], vec![Some(0), Some(0)]);
        let _ = clustering_quality(&mut pool, &c);
    }
}
