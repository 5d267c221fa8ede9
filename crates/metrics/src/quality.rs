//! `p_min` / `p_avg` estimation (Figure 1 of the paper).
//!
//! Generic over the [`WorldEngine`] seam, so clusterings are measured
//! identically whichever engine (pure-mask or adaptive, at any block
//! width) produced — or measures — the estimates.

use ugraph_cluster::{Clustering, UgraphSession};
use ugraph_graph::NodeId;
use ugraph_sampling::{assignment_probs, quality_from_probs, WorldEngine};

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

/// Estimates `p_min`/`p_avg` of `clustering` from the sample pool.
///
/// Cost: the centers' count rows are fetched through the engine's batched
/// `counts_from_centers` (one pool sweep per center batch instead of one
/// per cluster, via [`ugraph_sampling::assignment_probs`]) — independent
/// of how the clustering was produced, so MCL/GMM/KPT outputs are
/// measured identically.
///
/// # Panics
/// Panics if the pool is empty or sized for a different graph.
pub fn clustering_quality<E: WorldEngine + ?Sized>(
    engine: &mut E,
    clustering: &Clustering,
) -> Quality {
    let n = engine.graph().num_nodes();
    assert_eq!(n, clustering.num_nodes(), "clustering and pool disagree on n");
    let probs = assignment_probs(
        engine,
        clustering.centers(),
        |u| clustering.cluster_of(NodeId::from_index(u)),
        None,
    );
    finalize(clustering, &probs)
}

/// [`clustering_quality`] over a [`UgraphSession`]'s shared evaluation
/// pool — the session-native entry point, so callers measuring many
/// clusterings on one graph (k-sweeps) reuse one grow-only pool instead
/// of building a fresh one per measurement. Delegates to
/// [`UgraphSession::evaluate`] (same measurement kernel), so the call is
/// counted in the session's `SessionStats::evaluations`.
pub fn session_quality(session: &mut UgraphSession<'_>, clustering: &Clustering) -> Quality {
    let e = session.evaluate(clustering);
    Quality { p_min: e.p_min, p_avg: e.p_avg }
}

/// Depth-limited variant: probabilities are `Pr(u ~d~ center)` (paper
/// §3.4), estimated over a depth-capable engine such as
/// [`ugraph_sampling::BitParallelPool`] with batched depth rows.
pub fn depth_clustering_quality<E: WorldEngine + ?Sized>(
    engine: &mut E,
    clustering: &Clustering,
    depth: u32,
) -> Quality {
    let n = engine.graph().num_nodes();
    assert_eq!(n, clustering.num_nodes(), "clustering and pool disagree on n");
    let probs = assignment_probs(
        engine,
        clustering.centers(),
        |u| clustering.cluster_of(NodeId::from_index(u)),
        Some(depth),
    );
    finalize(clustering, &probs)
}

fn finalize(clustering: &Clustering, probs: &[f64]) -> Quality {
    let (p_min, p_avg) =
        quality_from_probs(probs, |u| clustering.cluster_of(NodeId::from_index(u)).is_some());
    Quality { p_min, p_avg }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ugraph_graph::GraphBuilder;
    use ugraph_sampling::BitParallelPool;

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
    fn depth_quality_cuts_long_paths() {
        // Certain chain 0-1-2; cluster centered at 0; depth 1 sees node 1
        // but not node 2.
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1.0).unwrap();
        b.add_edge(1, 2, 1.0).unwrap();
        let g = b.build().unwrap();
        let mut pool = BitParallelPool::<4>::new_adaptive(&g, 1, 1);
        pool.ensure(5);
        let c = Clustering::new(vec![NodeId(0)], vec![Some(0), Some(0), Some(0)]);
        let q1 = depth_clustering_quality(&mut pool, &c, 1);
        assert_eq!(q1.p_min, 0.0);
        assert!((q1.p_avg - 2.0 / 3.0).abs() < 1e-12);
        let q2 = depth_clustering_quality(&mut pool, &c, 2);
        assert_eq!(q2.p_min, 1.0);
        assert_eq!(q2.p_avg, 1.0);
    }

    #[test]
    fn session_quality_agrees_with_session_evaluate() {
        use ugraph_cluster::{ClusterConfig, ClusterRequest, UgraphSession};
        let mut b = GraphBuilder::new(6);
        for (u, v) in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)] {
            b.add_edge(u, v, 0.9).unwrap();
        }
        b.add_edge(2, 3, 0.1).unwrap();
        let g = b.build().unwrap();
        let mut session = UgraphSession::new(&g, ClusterConfig::default().with_seed(2))
            .unwrap()
            .with_eval_samples(96);
        let r = session.solve(ClusterRequest::mcp(2)).unwrap();
        let q = session_quality(&mut session, &r.clustering);
        let e = session.evaluate(&r.clustering);
        assert_eq!(q.p_min, e.p_min, "both paths read the same shared pool");
        assert_eq!(q.p_avg, e.p_avg);
        assert_eq!(e.samples, 96);
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
