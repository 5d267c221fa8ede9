//! The clustering objective functions of the paper (Eq. 1, 2, 7, 8),
//! evaluated against any [`Oracle`].
//!
//! These are reference implementations used for validation and small-scale
//! evaluation; the `ugraph-metrics` crate measures clusterings on a sample
//! pool for the experiment harness.

use ugraph_sampling::{Oracle, SamplingError};

use crate::clustering::Clustering;

/// `min-prob(C)` (Eq. 1): the minimum connection probability of a covered
/// node to its cluster center. Outliers are not accounted for (partial
/// clustering semantics, §3.1). Returns 1.0 for a clustering with no
/// covered nodes (empty minimum).
///
/// # Errors
/// Propagates oracle failures (cooperative interruptions, injected
/// faults) without committing anything.
pub fn min_prob<O: Oracle + ?Sized>(
    oracle: &mut O,
    clustering: &Clustering,
) -> Result<f64, SamplingError> {
    let mut min = 1.0f64;
    for u in 0..clustering.num_nodes() {
        let u = ugraph_graph::NodeId::from_index(u);
        if let Some(c) = clustering.center_of(u) {
            let p = if c == u { 1.0 } else { oracle.pair_prob(c, u)? };
            min = min.min(p);
        }
    }
    Ok(min)
}

/// `avg-prob(C)` (Eq. 2): the average over **all** nodes of the connection
/// probability to the assigned cluster center, with outliers contributing
/// zero. Returns 0.0 for an empty graph.
///
/// # Errors
/// See [`min_prob`].
pub fn avg_prob<O: Oracle + ?Sized>(
    oracle: &mut O,
    clustering: &Clustering,
) -> Result<f64, SamplingError> {
    let n = clustering.num_nodes();
    if n == 0 {
        return Ok(0.0);
    }
    let mut sum = 0.0f64;
    for u in 0..n {
        let u = ugraph_graph::NodeId::from_index(u);
        if let Some(c) = clustering.center_of(u) {
            sum += if c == u { 1.0 } else { oracle.pair_prob(c, u)? };
        }
    }
    Ok(sum / n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clustering::Clustering;
    use ugraph_graph::{GraphBuilder, NodeId};
    use ugraph_sampling::ExactOracle;

    /// Path 0 -0.8- 1 -0.5- 2, plus isolated node 3.
    fn setup() -> (ExactOracle, Clustering) {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 0.8).unwrap();
        b.add_edge(1, 2, 0.5).unwrap();
        let g = b.build().unwrap();
        let oracle = ExactOracle::new(&g).unwrap();
        // One cluster centered at 1 covering {0,1,2}; node 3 outlier.
        let clustering = Clustering::new(vec![NodeId(1)], vec![Some(0), Some(0), Some(0), None]);
        (oracle, clustering)
    }

    #[test]
    fn min_prob_takes_weakest_covered_link() {
        let (mut oracle, c) = setup();
        assert!((min_prob(&mut oracle, &c).unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn avg_prob_counts_outliers_as_zero() {
        let (mut oracle, c) = setup();
        // (0.8 + 1.0 + 0.5 + 0.0) / 4
        assert!((avg_prob(&mut oracle, &c).unwrap() - 2.3 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn full_singleton_clustering_has_perfect_scores() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 0.1).unwrap();
        let g = b.build().unwrap();
        let mut oracle = ExactOracle::new(&g).unwrap();
        let c = Clustering::new(vec![NodeId(0), NodeId(1)], vec![Some(0), Some(1)]);
        assert_eq!(min_prob(&mut oracle, &c).unwrap(), 1.0);
        assert_eq!(avg_prob(&mut oracle, &c).unwrap(), 1.0);
    }

    #[test]
    fn min_prob_over_a_depth_oracle_reads_its_cover_rows() {
        use ugraph_sampling::{McOracle, SampleSchedule};
        // An uncertain 6-chain under selection depth 1 and cover depth 3:
        // the oracle's two rows differ, and pairs read the cover row.
        let mut b = GraphBuilder::new(6);
        for i in 0..5 {
            b.add_edge(i, i + 1, 0.8).unwrap();
        }
        let g = b.build().unwrap();
        let oracle = || {
            let schedule = SampleSchedule::Fixed(200);
            let mut o = McOracle::with_engine(&g, 7, 1, schedule, 0.1, 1, 3).unwrap();
            o.prepare(0.5).unwrap();
            o
        };
        let assignment = vec![Some(0), Some(0), Some(0), Some(1), Some(1), Some(1)];
        let c = Clustering::new(vec![NodeId(1), NodeId(4)], assignment);
        let mut rows = oracle();
        let (mut select, mut cover) = (vec![0.0; 6], vec![0.0; 6]);
        let mut want = 1.0f64;
        for (i, &center) in c.centers().iter().enumerate() {
            rows.center_probs(center, &mut select, &mut cover).unwrap();
            assert_ne!(select, cover, "depths 1 and 3 must give different rows");
            for u in (0..6).map(NodeId) {
                if u != center && c.cluster_of(u) == Some(i) {
                    want = want.min(cover[u.index()]);
                }
            }
        }
        assert!(want > 0.0 && want < 1.0, "{want}");
        assert_eq!(min_prob(&mut oracle(), &c).unwrap(), want, "fresh oracle");
        assert_eq!(min_prob(&mut rows, &c).unwrap(), want, "rows served from the cache");
    }

    #[test]
    fn empty_clustering_edge_cases() {
        let c = Clustering::new(vec![], vec![]);
        let mut b = GraphBuilder::new(1);
        b.grow_to(1);
        let g = b.build().unwrap();
        let mut oracle = ExactOracle::new(&g).unwrap();
        assert_eq!(avg_prob(&mut oracle, &c).unwrap(), 0.0);
        assert_eq!(min_prob(&mut oracle, &c).unwrap(), 1.0);
    }
}
