//! Integration tests for the reliability query primitives against the
//! clustering machinery (cross-crate consistency).

use ugraph::cluster::{mcp, ClusterConfig};
use ugraph::prelude::*;
use ugraph::sampling::{most_reliable_source, reliability_knn, ExactOracle, SourceObjective};

fn two_communities() -> UncertainGraph {
    let mut b = GraphBuilder::new(8);
    for base in [0u32, 4] {
        for i in base..base + 4 {
            for j in (i + 1)..base + 4 {
                b.add_edge(i, j, 0.85).unwrap();
            }
        }
    }
    b.add_edge(3, 4, 0.05).unwrap();
    b.build().unwrap()
}

#[test]
fn knn_neighbors_are_community_mates() {
    let g = two_communities();
    let mut pool = BitParallelPool::<4>::new_adaptive(&g, 3, 0);
    pool.ensure(2000);
    let knn = reliability_knn(&mut pool, NodeId(0), 3);
    let ids: Vec<u32> = knn.iter().map(|(n, _)| n.0).collect();
    let mut sorted = ids.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, vec![1, 2, 3], "0's 3-NN must be its own community, got {ids:?}");
}

#[test]
fn knn_agrees_with_exact_order() {
    // Star with distinct spoke probabilities: exact order is known.
    let mut b = GraphBuilder::new(4);
    b.add_edge(0, 1, 0.7).unwrap();
    b.add_edge(0, 2, 0.4).unwrap();
    b.add_edge(0, 3, 0.2).unwrap();
    let g = b.build().unwrap();
    let exact = ExactOracle::new(&g).unwrap();
    let mut pool = BitParallelPool::<4>::new_adaptive(&g, 9, 0);
    pool.ensure(6000);
    let knn = reliability_knn(&mut pool, NodeId(0), 3);
    let exact_order: Vec<u32> = {
        let mut v: Vec<(u32, f64)> =
            (1..4u32).map(|u| (u, exact.pair_probability(NodeId(0), NodeId(u)))).collect();
        v.sort_by(|a, b| b.1.total_cmp(&a.1));
        v.into_iter().map(|(u, _)| u).collect()
    };
    let got: Vec<u32> = knn.iter().map(|(n, _)| n.0).collect();
    assert_eq!(got, exact_order);
}

#[test]
fn mcp_centers_are_reliable_sources_for_their_clusters() {
    // The most-reliable-source query with candidates = all nodes of a
    // cluster should rate the MCP center at least as well as most members
    // (it was chosen to cover them).
    let g = two_communities();
    let r = mcp(&g, 2, &ClusterConfig::default().with_seed(5)).unwrap();
    let mut pool = BitParallelPool::<4>::new_adaptive(&g, 77, 0);
    pool.ensure(1500);
    for (i, members) in r.clustering.clusters().iter().enumerate() {
        let center = r.clustering.center(i);
        let (best, stat) =
            most_reliable_source(&mut pool, members, members, SourceObjective::MinToTargets)
                .unwrap();
        let center_stat = {
            let mut counts = vec![0u32; g.num_nodes()];
            pool.counts_from_center(center, &mut counts);
            members
                .iter()
                .map(|m| counts[m.index()] as f64 / pool.num_samples() as f64)
                .fold(f64::INFINITY, f64::min)
        };
        // Within estimation noise the center competes with the best source.
        assert!(
            center_stat >= stat - 0.1,
            "cluster {i}: center {center} stat {center_stat} vs best {best} stat {stat}"
        );
    }
}
