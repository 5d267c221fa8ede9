//! End-to-end pipelines across all crates: generate → cluster → evaluate.
//!
//! Kept small enough to run in debug builds; the full-scale runs live in
//! the `ugraph-bench` harness.

use ugraph::baselines::{gmm, kpt, mcl, KptConfig, MclConfig};
use ugraph::prelude::*;

/// A small planted-partition instance with strong separable structure.
fn small_blocks() -> (UncertainGraph, Vec<usize>) {
    let cfg = ugraph::datasets::PlantedPartitionConfig {
        blocks: 4,
        block_size: 15,
        p_intra: 0.6,
        p_inter: 0.01,
        intra_dist: ProbDistribution::Uniform(0.7, 1.0),
        inter_dist: ProbDistribution::Uniform(0.05, 0.2),
    };
    ugraph::datasets::planted_partition(&cfg, 7)
}

/// Small PPI-like instance with ground truth.
fn small_ppi() -> ugraph::datasets::PpiDataset {
    ugraph::datasets::ppi_like(&ugraph::datasets::PpiConfig {
        num_proteins: 250,
        num_complexes: 15,
        complex_size_range: (4, 8),
        intra_density: 0.8,
        background_edges: 120,
        prob_dist: ProbDistribution::KroganMixture,
        intra_prob_dist: ProbDistribution::Uniform(0.85, 1.0),
        seed: 3,
    })
}

#[test]
fn full_pipeline_all_algorithms_agree_on_separable_structure() {
    let (g, blocks) = small_blocks();
    let k = 4;
    let cfg = ClusterConfig::default().with_seed(1);

    let mcp_r = mcp(&g, k, &cfg).expect("mcp");
    let acp_r = acp(&g, k, &cfg).expect("acp");
    let gmm_r = gmm(&g, k, 1).expect("gmm");

    // Every algorithm should reconstruct the planted blocks on this
    // strongly-separated instance.
    for (name, c) in [("mcp", &mcp_r.clustering), ("acp", &acp_r.clustering), ("gmm", &gmm_r)] {
        assert!(c.is_full(), "{name} left outliers");
        assert_eq!(c.num_clusters(), k);
        // All nodes of one block share a cluster.
        for b in 0..4usize {
            let members: Vec<_> = (0..60).filter(|&u| blocks[u] == b).collect();
            let first = c.cluster_of(NodeId(members[0] as u32));
            for &u in &members[1..] {
                assert_eq!(c.cluster_of(NodeId(u as u32)), first, "{name} split block {b}");
            }
        }
    }
}

#[test]
fn mcp_dominates_baselines_on_pmin() {
    let (g, _) = small_blocks();
    let k = 4;
    let cfg = ClusterConfig::default().with_seed(5);
    let mcp_r = mcp(&g, k, &cfg).expect("mcp");
    let gmm_r = gmm(&g, k, 99).expect("gmm");
    let mcl_r = mcl(&g, &MclConfig::with_inflation(1.4));

    let mut pool = BitParallelPool::<4>::new_adaptive(&g, 4242, 1);
    pool.ensure(600);
    let q_mcp = clustering_quality(&mut pool, &mcp_r.clustering);
    let q_gmm = clustering_quality(&mut pool, &gmm_r);
    let q_mcl = clustering_quality(&mut pool, &mcl_r.clustering);
    // MCP optimizes p_min: allow a small estimation slack but require
    // dominance (paper Figure 1, top row).
    assert!(q_mcp.p_min >= q_gmm.p_min - 0.05, "mcp p_min {} < gmm {}", q_mcp.p_min, q_gmm.p_min);
    assert!(q_mcp.p_min >= q_mcl.p_min - 0.05, "mcp p_min {} < mcl {}", q_mcp.p_min, q_mcl.p_min);
}

#[test]
fn quality_and_avpr_are_consistent_across_metrics() {
    let (g, _) = small_blocks();
    let cfg = ClusterConfig::default().with_seed(2);
    let r = acp(&g, 4, &cfg).expect("acp");
    let mut pool = BitParallelPool::<4>::new_adaptive(&g, 77, 1);
    pool.ensure(400);
    let q = clustering_quality(&mut pool, &r.clustering);
    let a = avpr(&mut pool, &r.clustering);
    assert!(q.p_avg >= q.p_min);
    assert!(a.inner > a.outer, "inner {} should exceed outer {}", a.inner, a.outer);
    assert!((0.0..=1.0).contains(&a.inner));
    assert!((0.0..=1.0).contains(&a.outer));
}

#[test]
fn ppi_prediction_pipeline() {
    let d = small_ppi();
    let lcc = largest_connected_component(&d.graph);
    let to_local = lcc.original_to_local(d.graph.num_nodes());
    let complexes: Vec<Vec<NodeId>> = d
        .complexes
        .iter()
        .map(|c| c.iter().filter_map(|&p| to_local[p.index()]).collect::<Vec<_>>())
        .filter(|c: &Vec<NodeId>| c.len() >= 2)
        .collect();
    assert!(!complexes.is_empty());

    let cfg = ClusterConfig::default().with_seed(9);
    let k = (complexes.len() * 2).min(lcc.graph.num_nodes() - 1);
    let r = mcp_depth(&lcc.graph, k, 4, &cfg).expect("depth-limited mcp");
    let m = confusion(&r.clustering, &complexes);
    // Planted complexes are dense and reliable: the clustering must beat
    // random guessing by a wide margin.
    assert!(m.tpr() > 0.2, "TPR {}", m.tpr());
    assert!(m.fpr() < 0.5, "FPR {}", m.fpr());

    // KPT runs on the same input and produces some valid clustering.
    let kc = kpt(&lcc.graph, &KptConfig::default());
    assert!(kc.validate().is_ok());
    let km = confusion(&kc, &complexes);
    assert!(km.fpr() <= 1.0);
}

#[test]
fn seeded_runs_are_bit_reproducible_end_to_end() {
    let (g, _) = small_blocks();
    let cfg = ClusterConfig::default().with_seed(123).with_threads(2);
    let a = mcp(&g, 4, &cfg).expect("mcp a");
    let b = mcp(&g, 4, &cfg).expect("mcp b");
    assert_eq!(a.clustering, b.clustering);
    assert_eq!(a.min_prob_estimate, b.min_prob_estimate);
    assert_eq!(a.final_q, b.final_q);
    // Thread count must not change results either.
    let c = mcp(&g, 4, &cfg.clone().with_threads(1)).expect("mcp c");
    assert_eq!(a.clustering, c.clustering);
}

#[test]
fn disconnected_input_handled_consistently() {
    // Two components; k = 3 splits one of them.
    let mut b = GraphBuilder::new(20);
    for i in 0..9u32 {
        b.add_edge(i, i + 1, 0.9).unwrap();
    }
    for i in 10..19u32 {
        b.add_edge(i, i + 1, 0.9).unwrap();
    }
    let g = b.build().unwrap();
    let cfg = ClusterConfig::default().with_seed(4);
    let r = mcp(&g, 3, &cfg).expect("mcp must handle k > #components");
    assert!(r.clustering.is_full());
    // No cluster spans the two components.
    for cluster in r.clustering.clusters() {
        let left = cluster.iter().any(|u| u.0 < 10);
        let right = cluster.iter().any(|u| u.0 >= 10);
        assert!(!(left && right), "cluster spans disconnected components");
    }
    // ACP likewise.
    let r = acp(&g, 3, &cfg).expect("acp");
    assert!(r.clustering.is_full());
}

#[test]
fn edge_list_roundtrip_preserves_clustering_behavior() {
    let (g, _) = small_blocks();
    let mut buf = Vec::new();
    ugraph::graph::io::write_edge_list(&g, &mut buf).unwrap();
    let g2 = ugraph::graph::io::read_edge_list(buf.as_slice()).unwrap();
    let cfg = ClusterConfig::default().with_seed(11);
    let a = mcp(&g, 4, &cfg).unwrap();
    let b = mcp(&g2, 4, &cfg).unwrap();
    assert_eq!(a.clustering, b.clustering, "clustering must survive serialization");
}

#[test]
fn dataset_specs_cluster_without_error() {
    // Tiny DBLP-like end to end.
    let d = DatasetSpec::Dblp { scale: 0.002 }.generate(2);
    let k = 8;
    let cfg = ClusterConfig::default().with_seed(3);
    let r = mcp(&d.graph, k, &cfg).expect("mcp on DBLP-like");
    assert!(r.clustering.is_full());
    let r = acp(&d.graph, k, &cfg).expect("acp on DBLP-like");
    assert!(r.clustering.is_full());
}
