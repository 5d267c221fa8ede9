//! Quickstart: build a small uncertain graph, run MCP and ACP, inspect the
//! clusterings and their quality metrics.
//!
//! Run with: `cargo run --release --example quickstart`

use ugraph::prelude::*;

fn main() {
    // ── 1. Build an uncertain graph ────────────────────────────────────
    // Three "communities" of decreasing internal reliability, chained by
    // weak bridges. Edge probabilities model interaction confidence.
    let mut b = GraphBuilder::new(12);
    let communities: [(f64, [u32; 4]); 3] =
        [(0.95, [0, 1, 2, 3]), (0.7, [4, 5, 6, 7]), (0.5, [8, 9, 10, 11])];
    for (p, members) in &communities {
        for (i, &u) in members.iter().enumerate() {
            for &v in &members[i + 1..] {
                b.add_edge(u, v, *p).unwrap();
            }
        }
    }
    b.add_edge(3, 4, 0.08).unwrap(); // weak bridge
    b.add_edge(7, 8, 0.08).unwrap(); // weak bridge
    let g = b.build().unwrap();
    println!("graph: {} nodes, {} edges", g.num_nodes(), g.num_edges());

    // ── 2. Cluster with MCP (maximize the minimum connection prob) ─────
    let cfg = ClusterConfig::default().with_seed(42);
    let mcp_result = mcp(&g, 3, &cfg).expect("MCP clustering");
    println!("\nMCP (k = 3):");
    print_clustering(&mcp_result.clustering);
    println!(
        "  min-prob estimate: {:.3} (threshold q = {:.3}, {} guesses, {} samples)",
        mcp_result.min_prob_estimate,
        mcp_result.final_q,
        mcp_result.guesses,
        mcp_result.samples_used
    );

    // ── 3. Cluster with ACP (maximize the average connection prob) ─────
    let acp_result = acp(&g, 3, &cfg).expect("ACP clustering");
    println!("\nACP (k = 3):");
    print_clustering(&acp_result.clustering);
    println!("  avg-prob estimate: {:.3}", acp_result.avg_prob_estimate);

    // ── 4. Evaluate both with fresh samples ────────────────────────────
    // Never grade an algorithm on its own training samples: build an
    // independent pool for measurement.
    let mut pool = BitParallelPool::<4>::new_adaptive(&g, 0xE7A1, 0);
    pool.ensure(2000);
    for (name, clustering) in [("MCP", &mcp_result.clustering), ("ACP", &acp_result.clustering)] {
        let q = clustering_quality(&mut pool, clustering);
        let a = avpr(&mut pool, clustering);
        println!(
            "\n{name}: p_min = {:.3}  p_avg = {:.3}  inner-AVPR = {:.3}  outer-AVPR = {:.3}",
            q.p_min, q.p_avg, a.inner, a.outer
        );
    }
}

fn print_clustering(c: &Clustering) {
    for (i, members) in c.clusters().iter().enumerate() {
        let ids: Vec<String> = members.iter().map(|n| n.to_string()).collect();
        println!("  cluster {i} (center {}): {{{}}}", c.center(i), ids.join(", "));
    }
}
