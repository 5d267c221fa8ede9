//! Clustering a DBLP-like collaboration network: MCP/ACP versus the MCL
//! and GMM baselines, mirroring the paper's Figure 1/2 comparison on its
//! largest dataset (scaled down for a quick run).
//!
//! Run with: `cargo run --release --example collaboration_network`

use std::time::Instant;

use ugraph::baselines::{gmm, mcl, MclConfig};
use ugraph::prelude::*;

fn main() {
    // ~1% of the published DBLP size keeps this example interactive.
    let dataset = DatasetSpec::Dblp { scale: 0.01 }.generate(3);
    let graph = &dataset.graph;
    println!("{}: {} nodes, {} edges", dataset.name, graph.num_nodes(), graph.num_edges());

    // The paper matches k to MCL's output granularity; do the same.
    let t = Instant::now();
    let mcl_result = mcl(graph, &MclConfig::with_inflation(1.2));
    let mcl_time = t.elapsed();
    let k = mcl_result.clustering.num_clusters();
    println!("mcl (inflation 1.2) found k = {k} clusters in {mcl_time:.2?}");

    let cfg = ClusterConfig::default().with_seed(11);
    let t = Instant::now();
    let mcp_result = mcp(graph, k, &cfg).expect("MCP");
    let mcp_time = t.elapsed();
    let t = Instant::now();
    let acp_result = acp(graph, k, &cfg).expect("ACP");
    let acp_time = t.elapsed();
    let t = Instant::now();
    let gmm_result = gmm(graph, k, 11).expect("GMM");
    let gmm_time = t.elapsed();

    // Fresh evaluation pool.
    let mut pool = BitParallelPool::<4>::new_adaptive(graph, 999, 0);
    pool.ensure(500);

    println!(
        "\n{:<6} {:>9} {:>9} {:>12} {:>12} {:>10}",
        "algo", "p_min", "p_avg", "inner-AVPR", "outer-AVPR", "time"
    );
    let entries = [
        ("gmm", &gmm_result, gmm_time),
        ("mcl", &mcl_result.clustering, mcl_time),
        ("mcp", &mcp_result.clustering, mcp_time),
        ("acp", &acp_result.clustering, acp_time),
    ];
    for (name, clustering, time) in entries {
        let q = clustering_quality(&mut pool, clustering);
        let a = avpr(&mut pool, clustering);
        println!(
            "{:<6} {:>9.3} {:>9.3} {:>12.3} {:>12.3} {:>10.2?}",
            name, q.p_min, q.p_avg, a.inner, a.outer, time
        );
    }

    println!(
        "\nExpected shape (paper Fig. 1-2 on DBLP): mcp wins p_min by a wide margin \
         (gmm/mcl fall below 1e-3), acp matches mcl on p_avg while controlling k, \
         and mcp/acp achieve visibly lower outer-AVPR."
    );
}
