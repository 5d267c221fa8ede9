//! Backend selection on the `WorldEngine` seam: scalar per-world pools
//! versus the bit-parallel block pool (64–512 worlds per mask block)
//! versus the adaptive backend (bit-parallel + lazy per-block
//! component-label finalization, the default).
//!
//! Demonstrates (a) selecting the Monte-Carlo backend through
//! `ClusterConfig::with_engine`, (b) that both backends produce
//! **identical** clusterings and estimates for a fixed seed, and (c) the
//! raw timing difference on pool generation and depth-limited queries,
//! where one masked traversal answers 64 sampled worlds at once.
//!
//! Run with: `cargo run --release --example engine_comparison`

use std::time::Instant;

use ugraph::prelude::*;
use ugraph::sampling::{BitParallelPool, WorldPool};

fn main() {
    // A mid-sized synthetic PPI network (the paper's Gavin-like setup).
    let d = DatasetSpec::Gavin.generate(7);
    let g = d.graph;
    println!("graph: {} nodes / {} edges\n", g.num_nodes(), g.num_edges());

    // ── 1. Backend selection via ClusterConfig ─────────────────────────
    // The engine knob is threaded through mcp/acp (and their depth
    // variants) into every probability estimate; backends hold
    // bit-identical worlds, so results agree exactly — the knob trades
    // nothing but time. Depth-limited clustering (paper §3.4) is the
    // workload where the bit-parallel backend shines: the scalar oracle
    // runs one bounded BFS per sampled world, the bit-parallel one a
    // single masked traversal per block of worlds.
    let (k, d) = (40, 3);
    let scalar_cfg = ClusterConfig::default().with_seed(11).with_engine(EngineKind::Scalar);
    let bit_cfg = ClusterConfig::default().with_seed(11).with_engine(EngineKind::BitParallel);

    let t = Instant::now();
    let scalar_run = acp_depth(&g, k, d, &scalar_cfg).expect("acp_depth (scalar)");
    let scalar_time = t.elapsed();
    let t = Instant::now();
    let bit_run = acp_depth(&g, k, d, &bit_cfg).expect("acp_depth (bit-parallel)");
    let bit_time = t.elapsed();

    assert_eq!(scalar_run.clustering, bit_run.clustering, "backends must agree exactly");
    assert_eq!(scalar_run.avg_prob_estimate, bit_run.avg_prob_estimate);
    println!("acp_depth k = {k}, d = {d}: identical clusterings from both backends");
    println!(
        "  scalar       {scalar_time:>10.2?}   (avg-prob {:.3})",
        scalar_run.avg_prob_estimate
    );
    println!("  bit-parallel {bit_time:>10.2?}   (avg-prob {:.3})", bit_run.avg_prob_estimate);

    // ── 2. Where bit-packing pays: depth-limited traversal ─────────────
    // The scalar backend runs one bounded BFS per sampled world; the
    // bit-parallel backend propagates 64-world reach masks, answering a
    // whole block per traversal.
    let samples = 128;
    let depth = 4;
    let n = g.num_nodes();
    let centers: Vec<NodeId> = (0..16u32).map(|i| NodeId(i * (n as u32 / 16))).collect();
    let (mut sel, mut cov) = (vec![0u32; n], vec![0u32; n]);

    let t = Instant::now();
    let mut scalar_pool = WorldPool::new(&g, 3, 1);
    scalar_pool.ensure(samples);
    for &c in &centers {
        scalar_pool.counts_within_depths(c, depth, depth, &mut sel, &mut cov);
    }
    let scalar_depth = t.elapsed();
    let scalar_cov = cov.clone();

    let t = Instant::now();
    let mut bit_pool = BitParallelPool::<1>::new(&g, 3, 1);
    bit_pool.ensure(samples);
    for &c in &centers {
        bit_pool.counts_within_depths(c, depth, depth, &mut sel, &mut cov);
    }
    let bit_depth = t.elapsed();

    assert_eq!(scalar_cov, cov, "depth counts must be identical");
    println!("\ndepth-{depth} counts, {samples} worlds, {} centers:", centers.len());
    println!("  scalar       {scalar_depth:>10.2?}");
    println!("  bit-parallel {bit_depth:>10.2?}");
    println!(
        "  speedup      {:>9.1}x (single-core: pure bit-packing, no threads)",
        scalar_depth.as_secs_f64() / bit_depth.as_secs_f64().max(1e-12)
    );

    // ── 3. The adaptive backend: labels on demand ──────────────────────
    // Unlimited-depth rows were the one workload where the pure-mask
    // backend lost to scalar labels. The adaptive pool finalizes
    // per-block component labels on the first row query and serves every
    // later unlimited query at scalar-label speed, while keeping the
    // bit-parallel generation and depth wins above.
    let mut counts = vec![0u32; n];
    let t = Instant::now();
    let mut adaptive_pool = BitParallelPool::<1>::new_adaptive(&g, 3, 1);
    adaptive_pool.ensure(samples);
    adaptive_pool.counts_from_center(centers[0], &mut counts); // finalizes
    let warm = Instant::now();
    for &c in &centers {
        adaptive_pool.counts_from_center(c, &mut counts);
    }
    let adaptive_warm = warm.elapsed();
    let adaptive_total = t.elapsed();
    let stats = adaptive_pool.engine_stats();
    println!(
        "\nadaptive unlimited rows, {samples} worlds, {} centers (after one-time \
         finalization of {} blocks / {} lanes):",
        centers.len(),
        stats.finalized_blocks,
        stats.finalized_lanes
    );
    println!(
        "  warm queries {adaptive_warm:>10.2?}   (generation + finalize + all queries \
         {adaptive_total:>.2?})"
    );
    println!(
        "  {} block-queries served from labels, {} from masks",
        stats.label_queries, stats.mask_queries
    );
}
