//! Backend selection on the `WorldEngine` seam: the pure-mask bit-parallel
//! block pool (256 worlds per mask block) versus the adaptive backend
//! (bit-parallel + lazy per-block component-label finalization, the
//! default).
//!
//! Demonstrates (a) selecting the Monte-Carlo backend through
//! `ClusterConfig::with_engine`, (b) that both backends produce
//! **identical** clusterings and estimates for a fixed seed, and (c) the
//! raw timing difference between block widths on depth-limited queries,
//! where one masked traversal answers a whole block of sampled worlds.
//!
//! Run with: `cargo run --release --example engine_comparison`

use std::time::Instant;

use ugraph::prelude::*;

fn main() {
    // A mid-sized synthetic PPI network (the paper's Gavin-like setup).
    let d = DatasetSpec::Gavin.generate(7);
    let g = d.graph;
    println!("graph: {} nodes / {} edges\n", g.num_nodes(), g.num_edges());

    // ── 1. Backend selection via ClusterConfig ─────────────────────────
    // The engine knob is threaded through mcp/acp (and their depth
    // variants) into every probability estimate; backends hold
    // bit-identical worlds, so results agree exactly — the knob trades
    // nothing but time. Depth-limited clustering (paper §3.4) runs on
    // masks in both backends: one masked traversal per block of worlds.
    let (k, d) = (40, 3);
    let mask_cfg = ClusterConfig::default().with_seed(11).with_engine(EngineKind::BitParallel);
    let adaptive_cfg = ClusterConfig::default().with_seed(11).with_engine(EngineKind::Adaptive);

    let t = Instant::now();
    let mask_run = acp_depth(&g, k, d, &mask_cfg).expect("acp_depth (pure-mask)");
    let mask_time = t.elapsed();
    let t = Instant::now();
    let adaptive_run = acp_depth(&g, k, d, &adaptive_cfg).expect("acp_depth (adaptive)");
    let adaptive_time = t.elapsed();

    assert_eq!(mask_run.clustering, adaptive_run.clustering, "backends must agree exactly");
    assert_eq!(mask_run.avg_prob_estimate, adaptive_run.avg_prob_estimate);
    println!("acp_depth k = {k}, d = {d}: identical clusterings from both backends");
    println!("  pure-mask {mask_time:>10.2?}   (avg-prob {:.3})", mask_run.avg_prob_estimate);
    println!(
        "  adaptive  {adaptive_time:>10.2?}   (avg-prob {:.3})",
        adaptive_run.avg_prob_estimate
    );

    // ── 2. Block width: worlds per traversal ───────────────────────────
    // A depth-limited query propagates reach masks, answering a whole
    // block per traversal: 64 worlds per block at width 64, 256 at the
    // default width.
    let samples = 512;
    let depth = 4;
    let n = g.num_nodes();
    let centers: Vec<NodeId> = (0..16u32).map(|i| NodeId(i * (n as u32 / 16))).collect();
    let (mut sel, mut cov) = (vec![0u32; n], vec![0u32; n]);

    let t = Instant::now();
    let mut narrow_pool = BitParallelPool::<1>::new(&g, 3, 1);
    narrow_pool.ensure(samples);
    for &c in &centers {
        narrow_pool.counts_within_depths(c, depth, depth, &mut sel, &mut cov);
    }
    let narrow_depth = t.elapsed();
    let narrow_cov = cov.clone();

    let t = Instant::now();
    let mut wide_pool = BitParallelPool::<4>::new(&g, 3, 1);
    wide_pool.ensure(samples);
    for &c in &centers {
        wide_pool.counts_within_depths(c, depth, depth, &mut sel, &mut cov);
    }
    let wide_depth = t.elapsed();

    assert_eq!(narrow_cov, cov, "depth counts must be identical");
    println!("\ndepth-{depth} counts, {samples} worlds, {} centers:", centers.len());
    println!("  64-world blocks  {narrow_depth:>10.2?}");
    println!("  256-world blocks {wide_depth:>10.2?}");

    // ── 3. The adaptive backend: labels on demand ──────────────────────
    // Unlimited-depth rows are the workload where pure mask traversal is
    // slowest. The adaptive pool finalizes per-block component labels on
    // the first row query and serves every later unlimited query as a
    // label scan, while keeping bit-parallel generation and depth queries.
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
