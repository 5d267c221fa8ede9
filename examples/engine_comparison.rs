//! The `WorldEngine` seam's one pool: bit-parallel blocks of 256 worlds
//! as edge masks, plus lazy per-block component labels that it keeps only
//! while its memory budget can hold them.
//!
//! Demonstrates (a) that a session whose budget declines the labels
//! answers from masks with the **identical** clustering and estimates of
//! an unbounded session, (b) the raw timing difference between block
//! widths on depth-limited queries, where one masked traversal answers a
//! whole block of sampled worlds, and (c) label scans on a warm pool.
//!
//! Run with: `cargo run --release --example engine_comparison`

use std::time::Instant;

use ugraph::prelude::*;

fn main() {
    // A mid-sized synthetic PPI network (the paper's Gavin-like setup).
    let d = DatasetSpec::Gavin.generate(7);
    let g = d.graph;
    println!("graph: {} nodes / {} edges\n", g.num_nodes(), g.num_edges());

    // ── 1. Labels or masks: the pool decides from its budget ──────────
    // An unlimited row query labels the blocks it touches when the labels
    // the pool still lacks fit its memory budget, and sweeps edge masks
    // otherwise. Both read bit-identical worlds, so the answers agree
    // exactly — the budget trades nothing but time and memory.
    let k = 40;
    let budget = 3 << 20;
    let free_cfg = ClusterConfig::default().with_seed(11);
    let tight_cfg = free_cfg.clone().with_memory_budget(budget);
    let mut free = UgraphSession::new(&g, free_cfg).expect("unbounded session");
    let mut tight = UgraphSession::new(&g, tight_cfg).expect("budgeted session");

    let t = Instant::now();
    let labelled = free.solve(ClusterRequest::acp(k)).expect("acp (unbounded)");
    let free_time = t.elapsed();
    let t = Instant::now();
    let masked = tight.solve(ClusterRequest::acp(k)).expect("acp (budgeted)");
    let tight_time = t.elapsed();

    assert_eq!(labelled.clustering, masked.clustering, "a budget must not change the answer");
    assert_eq!(labelled.objective_estimate, masked.objective_estimate);
    assert_eq!(masked.engine.finalized_lanes, 0, "the budget declines every label");
    println!("acp k = {k}: identical clusterings with and without labels");
    println!(
        "  unbounded {free_time:>10.2?}   ({} lanes labelled, {} bytes held)",
        labelled.engine.finalized_lanes,
        free.stats().bytes_held
    );
    println!(
        "  {budget} B {tight_time:>10.2?}   ({} block-queries from masks, {} bytes held)",
        masked.engine.mask_queries,
        tight.stats().bytes_held
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

    // ── 3. Labels on demand ────────────────────────────────────────────
    // Unlimited-depth rows are the workload where pure mask traversal is
    // slowest. With room in its budget (here unbounded), the pool
    // finalizes per-block component labels on the first row query and
    // serves every later unlimited query as a label scan, while keeping
    // bit-parallel generation and depth queries.
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
