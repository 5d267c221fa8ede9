//! Budget-constrained smoke tests (run explicitly in CI): a Krogan-like
//! instance solved through a session whose memory budget is far below the
//! pool footprint, forcing shard eviction and regeneration, and through
//! one whose budget holds the edge masks but not the component labels,
//! must produce output identical to an unbounded session while honoring
//! the byte limit; so must AVPR over the second session's evaluation pool.

use ugraph_cluster::{ClusterConfig, ClusterRequest, UgraphSession};
use ugraph_datasets::DatasetSpec;
use ugraph_metrics::avpr;
use ugraph_sampling::WorldEngine;

/// The smoke's session configuration: a fixed sample count keeps it fast
/// in debug builds; 1100 samples span two 1024-world shard groups.
fn config() -> ClusterConfig {
    ClusterConfig::default()
        .with_seed(7)
        .with_threads(1)
        .with_schedule(ugraph_sampling::SampleSchedule::Fixed(1100))
}

#[test]
fn tiny_budget_evicts_regenerates_and_matches_unbounded_output() {
    let d = DatasetSpec::Krogan.generate(2);
    let graph = &d.graph;
    let base = config();
    const BUDGET: usize = 512 << 10; // 512 KiB, far below the pool footprint

    let mut unbounded = UgraphSession::new(graph, base.clone()).expect("unbounded session");
    let mut tight =
        UgraphSession::new(graph, base.with_memory_budget(BUDGET)).expect("budgeted session");

    for k in [3usize, 5] {
        let want = unbounded.solve(ClusterRequest::mcp(k)).expect("unbounded mcp");
        let got = tight.solve(ClusterRequest::mcp(k)).expect("budgeted mcp");
        assert_eq!(got.clustering, want.clustering, "k = {k}: clustering diverged under budget");
        assert_eq!(got.assign_probs, want.assign_probs, "k = {k}: probabilities diverged");
        assert_eq!((got.guesses, got.samples_used), (want.guesses, want.samples_used));
    }
    let clustering = unbounded.solve(ClusterRequest::mcp(3)).expect("resolve").clustering;
    let want_eval = unbounded.evaluate(&clustering);
    let got_eval = tight.evaluate(&clustering);
    assert_eq!(got_eval, want_eval, "evaluation diverged under budget");

    let free = unbounded.stats();
    let stats = tight.stats();
    assert_eq!(free.shards_evicted, 0, "unbounded session must not evict");
    assert!(stats.shards_evicted > 0, "512 KiB budget never evicted a shard");
    assert!(stats.shards_regenerated > 0, "evicted shards were never regenerated");
    assert!(
        stats.bytes_held <= BUDGET,
        "session holds {} bytes over the {BUDGET}-byte budget",
        stats.bytes_held
    );
    println!(
        "budget smoke: {} bytes held (limit {BUDGET}), {} shards evicted, {} regenerated",
        stats.bytes_held, stats.shards_evicted, stats.shards_regenerated
    );
}

#[test]
fn budget_between_masks_and_labels_sweeps_masks_and_matches_unbounded_output() {
    let d = DatasetSpec::Krogan.generate(2);
    let graph = &d.graph;
    // The session's edge masks and rows take about 1.6 MB and its labels
    // would add about 0.85 MB, but the labelling rule counts each block it
    // would label at its worst case, about 5.3 MB.
    const BUDGET: usize = 4 << 20;
    let mut unbounded = UgraphSession::new(graph, config()).expect("unbounded session");
    let mut between =
        UgraphSession::new(graph, config().with_memory_budget(BUDGET)).expect("budgeted session");
    let mut clustering = None;
    for k in [3usize, 5] {
        let want = unbounded.solve(ClusterRequest::mcp(k)).expect("unbounded mcp");
        let got = between.solve(ClusterRequest::mcp(k)).expect("budgeted mcp");
        assert_eq!(got.clustering, want.clustering, "k = {k}: clustering diverged under budget");
        assert_eq!(got.assign_probs, want.assign_probs, "k = {k}: probabilities diverged");
        assert_eq!((got.guesses, got.samples_used), (want.guesses, want.samples_used));
        clustering = Some(want.clustering);
    }
    // AVPR reads every world of the evaluation pool; under the budget the
    // pool labels each world on its own instead of keeping block labels.
    let clustering = clustering.expect("two solves ran");
    let want_avpr = avpr(unbounded.eval_pool(), &clustering);
    assert_eq!(avpr(between.eval_pool(), &clustering), want_avpr, "AVPR diverged under budget");
    assert!(unbounded.eval_pool().engine_stats().finalized_lanes > 0);
    let eval = between.eval_pool().engine_stats();
    assert_eq!(eval.finalized_lanes, 0, "the evaluation pool labelled under the budget: {eval:?}");
    let held = between.ledger().bytes_held();
    assert!(held <= BUDGET, "{held} bytes over the {BUDGET}-byte budget after AVPR");
    let free = unbounded.stats();
    let stats = between.stats();
    assert!(free.engine.finalized_lanes > 0, "the unbounded session labels: {free}");
    assert_eq!(stats.engine.finalized_lanes, 0, "no lane is labelled under the budget: {stats}");
    assert_eq!(stats.shards_regenerated, 0, "the masks fit: {stats}");
    assert!(stats.bytes_held <= BUDGET, "{} bytes over the {BUDGET}-byte budget", stats.bytes_held);
    println!(
        "budget smoke: {} bytes held (limit {BUDGET}), {} block-queries from masks",
        stats.bytes_held, stats.engine.mask_queries
    );
}
