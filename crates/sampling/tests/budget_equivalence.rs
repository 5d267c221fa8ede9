//! Property-based tests of the memory-budget contract: a pool under any
//! byte budget answers every query **bit-identically** to an unbounded
//! pool with the same seed (eviction only ever discards shards that can be
//! regenerated from their per-index RNG streams), and a bounded pool never
//! reports more held bytes than its limit after a range query returns.

use proptest::prelude::*;
use ugraph_graph::{GraphBuilder, NodeId, UncertainGraph};
use ugraph_sampling::{
    BitParallelPool, ComponentPool, MemoryBudget, WorldEngine, WorldPool, SHARD_WORLDS,
};

/// Strategy: a small random uncertain graph (3..=8 nodes, ≤ 14 edges).
fn small_graph() -> impl Strategy<Value = UncertainGraph> {
    (3u32..=8).prop_flat_map(|n| {
        let edge = (0..n, 0..n, 0.05f64..=1.0);
        proptest::collection::vec(edge, 0..14).prop_map(move |edges| {
            let mut b = GraphBuilder::new(n as usize);
            for (u, v, p) in edges {
                if u != v {
                    b.add_edge(u, v, p).unwrap();
                }
            }
            b.build().unwrap()
        })
    })
}

/// Center-count rows of every node, concatenated (the solver-path query).
fn component_rows(pool: &mut ComponentPool<'_>, n: usize) -> Vec<u32> {
    let mut out = Vec::with_capacity(n * n);
    let mut row = vec![0u32; n];
    for c in 0..n as u32 {
        pool.counts_from_center(NodeId(c), &mut row);
        out.extend_from_slice(&row);
    }
    out
}

fn bitparallel_rows(pool: &mut BitParallelPool<'_>, n: usize) -> Vec<u32> {
    let mut out = Vec::with_capacity(n * n);
    let mut row = vec![0u32; n];
    for c in 0..n as u32 {
        pool.counts_from_center(NodeId(c), &mut row);
        out.extend_from_slice(&row);
    }
    out
}

/// Depth-limited select/cover rows of every node (the WorldPool query).
fn world_rows(pool: &mut WorldPool<'_>, n: usize) -> Vec<u32> {
    let mut out = Vec::with_capacity(2 * n * n);
    let mut select = vec![0u32; n];
    let mut cover = vec![0u32; n];
    for c in 0..n as u32 {
        pool.counts_within_depths(NodeId(c), 2, 4, &mut select, &mut cover);
        out.extend_from_slice(&select);
        out.extend_from_slice(&cover);
    }
    out
}

proptest! {
    // Each case samples multiple shard groups per backend; keep the case
    // count modest so the suite stays in CI range.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Evict-then-requery is bit-identical on all three backends: a pool
    /// whose budget cannot even hold one shard (every query regenerates
    /// from the per-index RNG streams) answers exactly like an unbounded
    /// pool, on a first pass and again on a re-query after eviction.
    #[test]
    fn evict_then_requery_is_bit_identical(
        g in small_graph(),
        seed in any::<u64>(),
        extra in 1usize..SHARD_WORLDS,
    ) {
        // Span two shard groups so partial eviction is possible.
        let r = SHARD_WORLDS + extra;
        let n = g.num_nodes();
        let tiny = MemoryBudget::bounded(64);

        let mut plain = ComponentPool::new(&g, seed, 1);
        plain.ensure(r);
        let want = component_rows(&mut plain, n);
        let mut tight = ComponentPool::new(&g, seed, 1);
        tight.set_memory_budget(tiny.clone());
        tight.ensure(r);
        prop_assert_eq!(&component_rows(&mut tight, n), &want, "scalar: first pass diverges");
        prop_assert_eq!(&component_rows(&mut tight, n), &want, "scalar: requery diverges");
        let stats = tight.memory_stats();
        prop_assert!(stats.shards_evicted > 0, "scalar: budget 64 B never evicted");
        prop_assert!(stats.shards_regenerated > 0, "scalar: nothing was regenerated");

        let mut plain = BitParallelPool::new(&g, seed, 1);
        plain.ensure(r);
        let want = bitparallel_rows(&mut plain, n);
        let mut tight = BitParallelPool::new(&g, seed, 1);
        tight.set_memory_budget(tiny.clone());
        tight.ensure(r);
        prop_assert_eq!(&bitparallel_rows(&mut tight, n), &want, "bitparallel: first pass");
        prop_assert_eq!(&bitparallel_rows(&mut tight, n), &want, "bitparallel: requery");
        let stats = tight.memory_stats();
        prop_assert!(stats.shards_evicted > 0, "bitparallel: budget 64 B never evicted");
        prop_assert!(stats.shards_regenerated > 0, "bitparallel: nothing was regenerated");

        let mut plain = WorldPool::new(&g, seed, 1);
        plain.ensure(r);
        let want = world_rows(&mut plain, n);
        let mut tight = WorldPool::new(&g, seed, 1);
        tight.set_memory_budget(tiny);
        tight.ensure(r);
        prop_assert_eq!(&world_rows(&mut tight, n), &want, "world: first pass diverges");
        prop_assert_eq!(&world_rows(&mut tight, n), &want, "world: requery diverges");
        let stats = tight.memory_stats();
        prop_assert!(stats.shards_evicted > 0, "world: budget 64 B never evicted");
        prop_assert!(stats.shards_regenerated > 0, "world: nothing was regenerated");
    }

    /// The budget is a hard bound: after `ensure` and a range query
    /// return, `bytes_held` never exceeds the limit, on any backend and
    /// for any limit (including limits below a single shard).
    #[test]
    fn bytes_held_never_exceeds_the_budget(
        g in small_graph(),
        seed in any::<u64>(),
        extra in 1usize..SHARD_WORLDS,
        limit in 64usize..200_000,
    ) {
        let r = SHARD_WORLDS + extra;
        let n = g.num_nodes();

        let mut pool = ComponentPool::new(&g, seed, 1);
        pool.set_memory_budget(MemoryBudget::bounded(limit));
        pool.ensure(r);
        component_rows(&mut pool, n);
        let stats = pool.memory_stats();
        prop_assert!(
            stats.bytes_held <= limit,
            "scalar holds {} bytes over the {} limit", stats.bytes_held, limit
        );
        prop_assert_eq!(stats.bytes_limit, Some(limit));

        let mut pool = BitParallelPool::new(&g, seed, 1);
        pool.set_memory_budget(MemoryBudget::bounded(limit));
        pool.ensure(r);
        bitparallel_rows(&mut pool, n);
        let stats = pool.memory_stats();
        prop_assert!(
            stats.bytes_held <= limit,
            "bitparallel holds {} bytes over the {} limit", stats.bytes_held, limit
        );

        let mut pool = WorldPool::new(&g, seed, 1);
        pool.set_memory_budget(MemoryBudget::bounded(limit));
        pool.ensure(r);
        world_rows(&mut pool, n);
        let stats = pool.memory_stats();
        prop_assert!(
            stats.bytes_held <= limit,
            "world holds {} bytes over the {} limit", stats.bytes_held, limit
        );
    }
}
