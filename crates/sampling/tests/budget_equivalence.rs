//! Property-based tests of the memory-budget contract: a pool under any
//! byte budget answers every query **bit-identically** to an unbounded
//! pool with the same seed (eviction only ever discards shards that can be
//! regenerated from their per-index RNG streams), and a bounded pool never
//! reports more held bytes than its limit after a range query returns. A
//! pinned digest of the ledger trace guards the eviction order.

use proptest::prelude::*;
use ugraph_graph::{GraphBuilder, NodeId, UncertainGraph};
use ugraph_sampling::{BitParallelPool, MemoryBudget, MemoryStats, WorldEngine, SHARD_WORLDS};

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
fn center_rows(pool: &mut dyn WorldEngine) -> Vec<u32> {
    let n = pool.graph().num_nodes();
    let mut out = Vec::with_capacity(n * n);
    let mut row = vec![0u32; n];
    for c in 0..n as u32 {
        pool.counts_from_center(NodeId(c), &mut row);
        out.extend_from_slice(&row);
    }
    out
}

/// Depth-limited select/cover rows of every node.
fn depth_rows(pool: &mut dyn WorldEngine) -> Vec<u32> {
    let n = pool.graph().num_nodes();
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

/// Row and depth-row queries of every node, concatenated.
fn all_rows(pool: &mut dyn WorldEngine) -> Vec<u32> {
    let mut out = center_rows(pool);
    out.extend(depth_rows(pool));
    out
}

/// The pure-mask width-64 and adaptive width-256 pools over `g`.
fn pools(g: &UncertainGraph, seed: u64) -> [(Box<dyn WorldEngine + '_>, &'static str); 2] {
    [
        (Box::new(BitParallelPool::<1>::new(g, seed, 1)), "pure-mask"),
        (Box::new(BitParallelPool::<4>::new_adaptive(g, seed, 1)), "adaptive"),
    ]
}

proptest! {
    // Each case samples multiple shard groups per pool; keep the case
    // count modest so the suite stays in CI range.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Evict-then-requery is bit-identical on the pure-mask and the
    /// adaptive pool: a pool whose budget cannot even hold one shard
    /// (every query regenerates from the per-index RNG streams) answers
    /// exactly like an unbounded pool, on a first pass and again on a
    /// re-query after eviction.
    #[test]
    fn evict_then_requery_is_bit_identical(
        g in small_graph(),
        seed in any::<u64>(),
        extra in 1usize..SHARD_WORLDS,
    ) {
        // Span two shard groups so partial eviction is possible.
        let r = SHARD_WORLDS + extra;
        let [(mut plain, _), _] = pools(&g, seed);
        plain.ensure(r);
        let want = all_rows(plain.as_mut());
        for (mut tight, name) in pools(&g, seed) {
            tight.set_memory_budget(MemoryBudget::bounded(64));
            tight.ensure(r);
            prop_assert_eq!(&all_rows(tight.as_mut()), &want, "{}: first pass diverges", name);
            prop_assert_eq!(&all_rows(tight.as_mut()), &want, "{}: requery diverges", name);
            // An edgeless graph's pure-mask shards hold 0 B and never need
            // evicting; the adaptive pool's block labels always do.
            let stats = tight.memory_stats();
            if g.num_edges() > 0 || name == "adaptive" {
                prop_assert!(stats.shards_evicted > 0, "{}: budget 64 B never evicted", name);
                prop_assert!(stats.shards_regenerated > 0, "{}: nothing was regenerated", name);
            }
        }
    }

    /// The budget is a hard bound: after `ensure` and a range query
    /// return, `bytes_held` never exceeds the limit, on either pool mode
    /// and for any limit (including limits below a single shard).
    #[test]
    fn bytes_held_never_exceeds_the_budget(
        g in small_graph(),
        seed in any::<u64>(),
        extra in 1usize..SHARD_WORLDS,
        limit in 64usize..200_000,
    ) {
        let r = SHARD_WORLDS + extra;
        for (mut pool, name) in pools(&g, seed) {
            pool.set_memory_budget(MemoryBudget::bounded(limit));
            pool.ensure(r);
            for rows in [center_rows, depth_rows] {
                rows(pool.as_mut());
                let stats = pool.memory_stats();
                prop_assert!(
                    stats.bytes_held <= limit,
                    "{} holds {} bytes over the {} limit", name, stats.bytes_held, limit
                );
                prop_assert_eq!(stats.bytes_limit, Some(limit));
            }
        }
    }
}

/// FNV-1a digest of a ledger trace.
struct Trace(u64);

impl Trace {
    fn words(&mut self, words: &[u64]) {
        for byte in words.iter().flat_map(|w| w.to_le_bytes()) {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn memory(&mut self, s: MemoryStats) {
        let limit = s.bytes_limit.map_or(u64::MAX, |l| l as u64);
        self.words(&[s.bytes_held as u64, limit, s.shards_evicted, s.shards_regenerated]);
    }

    /// Folds every pool's memory and finalization counters and every
    /// ledger's bytes and counters — one step of the trace.
    fn step(&mut self, pools: &[&dyn WorldEngine], ledgers: &[MemoryBudget]) {
        for &pool in pools {
            self.memory(pool.memory_stats());
            let e = pool.engine_stats();
            let counters = [e.finalized_blocks, e.finalized_lanes, e.label_queries, e.mask_queries];
            self.words(&counters.map(|x| x as u64));
        }
        for ledger in ledgers {
            self.words(&[ledger.bytes_held() as u64]);
            self.memory(ledger.stats());
        }
    }
}

/// The 10-node, 16-edge graph the ledger traces run on.
fn trace_graph() -> UncertainGraph {
    let mut b = GraphBuilder::new(10);
    let edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (5, 6), (6, 7), (7, 8)];
    let more = [(8, 9), (9, 5), (0, 5), (2, 7), (4, 9), (1, 6), (3, 8), (0, 8)];
    for (i, (u, v)) in edges.into_iter().chain(more).enumerate() {
        b.add_edge(u, v, 0.15 + 0.05 * (i % 12) as f64).unwrap();
    }
    b.build().unwrap()
}

/// Pins the ledger trace of the bit-parallel backends alone: the pure-mask
/// `BitParallelPool::<1>` and the adaptive `BitParallelPool::<4>` share one
/// bounded ledger (so the LRU order across the two pools counts) through
/// growth to 2.5 shards, mid-shard ranged row, batch, pair and depth
/// queries, growth past an evicted trailing shard, rebinding to a tighter
/// ledger, and a clone that is dropped. The pools' `memory_stats()` and
/// `engine_stats()` and every ledger's `stats()` are folded into one FNV-1a
/// digest after every step.
#[test]
fn bitparallel_ledger_trace_is_pinned() {
    let g = trace_graph();
    let n = g.num_nodes();
    let r = 2 * SHARD_WORLDS + SHARD_WORLDS / 2;

    let mut mask = BitParallelPool::<1>::new(&g, 7, 1);
    let mut adaptive = BitParallelPool::<4>::new_adaptive(&g, 7, 1);
    let mut ledgers = vec![MemoryBudget::bounded(40_000)];
    mask.set_memory_budget(ledgers[0].clone());
    adaptive.set_memory_budget(ledgers[0].clone());

    let mut trace = Trace(0xcbf2_9ce4_8422_2325);
    macro_rules! pools {
        () => {
            &[&mask as &dyn WorldEngine, &adaptive]
        };
        (mut) => {
            [&mut mask as &mut dyn WorldEngine, &mut adaptive]
        };
    }
    macro_rules! step {
        (|$e:ident| $body:expr) => {{
            for $e in pools!(mut) {
                $body;
            }
            trace.step(pools!(), &ledgers);
        }};
    }
    trace.step(pools!(), &ledgers);
    let (mut row, mut sel) = (vec![0u32; n], vec![0u32; n]);
    let (mut rows, mut sels) = (vec![0u32; 3 * n], vec![0u32; 3 * n]);
    let centers = [NodeId(0), NodeId(4), NodeId(9)];

    // Grow to 2.5 shards, then query windows that start mid-shard.
    step!(|e| e.ensure(r));
    step!(|e| e.counts_from_center_range(NodeId(3), 700, 1900, &mut row));
    step!(|e| e.counts_from_centers_range(&centers, 1500, r, &mut rows));
    step!(|e| e.pair_count_range(NodeId(1), NodeId(8), 300, 2100));
    step!(|e| e.counts_within_depths_range(NodeId(3), 1, 3, 900, 2300, &mut sel, &mut row));
    step!(|e| e.counts_within_depths_batch_range(&centers, 2, 2, 100, 1300, &mut sels, &mut rows));
    step!(|e| e.pair_count_within_range(NodeId(0), NodeId(9), 3, 1100, r));
    // Touch the trailing shard before the others, so it is the LRU victim,
    // then grow past it and query the grown tail.
    step!(|e| e.counts_from_center_range(NodeId(5), 2 * SHARD_WORLDS, r, &mut row));
    step!(|e| e.counts_from_center_range(NodeId(2), 0, 2 * SHARD_WORLDS, &mut row));
    step!(|e| e.ensure(3 * SHARD_WORLDS + 300));
    step!(|e| e.counts_from_center_range(NodeId(6), 2000, 3 * SHARD_WORLDS + 300, &mut row));
    // Rebind both pools to one tighter ledger, then query again.
    ledgers.push(MemoryBudget::bounded(6_000));
    mask.set_memory_budget(ledgers[1].clone());
    adaptive.set_memory_budget(ledgers[1].clone());
    trace.step(pools!(), &ledgers);
    step!(|e| e.pair_count_range(NodeId(2), NodeId(6), 1000, 3 * SHARD_WORLDS));
    step!(|e| e.counts_from_centers_range(&centers, 0, 3 * SHARD_WORLDS + 300, &mut rows));
    // A clone charges its copy of the resident shards; dropping it
    // releases them.
    let clones = (mask.clone(), adaptive.clone());
    trace.step(&[&clones.0, &clones.1], &ledgers);
    drop(clones);
    trace.step(pools!(), &ledgers);
    assert_eq!(trace.0, 0xd255_a24d_70b8_8cec, "bit-parallel ledger trace changed");
}
