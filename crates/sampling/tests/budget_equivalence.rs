//! Property-based tests of the memory-budget contract: a pool under any
//! byte budget answers every query **bit-identically** to an unbounded
//! pool with the same seed (eviction only ever discards shards that can be
//! regenerated from their per-index RNG streams), and a bounded pool never
//! reports more held bytes than its limit after a range query returns. A
//! pinned digest of the ledger trace guards the eviction order.

use proptest::prelude::*;
use ugraph_graph::{GraphBuilder, NodeId, UncertainGraph};
use ugraph_sampling::{
    BitParallelPool, MemoryBudget, MemoryStats, WorldEngine, DEPTH_UNLIMITED, SHARD_WORLDS,
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

/// A clustering of the graph's nodes: its centers, and each node's cluster
/// index (`None` for an outlier).
type Clustering = (Vec<NodeId>, Vec<Option<usize>>);

/// Strategy: one draw per node (enough for 8 nodes). Node `u` joins the
/// cluster centered at node `draw[u] % (n + 1)`, or is an outlier when
/// that is `n`; centers are numbered in order of first appearance, so a
/// center need not belong to its own cluster.
fn clustering_draw() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(0usize..64, 8)
}

fn clustering(n: usize, draw: &[usize]) -> Clustering {
    let mut centers = Vec::new();
    let cluster_of = (0..n)
        .map(|u| {
            let c = draw[u] % (n + 1);
            (c < n).then(|| {
                let c = NodeId(c as u32);
                centers.iter().position(|&x| x == c).unwrap_or_else(|| {
                    centers.push(c);
                    centers.len() - 1
                })
            })
        })
        .collect();
    (centers, cluster_of)
}

/// The pools under test behind one object type, so a test can call the
/// inherent `assignment_counts` next to the `WorldEngine` queries.
trait Pool: WorldEngine {
    fn assignment_counts_of(&mut self, clustering: &Clustering, depth: u32) -> Vec<u32>;
}

impl<const W: usize> Pool for BitParallelPool<'_, W> {
    fn assignment_counts_of(&mut self, (centers, cluster_of): &Clustering, depth: u32) -> Vec<u32> {
        let mut out = vec![0u32; cluster_of.len()];
        self.assignment_counts(centers, |u| cluster_of[u], depth, &mut out);
        out
    }
}

/// One query family's answers on a pool, concatenated. Every family has
/// this shape (only `assignments` reads the clustering), so the tests run
/// them in turn.
type Family = fn(&mut dyn Pool, &Clustering) -> Vec<u32>;

/// Every query family: single-center rows, k = n batches, depth rows,
/// k = n depth batches, pair counts and assignment counts. Each ends in
/// its own trim of the ledger.
const FAMILIES: [Family; 6] =
    [center_rows, batch_rows, depth_rows, depth_batch_rows, pair_counts, assignments];

/// Center-count rows of every node, concatenated (the solver-path query).
fn center_rows(pool: &mut dyn Pool, _: &Clustering) -> Vec<u32> {
    let n = pool.graph().num_nodes();
    let mut out = Vec::with_capacity(n * n);
    let mut row = vec![0u32; n];
    for c in 0..n as u32 {
        pool.counts_from_center(NodeId(c), &mut row);
        out.extend_from_slice(&row);
    }
    out
}

/// Every node as the center of one k = n batch, over the whole pool and
/// over a window that starts mid-shard.
fn batch_rows(pool: &mut dyn Pool, _: &Clustering) -> Vec<u32> {
    let (n, r) = (pool.graph().num_nodes(), pool.num_samples());
    let centers: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
    let mut out = vec![0u32; 2 * n * n];
    let (full, window) = out.split_at_mut(n * n);
    pool.counts_from_centers_range(&centers, 0, r, full);
    pool.counts_from_centers_range(&centers, SHARD_WORLDS / 2, r, window);
    out
}

/// Depth-limited select/cover rows of every node.
fn depth_rows(pool: &mut dyn Pool, _: &Clustering) -> Vec<u32> {
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

/// Every node as the center of one k = n depth batch at depths (1, 3).
fn depth_batch_rows(pool: &mut dyn Pool, _: &Clustering) -> Vec<u32> {
    let (n, r) = (pool.graph().num_nodes(), pool.num_samples());
    let centers: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
    let mut out = vec![0u32; 2 * n * n];
    let (select, cover) = out.split_at_mut(n * n);
    pool.counts_within_depths_batch_range(&centers, 1, 3, 0, r, select, cover);
    out
}

/// Unlimited and depth-3 pair counts of every pair of nodes.
fn pair_counts(pool: &mut dyn Pool, _: &Clustering) -> Vec<u32> {
    let (n, r) = (pool.graph().num_nodes() as u32, pool.num_samples());
    let mut out = Vec::new();
    for u in 0..n {
        for v in u + 1..n {
            let (u, v) = (NodeId(u), NodeId(v));
            out.push(pool.pair_count_range(u, v, 0, r) as u32);
            out.push(pool.pair_count_within_range(u, v, 3, 0, r) as u32);
        }
    }
    out
}

/// Assignment counts of `clustering`, unlimited and at depth 2.
fn assignments(pool: &mut dyn Pool, clustering: &Clustering) -> Vec<u32> {
    let mut out = pool.assignment_counts_of(clustering, DEPTH_UNLIMITED);
    out.extend(pool.assignment_counts_of(clustering, 2));
    out
}

/// Every family's answers, concatenated.
fn all_answers(pool: &mut dyn Pool, clustering: &Clustering) -> Vec<u32> {
    FAMILIES.iter().flat_map(|family| family(pool, clustering)).collect()
}

/// The pure-mask width-64 and adaptive width-256 pools over `g`.
fn pools(g: &UncertainGraph, seed: u64) -> [(Box<dyn Pool + '_>, &'static str); 2] {
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
        draw in clustering_draw(),
    ) {
        // Span two shard groups so partial eviction is possible.
        let r = SHARD_WORLDS + extra;
        let clustering = clustering(g.num_nodes(), &draw);
        let [(mut plain, _), _] = pools(&g, seed);
        plain.ensure(r);
        let want = all_answers(plain.as_mut(), &clustering);
        for (mut tight, name) in pools(&g, seed) {
            tight.set_memory_budget(MemoryBudget::bounded(64));
            tight.ensure(r);
            let first = all_answers(tight.as_mut(), &clustering);
            prop_assert_eq!(&first, &want, "{}: first pass diverges", name);
            let again = all_answers(tight.as_mut(), &clustering);
            prop_assert_eq!(&again, &want, "{}: requery diverges", name);
            // An edgeless graph's shards hold 0 B of masks and never need
            // evicting, and 64 B admits no labels on either pool.
            let stats = tight.memory_stats();
            if g.num_edges() > 0 {
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
        draw in clustering_draw(),
    ) {
        let r = SHARD_WORLDS + extra;
        let clustering = clustering(g.num_nodes(), &draw);
        for (mut pool, name) in pools(&g, seed) {
            pool.set_memory_budget(MemoryBudget::bounded(limit));
            pool.ensure(r);
            for family in FAMILIES {
                family(pool.as_mut(), &clustering);
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
/// queries, growth past an evicted trailing shard, and rebinding to a
/// tighter ledger. Neither ledger can hold the adaptive pool's labels, so
/// its rows and pairs sweep masks, as the pure-mask pool's do. The
/// pools' `memory_stats()` and `engine_stats()` and every ledger's
/// `stats()` are folded into one FNV-1a digest after every step.
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
    assert_eq!(trace.0, 0x6816_49bd_a46f_ce66, "bit-parallel ledger trace changed");
}
