//! Progressive sample pools — the backend implementation of the
//! [`WorldEngine`] seam.
//!
//! The clustering algorithms lower their probability threshold `q`
//! geometrically and re-estimate probabilities at each step (paper §4); the
//! required sample count grows as `q` shrinks. Pools therefore **grow
//! monotonically**: `ensure(r)` tops the pool up to `r` samples, reusing
//! everything drawn before — the progressive sampling strategy of the
//! paper. Because sample `i` is generated from a per-index RNG (see
//! [`crate::rng`]), the pool contents are independent of the growth
//! schedule, of the number of worker threads, **and of the block width**.
//!
//! [`BitParallelPool`] stores worlds in blocks of `64·W` (`W` machine words
//! per edge; the library's pools use 256, see [`crate::BlockWidth`]) as
//! structure-of-arrays edge masks (`masks[e]` spans the block's worlds),
//! queried with mask-propagating multi-world BFS — one traversal answers a
//! whole block, for both unlimited and depth-limited semantics. In
//! adaptive mode ([`crate::EngineKind::Adaptive`]) it also caches per-lane
//! component labels of the blocks that unlimited queries keep hitting, so
//! those queries become label scans.
//!
//! ## Sharded storage
//!
//! A pool stores its samples in [`SHARD_WORLDS`]-world shards and keeps
//! their bookkeeping — byte charges against a [`crate::MemoryBudget`],
//! recency stamps, residency, and the eviction/regeneration counters — in
//! a crate-private `ShardStore` (see [`crate::budget`]). Over that
//! bookkeeping the pool resolves a query's shards (regenerating evicted
//! ones from their per-index RNG streams), gates growth, and trims
//! least-recently-used shards when the ledger is over its limit.
//!
//! ## Parallelism
//!
//! The pool implements the ranged query forms (`counts_from_center_range`,
//! `counts_within_depths_range`, `pair_count*_range`, and their batched
//! variants); the full-pool forms are provided by [`WorldEngine`] as the
//! ranged forms over the whole pool. Generation (`ensure`) and the queries
//! run on rayon, gated by the shared [`crate::tuning`] heuristics. Queries
//! partition their blocks into chunks, accumulate per-chunk integer count
//! vectors, and merge them — so every estimate is bit-identical no matter
//! how many threads run, which the property tests assert.

use rayon::prelude::*;

use ugraph_graph::{Mask, MultiWorldBfs, NodeId, UncertainGraph, LANES, MAX_SOURCES};

use crate::budget::{shard_span, MemoryBudget, MemoryStats, ShardStore};
use crate::engine::{EngineStats, WorldEngine, DEPTH_UNLIMITED};
use crate::error::SamplingPhase;
use crate::faults::{self, FaultSite};
use crate::interrupt::RunState;
use crate::tuning::{
    chunked_counts2_with, chunked_counts_with, chunked_sum_with, finalize_on_unlimited_query,
    ThreadConfig,
};
use crate::world::WorldSampler;

/// Blocks per shard of the width-64 bit-parallel backend — the granularity
/// at which pool storage is allocated, charged against a [`MemoryBudget`],
/// and evicted. Wider backends pack the same [`SHARD_WORLDS`] worlds into
/// proportionally fewer blocks per shard (`blocks_per_shard`), so
/// shard indices, touch stamps, and eviction order are identical at every
/// block width.
pub const SHARD_BLOCKS: usize = 16;

/// Worlds per shard (16 × 64 = 1,024 at every block width), the shard
/// granularity shared by every width so pools report memory uniformly.
pub const SHARD_WORLDS: usize = SHARD_BLOCKS * LANES;

/// Blocks per shard at block width `W` words (64·W worlds per block):
/// 16 for width 64, 4 for width 256, 2 for width 512 — always the same
/// [`SHARD_WORLDS`] worlds per shard.
#[inline]
const fn blocks_per_shard<const W: usize>() -> usize {
    SHARD_WORLDS / (W * LANES)
}

/// Storage width of component labels and membership indexes.
///
/// Labels and node ids are at most `n − 1`, so graphs with
/// `n ≤ u16::MAX` store them as `u16` — halving label memory on every
/// shipped dataset — while larger graphs use the `u32` path behind the
/// same interface. Both widths are property-tested against each other.
trait Label: Copy + Eq + Send + Sync + std::fmt::Debug + 'static {
    fn from_u32(x: u32) -> Self;
    fn index(self) -> usize;
}

impl Label for u16 {
    #[inline]
    fn from_u32(x: u32) -> Self {
        debug_assert!(x <= u16::MAX as u32);
        x as u16
    }
    #[inline]
    fn index(self) -> usize {
        self as usize
    }
}

impl Label for u32 {
    #[inline]
    fn from_u32(x: u32) -> Self {
        x
    }
    #[inline]
    fn index(self) -> usize {
        self as usize
    }
}

/// Whether `n`-node labels fit the narrow (`u16`) width.
#[inline]
fn narrow_fits(n: usize) -> bool {
    n <= u16::MAX as usize
}

/// Finalized per-lane component labels of one mask block, at label width
/// `L` — the structure that lets unlimited queries over the block run as
/// O(n + members) label scans instead of mask BFS.
///
/// Labels are stored node-major with stride `stride` = the block's lane
/// capacity, `W · 64` for block width `W`
/// (`labels[u * stride + l]` = `u`'s component in world `l`), so a
/// center's per-lane labels and a pair's two label strips are contiguous
/// loads. The membership index is a single CSR over `(lane, label)`
/// buckets: members of component `c` of lane `l` are
/// `order[starts[b]..starts[b + 1]]` with `b = lane_base[l] + c`.
///
/// Lanes are labeled **append-only**: finalizing a partially filled block
/// and topping it up later labels only the new lanes — already-labeled
/// lanes are never recomputed (worlds are immutable once sampled).
#[derive(Clone, Debug)]
struct BlockLabels<L> {
    /// Per-lane labels, node-major with stride `stride` (sized
    /// `n · stride` up front so lane appends are in-place writes).
    labels: Vec<L>,
    /// Node ids grouped by `(lane, label)` bucket; lane `l` owns
    /// `order[l * n..(l + 1) * n]`.
    order: Vec<L>,
    /// Cumulative bucket offsets into `order` (one terminator overall).
    starts: Vec<u32>,
    /// `lane_base[l]` = index of lane `l`'s first bucket in `starts`.
    lane_base: Vec<u32>,
    /// Lane capacity of the block (`W · 64`) — the node-major stride of
    /// `labels`.
    stride: u32,
    /// Lanes labeled so far (a prefix of the block's lanes).
    labeled: u32,
}

impl<L: Label> BlockLabels<L> {
    fn new(n: usize, stride: usize) -> Self {
        BlockLabels {
            labels: vec![L::from_u32(0); n * stride],
            order: Vec::new(),
            starts: vec![0],
            lane_base: vec![0],
            stride: stride as u32,
            labeled: 0,
        }
    }

    /// Heap bytes held by the label and membership structures.
    fn heap_bytes(&self) -> usize {
        (self.labels.len() + self.order.len()) * std::mem::size_of::<L>()
            + (self.starts.len() + self.lane_base.len()) * 4
    }

    /// Labels lanes `[self.labeled, target)` from the block's edge masks
    /// with one component-sharing sweep, then appends their membership
    /// buckets. Already-labeled lanes are untouched.
    fn extend<const W: usize>(
        &mut self,
        graph: &UncertainGraph,
        bfs: &mut MultiWorldBfs<W>,
        masks: &[Mask<W>],
        target: usize,
    ) {
        let n = graph.num_nodes();
        let stride = self.stride as usize;
        let from = self.labeled as usize;
        debug_assert_eq!(stride, Mask::<W>::LANES);
        debug_assert!(from < target && target <= stride);
        let new_mask = Mask::<W>::prefix(target).and_not(Mask::prefix(from));
        let labels = &mut self.labels;
        let counts = bfs.label_components(graph, masks, new_mask, |v, mask, next| {
            let base = v.index() * stride;
            mask.for_each_lane(|l| labels[base + l] = L::from_u32(next[l]));
        });
        // Append the new lanes' membership buckets (counting sort per lane).
        self.order.resize((target - from) * n + self.order.len(), L::from_u32(0));
        let mut sizes: Vec<u32> = Vec::new();
        let mut cursor: Vec<u32> = Vec::new();
        for l in from..target {
            let nb = counts[l] as usize;
            sizes.clear();
            sizes.resize(nb, 0);
            for u in 0..n {
                sizes[self.labels[u * stride + l].index()] += 1;
            }
            let mut running =
                *self.starts.last().unwrap_or_else(|| unreachable!("starts holds its terminator"));
            cursor.clear();
            for &s in &sizes {
                cursor.push(running);
                running += s;
                self.starts.push(running);
            }
            for u in 0..n {
                let c = self.labels[u * stride + l].index();
                self.order[cursor[c] as usize] = L::from_u32(u as u32);
                cursor[c] += 1;
            }
            let base = *self
                .lane_base
                .last()
                .unwrap_or_else(|| unreachable!("lane_base holds its terminator"));
            self.lane_base.push(base + nb as u32);
        }
        self.labeled = target as u32;
    }

    /// Increments `counts[u]` for every member `u` of `center`'s component
    /// in every lane selected by `lanes` — the finalized-block kernel of
    /// the unlimited count queries (`lanes` must be ⊆ the labeled lanes).
    #[inline]
    fn accumulate_center<const W: usize>(&self, center: usize, lanes: Mask<W>, counts: &mut [u32]) {
        let stride = self.stride as usize;
        let base = center * stride;
        lanes.for_each_lane(|l| {
            let b = (self.lane_base[l] + self.labels[base + l].index() as u32) as usize;
            for &u in &self.order[self.starts[b] as usize..self.starts[b + 1] as usize] {
                counts[u.index()] += 1;
            }
        });
    }

    /// Writes lane `l`'s label of every node into `out` (`l` must be
    /// labeled).
    fn lane_into(&self, l: usize, out: &mut [u32]) {
        let stride = self.stride as usize;
        for (u, o) in out.iter_mut().enumerate() {
            *o = self.labels[u * stride + l].index() as u32;
        }
    }

    /// Number of lanes in `lanes` where `u` and `v` share a component
    /// (`lanes` must be ⊆ the labeled lanes).
    #[inline]
    fn pair_lanes<const W: usize>(&self, u: usize, v: usize, lanes: Mask<W>) -> usize {
        let stride = self.stride as usize;
        let (bu, bv) = (u * stride, v * stride);
        let mut hits = 0usize;
        lanes.for_each_lane(|l| hits += usize::from(self.labels[bu + l] == self.labels[bv + l]));
        hits
    }

    /// Exact label-scan cost of a batched query — the total member count
    /// of every `(center, lane)` component bucket — for the
    /// [`crate::tuning::labels_beat_shared_masks`] dispatch.
    fn batch_label_ops<const W: usize>(&self, centers: &[NodeId], lanes: Mask<W>) -> usize {
        let stride = self.stride as usize;
        let mut ops = 0usize;
        for c in centers {
            let base = c.index() * stride;
            lanes.for_each_lane(|l| {
                let b = (self.lane_base[l] + self.labels[base + l].index() as u32) as usize;
                ops += (self.starts[b + 1] - self.starts[b]) as usize;
            });
        }
        ops
    }
}

/// [`BlockLabels`] at the width picked for the pool's node count.
#[derive(Clone, Debug)]
enum BlockLabelsAny {
    Narrow(BlockLabels<u16>),
    Wide(BlockLabels<u32>),
}

impl BlockLabelsAny {
    fn new(n: usize, wide: bool, stride: usize) -> Self {
        if wide {
            BlockLabelsAny::Wide(BlockLabels::new(n, stride))
        } else {
            BlockLabelsAny::Narrow(BlockLabels::new(n, stride))
        }
    }

    #[inline]
    fn labeled(&self) -> u32 {
        match self {
            BlockLabelsAny::Narrow(l) => l.labeled,
            BlockLabelsAny::Wide(l) => l.labeled,
        }
    }

    /// Lane mask of the labeled prefix.
    #[inline]
    fn labeled_mask<const W: usize>(&self) -> Mask<W> {
        Mask::prefix(self.labeled() as usize)
    }

    fn extend<const W: usize>(
        &mut self,
        graph: &UncertainGraph,
        bfs: &mut MultiWorldBfs<W>,
        masks: &[Mask<W>],
        target: usize,
    ) {
        match self {
            BlockLabelsAny::Narrow(l) => l.extend(graph, bfs, masks, target),
            BlockLabelsAny::Wide(l) => l.extend(graph, bfs, masks, target),
        }
    }

    #[inline]
    fn accumulate_center<const W: usize>(&self, center: usize, lanes: Mask<W>, counts: &mut [u32]) {
        match self {
            BlockLabelsAny::Narrow(l) => l.accumulate_center(center, lanes, counts),
            BlockLabelsAny::Wide(l) => l.accumulate_center(center, lanes, counts),
        }
    }

    #[inline]
    fn pair_lanes<const W: usize>(&self, u: usize, v: usize, lanes: Mask<W>) -> usize {
        match self {
            BlockLabelsAny::Narrow(l) => l.pair_lanes(u, v, lanes),
            BlockLabelsAny::Wide(l) => l.pair_lanes(u, v, lanes),
        }
    }

    fn lane_into(&self, lane: usize, out: &mut [u32]) {
        match self {
            BlockLabelsAny::Narrow(l) => l.lane_into(lane, out),
            BlockLabelsAny::Wide(l) => l.lane_into(lane, out),
        }
    }

    fn batch_label_ops<const W: usize>(&self, centers: &[NodeId], lanes: Mask<W>) -> usize {
        match self {
            BlockLabelsAny::Narrow(l) => l.batch_label_ops(centers, lanes),
            BlockLabelsAny::Wide(l) => l.batch_label_ops(centers, lanes),
        }
    }

    fn heap_bytes(&self) -> usize {
        match self {
            BlockLabelsAny::Narrow(l) => l.heap_bytes(),
            BlockLabelsAny::Wide(l) => l.heap_bytes(),
        }
    }
}

/// Shape of an unlimited-depth point query, as seen by the adaptive
/// backend's finalization prologue: single-center **rows** finalize
/// touched blocks eagerly, **pair** queries convert a block only after
/// repeated hits ([`finalize_on_unlimited_query`]). Multi-center batches
/// never go through the prologue — they neither finalize nor count toward
/// the threshold (on finalized blocks the cost model often prefers the
/// mask sharing sweep, so batch traffic is no evidence labels would pay
/// off); they dispatch via [`crate::tuning::labels_beat_shared_masks`] on
/// blocks other traffic finalized.
#[derive(Clone, Copy, PartialEq, Eq)]
enum UnlimitedShape {
    Row,
    Pair,
}

/// One block of up to `W · 64` sampled worlds as per-edge presence masks.
#[derive(Clone, Debug)]
struct MaskBlock<const W: usize> {
    /// `masks[e]` lane `l` ⇔ edge `e` exists in world `base + l`.
    masks: Vec<Mask<W>>,
    /// Number of valid lanes (worlds) in this block; only the last block
    /// of a pool can be partial.
    lanes: u32,
    /// Lazily finalized component labels (adaptive mode only); covers the
    /// first `labels.labeled()` lanes, never invalidated — a lane top-up
    /// extends the labels, it does not recompute them.
    labels: Option<BlockLabelsAny>,
    /// Mask-path unlimited point queries absorbed while unfinalized — the
    /// input of [`finalize_on_unlimited_query`].
    mask_queries: u32,
}

impl<const W: usize> MaskBlock<W> {
    /// Heap bytes held by the block's masks and finalized labels.
    fn heap_bytes(&self) -> usize {
        self.masks.len() * std::mem::size_of::<Mask<W>>()
            + self.labels.as_ref().map_or(0, BlockLabelsAny::heap_bytes)
    }

    /// Splits a query's lane selection into (served-from-labels,
    /// served-by-mask-BFS) parts.
    #[inline]
    fn split_lanes(&self, query: Mask<W>) -> (Mask<W>, Mask<W>) {
        match &self.labels {
            Some(l) => {
                let labeled = l.labeled_mask();
                (query & labeled, query.and_not(labeled))
            }
            None => (Mask::ZERO, query),
        }
    }
}

/// Block `b` of a sharded bit-parallel pool (the shard must be resident).
#[inline]
fn shard_block<const W: usize>(shards: &[Vec<MaskBlock<W>>], b: usize) -> &MaskBlock<W> {
    &shards[b / blocks_per_shard::<W>()][b % blocks_per_shard::<W>()]
}

/// The **bit-parallel** backend of [`WorldEngine`]: worlds stored in
/// blocks of `64·W` (`W` words per edge) as structure-of-arrays edge
/// masks, queried with mask-propagating multi-world BFS
/// ([`MultiWorldBfs`]).
///
/// One traversal answers a whole block at once, so queries cost
/// `O((n + m) · W · ⌈r/64W⌉)` word operations instead of `r` per-world
/// walks — and generation skips any per-world union-find/labeling pass.
/// World `i` lives in lane `i % 64W` of block `i / 64W` and is drawn from
/// per-index RNG stream `i`, so pools of every width hold world-for-world
/// identical samples under the same master seed, equal to a naive
/// per-world reference (property-tested). Blocks are grouped into
/// [`SHARD_WORLDS`]-world shards charged against a [`MemoryBudget`].
#[derive(Clone, Debug)]
pub struct BitParallelPool<'g, const W: usize = 1> {
    sampler: WorldSampler<'g>,
    /// The mask blocks of each [`SHARD_WORLDS`]-world shard, the
    /// allocation/eviction granularity of this backend. A shard owns its
    /// blocks' masks **and** their finalized labels; eviction drops both
    /// (an empty vector), and regeneration rebuilds the masks
    /// bit-identically while labels re-finalize on the next unlimited
    /// query.
    shards: Vec<Vec<MaskBlock<W>>>,
    samples: usize,
    config: ThreadConfig,
    /// Reusable multi-world BFS workspace for serial query paths; parallel
    /// chunks build their own.
    bfs: MultiWorldBfs<W>,
    /// Reusable `(block, lane mask)` work-item buffer of the ranged query
    /// paths (allocation-free single-row queries).
    items: Vec<(u32, Mask<W>)>,
    /// Reusable `(block, label lanes, mask lanes)` dispatch plan of the
    /// batched unlimited queries.
    batch_plan: Vec<(u32, Mask<W>, Mask<W>)>,
    /// Lazy per-block component-label finalization
    /// ([`crate::EngineKind::Adaptive`]): off = pure-mask backend.
    adaptive: bool,
    /// `true` = `u32` block labels (see [`Label`]).
    wide: bool,
    /// Finalization counters (see [`EngineStats`]).
    stats: EngineStats,
    /// Residency and byte accounting of the shards.
    store: ShardStore,
}

impl<'g, const W: usize> BitParallelPool<'g, W> {
    /// Worlds per block at this width (`W · 64`).
    const BLOCK_LANES: usize = W * LANES;

    /// Creates an empty **pure-mask** bit-parallel pool over `graph` with
    /// master `seed` — every query runs mask BFS. `threads = 0` uses all
    /// available cores.
    pub fn new(graph: &'g UncertainGraph, seed: u64, threads: usize) -> Self {
        BitParallelPool {
            sampler: WorldSampler::new(graph, seed),
            shards: Vec::new(),
            samples: 0,
            config: ThreadConfig::new(threads),
            bfs: MultiWorldBfs::new(graph.num_nodes()),
            items: Vec::new(),
            batch_plan: Vec::new(),
            adaptive: false,
            wide: !narrow_fits(graph.num_nodes()),
            stats: EngineStats::default(),
            store: ShardStore::default(),
        }
    }

    /// Creates an **adaptive** pool: bit-parallel blocks plus lazy
    /// per-block component-label finalization (see
    /// [`BitParallelPool::with_finalization`]).
    pub fn new_adaptive(graph: &'g UncertainGraph, seed: u64, threads: usize) -> Self {
        Self::new(graph, seed, threads).with_finalization(true)
    }

    /// Enables or disables lazy block finalization: with it on, the first
    /// unlimited-depth row query against a block materializes per-lane
    /// component labels (one component-sharing fixpoint sweep, cached next
    /// to the edge masks) and every later unlimited query over the block
    /// runs as an O(n + members) label scan; point queries convert a block
    /// only after repeated mask-path hits
    /// ([`crate::tuning::finalize_on_unlimited_query`]). Counts are
    /// identical either way — finalization trades label memory
    /// (≈ one component-label row per world) for mask traversals.
    /// Disabling drops existing labels.
    pub fn with_finalization(mut self, adaptive: bool) -> Self {
        self.adaptive = adaptive;
        if !adaptive {
            for s in 0..self.shards.len() {
                for block in &mut self.shards[s] {
                    block.labels = None;
                    block.mask_queries = 0;
                }
                self.settle_shard(s);
            }
            self.stats = EngineStats::default();
        }
        self
    }

    /// Forces the wide (`u32`) block-label path even on small graphs.
    /// Counts are identical either way; the property tests use this to
    /// exercise the wide path without 65k-node instances.
    ///
    /// # Panics
    /// Panics if any block is already finalized.
    #[doc(hidden)]
    pub fn with_wide_labels(mut self, wide: bool) -> Self {
        assert!(
            self.shards.iter().flatten().all(|b| b.labels.is_none()),
            "label width is fixed once blocks are finalized"
        );
        self.wide = wide || !narrow_fits(self.graph().num_nodes());
        self
    }

    /// The underlying graph.
    pub fn graph(&self) -> &'g UncertainGraph {
        self.sampler.graph()
    }

    /// Number of `W·64`-world blocks backing the pool (resident or
    /// evicted).
    pub fn num_blocks(&self) -> usize {
        self.samples.div_ceil(Self::BLOCK_LANES)
    }

    /// Presence mask of edge `e` in block `block` (lane `l` ⇔ the edge
    /// exists in world `block·W·64 + l`). Exposed for tests and
    /// diagnostics; the block's shard must be resident.
    pub fn edge_mask(&self, block: usize, e: usize) -> Mask<W> {
        shard_block(&self.shards, block).masks[e]
    }

    /// Writes the component labels of sample `i` into `out` (one per
    /// node): `out[u] == out[v]` exactly when `u` and `v` are connected in
    /// world `i`. Regenerates `i`'s shard if it was evicted, but does not
    /// trim — callers iterating the pool keep it resident, and the next
    /// aggregate query or `ensure` settles the ledger.
    ///
    /// An adaptive pool labels the sample's whole block once
    /// (append-only, as an unlimited row query would), charges the labels
    /// to the shard, and serves the block's other samples from them. A
    /// pure-mask pool, or a graph too large for block labels, labels the
    /// one world straight into `out` without caching anything.
    ///
    /// # Panics
    /// Panics if `i >= num_samples()` or `out.len() != n`.
    pub fn labels_into(&mut self, i: usize, out: &mut [u32]) {
        let n = self.graph().num_nodes();
        assert_eq!(out.len(), n, "labels buffer has wrong length");
        assert!(i < self.samples, "sample {i} out of range ({} samples)", self.samples);
        self.resolve_point(i);
        let (b, lane) = (i / Self::BLOCK_LANES, i % Self::BLOCK_LANES);
        if !self.adaptive || !Self::labels_fit(n) {
            let masks = &shard_block(&self.shards, b).masks;
            self.bfs.label_components(
                self.sampler.graph(),
                masks,
                Mask::bit(lane),
                |v, _, next| {
                    out[v.index()] = next[lane];
                },
            );
            return;
        }
        self.finalize_block(b);
        self.settle_shard(i / SHARD_WORLDS);
        let labels = shard_block(&self.shards, b).labels.as_ref();
        labels.unwrap_or_else(|| unreachable!("finalized block has labels")).lane_into(lane, out);
    }

    /// Whether block labels of an `n`-node graph fit the `u32` CSR offsets
    /// of the membership index.
    fn labels_fit(n: usize) -> bool {
        n.saturating_mul(Self::BLOCK_LANES) <= u32::MAX as usize
    }

    fn build_block(sampler: &WorldSampler<'g>, m: usize, block: usize, r: usize) -> MaskBlock<W> {
        let base = block * Self::BLOCK_LANES;
        let lanes = (r - base).min(Self::BLOCK_LANES);
        let mut masks = vec![Mask::<W>::ZERO; m];
        for lane in 0..lanes {
            sampler
                .sample_block_lane((base + lane) as u64, lane, &mut masks)
                .unwrap_or_else(|e| unreachable!("pool-sized mask buffer cannot mismatch: {e}"));
        }
        MaskBlock { masks, lanes: lanes as u32, labels: None, mask_queries: 0 }
    }

    /// Finalization prologue of every unlimited-depth query over the
    /// sample window `[lo, hi)`: decides per touched block whether to
    /// materialize (or extend) its component labels before the query runs,
    /// per the [`finalize_on_unlimited_query`] heuristic, and accounts the
    /// query in [`EngineStats`]. Fresh blocks are labeled in parallel when
    /// the batch is worth it; a partially labeled block (the grown trailing
    /// block) extends **append-only** — labeled lanes are never recomputed.
    fn prepare_unlimited(&mut self, lo: usize, hi: usize, shape: UnlimitedShape) {
        if !self.adaptive || lo >= hi || self.store.run.checkpoint(SamplingPhase::Labeling) {
            return;
        }
        let graph = self.sampler.graph();
        let n = graph.num_nodes();
        if !Self::labels_fit(n) {
            return;
        }
        let bps = blocks_per_shard::<W>();
        let (mut label_q, mut mask_q) = (0usize, 0usize);
        let mut todo: Vec<usize> = Vec::new();
        for b in lo / Self::BLOCK_LANES..=(hi - 1) / Self::BLOCK_LANES {
            let block = &mut self.shards[b / bps][b % bps];
            let labeled = block.labels.as_ref().map_or(0, BlockLabelsAny::labeled) as usize;
            if labeled >= block.lanes as usize {
                label_q += 1;
            } else if finalize_on_unlimited_query(shape == UnlimitedShape::Row, block.mask_queries)
            {
                todo.push(b);
                label_q += 1;
            } else {
                block.mask_queries += 1;
                mask_q += 1;
            }
        }
        self.stats.label_queries += label_q;
        self.stats.mask_queries += mask_q;
        if todo.is_empty() {
            return;
        }
        // Fresh full finalizations are independent per block: build the
        // label structures by value in parallel, then attach. Extensions of
        // a partially labeled block (at most one — the trailing block) run
        // serially on the pool's workspace.
        let wide = self.wide;
        let fresh: Vec<usize> = todo
            .iter()
            .copied()
            .filter(|&b| shard_block(&self.shards, b).labels.is_none())
            .collect();
        if fresh.len() > 1 && self.config.parallel_generation(fresh.len() * Self::BLOCK_LANES) {
            let shards: &[Vec<MaskBlock<W>>] = &self.shards;
            let built: Vec<(usize, BlockLabelsAny)> = self.config.run(|| {
                fresh
                    .par_iter()
                    .map_init(
                        || MultiWorldBfs::<W>::new(n),
                        |bfs, &b| {
                            let block = shard_block(shards, b);
                            let mut labels = BlockLabelsAny::new(n, wide, Self::BLOCK_LANES);
                            labels.extend(graph, bfs, &block.masks, block.lanes as usize);
                            (b, labels)
                        },
                    )
                    .collect()
            });
            for (b, labels) in built {
                self.stats.finalized_blocks += 1;
                self.stats.finalized_lanes += labels.labeled() as usize;
                self.shards[b / bps][b % bps].labels = Some(labels);
            }
        }
        // Serial (and catch-up) path: blocks the parallel branch already
        // attached are fully labeled and fall through.
        for &b in &todo {
            self.finalize_block(b);
        }
        // Labels grew: re-charge the touched shards' bytes to the ledger.
        for s in shard_span(lo, hi) {
            self.settle_shard(s);
        }
    }

    /// Labels block `b`'s unlabeled lanes on the pool's workspace —
    /// append-only, so already-labeled lanes are never recomputed — and
    /// counts them in [`EngineStats`]. The caller settles the shard's
    /// bytes.
    fn finalize_block(&mut self, b: usize) {
        let graph = self.sampler.graph();
        let (n, wide) = (graph.num_nodes(), self.wide);
        let bps = blocks_per_shard::<W>();
        let block = &mut self.shards[b / bps][b % bps];
        let labels =
            block.labels.get_or_insert_with(|| BlockLabelsAny::new(n, wide, Self::BLOCK_LANES));
        let before = labels.labeled() as usize;
        if before == 0 {
            self.stats.finalized_blocks += 1;
        }
        let target = block.lanes as usize;
        if before < target {
            labels.extend(graph, &mut self.bfs, &block.masks, target);
            self.stats.finalized_lanes += target - before;
        }
    }

    /// The blocks overlapping sample range `[lo, hi)`, each with the lane
    /// mask selecting exactly the in-range worlds of that block, written
    /// into `out` (reused across queries to keep single-row queries
    /// allocation-free).
    fn range_blocks_into(lo: usize, hi: usize, out: &mut Vec<(u32, Mask<W>)>) {
        out.clear();
        if lo >= hi {
            return;
        }
        let first = lo / Self::BLOCK_LANES;
        let last = (hi - 1) / Self::BLOCK_LANES;
        out.extend((first..=last).map(|b| {
            let base = b * Self::BLOCK_LANES;
            let s = lo.max(base) - base;
            let e = hi.min(base + Self::BLOCK_LANES) - base;
            (b as u32, Mask::<W>::prefix(e).and_not(Mask::prefix(s)))
        }));
    }
}

// The shard policy over the pool's `ShardStore` bookkeeping:
// resolve-or-regenerate and LRU trimming.
impl<const W: usize> BitParallelPool<'_, W> {
    /// Re-derives shard `s`'s byte charge (masks plus finalized labels)
    /// and settles the difference with the ledger.
    fn settle_shard(&mut self, s: usize) {
        let bytes = self.shards[s].iter().map(MaskBlock::heap_bytes).sum();
        self.store.settle(s, bytes);
    }

    /// The resolve-or-regenerate prologue of every aggregate query:
    /// stamps the shards covering sample range `[lo, hi)` as recently used,
    /// in ascending order, and regenerates each evicted one right after
    /// its own stamp.
    ///
    /// Doubles as the query-entry cooperative checkpoint: returns `false`
    /// (before stamping anything) when the attached [`RunState`] has
    /// tripped, or records the error and returns `false` when the
    /// [`FaultSite::ShardRegen`] failpoint fires. The failpoint fires
    /// *before* a regeneration mutates anything, so a shard is always
    /// either fully regenerated or untouched; on `false` the caller must
    /// not read the samples.
    #[must_use]
    fn resolve_range(&mut self, lo: usize, hi: usize) -> bool {
        if lo >= hi {
            return true;
        }
        if self.store.run.checkpoint(SamplingPhase::Sweep) {
            return false;
        }
        for s in shard_span(lo, hi) {
            if !self.store.stamp(s) {
                if let Err(e) = faults::hit(FaultSite::ShardRegen) {
                    self.store.run.record(e);
                    return false;
                }
                self.regenerate(s);
            }
        }
        true
    }

    /// Infallible single-sample resolve of the per-sample accessors: these
    /// back evaluation paths that run outside any solve and walk the pool
    /// sample by sample, so they are neither checkpoints nor failpoints,
    /// and they do not trim (the next aggregate query or `ensure` settles
    /// the ledger).
    fn resolve_point(&mut self, i: usize) {
        let s = i / SHARD_WORLDS;
        if !self.store.stamp(s) {
            self.regenerate(s);
        }
    }

    /// Rebuilds evicted shard `s` from its per-index RNG streams —
    /// bit-identical to the originally sampled shard — and charges it.
    /// Dropped labels re-finalize lazily, per the usual adaptive
    /// heuristics. Never inlined: it runs only under budget pressure, and
    /// inlining it into the query prologues slows every query.
    #[inline(never)]
    fn regenerate(&mut self, s: usize) {
        let m = self.graph().num_edges();
        let sampler = self.sampler;
        let r = self.samples;
        let first = s * blocks_per_shard::<W>();
        let last = ((s + 1) * blocks_per_shard::<W>()).min(r.div_ceil(Self::BLOCK_LANES));
        let build = |b: usize| Self::build_block(&sampler, m, b, r);
        self.shards[s] = if self.config.parallel_generation((last - first) * Self::BLOCK_LANES) {
            self.config.run(|| (first..last).into_par_iter().map(build).collect())
        } else {
            (first..last).map(build).collect()
        };
        self.store.note_regenerated(s);
        self.settle_shard(s);
    }

    /// Drops resident shard `s` and releases its bytes. Its finalized
    /// labels go with it, and the finalized-block gauge shrinks
    /// accordingly (lanes/query counters are cumulative and stand).
    /// Never inlined, like [`BitParallelPool::regenerate`].
    #[inline(never)]
    fn evict(&mut self, s: usize) {
        let labeled = self.shards[s].iter().filter(|b| b.labels.is_some()).count();
        self.stats.finalized_blocks = self.stats.finalized_blocks.saturating_sub(labeled);
        self.shards[s] = Vec::new();
        self.store.note_evicted(s);
        self.settle_shard(s);
    }

    /// Evicts least-recently-used shards until the shared ledger fits its
    /// limit (or this pool has nothing left to shed) — the epilogue of
    /// `ensure` and of every aggregate query.
    fn trim_to_budget(&mut self) {
        while self.store.over_budget() {
            match self.store.lru_victim() {
                Some(s) => self.evict(s),
                None => break,
            }
        }
    }
}

impl<const W: usize> WorldEngine for BitParallelPool<'_, W> {
    /// The resident bytes move to the new ledger, and the pool immediately
    /// sheds least-recently-used shards if that ledger is over its limit.
    fn set_memory_budget(&mut self, budget: MemoryBudget) {
        self.store.rebind(budget);
        self.trim_to_budget();
    }

    fn set_run_state(&mut self, run: RunState) {
        self.store.run = run;
    }

    fn memory_stats(&self) -> MemoryStats {
        self.store.memory_stats()
    }

    fn graph(&self) -> &UncertainGraph {
        self.sampler.graph()
    }

    fn num_samples(&self) -> usize {
        self.samples
    }

    /// Finalization counters (all zero for pure-mask pools).
    fn engine_stats(&self) -> EngineStats {
        self.stats
    }

    /// A partial last block is topped up lane by lane; full new blocks are
    /// generated in parallel. Either way world `i` comes from RNG stream
    /// `i`, so the pool is independent of the growth schedule and thread
    /// count.
    fn ensure(&mut self, r: usize) {
        if r <= self.samples {
            return;
        }
        let cur = self.samples;
        let m = self.graph().num_edges();
        let sampler = self.sampler;
        let bps = blocks_per_shard::<W>();
        let total = r.div_ceil(Self::BLOCK_LANES);
        let trailing_evicted = self.store.trailing_evicted();
        // Top up the trailing partial block, if any — unless its shard is
        // evicted, in which case the whole shard (top-up included)
        // regenerates at the new extent on its next touch.
        let mut achieved = cur;
        if !cur.is_multiple_of(Self::BLOCK_LANES) && !trailing_evicted {
            let b = cur / Self::BLOCK_LANES;
            let base = b * Self::BLOCK_LANES;
            let target = (r - base).min(Self::BLOCK_LANES);
            let last = &mut self.shards[b / bps][b % bps];
            for lane in last.lanes as usize..target {
                sampler
                    .sample_block_lane((base + lane) as u64, lane, &mut last.masks)
                    .unwrap_or_else(|e| {
                        unreachable!("pool-sized mask buffer cannot mismatch: {e}")
                    });
            }
            last.lanes = target as u32;
            achieved = base + target;
        }
        if trailing_evicted {
            // Samples landing in the evicted trailing shard are recorded
            // without generating anything — that shard regenerates as a
            // whole, at the new extent, on its next touch.
            achieved = (self.shards.len() * bps * Self::BLOCK_LANES).min(r);
        }
        // Append new blocks shard by shard so interruption latency is
        // bounded by one shard of sampling; each chunk is fully generated
        // before the next pass through the store's growth gate. Blocks
        // landing in the evicted trailing shard are left to that shard's
        // regeneration.
        let first = if trailing_evicted {
            (self.shards.len() * bps).min(total)
        } else {
            cur.div_ceil(Self::BLOCK_LANES)
        };
        let mut from = first;
        while from < total && self.store.may_grow() {
            let chunk_end = ((from / bps + 1) * bps).min(total);
            let build = |b: usize| Self::build_block(&sampler, m, b, r);
            let new_blocks: Vec<MaskBlock<W>> =
                if self.config.parallel_generation((chunk_end - from) * Self::BLOCK_LANES) {
                    self.config.run(|| (from..chunk_end).into_par_iter().map(build).collect())
                } else {
                    (from..chunk_end).map(build).collect()
                };
            let s = from / bps;
            if s == self.shards.len() {
                self.shards.push(Vec::new());
            }
            self.shards[s].extend(new_blocks);
            achieved = (chunk_end * Self::BLOCK_LANES).min(r);
            from = chunk_end;
        }
        self.samples = achieved;
        // Account the new samples shard by shard, then shed LRU shards if
        // the shared ledger now exceeds its limit.
        if achieved > cur {
            for s in shard_span(cur, achieved) {
                self.store.open(s);
                self.settle_shard(s);
            }
        }
        self.trim_to_budget();
    }

    /// Per overlapping block, an O(n + members) label scan over the
    /// block's finalized lanes (adaptive mode), and one
    /// connectivity-fixpoint traversal popcounting the final reach masks
    /// over the rest. Lane masks are narrowed to the range's lanes, so
    /// counts over disjoint ranges add up exactly.
    fn counts_from_center_range(&mut self, center: NodeId, lo: usize, hi: usize, out: &mut [u32]) {
        let n = self.graph().num_nodes();
        assert_eq!(out.len(), n, "counts buffer has wrong length");
        assert!(lo <= hi && hi <= self.samples, "invalid sample range [{lo}, {hi})");
        if !self.resolve_range(lo, hi) {
            return;
        }
        self.prepare_unlimited(lo, hi, UnlimitedShape::Row);
        let mut items = std::mem::take(&mut self.items);
        Self::range_blocks_into(lo, hi, &mut items);
        let run = self.store.run.clone();
        let BitParallelPool { sampler, shards, config, bfs, .. } = self;
        let graph = sampler.graph();
        let shards: &[Vec<MaskBlock<W>>] = shards;
        let per_block = n + 2 * graph.num_edges();
        chunked_counts_with(
            config,
            &items,
            n,
            per_block,
            bfs,
            || MultiWorldBfs::<W>::new(n),
            |counts, bfs, items| {
                for &(b, mask) in items {
                    if run.checkpoint(SamplingPhase::Sweep) {
                        return;
                    }
                    let block = shard_block(shards, b as usize);
                    let (labeled, masked) = block.split_lanes(mask);
                    if labeled.any() {
                        let labels = block
                            .labels
                            .as_ref()
                            .unwrap_or_else(|| unreachable!("labeled lanes imply labels"));
                        labels.accumulate_center(center.index(), labeled, counts);
                    }
                    if masked.any() {
                        bfs.run_unlimited(graph, &block.masks, center, masked, |node, m| {
                            counts[node.index()] += m.count_ones();
                        });
                    }
                }
            },
            out,
        );
        self.items = items;
        self.trim_to_budget();
    }

    /// Amortization by **component sharing**: connectivity reach sets are
    /// per-component, so if centers `c_i` and `c_j` are connected in some
    /// of a block's worlds, their rows are identical in those worlds. Per
    /// overlapping block, each center runs a mask BFS only over the window
    /// lanes where its component is still unknown; every later center
    /// found inside the traversed reach set inherits the reach masks for
    /// the shared worlds with one AND + popcount sweep instead of a
    /// re-traversal. On instances with a supercritical giant component
    /// (most candidate centers connected in most worlds), a block costs
    /// roughly one traversal plus `k` cheap sweeps — the amortization that
    /// makes bit-parallel win the multi-row query workload it loses on
    /// single rows, and the shape of a row-cache top-up wave: one shared
    /// pass over the new worlds for all cached rows.
    fn counts_from_centers_range(
        &mut self,
        centers: &[NodeId],
        lo: usize,
        hi: usize,
        out: &mut [u32],
    ) {
        let n = self.graph().num_nodes();
        let k = centers.len();
        assert_eq!(out.len(), k * n, "batch counts buffer has wrong length");
        assert!(lo <= hi && hi <= self.samples, "invalid sample range [{lo}, {hi})");
        if k == 0 {
            return;
        }
        if k == 1 {
            return self.counts_from_center_range(centers[0], lo, hi, out);
        }
        if !self.resolve_range(lo, hi) {
            return;
        }
        // Plan the per-block dispatch serially (batches never finalize —
        // that is the single-row/pair paths' job): a fully labeled block
        // goes to label scans only when the exact cost model prefers them
        // over the sharing sweep; a block with any unlabeled lanes runs
        // the sweep for *all* its lanes, because the traversal must run
        // anyway and folding labeled lanes into it is nearly free. Doing
        // this up front keeps the stats exact — a batch block-query counts
        // as label-served only if labels actually serve it.
        let mut items = std::mem::take(&mut self.items);
        Self::range_blocks_into(lo, hi, &mut items);
        let mut plan = std::mem::take(&mut self.batch_plan);
        plan.clear();
        let (mut label_q, mut mask_q) = (0usize, 0usize);
        for &(b, lanes) in &items {
            let block = shard_block(&self.shards, b as usize);
            let (labeled, masked) = block.split_lanes(lanes);
            let use_labels = masked.is_zero()
                && labeled.any()
                && block.labels.as_ref().is_some_and(|labels| {
                    crate::tuning::labels_beat_shared_masks(
                        labels.batch_label_ops(centers, labeled),
                        n,
                        self.graph().num_edges(),
                        k,
                        W,
                    )
                });
            if use_labels {
                label_q += 1;
                plan.push((b, labeled, Mask::ZERO));
            } else {
                mask_q += 1;
                plan.push((b, Mask::ZERO, lanes));
            }
        }
        if self.adaptive {
            self.stats.label_queries += label_q;
            self.stats.mask_queries += mask_q;
        }
        let run = self.store.run.clone();
        let BitParallelPool { sampler, shards, config, bfs, .. } = self;
        let graph = sampler.graph();
        let shards: &[Vec<MaskBlock<W>>] = shards;
        let per_block = n + 2 * graph.num_edges();
        // The per-center "worlds still unknown" masks and the (node, mask)
        // reach list of the sharing sweep live inside the BFS workspace, so
        // warm batches allocate nothing per block.
        chunked_counts_with(
            config,
            &plan,
            k * n,
            per_block + k * n,
            bfs,
            || MultiWorldBfs::<W>::new(n),
            |counts, bfs, plan: &[(u32, Mask<W>, Mask<W>)]| {
                for &(b, labeled, masked) in plan {
                    if run.checkpoint(SamplingPhase::Sweep) {
                        return;
                    }
                    let block = shard_block(shards, b as usize);
                    if labeled.any() {
                        let labels = block
                            .labels
                            .as_ref()
                            .unwrap_or_else(|| unreachable!("planned labels exist"));
                        for (j, c) in centers.iter().enumerate() {
                            labels.accumulate_center(
                                c.index(),
                                labeled,
                                &mut counts[j * n..(j + 1) * n],
                            );
                        }
                    }
                    if masked.is_zero() {
                        continue;
                    }
                    // Mask lanes: component-sharing traversal sweep.
                    bfs.shared_component_counts(graph, &block.masks, centers, masked, counts);
                }
            },
            out,
        );
        self.items = items;
        self.batch_plan = plan;
        self.trim_to_budget();
    }

    /// A label comparison over finalized lanes and one masked fixpoint
    /// traversal per overlapping block over the rest.
    fn pair_count_range(&mut self, u: NodeId, v: NodeId, lo: usize, hi: usize) -> usize {
        assert!(lo <= hi && hi <= self.samples, "invalid sample range [{lo}, {hi})");
        if !self.resolve_range(lo, hi) {
            return 0;
        }
        self.prepare_unlimited(lo, hi, UnlimitedShape::Pair);
        let mut items = std::mem::take(&mut self.items);
        Self::range_blocks_into(lo, hi, &mut items);
        let run = self.store.run.clone();
        let BitParallelPool { sampler, shards, config, bfs, .. } = self;
        let graph = sampler.graph();
        let shards: &[Vec<MaskBlock<W>>] = shards;
        let n = graph.num_nodes();
        let per_block = n + 2 * graph.num_edges();
        let total = chunked_sum_with(
            config,
            &items,
            per_block,
            bfs,
            || MultiWorldBfs::<W>::new(n),
            |bfs, &(b, mask)| {
                if run.checkpoint(SamplingPhase::Sweep) {
                    return 0;
                }
                let block = shard_block(shards, b as usize);
                let (labeled, masked) = block.split_lanes(mask);
                let mut hits = 0usize;
                if labeled.any() {
                    let labels = block
                        .labels
                        .as_ref()
                        .unwrap_or_else(|| unreachable!("labeled lanes imply labels"));
                    hits += labels.pair_lanes(u.index(), v.index(), labeled);
                }
                if masked.any() {
                    bfs.run_unlimited(graph, &block.masks, u, masked, |_, _| {});
                    hits += bfs.reach(v).count_ones() as usize;
                }
                hits
            },
        );
        self.items = items;
        self.trim_to_budget();
        total
    }

    /// One depth-limited masked BFS per overlapping block, lane masks
    /// narrowed to the range.
    fn counts_within_depths_range(
        &mut self,
        center: NodeId,
        d_select: u32,
        d_cover: u32,
        lo: usize,
        hi: usize,
        out_select: &mut [u32],
        out_cover: &mut [u32],
    ) {
        let n = self.graph().num_nodes();
        assert_eq!(out_select.len(), n, "select buffer has wrong length");
        assert_eq!(out_cover.len(), n, "cover buffer has wrong length");
        assert!(d_select <= d_cover, "d_select ({d_select}) must be ≤ d_cover ({d_cover})");
        assert!(lo <= hi && hi <= self.samples, "invalid sample range [{lo}, {hi})");
        if d_select == DEPTH_UNLIMITED {
            self.counts_from_center_range(center, lo, hi, out_cover);
            out_select.copy_from_slice(out_cover);
            return;
        }
        if !self.resolve_range(lo, hi) {
            return;
        }
        let mut items = std::mem::take(&mut self.items);
        Self::range_blocks_into(lo, hi, &mut items);
        let run = self.store.run.clone();
        let BitParallelPool { sampler, shards, config, bfs, .. } = self;
        let graph = sampler.graph();
        let shards: &[Vec<MaskBlock<W>>] = shards;
        let per_block = n + 2 * graph.num_edges();
        chunked_counts2_with(
            config,
            &items,
            n,
            per_block,
            bfs,
            || MultiWorldBfs::<W>::new(n),
            |select, cover, bfs, items| {
                for &(b, mask) in items {
                    if run.checkpoint(SamplingPhase::Sweep) {
                        return;
                    }
                    bfs.run(
                        graph,
                        &shard_block(shards, b as usize).masks,
                        center,
                        mask,
                        d_cover,
                        |node, depth, m| {
                            let c = m.count_ones();
                            cover[node.index()] += c;
                            if depth <= d_select {
                                select[node.index()] += c;
                            }
                        },
                    );
                }
            },
            out_select,
            out_cover,
        );
        self.items = items;
        self.trim_to_budget();
    }

    /// Multi-source level-synchronous mask BFS in groups of up to
    /// [`MAX_SOURCES`] centers — one traversal per overlapping block per
    /// group, with lane masks narrowed to the window's worlds.
    fn counts_within_depths_batch_range(
        &mut self,
        centers: &[NodeId],
        d_select: u32,
        d_cover: u32,
        lo: usize,
        hi: usize,
        out_select: &mut [u32],
        out_cover: &mut [u32],
    ) {
        let n = self.graph().num_nodes();
        let k = centers.len();
        assert_eq!(out_select.len(), k * n, "batch select buffer has wrong length");
        assert_eq!(out_cover.len(), k * n, "batch cover buffer has wrong length");
        assert!(d_select <= d_cover, "d_select ({d_select}) must be ≤ d_cover ({d_cover})");
        assert!(lo <= hi && hi <= self.samples, "invalid sample range [{lo}, {hi})");
        if d_select == DEPTH_UNLIMITED {
            // Both depths unlimited: the fixpoint mode is cheaper.
            self.counts_from_centers_range(centers, lo, hi, out_cover);
            out_select.copy_from_slice(out_cover);
            return;
        }
        if k == 0 {
            return;
        }
        if !self.resolve_range(lo, hi) {
            return;
        }
        let mut items = std::mem::take(&mut self.items);
        Self::range_blocks_into(lo, hi, &mut items);
        let run = self.store.run.clone();
        let BitParallelPool { sampler, shards, config, bfs, .. } = self;
        let graph = sampler.graph();
        let shards: &[Vec<MaskBlock<W>>] = shards;
        let per_block = n + 2 * graph.num_edges();
        for (gi, group) in centers.chunks(MAX_SOURCES).enumerate() {
            let kg = group.len();
            let sel_group = &mut out_select[gi * MAX_SOURCES * n..][..kg * n];
            let cov_group = &mut out_cover[gi * MAX_SOURCES * n..][..kg * n];
            chunked_counts2_with(
                config,
                &items,
                kg * n,
                per_block * kg,
                bfs,
                || MultiWorldBfs::<W>::new(n),
                |select, cover, bfs, items| {
                    for &(b, mask) in items {
                        if run.checkpoint(SamplingPhase::Sweep) {
                            return;
                        }
                        bfs.run_multi(
                            graph,
                            &shard_block(shards, b as usize).masks,
                            group,
                            mask,
                            d_cover,
                            |node, depth, j, m| {
                                let c = m.count_ones();
                                cover[j * n + node.index()] += c;
                                if depth <= d_select {
                                    select[j * n + node.index()] += c;
                                }
                            },
                        );
                    }
                },
                sel_group,
                cov_group,
            );
        }
        self.items = items;
        self.trim_to_budget();
    }

    fn pair_count_within_range(
        &mut self,
        u: NodeId,
        v: NodeId,
        depth: u32,
        lo: usize,
        hi: usize,
    ) -> usize {
        if depth == DEPTH_UNLIMITED {
            return self.pair_count_range(u, v, lo, hi);
        }
        assert!(lo <= hi && hi <= self.samples, "invalid sample range [{lo}, {hi})");
        if !self.resolve_range(lo, hi) {
            return 0;
        }
        let mut items = std::mem::take(&mut self.items);
        Self::range_blocks_into(lo, hi, &mut items);
        let run = self.store.run.clone();
        let BitParallelPool { sampler, shards, config, bfs, .. } = self;
        let graph = sampler.graph();
        let shards: &[Vec<MaskBlock<W>>] = shards;
        let n = graph.num_nodes();
        let per_block = n + 2 * graph.num_edges();
        let total = chunked_sum_with(
            config,
            &items,
            per_block,
            bfs,
            || MultiWorldBfs::<W>::new(n),
            |bfs, &(b, mask)| {
                if run.checkpoint(SamplingPhase::Sweep) {
                    return 0;
                }
                let mut hit = Mask::<W>::ZERO;
                bfs.run(
                    graph,
                    &shard_block(shards, b as usize).masks,
                    u,
                    mask,
                    depth,
                    |node, _, m| {
                        if node == v {
                            hit |= m;
                        }
                    },
                );
                hit.count_ones() as usize
            },
        );
        self.items = items;
        self.trim_to_budget();
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ugraph_graph::{Bitset, GraphBuilder};

    fn chain(n: u32, p: f64) -> UncertainGraph {
        let mut b = GraphBuilder::new(n as usize);
        for i in 0..n - 1 {
            b.add_edge(i, i + 1, p).unwrap();
        }
        b.build().unwrap()
    }

    /// Component labels of every sample of `pool`, one vector per sample.
    fn all_labels<const W: usize>(pool: &mut BitParallelPool<'_, W>) -> Vec<Vec<u32>> {
        let n = pool.graph().num_nodes();
        (0..pool.num_samples())
            .map(|i| {
                let mut out = vec![0u32; n];
                pool.labels_into(i, &mut out);
                out
            })
            .collect()
    }

    #[test]
    fn ensure_grows_monotonically() {
        let g = chain(10, 0.5);
        let mut pool = BitParallelPool::<4>::new_adaptive(&g, 1, 1);
        assert_eq!(pool.num_samples(), 0);
        pool.ensure(10);
        assert_eq!(pool.num_samples(), 10);
        pool.ensure(5); // no shrink
        assert_eq!(pool.num_samples(), 10);
        pool.ensure(25);
        assert_eq!(pool.num_samples(), 25);
    }

    #[test]
    fn growth_schedule_does_not_change_samples() {
        // The stepped adaptive pool reads labels between growth steps, so
        // its trailing block is labeled, then extended append-only; the
        // one-shot pure-mask pool labels each world on its own.
        let g = chain(12, 0.4);
        let mut a = BitParallelPool::<1>::new(&g, 3, 1);
        a.ensure(100);
        let mut b = BitParallelPool::<1>::new_adaptive(&g, 3, 1);
        let mut out = vec![0u32; 12];
        for r in [7, 13, 70, 100] {
            b.ensure(r);
            b.labels_into(r - 1, &mut out);
        }
        assert_eq!(all_labels(&mut a), all_labels(&mut b));
        let stats = b.engine_stats();
        assert_eq!((stats.finalized_blocks, stats.finalized_lanes), (2, 100), "{stats:?}");
        assert_eq!(a.engine_stats(), EngineStats::default(), "pure-mask labels are not cached");
    }

    #[test]
    fn parallel_generation_matches_serial() {
        let g = chain(20, 0.5);
        let mut serial = BitParallelPool::<1>::new(&g, 5, 1);
        serial.ensure(330);
        let mut parallel = BitParallelPool::<1>::new(&g, 5, 4);
        parallel.ensure(330);
        assert_eq!(all_labels(&mut serial), all_labels(&mut parallel));
    }

    #[test]
    fn membership_index_consistent_with_labels() {
        // Single-world row queries over finalized blocks are served by the
        // block labels' membership index: they must mark exactly the nodes
        // that share the center's label in that world.
        let g = chain(15, 0.5);
        let mut pool = BitParallelPool::<1>::new_adaptive(&g, 9, 1);
        pool.ensure(100);
        let labels = all_labels(&mut pool);
        let mut row = vec![0u32; 15];
        for (i, world) in labels.iter().enumerate() {
            for c in [0usize, 7, 14] {
                pool.counts_from_center_range(NodeId::from_index(c), i, i + 1, &mut row);
                for u in 0..15 {
                    assert_eq!(row[u] == 1, world[u] == world[c], "world {i} center {c} node {u}");
                }
            }
        }
        assert!(pool.engine_stats().label_queries > 0, "rows were not label-served");
    }

    #[test]
    fn counts_from_center_match_pair_counts() {
        let g = chain(8, 0.6);
        let mut pool = BitParallelPool::<4>::new_adaptive(&g, 2, 1);
        pool.ensure(50);
        let center = NodeId(3);
        let mut counts = vec![0u32; 8];
        pool.counts_from_center(center, &mut counts);
        for u in 0..8u32 {
            assert_eq!(counts[u as usize] as usize, pool.pair_count(center, NodeId(u)));
        }
        // The center is connected to itself in every sample.
        assert_eq!(counts[3] as usize, 50);
    }

    #[test]
    fn parallel_counts_match_serial_counts() {
        // 64 nodes × 352 single-word blocks clears the MIN_PARALLEL_ITEMS
        // and MIN_PARALLEL_WORK gates, so the 4-worker pool genuinely
        // takes the chunked parallel path.
        let g = chain(64, 0.55);
        for adaptive in [false, true] {
            let mut serial = BitParallelPool::<1>::new(&g, 13, 1).with_finalization(adaptive);
            let mut parallel = BitParallelPool::<1>::new(&g, 13, 4).with_finalization(adaptive);
            serial.ensure(352 * LANES);
            parallel.ensure(352 * LANES);
            let mut counts_serial = vec![0u32; 64];
            let mut counts_parallel = vec![0u32; 64];
            for center in [0u32, 21, 42, 63] {
                serial.counts_from_center(NodeId(center), &mut counts_serial);
                parallel.counts_from_center(NodeId(center), &mut counts_parallel);
                assert_eq!(counts_serial, counts_parallel, "center {center} adaptive {adaptive}");
            }
        }
    }

    #[test]
    fn parallel_pair_counts_match_serial() {
        let g = chain(64, 0.55);
        let mut serial = BitParallelPool::<1>::new(&g, 17, 1);
        let mut parallel = BitParallelPool::<1>::new(&g, 17, 4);
        serial.ensure(352 * LANES);
        parallel.ensure(352 * LANES);
        for v in [1u32, 2, 10, 63] {
            assert_eq!(
                serial.pair_count(NodeId(0), NodeId(v)),
                parallel.pair_count(NodeId(0), NodeId(v)),
                "pair (0, {v})"
            );
        }
    }

    #[test]
    fn pair_estimate_converges_on_certain_graph() {
        let g = chain(4, 1.0);
        let mut pool = BitParallelPool::<4>::new_adaptive(&g, 8, 1);
        pool.ensure(10);
        assert_eq!(pool.pair_estimate(NodeId(0), NodeId(3)), 1.0);
    }

    #[test]
    fn empty_pool_estimates_zero() {
        let g = chain(3, 0.5);
        let mut pool = BitParallelPool::<4>::new_adaptive(&g, 1, 1);
        assert_eq!(pool.pair_estimate(NodeId(0), NodeId(1)), 0.0);
    }

    #[test]
    fn depth_counts_respect_depth() {
        // Certain chain 0-1-2-3: within depth 1 of node 0 only {0,1}.
        let g = chain(4, 1.0);
        let mut pool = BitParallelPool::<4>::new_adaptive(&g, 1, 1);
        pool.ensure(5);
        let mut sel = vec![0u32; 4];
        let mut cov = vec![0u32; 4];
        pool.counts_within_depths(NodeId(0), 1, 2, &mut sel, &mut cov);
        assert_eq!(sel, vec![5, 5, 0, 0]);
        assert_eq!(cov, vec![5, 5, 5, 0]);
    }

    #[test]
    fn parallel_depth_counts_match_serial() {
        // 352 single-word blocks clear the parallel gates for the
        // depth-limited queries too.
        let g = chain(64, 0.6);
        let mut serial = BitParallelPool::<1>::new(&g, 21, 1);
        let mut parallel = BitParallelPool::<1>::new(&g, 21, 4);
        serial.ensure(352 * LANES);
        parallel.ensure(352 * LANES);
        let (mut s1, mut c1) = (vec![0u32; 64], vec![0u32; 64]);
        let (mut s2, mut c2) = (vec![0u32; 64], vec![0u32; 64]);
        for center in [0u32, 21, 42, 63] {
            serial.counts_within_depths(NodeId(center), 2, 4, &mut s1, &mut c1);
            parallel.counts_within_depths(NodeId(center), 2, 4, &mut s2, &mut c2);
            assert_eq!(s1, s2, "select counts differ at center {center}");
            assert_eq!(c1, c2, "cover counts differ at center {center}");
        }
        for v in [1u32, 31, 63] {
            assert_eq!(
                serial.pair_count_within(NodeId(0), NodeId(v), 3),
                parallel.pair_count_within(NodeId(0), NodeId(v), 3),
                "pair counts differ for (0, {v})"
            );
        }
    }

    #[test]
    fn depth_pair_estimates() {
        let g = chain(3, 1.0);
        let mut pool = BitParallelPool::<4>::new_adaptive(&g, 4, 1);
        pool.ensure(8);
        assert_eq!(pool.pair_estimate_within(NodeId(0), NodeId(2), 1), 0.0);
        assert_eq!(pool.pair_estimate_within(NodeId(0), NodeId(2), 2), 1.0);
        // A hop limit of n − 1 is plain connectivity.
        let g = chain(6, 0.5);
        let mut pool = BitParallelPool::<4>::new_adaptive(&g, 31, 1);
        pool.ensure(200);
        for u in 0..6u32 {
            for v in (u + 1)..6 {
                let a = pool.pair_estimate(NodeId(u), NodeId(v));
                let b = pool.pair_estimate_within(NodeId(u), NodeId(v), 5);
                assert_eq!(a, b, "({u},{v})");
            }
        }
    }

    #[test]
    #[should_panic(expected = "d_select")]
    fn depth_order_enforced() {
        let g = chain(3, 1.0);
        let mut pool = BitParallelPool::<4>::new_adaptive(&g, 1, 1);
        pool.ensure(1);
        let mut sel = vec![0u32; 3];
        let mut cov = vec![0u32; 3];
        pool.counts_within_depths(NodeId(0), 2, 1, &mut sel, &mut cov);
    }

    #[test]
    fn bit_pool_blocks_and_lanes() {
        let g = chain(10, 0.5);
        let mut pool = BitParallelPool::<1>::new(&g, 7, 1);
        pool.ensure(1);
        assert_eq!((pool.num_samples(), pool.num_blocks()), (1, 1));
        pool.ensure(64);
        assert_eq!((pool.num_samples(), pool.num_blocks()), (64, 1));
        pool.ensure(65);
        assert_eq!((pool.num_samples(), pool.num_blocks()), (65, 2));
        pool.ensure(300);
        assert_eq!((pool.num_samples(), pool.num_blocks()), (300, 5));
    }

    #[test]
    fn bit_pool_worlds_match_scalar_worlds() {
        // Grown in uneven steps to exercise partial-block top-up; each
        // lane must hold the world the sampler draws on its own.
        let g = chain(12, 0.45);
        let sampler = WorldSampler::new(&g, 99);
        let mut bit = BitParallelPool::<1>::new(&g, 99, 1);
        bit.ensure(10);
        bit.ensure(64);
        bit.ensure(70);
        bit.ensure(130);
        let mut world = Bitset::with_len(g.num_edges());
        for i in 0..130 {
            sampler.sample_into(i as u64, &mut world).unwrap();
            for e in 0..g.num_edges() {
                assert_eq!(
                    bit.edge_mask(i / LANES, e).get(i % LANES),
                    world.get(e),
                    "world {i} edge {e} differs"
                );
            }
        }
    }

    #[test]
    fn bit_pool_growth_schedule_invariant() {
        let g = chain(8, 0.5);
        let mut a = BitParallelPool::<1>::new(&g, 13, 1);
        a.ensure(150);
        let mut b = BitParallelPool::<1>::new(&g, 13, 4);
        b.ensure(3);
        b.ensure(66);
        b.ensure(150);
        let mut ca = vec![0u32; 8];
        let mut cb = vec![0u32; 8];
        for c in 0..8u32 {
            a.counts_from_center(NodeId(c), &mut ca);
            b.counts_from_center(NodeId(c), &mut cb);
            assert_eq!(ca, cb, "center {c}");
        }
    }

    #[test]
    fn bit_pool_empty_and_certain() {
        let g = chain(4, 1.0);
        let mut pool = BitParallelPool::<1>::new(&g, 8, 1);
        assert_eq!(pool.pair_estimate(NodeId(0), NodeId(3)), 0.0);
        pool.ensure(10);
        assert_eq!(pool.pair_estimate(NodeId(0), NodeId(3)), 1.0);
        let mut counts = vec![0u32; 4];
        pool.counts_from_center(NodeId(0), &mut counts);
        assert_eq!(counts, vec![10, 10, 10, 10]);
    }

    #[test]
    fn engine_trait_unifies_backends() {
        fn total_reach(engine: &mut dyn WorldEngine, center: NodeId) -> u32 {
            let n = engine.graph().num_nodes();
            let mut counts = vec![0u32; n];
            engine.counts_from_center(center, &mut counts);
            counts.iter().sum()
        }
        let g = chain(6, 0.7);
        let mut mask = BitParallelPool::<1>::new(&g, 3, 1);
        let mut adaptive = BitParallelPool::<4>::new_adaptive(&g, 3, 1);
        WorldEngine::ensure(&mut mask, 70);
        WorldEngine::ensure(&mut adaptive, 70);
        assert_eq!(total_reach(&mut mask, NodeId(2)), total_reach(&mut adaptive, NodeId(2)));
    }

    #[test]
    fn batched_counts_match_sequential_on_all_backends() {
        let g = chain(11, 0.5);
        let centers: Vec<NodeId> = [0u32, 5, 5, 10, 3].iter().map(|&c| NodeId(c)).collect(); // incl. duplicate
        let k = centers.len();
        let mut want = vec![0u32; k * 11];
        let mut mask = BitParallelPool::<1>::new(&g, 77, 1);
        mask.ensure(90);
        for (j, &c) in centers.iter().enumerate() {
            mask.counts_from_center(c, &mut want[j * 11..(j + 1) * 11]);
        }
        let mut got = vec![0u32; k * 11];
        mask.counts_from_centers(&centers, &mut got);
        assert_eq!(got, want, "pure-mask batch differs");
        // The adaptive pool batches over labels once single rows have
        // finalized its block.
        let mut adaptive = BitParallelPool::<4>::new_adaptive(&g, 77, 1);
        adaptive.ensure(90);
        got.fill(0);
        adaptive.counts_from_centers(&centers, &mut got);
        assert_eq!(got, want, "adaptive batch differs");
        adaptive.counts_from_center(centers[0], &mut [0u32; 11]);
        got.fill(0);
        adaptive.counts_from_centers(&centers, &mut got);
        assert_eq!(got, want, "finalized adaptive batch differs");
    }

    #[test]
    fn ranged_counts_add_up_to_full_counts() {
        let g = chain(9, 0.55);
        let mut mask = BitParallelPool::<1>::new(&g, 5, 1);
        let mut adaptive = BitParallelPool::<1>::new_adaptive(&g, 5, 1);
        mask.ensure(150);
        adaptive.ensure(150);
        let mut full = vec![0u32; 9];
        let mut acc = vec![0u32; 9];
        let mut part = vec![0u32; 9];
        for center in [0u32, 4, 8] {
            mask.counts_from_center(NodeId(center), &mut full);
            // Split points chosen to straddle the 64-world block boundary.
            for (engine, name) in [
                (&mut mask as &mut dyn WorldEngine, "pure-mask"),
                (&mut adaptive as &mut dyn WorldEngine, "adaptive"),
            ] {
                acc.fill(0);
                for w in [(0usize, 10usize), (10, 64), (64, 65), (65, 130), (130, 150)] {
                    engine.counts_from_center_range(NodeId(center), w.0, w.1, &mut part);
                    for (a, &p) in acc.iter_mut().zip(&part) {
                        *a += p;
                    }
                }
                assert_eq!(acc, full, "{name} ranged counts at center {center}");
            }
        }
    }

    #[test]
    fn ranged_depth_counts_add_up_to_full_counts() {
        let g = chain(10, 0.6);
        let mut w1 = BitParallelPool::<1>::new(&g, 21, 1);
        let mut w4 = BitParallelPool::<4>::new_adaptive(&g, 21, 1);
        w1.ensure(100);
        w4.ensure(100);
        let (mut fs, mut fc) = (vec![0u32; 10], vec![0u32; 10]);
        w1.counts_within_depths(NodeId(2), 1, 3, &mut fs, &mut fc);
        let (mut ps, mut pc) = (vec![0u32; 10], vec![0u32; 10]);
        for (engine, name) in [
            (&mut w1 as &mut dyn WorldEngine, "width 64"),
            (&mut w4 as &mut dyn WorldEngine, "width 256"),
        ] {
            let (mut acs, mut acc) = (vec![0u32; 10], vec![0u32; 10]);
            for w in [(0usize, 63usize), (63, 64), (64, 100)] {
                engine.counts_within_depths_range(NodeId(2), 1, 3, w.0, w.1, &mut ps, &mut pc);
                for i in 0..10 {
                    acs[i] += ps[i];
                    acc[i] += pc[i];
                }
            }
            assert_eq!(acs, fs, "{name} ranged select counts");
            assert_eq!(acc, fc, "{name} ranged cover counts");
        }
    }

    #[test]
    fn batched_depth_counts_match_sequential() {
        let g = chain(10, 0.6);
        let centers: Vec<NodeId> = (0..10).map(NodeId).collect();
        let k = centers.len();
        let mut w1 = BitParallelPool::<1>::new(&g, 9, 1);
        let mut w4 = BitParallelPool::<4>::new_adaptive(&g, 9, 1);
        w1.ensure(97);
        w4.ensure(97);
        let (mut ws, mut wc) = (vec![0u32; k * 10], vec![0u32; k * 10]);
        for (j, &c) in centers.iter().enumerate() {
            w1.counts_within_depths(
                c,
                1,
                4,
                &mut ws[j * 10..(j + 1) * 10],
                &mut wc[j * 10..(j + 1) * 10],
            );
        }
        let (mut gs, mut gc) = (vec![0u32; k * 10], vec![0u32; k * 10]);
        w1.counts_within_depths_batch(&centers, 1, 4, &mut gs, &mut gc);
        assert_eq!((&gs, &gc), (&ws, &wc), "width-64 batch depth rows differ");
        gs.fill(0);
        gc.fill(0);
        w4.counts_within_depths_batch(&centers, 1, 4, &mut gs, &mut gc);
        assert_eq!((&gs, &gc), (&ws, &wc), "width-256 batch depth rows differ");
    }

    #[test]
    fn empty_center_batch_is_a_noop() {
        // Under a budget below one shard every shard is evicted after a
        // query, so a batch that resolved its window before checking for
        // an empty center list would regenerate and re-evict shards.
        let g = chain(4, 0.5);
        let r = 2 * SHARD_WORLDS + SHARD_WORLDS / 2;
        let engines: [Box<dyn WorldEngine>; 2] = [
            Box::new(BitParallelPool::<1>::new(&g, 1, 1)),
            Box::new(BitParallelPool::<4>::new_adaptive(&g, 1, 1)),
        ];
        for mut engine in engines {
            let budget = MemoryBudget::bounded(256);
            engine.set_memory_budget(budget.clone());
            engine.ensure(r);
            let mut row = vec![0u32; 4];
            engine.counts_from_center_range(NodeId(0), 0, r, &mut row);
            let (before, ledger) = (engine.memory_stats(), budget.stats());
            assert!(before.shards_evicted > 0, "{before:?}");
            engine.counts_from_centers_range(&[], 0, r, &mut []);
            engine.counts_from_centers(&[], &mut []);
            engine.counts_within_depths_batch_range(&[], 1, 2, 0, r, &mut [], &mut []);
            engine.counts_within_depths_batch_range(
                &[],
                DEPTH_UNLIMITED,
                DEPTH_UNLIMITED,
                0,
                r,
                &mut [],
                &mut [],
            );
            assert_eq!(engine.memory_stats(), before, "pool counters moved");
            assert_eq!(budget.stats(), ledger, "ledger moved");
        }
    }

    #[test]
    #[should_panic(expected = "invalid sample range")]
    fn ranged_counts_reject_out_of_bounds() {
        let g = chain(4, 0.5);
        let mut pool = BitParallelPool::<4>::new_adaptive(&g, 1, 1);
        pool.ensure(8);
        let mut out = vec![0u32; 4];
        pool.counts_from_center_range(NodeId(0), 2, 9, &mut out);
    }

    #[test]
    fn ranged_batch_counts_match_sequential_ranged_on_all_backends() {
        let g = chain(11, 0.55);
        let centers: Vec<NodeId> = [0u32, 5, 5, 10, 3].iter().map(|&c| NodeId(c)).collect(); // incl. duplicate
        let k = centers.len();
        let n = 11;
        let mut mask = BitParallelPool::<1>::new(&g, 33, 1);
        let mut adaptive = BitParallelPool::<1>::new_adaptive(&g, 33, 1);
        mask.ensure(150);
        adaptive.ensure(150);
        // Windows straddle block boundaries, incl. a single-world window.
        for (lo, hi) in [(0usize, 10usize), (10, 64), (64, 65), (37, 130), (130, 150), (70, 70)] {
            let mut want = vec![0u32; k * n];
            for (j, &c) in centers.iter().enumerate() {
                mask.counts_from_center_range(c, lo, hi, &mut want[j * n..(j + 1) * n]);
            }
            let mut got = vec![0u32; k * n];
            for (engine, name) in [
                (&mut mask as &mut dyn WorldEngine, "pure-mask"),
                (&mut adaptive as &mut dyn WorldEngine, "adaptive"),
            ] {
                got.fill(0);
                engine.counts_from_centers_range(&centers, lo, hi, &mut got);
                assert_eq!(got, want, "{name} ranged batch differs on [{lo}, {hi})");
            }
        }
    }

    #[test]
    fn ranged_batch_depth_counts_match_sequential_ranged() {
        let g = chain(10, 0.6);
        let centers: Vec<NodeId> = [1u32, 4, 4, 9, 0].iter().map(|&c| NodeId(c)).collect();
        let k = centers.len();
        let n = 10;
        let mut w1 = BitParallelPool::<1>::new(&g, 13, 1);
        let mut w4 = BitParallelPool::<4>::new_adaptive(&g, 13, 1);
        w1.ensure(130);
        w4.ensure(130);
        for (lo, hi) in [(0usize, 50usize), (50, 64), (63, 65), (64, 130), (90, 90)] {
            let (mut ws, mut wc) = (vec![0u32; k * n], vec![0u32; k * n]);
            for (j, &c) in centers.iter().enumerate() {
                w1.counts_within_depths_range(
                    c,
                    1,
                    3,
                    lo,
                    hi,
                    &mut ws[j * n..(j + 1) * n],
                    &mut wc[j * n..(j + 1) * n],
                );
            }
            let (mut gs, mut gc) = (vec![0u32; k * n], vec![0u32; k * n]);
            for (engine, name) in [
                (&mut w1 as &mut dyn WorldEngine, "width 64"),
                (&mut w4 as &mut dyn WorldEngine, "width 256"),
            ] {
                gs.fill(0);
                gc.fill(0);
                engine.counts_within_depths_batch_range(&centers, 1, 3, lo, hi, &mut gs, &mut gc);
                assert_eq!(gs, ws, "{name} ranged batch select differs on [{lo}, {hi})");
                assert_eq!(gc, wc, "{name} ranged batch cover differs on [{lo}, {hi})");
            }
        }
    }

    #[test]
    fn ranged_pair_counts_add_up_to_full_counts() {
        let g = chain(10, 0.55);
        let mut mask = BitParallelPool::<1>::new(&g, 19, 1);
        let mut adaptive = BitParallelPool::<1>::new_adaptive(&g, 19, 1);
        mask.ensure(150);
        adaptive.ensure(150);
        let windows = [(0usize, 10usize), (10, 64), (64, 65), (65, 130), (130, 150)];
        for (u, v) in [(0u32, 1u32), (0, 9), (3, 7)] {
            let (u, v) = (NodeId(u), NodeId(v));
            let full = mask.pair_count(u, v);
            let full_d = mask.pair_count_within(u, v, 3);
            for (engine, name) in [
                (&mut mask as &mut dyn WorldEngine, "pure-mask"),
                (&mut adaptive as &mut dyn WorldEngine, "adaptive"),
            ] {
                let sum: usize =
                    windows.iter().map(|&(lo, hi)| engine.pair_count_range(u, v, lo, hi)).sum();
                assert_eq!(sum, full, "{name} ranged pair counts for ({u}, {v})");
                let sum: usize = windows
                    .iter()
                    .map(|&(lo, hi)| engine.pair_count_within_range(u, v, 3, lo, hi))
                    .sum();
                assert_eq!(sum, full_d, "{name} ranged depth pair counts for ({u}, {v})");
            }
        }
    }

    // ───────────── adaptive finalization ─────────────

    #[test]
    fn adaptive_counts_match_pure_mask() {
        let g = chain(11, 0.5);
        let mut mask = BitParallelPool::<1>::new(&g, 6, 1);
        let mut adaptive = BitParallelPool::<1>::new_adaptive(&g, 6, 1);
        // 150 = 2 full blocks + a 22-lane tail.
        mask.ensure(150);
        adaptive.ensure(150);
        let mut b = vec![0u32; 11];
        let mut c = vec![0u32; 11];
        for center in 0..11u32 {
            mask.counts_from_center(NodeId(center), &mut b);
            adaptive.counts_from_center(NodeId(center), &mut c);
            assert_eq!(b, c, "adaptive center {center}");
            for v in 0..11u32 {
                assert_eq!(
                    mask.pair_count(NodeId(center), NodeId(v)),
                    adaptive.pair_count(NodeId(center), NodeId(v)),
                    "pair ({center},{v})"
                );
            }
        }
        let stats = adaptive.engine_stats();
        assert_eq!(stats.finalized_blocks, 3, "{stats:?}");
        assert_eq!(stats.finalized_lanes, 150, "{stats:?}");
        assert!(stats.label_queries > 0);
        assert_eq!(mask.engine_stats(), EngineStats::default(), "pure-mask pool reports no stats");
    }

    #[test]
    fn depth_only_workload_never_finalizes() {
        let g = chain(9, 0.6);
        let mut pool = BitParallelPool::<1>::new_adaptive(&g, 4, 1);
        pool.ensure(130);
        let (mut sel, mut cov) = (vec![0u32; 9], vec![0u32; 9]);
        for center in 0..9u32 {
            pool.counts_within_depths(NodeId(center), 2, 4, &mut sel, &mut cov);
        }
        pool.pair_count_within(NodeId(0), NodeId(5), 3);
        assert_eq!(pool.engine_stats(), EngineStats::default(), "finite depths must stay on masks");
    }

    #[test]
    fn growth_never_relabels_finalized_blocks() {
        let g = chain(8, 0.5);
        let mut pool = BitParallelPool::<1>::new_adaptive(&g, 12, 1);
        let mut counts = vec![0u32; 8];
        pool.ensure(64);
        pool.counts_from_center(NodeId(0), &mut counts);
        let s1 = pool.engine_stats();
        assert_eq!((s1.finalized_blocks, s1.finalized_lanes), (1, 64));
        // Growing appends worlds; the already-finalized block keeps its
        // labels (finalized_lanes counts every lane at most once, so any
        // recomputation would overshoot the pool size).
        pool.ensure(200);
        pool.counts_from_center(NodeId(3), &mut counts);
        let s2 = pool.engine_stats();
        assert_eq!((s2.finalized_blocks, s2.finalized_lanes), (4, 200), "{s2:?}");
        // A further query finalizes nothing new.
        pool.counts_from_center(NodeId(5), &mut counts);
        let s3 = pool.engine_stats();
        assert_eq!((s3.finalized_blocks, s3.finalized_lanes), (4, 200), "{s3:?}");
        assert_eq!(s3.label_queries, s2.label_queries + 4);
    }

    #[test]
    fn partial_block_topup_extends_labels_append_only() {
        let g = chain(7, 0.5);
        let mut pool = BitParallelPool::<1>::new_adaptive(&g, 9, 1);
        let mut counts = vec![0u32; 7];
        // Finalize a 10-lane partial block...
        pool.ensure(10);
        pool.counts_from_center(NodeId(2), &mut counts);
        let s1 = pool.engine_stats();
        assert_eq!((s1.finalized_blocks, s1.finalized_lanes), (1, 10));
        // ...top the same block up to 40 lanes: only the 30 new lanes are
        // labeled, on the same block.
        pool.ensure(40);
        pool.counts_from_center(NodeId(2), &mut counts);
        let s2 = pool.engine_stats();
        assert_eq!((s2.finalized_blocks, s2.finalized_lanes), (1, 40), "{s2:?}");
        // Counts still match a fresh pure-mask pool.
        let mut mask = BitParallelPool::<1>::new(&g, 9, 1);
        mask.ensure(40);
        let mut want = vec![0u32; 7];
        mask.counts_from_center(NodeId(2), &mut want);
        assert_eq!(counts, want);
    }

    #[test]
    fn cold_pair_queries_stay_on_masks_until_threshold() {
        use crate::tuning::FINALIZE_AFTER_MASK_QUERIES;
        let g = chain(6, 0.5);
        let mut pool = BitParallelPool::<1>::new_adaptive(&g, 3, 1);
        pool.ensure(64);
        let want = {
            let mut mask = BitParallelPool::<1>::new(&g, 3, 1);
            mask.ensure(64);
            mask.pair_count(NodeId(0), NodeId(4))
        };
        for i in 0..FINALIZE_AFTER_MASK_QUERIES {
            assert_eq!(pool.pair_count(NodeId(0), NodeId(4)), want);
            let s = pool.engine_stats();
            assert_eq!(s.finalized_lanes, 0, "pair query {i} should stay on masks");
            assert_eq!(s.mask_queries, i as usize + 1);
        }
        // The next pair query crosses the threshold and converts the block.
        assert_eq!(pool.pair_count(NodeId(0), NodeId(4)), want);
        let s = pool.engine_stats();
        assert_eq!((s.finalized_blocks, s.finalized_lanes), (1, 64), "{s:?}");
        assert_eq!(s.label_queries, 1);
    }

    #[test]
    fn mixed_finalized_and_mask_blocks_answer_ranged_queries() {
        let g = chain(10, 0.55);
        let mut mask = BitParallelPool::<1>::new(&g, 21, 1);
        let mut pool = BitParallelPool::<1>::new_adaptive(&g, 21, 1);
        mask.ensure(200);
        pool.ensure(200);
        // Finalize only block 1 (a row query restricted to its worlds).
        let mut row = vec![0u32; 10];
        pool.counts_from_center_range(NodeId(0), 64, 128, &mut row);
        let s = pool.engine_stats();
        assert_eq!((s.finalized_blocks, s.finalized_lanes), (1, 64));
        // Pair queries spanning finalized and mask blocks agree with the
        // pure-mask pool for windows straddling both kinds.
        for (lo, hi) in [(0usize, 200usize), (10, 130), (64, 128), (100, 190), (0, 64)] {
            for (u, v) in [(0u32, 9u32), (3, 7)] {
                assert_eq!(
                    mask.pair_count_range(NodeId(u), NodeId(v), lo, hi),
                    pool.pair_count_range(NodeId(u), NodeId(v), lo, hi),
                    "pair ({u},{v}) on [{lo},{hi})"
                );
            }
        }
        // Batched rows across the mixed pool agree too.
        let centers: Vec<NodeId> = (0..10).map(NodeId).collect();
        let mut want = vec![0u32; 10 * 10];
        let mut got = vec![0u32; 10 * 10];
        mask.counts_from_centers(&centers, &mut want);
        pool.counts_from_centers(&centers, &mut got);
        assert_eq!(got, want);
    }

    #[test]
    fn wide_and_narrow_labels_agree() {
        let g = chain(13, 0.5);
        let mut a = vec![0u32; 13];
        let mut b = vec![0u32; 13];
        let mut bn = BitParallelPool::<1>::new_adaptive(&g, 5, 1);
        let mut bw = BitParallelPool::<1>::new_adaptive(&g, 5, 1).with_wide_labels(true);
        bn.ensure(90);
        bw.ensure(90);
        for c in 0..13u32 {
            bn.counts_from_center(NodeId(c), &mut a);
            bw.counts_from_center(NodeId(c), &mut b);
            assert_eq!(a, b, "block-label width mismatch at center {c}");
        }
        assert_eq!(bn.engine_stats().finalized_lanes, 90);
        assert_eq!(bw.engine_stats().finalized_lanes, 90);
        assert_eq!(all_labels(&mut bn), all_labels(&mut bw), "per-world labels differ");
    }

    #[test]
    fn ranged_batch_windows_add_up_to_full_batch() {
        let g = chain(9, 0.5);
        let centers: Vec<NodeId> = (0..9).map(NodeId).collect();
        let n = 9;
        let mut bit = BitParallelPool::<1>::new(&g, 8, 1);
        bit.ensure(150);
        let mut full = vec![0u32; 9 * n];
        bit.counts_from_centers(&centers, &mut full);
        let mut acc = vec![0u32; 9 * n];
        let mut part = vec![0u32; 9 * n];
        for (lo, hi) in [(0usize, 70usize), (70, 128), (128, 150)] {
            bit.counts_from_centers_range(&centers, lo, hi, &mut part);
            for (a, &p) in acc.iter_mut().zip(&part) {
                *a += p;
            }
        }
        assert_eq!(acc, full, "disjoint ranged batches must add up to the full batch");
    }

    #[test]
    fn labels_into_regenerates_and_charges_block_labels() {
        // Under a budget far below one shard, reading labels regenerates
        // evicted shards without trimming; the labels are charged to the
        // shard, and the next aggregate query settles the ledger again.
        let g = chain(6, 0.5);
        let r = SHARD_WORLDS + 100;
        let budget = MemoryBudget::bounded(512);
        let mut pool = BitParallelPool::<4>::new_adaptive(&g, 2, 1);
        pool.set_memory_budget(budget.clone());
        pool.ensure(r);
        let mut unbounded = BitParallelPool::<4>::new(&g, 2, 1);
        unbounded.ensure(r);
        assert_eq!(all_labels(&mut pool), all_labels(&mut unbounded));
        let held = budget.bytes_held();
        assert!(held > 512, "label reads resolve without trimming: {held} B");
        assert!(pool.memory_stats().shards_regenerated > 0);
        let mut row = vec![0u32; 6];
        pool.counts_from_center(NodeId(0), &mut row);
        assert!(budget.bytes_held() <= 512, "{} B over the limit", budget.bytes_held());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn labels_into_rejects_missing_samples() {
        let g = chain(4, 0.5);
        let mut pool = BitParallelPool::<4>::new_adaptive(&g, 1, 1);
        pool.ensure(8);
        pool.labels_into(8, &mut [0u32; 4]);
    }
}
