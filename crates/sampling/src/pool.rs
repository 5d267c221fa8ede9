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
//! whole block, for both unlimited and depth-limited semantics. An
//! adaptive pool (the library's) also caches the components of the blocks
//! that unlimited row queries hit, when its memory budget can keep them
//! resident: per node, a lane mask of the worlds where the node sits in
//! the world's largest component, and member lists of the other
//! components of two or more nodes. Those queries then become label
//! scans, one AND+popcount per node for the largest components plus a
//! walk of the center's small component in each other world.
//!
//! ## Sharded storage
//!
//! A pool stores its samples in one list of [`SHARD_WORLDS`]-world shards.
//! Each shard holds its blocks, the bytes it has charged to a
//! [`crate::MemoryBudget`], and its recency stamp, and it is resident
//! exactly when it holds blocks. Over that list the pool resolves a
//! query's shards (regenerating evicted ones from their per-index RNG
//! streams), gates growth, and trims least-recently-used shards when the
//! ledger is over its limit. The ledger handle, the eviction and
//! regeneration counters and the per-solve [`RunState`] are pool fields,
//! and dropping a pool releases its charges.
//!
//! ## Parallelism
//!
//! The pool implements the ranged row queries (`counts_from_centers_range`
//! and `counts_within_depths_batch_range`; a single row is a batch of one)
//! and `assignment_counts`. [`WorldEngine`] provides the rest: the
//! full-pool forms are the ranged forms over the whole pool, and a pair
//! count is one entry of a ranged row, so a pair costs what the row over
//! its window costs. Generation (`ensure`, and regeneration, which build
//! blocks through one builder), labelling (one step that builds the
//! missing lanes of every listed block) and the queries run on rayon,
//! gated by the shared [`crate::tuning`] heuristics. Every count query
//! resolves its shards, runs its own prologue (a single unlimited row's
//! labelling, a batch's cost model, or evaluation's member lists), and
//! ends in one private block sweep: the
//! sweep runs the query's per-block kernel on each planned block, polling
//! the interrupt checkpoint before each one, and trims the ledger. The
//! sweep splits the blocks into chunks through
//! [`crate::tuning::chunked_counts_with`], accumulates per-chunk integer
//! count rows and merges them — so every estimate is bit-identical no
//! matter how many threads run, which the property tests assert. AVPR's
//! `connected_pairs` is the one aggregate outside the sweep: it walks the
//! blocks in sample order on the calling thread, labelling each as an
//! unlimited row would, and it too trims the ledger on return. So every
//! read of the pool leaves the ledger within its limit.

use rayon::prelude::*;

use ugraph_graph::{Mask, MultiWorldBfs, NodeId, UncertainGraph, LANES};

use crate::budget::{MemoryBudget, MemoryStats};
use crate::engine::{EngineStats, WorldEngine, DEPTH_UNLIMITED};
use crate::error::SamplingPhase;
use crate::faults::{self, FaultSite};
use crate::interrupt::RunState;
use crate::tuning::{chunked_counts_with, labels_beat_shared_masks, ThreadConfig};
use crate::world::WorldSampler;

/// Worlds per shard — the granularity at which pool storage is allocated,
/// charged against a [`MemoryBudget`], and evicted. Every block width packs
/// the same 1 024 worlds per shard (`blocks_per_shard`), so shard indices,
/// touch stamps, and eviction order are identical at every width.
pub const SHARD_WORLDS: usize = 1024;

/// Blocks per shard at block width `W` words (64·W worlds per block):
/// 16 for width 64, 4 for width 256, 2 for width 512 — always the same
/// [`SHARD_WORLDS`] worlds per shard.
#[inline]
const fn blocks_per_shard<const W: usize>() -> usize {
    SHARD_WORLDS / (W * LANES)
}

/// Finalized per-lane components of one mask block in compact form — the
/// structure that lets unlimited queries over the block skip mask BFS.
///
/// One component of each world usually holds most of the nodes, so it is
/// stored as a mask per node: `giant[u]` has lane `l` set when `u` sits in
/// world `l`'s largest component (the one with the smallest node among
/// equally large ones). That component's share of a row is one AND and
/// popcount per node. The other components of two or more nodes keep
/// member lists, lane by lane: lane `l` owns `nodes[lane_start[l]..
/// lane_start[l + 1]]`, sorted by node so a center finds its component by
/// binary search, and `next` links each component's members into a cycle.
/// A node in neither is alone in its world and needs no storage.
///
/// Lanes are labeled **append-only**: finalizing a partially filled block
/// and topping it up later labels only the new lanes — already-labeled
/// lanes are never recomputed (worlds are immutable once sampled).
#[derive(Clone, Debug)]
struct BlockLabels<const W: usize> {
    /// Per-node lane masks of each world's largest component.
    giant: Vec<Mask<W>>,
    /// Node count of each labeled lane's largest component; its length is
    /// the labeled prefix of the block's lanes.
    giant_size: Vec<u32>,
    /// Members of the other multi-node components, lane-major, ascending
    /// within a lane.
    nodes: Vec<u32>,
    /// `next[i]` = position in `nodes` of the next member of `nodes[i]`'s
    /// component, cyclically.
    next: Vec<u32>,
    /// `lane_start[l]` = index of lane `l`'s first entry in `nodes` (one
    /// terminator after the last labeled lane).
    lane_start: Vec<u32>,
}

impl<const W: usize> BlockLabels<W> {
    fn new(n: usize) -> Self {
        BlockLabels {
            giant: vec![Mask::ZERO; n],
            giant_size: Vec::new(),
            nodes: Vec::new(),
            next: Vec::new(),
            lane_start: vec![0],
        }
    }

    /// Lanes labeled so far (a prefix of the block's lanes).
    #[inline]
    fn labeled(&self) -> usize {
        self.giant_size.len()
    }

    /// Lane mask of the labeled prefix.
    #[inline]
    fn labeled_mask(&self) -> Mask<W> {
        Mask::prefix(self.labeled())
    }

    /// Heap bytes held by the giant masks and the member lists.
    fn heap_bytes(&self) -> usize {
        self.giant.len() * std::mem::size_of::<Mask<W>>()
            + (self.giant_size.len() + self.nodes.len() + self.next.len() + self.lane_start.len())
                * 4
    }

    /// Labels lanes `[self.labeled(), target)` from the block's edge masks
    /// with one component-sharing sweep into a transient node-major label
    /// table, then sets the new lanes' giant bits and appends their member
    /// lists in two passes over the table. Already-labeled lanes are
    /// untouched. The table and the component sizes, 4 bytes per node and
    /// new lane and per component, are dropped on return.
    fn extend(
        &mut self,
        graph: &UncertainGraph,
        bfs: &mut MultiWorldBfs<W>,
        masks: &[Mask<W>],
        target: usize,
    ) {
        // A listed component's entry in `state`: no member placed yet, or
        // the position of the last one placed (positions stay below both
        // sentinels, see `BitParallelPool::labels_fit`).
        const UNLISTED: u32 = u32::MAX;
        const EMPTY: u32 = u32::MAX - 1;
        let n = graph.num_nodes();
        let from = self.labeled();
        debug_assert!(from < target && target <= Mask::<W>::LANES);
        let width = target - from;
        let new_mask = Mask::<W>::prefix(target).and_not(Mask::prefix(from));
        // `table[u · width + j]` = `u`'s label in lane `from + j`.
        let mut table = vec![0u32; n * width];
        let counts = bfs.label_components(graph, masks, new_mask, |v, mask, next| {
            let row = &mut table[v.index() * width..(v.index() + 1) * width];
            mask.for_each_lane(|l| row[l - from] = next[l]);
        });
        // Lane `from + j`'s component `c` is `state[base[j] + c]`: first
        // its size, then its listing state.
        let mut base = vec![0usize; width + 1];
        for j in 0..width {
            base[j + 1] = base[j] + counts[from + j] as usize;
        }
        let mut state = vec![0u32; base[width]];
        for row in table.chunks_exact(width) {
            for (j, &c) in row.iter().enumerate() {
                state[base[j] + c as usize] += 1;
            }
        }
        let (mut giants, mut cursor) = (Vec::with_capacity(width), Vec::with_capacity(width));
        let mut end = self.nodes.len();
        for j in 0..width {
            let sizes = &mut state[base[j]..base[j + 1]];
            let mut giant = 0;
            for (c, &size) in sizes.iter().enumerate() {
                if size > sizes[giant] {
                    giant = c;
                }
            }
            self.giant_size.push(sizes.get(giant).copied().unwrap_or(0));
            giants.push(giant as u32);
            cursor.push(end);
            for (c, size) in sizes.iter_mut().enumerate() {
                if c == giant || *size < 2 {
                    *size = UNLISTED;
                } else {
                    end += *size as usize;
                    *size = EMPTY;
                }
            }
            self.lane_start.push(end as u32);
        }
        self.nodes.reserve_exact(end - self.nodes.len());
        self.nodes.resize(end, 0);
        self.next.reserve_exact(end - self.next.len());
        self.next.resize(end, 0);
        for (u, row) in table.chunks_exact(width).enumerate() {
            let mut giant = Mask::<W>::ZERO;
            for (j, &c) in row.iter().enumerate() {
                if c == giants[j] {
                    let l = from + j;
                    giant.0[l / LANES] |= 1 << (l % LANES);
                    continue;
                }
                let last = &mut state[base[j] + c as usize];
                if *last == UNLISTED {
                    continue;
                }
                let p = cursor[j];
                cursor[j] += 1;
                self.nodes[p] = u as u32;
                // A member joins its component's cycle after the last one
                // placed, taking over the link back to the first.
                self.next[p] = match *last {
                    EMPTY => p as u32,
                    prev => std::mem::replace(&mut self.next[prev as usize], p as u32),
                };
                *last = p as u32;
            }
            self.giant[u] |= giant;
        }
    }

    /// Calls `f` on every member of `center`'s component in labeled lane
    /// `l`, where `center` is outside the largest component: the members
    /// of its listed component, or `center` alone.
    #[inline]
    fn for_each_small_member(&self, center: usize, l: usize, mut f: impl FnMut(usize)) {
        let start = self.lane_start[l] as usize;
        let lane = &self.nodes[start..self.lane_start[l + 1] as usize];
        match lane.binary_search(&(center as u32)) {
            Err(_) => f(center),
            Ok(i) => self.for_each_in_cycle(start + i, f),
        }
    }

    /// Calls `f` on every member of the listed component whose cycle
    /// passes through position `first` of `nodes`.
    #[inline]
    fn for_each_in_cycle(&self, first: usize, mut f: impl FnMut(usize)) {
        let mut p = first;
        loop {
            f(self.nodes[p] as usize);
            p = self.next[p] as usize;
            if p == first {
                break;
            }
        }
    }

    /// Adds to `counts[u]` the lanes selected by `lanes` in which `u`
    /// shares `center`'s component — the finalized-block kernel of the
    /// unlimited count queries (`lanes` must be ⊆ the labeled lanes). Over
    /// the lanes where `center` is in the largest component this is one
    /// AND and popcount per node; elsewhere it walks `center`'s small
    /// component.
    #[inline]
    fn accumulate_center(&self, center: usize, lanes: Mask<W>, counts: &mut [u32]) {
        let giant = self.giant[center] & lanes;
        if giant.any() {
            for (count, &m) in counts.iter_mut().zip(&self.giant) {
                *count += (m & giant).count_ones();
            }
        }
        lanes
            .and_not(giant)
            .for_each_lane(|l| self.for_each_small_member(center, l, |u| counts[u] += 1));
    }

    /// Connected pairs inside one cluster and among covered nodes, each
    /// summed over the lanes of `lanes` (⊆ the labeled lanes) — the
    /// labelled-block kernel of [`BitParallelPool::connected_pairs`].
    /// `clusters` lists each cluster's members, `covered` their union, and
    /// `cluster_of[u]` is `u`'s cluster or [`NOT_COVERED`]. The largest
    /// components count through [`BlockLabels::giant_pairs`]. Each listed
    /// small component is walked once, from the member whose link points
    /// backwards and so closes its cycle, and `tally` (one counter per
    /// cluster, zero on entry and on return) counts its members per
    /// cluster. Isolated nodes form no pair.
    fn connected_pairs(
        &self,
        clusters: &[Vec<NodeId>],
        covered: &[NodeId],
        cluster_of: &[u32],
        lanes: Mask<W>,
        planes: &mut Vec<Mask<W>>,
        tally: &mut [u32],
    ) -> (u64, u64) {
        let mut intra: u64 = clusters.iter().map(|c| self.giant_pairs(c, lanes, planes)).sum();
        let mut total = self.giant_pairs(covered, lanes, planes);
        lanes.for_each_lane(|l| {
            for p in self.lane_start[l] as usize..self.lane_start[l + 1] as usize {
                if self.next[p] as usize > p {
                    continue;
                }
                let mut members = 0u64;
                self.for_each_in_cycle(p, |u| {
                    if cluster_of[u] != NOT_COVERED {
                        let t = &mut tally[cluster_of[u] as usize];
                        intra += u64::from(*t);
                        total += members;
                        *t += 1;
                        members += 1;
                    }
                });
                self.for_each_in_cycle(p, |u| {
                    if cluster_of[u] != NOT_COVERED {
                        tally[cluster_of[u] as usize] = 0;
                    }
                });
            }
        });
        (intra, total)
    }

    /// `Σ_l C(c_l, 2)` over the lanes of `lanes`, where `c_l` counts the
    /// `members` in lane `l`'s largest component, with no loop over lanes:
    /// each member's `giant[u] & lanes` is added into bit-sliced per-lane
    /// counters, plane `P_i` holding bit `i` of every lane's count, so
    /// `Σ_l c_l² = Σ_{i,j} 2^{i+j}·|P_i ∧ P_j|` and
    /// `Σ_l c_l = Σ_i 2^i·|P_i|`.
    fn giant_pairs(&self, members: &[NodeId], lanes: Mask<W>, planes: &mut Vec<Mask<W>>) -> u64 {
        if members.len() < 2 {
            return 0;
        }
        planes.clear();
        planes.resize((usize::BITS - members.len().leading_zeros()) as usize, Mask::ZERO);
        for u in members {
            let mut carry = self.giant[u.index()] & lanes;
            for plane in planes.iter_mut() {
                if carry.is_zero() {
                    break;
                }
                (*plane, carry) = (*plane ^ carry, *plane & carry);
            }
        }
        let (mut squares, mut sum) = (0u64, 0u64);
        for (i, &a) in planes.iter().enumerate() {
            let ones = u64::from(a.count_ones());
            sum += ones << i;
            squares += ones << (2 * i);
            for (j, &b) in planes.iter().enumerate().skip(i + 1) {
                squares += u64::from((a & b).count_ones()) << (i + j + 1);
            }
        }
        (squares - sum) / 2
    }

    /// Label-scan cost of a batched query — the total member count of
    /// every `(center, lane)` component — for the
    /// [`crate::tuning::labels_beat_shared_masks`] dispatch.
    fn batch_label_ops(&self, centers: &[NodeId], lanes: Mask<W>) -> usize {
        let mut ops = 0usize;
        for c in centers {
            let giant = self.giant[c.index()] & lanes;
            giant.for_each_lane(|l| ops += self.giant_size[l] as usize);
            lanes
                .and_not(giant)
                .for_each_lane(|l| self.for_each_small_member(c.index(), l, |_| ops += 1));
        }
        ops
    }
}

/// `cluster_of` entry of a node in no cluster (an outlier), in
/// [`BitParallelPool::connected_pairs`].
const NOT_COVERED: u32 = u32::MAX;

/// Labels world `lane` of a block's edge `masks` into `out`, one label per
/// node, numbered densely from 0 in order of each component's smallest
/// node — the per-world path of [`BitParallelPool::connected_pairs`] on
/// lanes no block labels cover: in a pure-mask pool, in blocks the
/// labelling rule declines, and on graphs too large for block labels.
fn label_world<const W: usize>(
    bfs: &mut MultiWorldBfs<W>,
    graph: &UncertainGraph,
    masks: &[Mask<W>],
    lane: usize,
    out: &mut [u32],
) {
    bfs.label_components(graph, masks, Mask::bit(lane), |v, _, next| {
        out[v.index()] = next[lane];
    });
}

/// `Σ C(size, 2)` over the components of `members` in the world whose
/// dense labels are `labels`: adds each member's label to `tally`, then
/// reads and zeroes it through the same members, so `tally` is all zero
/// again on return.
fn world_pairs(members: &[NodeId], labels: &[u32], tally: &mut [u32]) -> u64 {
    for u in members {
        tally[labels[u.index()] as usize] += 1;
    }
    let mut connected = 0u64;
    for u in members {
        let size = u64::from(std::mem::take(&mut tally[labels[u.index()] as usize]));
        connected += size * size.saturating_sub(1) / 2;
    }
    connected
}

/// One block of up to `W · 64` sampled worlds as per-edge presence masks.
#[derive(Debug)]
struct MaskBlock<const W: usize> {
    /// `masks[e]` lane `l` ⇔ edge `e` exists in world `base + l`.
    masks: Vec<Mask<W>>,
    /// Number of valid lanes (worlds) in this block; only the last block
    /// of a pool can be partial.
    lanes: u32,
    /// Lazily finalized component labels (adaptive mode only); covers the
    /// first `labels.labeled()` lanes, never invalidated — a lane top-up
    /// extends the labels, it does not recompute them.
    labels: Option<BlockLabels<W>>,
}

impl<const W: usize> MaskBlock<W> {
    /// Heap bytes held by the block's masks and finalized labels.
    fn heap_bytes(&self) -> usize {
        self.masks.len() * std::mem::size_of::<Mask<W>>()
            + self.labels.as_ref().map_or(0, BlockLabels::heap_bytes)
    }

    /// Whether labels cover every lane of the block.
    fn fully_labeled(&self) -> bool {
        self.labels.as_ref().is_some_and(|l| l.labeled() == self.lanes as usize)
    }

    /// The block's labels, for lanes that [`MaskBlock::split_lanes`] (or a
    /// plan built from it) serves from them.
    fn labels(&self) -> &BlockLabels<W> {
        self.labels.as_ref().unwrap_or_else(|| unreachable!("labeled lanes imply labels"))
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

/// One [`SHARD_WORLDS`]-world shard of a pool: the unit of allocation,
/// ledger charges and eviction. A shard is resident exactly when it holds
/// blocks: eviction empties `blocks` (masks and finalized labels alike),
/// and regeneration refills them bit-identically from the shard's per-index
/// RNG streams, while labels re-finalize on the next unlimited query.
#[derive(Debug)]
struct Shard<const W: usize> {
    blocks: Vec<MaskBlock<W>>,
    /// Heap bytes currently charged to the ledger for this shard.
    bytes: usize,
    /// Recency stamp from [`MemoryBudget::touch`].
    last_used: u64,
}

impl<const W: usize> Shard<W> {
    fn resident(&self) -> bool {
        !self.blocks.is_empty()
    }
}

/// The shard indices covering sample range `[lo, hi)`.
#[inline]
fn shard_span(lo: usize, hi: usize) -> std::ops::RangeInclusive<usize> {
    debug_assert!(lo < hi);
    lo / SHARD_WORLDS..=(hi - 1) / SHARD_WORLDS
}

/// Block `b` of a sharded bit-parallel pool (the shard must be resident).
#[inline]
fn shard_block<const W: usize>(shards: &[Shard<W>], b: usize) -> &MaskBlock<W> {
    &shards[b / blocks_per_shard::<W>()].blocks[b % blocks_per_shard::<W>()]
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
/// [`SHARD_WORLDS`]-world shards charged against a [`MemoryBudget`]; the
/// pool releases its charges when dropped.
#[derive(Debug)]
pub struct BitParallelPool<'g, const W: usize = 1> {
    sampler: WorldSampler<'g>,
    /// The pool's shards, in sample order.
    shards: Vec<Shard<W>>,
    samples: usize,
    config: ThreadConfig,
    /// Reusable multi-world BFS workspace for serial query paths; parallel
    /// chunks build their own.
    bfs: MultiWorldBfs<W>,
    /// Reusable `(block, label lanes, mask lanes)` plan of the block sweep
    /// (allocation-free single-row queries).
    plan: Vec<(u32, Mask<W>, Mask<W>)>,
    /// Lazy per-block component-label finalization, within the memory
    /// budget; off = pure-mask pool (tests compare the two).
    adaptive: bool,
    /// Finalization counters (see [`EngineStats`]).
    stats: EngineStats,
    /// Shared byte ledger the shards are charged to (unbounded by default).
    budget: MemoryBudget,
    /// Shards this pool evicted and regenerated (cumulative).
    evicted: u64,
    regenerated: u64,
    /// Per-solve interruption state, polled at shard and block boundaries
    /// (unarmed by default — see [`RunState`]).
    run: RunState,
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
            plan: Vec::new(),
            adaptive: false,
            stats: EngineStats::default(),
            budget: MemoryBudget::default(),
            evicted: 0,
            regenerated: 0,
            run: RunState::default(),
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
    /// runs as a label scan — one AND+popcount per node over the largest
    /// components' lane masks, plus a walk of the center's small component
    /// in each other world — as long as the labels the pool still lacks
    /// fit its memory budget; otherwise rows sweep masks. Counts are
    /// identical either way — finalization trades label memory (one bit
    /// per node and world, plus 8 bytes per node outside the largest
    /// component that shares a component with another node, and 8 bytes
    /// per world) for mask traversals.
    ///
    /// # Panics
    /// Panics if the pool already holds samples.
    pub fn with_finalization(mut self, adaptive: bool) -> Self {
        assert!(self.shards.is_empty(), "finalization is chosen before the pool grows");
        self.adaptive = adaptive;
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

    /// Connected pairs of a clustering, the measurement behind inner and
    /// outer AVPR: returns `(intra, covered)`, each summed over the pool's
    /// worlds — the connected pairs of nodes in one cluster, and the
    /// connected pairs of covered nodes (members of any cluster). Outliers,
    /// nodes of no cluster, count in neither.
    ///
    /// Blocks are read in sample order, each shard regenerated when the
    /// walk reaches it if it was evicted (no checkpoint, no failpoint). A
    /// block lacking labels is labelled first, append-only and charged to
    /// its shard, when the labelling rule of rows admits labels, as an
    /// unlimited row would label it; a fully labelled block does not run
    /// the rule. On a labelled lane the largest components count through
    /// bit-sliced per-lane member counters, with no loop over lanes, and
    /// each small component is walked once. Lanes no labels cover are
    /// labelled world by world, and each world's components tallied. The
    /// counts are integers, so every path returns the same totals. The
    /// ledger is trimmed on return.
    ///
    /// # Panics
    /// Panics if the pool is empty, or a node is out of range or listed
    /// twice.
    pub fn connected_pairs(&mut self, clusters: &[Vec<NodeId>]) -> (u64, u64) {
        let n = self.graph().num_nodes();
        assert!(self.samples > 0, "sample pool is empty");
        let mut cluster_of = vec![NOT_COVERED; n];
        for (j, members) in clusters.iter().enumerate() {
            for u in members {
                let was = std::mem::replace(&mut cluster_of[u.index()], j as u32);
                assert_eq!(was, NOT_COVERED, "node {u} is listed twice");
            }
        }
        let covered = clusters.concat();
        let (mut planes, mut cluster_tally) = (Vec::new(), vec![0u32; clusters.len()]);
        let (mut labels, mut tally) = (vec![0u32; n], vec![0u32; n]);
        let (mut intra, mut total) = (0u64, 0u64);
        for b in 0..self.num_blocks() {
            self.resolve_point(b * Self::BLOCK_LANES);
            if !shard_block(&self.shards, b).fully_labeled() && self.budget_admits_labels() {
                self.label_blocks(&[b]);
            }
            let block = shard_block(&self.shards, b);
            let (labeled, masked) = block.split_lanes(Mask::prefix(block.lanes as usize));
            if labeled.any() {
                let (i, t) = block.labels().connected_pairs(
                    clusters,
                    &covered,
                    &cluster_of,
                    labeled,
                    &mut planes,
                    &mut cluster_tally,
                );
                intra += i;
                total += t;
            }
            masked.for_each_lane(|l| {
                label_world(&mut self.bfs, self.sampler.graph(), &block.masks, l, &mut labels);
                intra += clusters.iter().map(|c| world_pairs(c, &labels, &mut tally)).sum::<u64>();
                total += world_pairs(&covered, &labels, &mut tally);
            });
        }
        self.trim_to_budget();
        (intra, total)
    }

    /// Assignment counts of a clustering, the measurement behind
    /// `p_min`/`p_avg`: `out[u]` becomes the number of worlds in which `u`
    /// reaches its own center `centers[cluster_of(u)]`, within `depth`
    /// hops ([`DEPTH_UNLIMITED`] for plain connectivity), and 0 for
    /// outliers (`cluster_of(u) == None`).
    ///
    /// Reach masks are read for cluster members only. Without a depth
    /// limit, each block runs the component-sharing sweep
    /// ([`MultiWorldBfs::share_components`]): one mask traversal per center
    /// over the lanes where its component is still unknown, adding the
    /// reach of that center's members; a later center met by the traversal
    /// shares the component in those lanes, so it takes the reach of its
    /// own members there. With a depth limit, each block runs one
    /// depth-limited traversal per center and adds that center's members.
    /// Blocks are read as masks even where labels are cached, and no block
    /// is labelled, so the call never adds to the ledger beyond
    /// regenerating evicted shards, and it trims the ledger on return.
    ///
    /// # Panics
    /// Panics if the pool is empty, `out.len() != n`, or a cluster index
    /// is not below `centers.len()`.
    pub fn assignment_counts(
        &mut self,
        centers: &[NodeId],
        cluster_of: impl Fn(usize) -> Option<usize>,
        depth: u32,
        out: &mut [u32],
    ) {
        let n = self.graph().num_nodes();
        let k = centers.len();
        assert_eq!(out.len(), n, "counts buffer has wrong length");
        assert!(self.samples > 0, "sample pool is empty");
        out.fill(0);
        let mut members = vec![Vec::new(); k];
        for u in 0..n {
            if let Some(j) = cluster_of(u) {
                members[j].push(NodeId::from_index(u));
            }
        }
        if k == 0 || !self.resolve_range(0, self.samples) {
            return;
        }
        self.plan(0, self.samples, false);
        let unlimited = depth == DEPTH_UNLIMITED;
        if self.adaptive && unlimited {
            self.stats.mask_queries += self.plan.len();
        }
        let work = if unlimited { self.block_work() } else { self.block_work() * k };
        self.sweep(work, [out], |[counts], bfs, graph, block, _, lanes| {
            let mut add = |j: usize, lanes: Mask<W>, bfs: &MultiWorldBfs<W>| {
                for &u in &members[j] {
                    counts[u.index()] += (bfs.reach(u) & lanes).count_ones();
                }
            };
            if unlimited {
                bfs.share_components(graph, &block.masks, centers, lanes, add);
            } else {
                for (j, &center) in centers.iter().enumerate() {
                    bfs.run(graph, &block.masks, center, lanes, depth, |_, _, _| {});
                    add(j, lanes, bfs);
                }
            }
        });
    }

    /// Whether block labels of an `n`-node graph fit `u32` positions in
    /// the member lists, below the two sentinels of
    /// [`BlockLabels::extend`].
    fn labels_fit(n: usize) -> bool {
        n.saturating_mul(Self::BLOCK_LANES) < (u32::MAX - 1) as usize
    }

    /// Labelling prologue of an unlimited-depth single row over the sample
    /// window `[lo, hi)`: counts one label query per touched block in
    /// [`EngineStats`] and labels the touched blocks that are not fully
    /// labelled ([`BitParallelPool::label_blocks`]). When
    /// [`BitParallelPool::budget_admits_labels`] declines, nothing is
    /// labelled and the blocks lacking labels count as mask queries.
    fn prepare_unlimited(&mut self, lo: usize, hi: usize) {
        if !self.adaptive || lo >= hi || self.run.checkpoint(SamplingPhase::Labeling) {
            return;
        }
        if !Self::labels_fit(self.graph().num_nodes()) {
            return;
        }
        let blocks = lo / Self::BLOCK_LANES..=(hi - 1) / Self::BLOCK_LANES;
        self.stats.label_queries += blocks.clone().count();
        let todo: Vec<usize> =
            blocks.filter(|&b| !shard_block(&self.shards, b).fully_labeled()).collect();
        if todo.is_empty() {
            return;
        }
        if self.budget_admits_labels() {
            self.label_blocks(&todo);
        } else {
            // The sweep serves the unlabelled lanes by mask BFS.
            self.stats.label_queries -= todo.len();
            self.stats.mask_queries += todo.len();
        }
    }

    /// The labelling rule: whether blocks lacking labels are labelled now.
    /// Only an adaptive pool labels, only on a graph whose labels fit
    /// ([`BitParallelPool::labels_fit`]), and only if the labels still
    /// missing from the whole pool, resident or evicted, fit the ledger
    /// beside what it already holds. Each block lacking labels counts at
    /// the most a fully labelled block can hold ([`BlockLabels`]): a giant
    /// mask per node, a largest-component size and a list offset per lane
    /// (plus the terminator), and a member entry and a cycle link per
    /// listed node. A lane lists only nodes outside its largest component
    /// whose component has at least two nodes, and the largest is at least
    /// as large, so a lane lists at most `n − 2` nodes — as many as a world
    /// of disjoint pairs does. Otherwise rows sweep those blocks as masks,
    /// so a tight budget keeps masks resident instead of evicting them for
    /// labels it cannot keep. Never inlined: it runs only when a window
    /// lacks labels.
    #[inline(never)]
    fn budget_admits_labels(&self) -> bool {
        let (n, lanes) = (self.graph().num_nodes(), Self::BLOCK_LANES);
        if !self.adaptive || !Self::labels_fit(n) {
            return false;
        }
        let labelled =
            self.shards.iter().flat_map(|shard| &shard.blocks).filter(|b| b.fully_labeled());
        let missing = self.num_blocks() - labelled.count();
        let per_block = n * std::mem::size_of::<Mask<W>>()
            + 4 * (2 * lanes + 1)
            + 8 * lanes * n.saturating_sub(2);
        !self.budget.would_exceed(missing.saturating_mul(per_block))
    }

    /// Labels the missing lanes of the listed blocks (ascending, resident,
    /// none fully labelled) — append-only, so labelled lanes are never
    /// recomputed — then attaches the labels, counts them in
    /// [`EngineStats`] and settles the blocks' shards. Each block's labels
    /// are built by value, from a fresh [`BlockLabels`] or a copy of the
    /// block's partial labels, on rayon when more than one block is worth
    /// it and otherwise on the pool's workspace.
    fn label_blocks(&mut self, todo: &[usize]) {
        let bps = blocks_per_shard::<W>();
        let BitParallelPool { sampler, shards, config, bfs, stats, .. } = self;
        let (graph, n) = (sampler.graph(), sampler.graph().num_nodes());
        let build = |bfs: &mut MultiWorldBfs<W>, &b: &usize| {
            let block = shard_block(shards, b);
            let mut labels = block.labels.clone().unwrap_or_else(|| BlockLabels::new(n));
            labels.extend(graph, bfs, &block.masks, block.lanes as usize);
            labels
        };
        let built: Vec<BlockLabels<W>> = if todo.len() > 1
            && config.parallel_generation(todo.len() * Self::BLOCK_LANES)
        {
            config.run(|| todo.par_iter().map_init(|| MultiWorldBfs::<W>::new(n), build).collect())
        } else {
            todo.iter().map(|b| build(bfs, b)).collect()
        };
        for (&b, labels) in todo.iter().zip(built) {
            let slot = &mut shards[b / bps].blocks[b % bps].labels;
            let before = slot.as_ref().map_or(0, BlockLabels::labeled);
            stats.finalized_blocks += usize::from(before == 0);
            stats.finalized_lanes += labels.labeled() - before;
            *slot = Some(labels);
        }
        for &b in todo {
            self.settle_shard(b / bps);
        }
    }

    /// Samples lanes `lanes` of the block whose first world is `base` into
    /// its edge masks, world `base + l` from RNG stream `base + l`.
    fn sample_lanes(
        sampler: &WorldSampler<'g>,
        masks: &mut [Mask<W>],
        base: usize,
        lanes: std::ops::Range<usize>,
    ) {
        for lane in lanes {
            sampler
                .sample_block_lane((base + lane) as u64, lane, masks)
                .unwrap_or_else(|e| unreachable!("pool-sized mask buffer cannot mismatch: {e}"));
        }
    }

    /// Blocks `first..last` of a pool of `r` samples, sampled afresh — in
    /// parallel when the batch is worth it. Growth and regeneration both
    /// build blocks here.
    fn build_blocks(&self, first: usize, last: usize, r: usize) -> Vec<MaskBlock<W>> {
        let (sampler, m) = (&self.sampler, self.graph().num_edges());
        let build = |b: usize| {
            let base = b * Self::BLOCK_LANES;
            let lanes = (r - base).min(Self::BLOCK_LANES);
            let mut masks = vec![Mask::<W>::ZERO; m];
            Self::sample_lanes(sampler, &mut masks, base, 0..lanes);
            MaskBlock { masks, lanes: lanes as u32, labels: None }
        };
        if self.config.parallel_generation((last - first) * Self::BLOCK_LANES) {
            self.config.run(|| (first..last).into_par_iter().map(build).collect())
        } else {
            (first..last).map(build).collect()
        }
    }

    /// Work of one traversal over a block, `n + 2m` operations — the unit
    /// of the sweeps' parallel gate.
    fn block_work(&self) -> usize {
        let graph = self.graph();
        graph.num_nodes() + 2 * graph.num_edges()
    }

    /// Plans a sweep of sample range `[lo, hi)`: one entry per overlapping
    /// block, its lanes narrowed to the range's worlds. With `labels`, each
    /// block's lanes split into those its labels cover and the rest
    /// ([`MaskBlock::split_lanes`]); otherwise every lane is a mask lane.
    fn plan(&mut self, lo: usize, hi: usize, labels: bool) {
        self.plan.clear();
        if lo >= hi {
            return;
        }
        for b in lo / Self::BLOCK_LANES..=(hi - 1) / Self::BLOCK_LANES {
            let base = b * Self::BLOCK_LANES;
            let s = lo.max(base) - base;
            let e = hi.min(base + Self::BLOCK_LANES) - base;
            let lanes = Mask::<W>::prefix(e).and_not(Mask::prefix(s));
            let (labeled, masked) = if labels {
                shard_block(&self.shards, b).split_lanes(lanes)
            } else {
                (Mask::ZERO, lanes)
            };
            self.plan.push((b as u32, labeled, masked));
        }
    }

    /// The block sweep of every count query: runs `kernel(outs, bfs, graph,
    /// block, label lanes, mask lanes)` on each planned block, polling the
    /// [`SamplingPhase::Sweep`] checkpoint before each one, and trims the
    /// ledger afterwards. Blocks are split across threads by
    /// [`chunked_counts_with`] when `per_block_work` passes its gate, so
    /// `outs` receive the sum over all blocks, bit-identical at every
    /// thread count. An interrupted sweep leaves them partial; the fallible
    /// layer above discards them.
    fn sweep<const N: usize>(
        &mut self,
        per_block_work: usize,
        outs: [&mut [u32]; N],
        kernel: impl Fn(
                &mut [&mut [u32]; N],
                &mut MultiWorldBfs<W>,
                &UncertainGraph,
                &MaskBlock<W>,
                Mask<W>,
                Mask<W>,
            ) + Sync,
    ) {
        let BitParallelPool { sampler, shards, config, bfs, plan, run, .. } = self;
        let (graph, shards, run) = (sampler.graph(), &*shards, &*run);
        chunked_counts_with(
            config,
            plan,
            per_block_work,
            bfs,
            || MultiWorldBfs::<W>::new(graph.num_nodes()),
            |outs, bfs, plan| {
                for &(b, labeled, masked) in plan {
                    if run.checkpoint(SamplingPhase::Sweep) {
                        return;
                    }
                    kernel(outs, bfs, graph, shard_block(shards, b as usize), labeled, masked);
                }
            },
            outs,
        );
        self.trim_to_budget();
    }
}

// The shard policy: byte charges, resolve-or-regenerate and LRU trimming.
impl<const W: usize> BitParallelPool<'_, W> {
    /// Bytes currently charged for the pool's shards.
    fn held(&self) -> usize {
        self.shards.iter().map(|shard| shard.bytes).sum()
    }

    /// Re-derives shard `s`'s byte charge (masks plus finalized labels)
    /// and settles the difference with the ledger.
    fn settle_shard(&mut self, s: usize) {
        let shard = &mut self.shards[s];
        let bytes = shard.blocks.iter().map(MaskBlock::heap_bytes).sum();
        if bytes >= shard.bytes {
            self.budget.charge(bytes - shard.bytes);
        } else {
            self.budget.release(shard.bytes - bytes);
        }
        shard.bytes = bytes;
    }

    /// Stamps shard `s` as just used and returns whether it is resident.
    fn stamp(&mut self, s: usize) -> bool {
        let shard = &mut self.shards[s];
        shard.last_used = self.budget.touch();
        shard.resident()
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
    /// either fully regenerated or untouched; shards of the span that were
    /// regenerated before the fault are trimmed again. On `false` the
    /// caller must not read the samples.
    #[must_use]
    fn resolve_range(&mut self, lo: usize, hi: usize) -> bool {
        if lo >= hi {
            return true;
        }
        if self.run.checkpoint(SamplingPhase::Sweep) {
            return false;
        }
        for s in shard_span(lo, hi) {
            if !self.stamp(s) {
                if let Err(e) = faults::hit(FaultSite::ShardRegen) {
                    self.run.record(e);
                    self.trim_to_budget();
                    return false;
                }
                self.regenerate(s);
            }
        }
        true
    }

    /// Infallible resolve of sample `i`'s shard for
    /// [`BitParallelPool::connected_pairs`], which runs outside any solve
    /// and walks the pool block by block: it is neither a checkpoint nor a
    /// failpoint, and it does not trim — the walk trims once on return.
    fn resolve_point(&mut self, i: usize) {
        let s = i / SHARD_WORLDS;
        if !self.stamp(s) {
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
        let first = s * blocks_per_shard::<W>();
        let last = ((s + 1) * blocks_per_shard::<W>()).min(self.num_blocks());
        self.shards[s].blocks = self.build_blocks(first, last, self.samples);
        self.regenerated += 1;
        self.budget.note_regeneration();
        self.settle_shard(s);
    }

    /// Drops resident shard `s` and releases its bytes. Its finalized
    /// labels go with it, and the finalized-block gauge shrinks
    /// accordingly (lanes/query counters are cumulative and stand).
    /// Never inlined, like [`BitParallelPool::regenerate`].
    #[inline(never)]
    fn evict(&mut self, s: usize) {
        let shard = &mut self.shards[s];
        let labeled = shard.blocks.iter().filter(|b| b.labels.is_some()).count();
        shard.blocks = Vec::new();
        self.stats.finalized_blocks = self.stats.finalized_blocks.saturating_sub(labeled);
        self.evicted += 1;
        self.budget.note_eviction();
        self.settle_shard(s);
    }

    /// Evicts least-recently-used shards, by `(stamp, index)`, until the
    /// shared ledger fits its limit (or this pool has nothing left to
    /// shed) — the epilogue of `ensure` and of every aggregate query.
    fn trim_to_budget(&mut self) {
        while self.budget.over_budget() {
            let resident = self.shards.iter().enumerate().filter(|(_, shard)| shard.resident());
            match resident.min_by_key(|&(s, shard)| (shard.last_used, s)) {
                Some((s, _)) => self.evict(s),
                None => break,
            }
        }
    }
}

impl<const W: usize> Drop for BitParallelPool<'_, W> {
    fn drop(&mut self) {
        self.budget.release(self.held());
    }
}

impl<const W: usize> WorldEngine for BitParallelPool<'_, W> {
    /// The resident bytes move to the new ledger, and the pool immediately
    /// sheds least-recently-used shards if that ledger is over its limit.
    fn set_memory_budget(&mut self, budget: MemoryBudget) {
        let held = self.held();
        self.budget.release(held);
        budget.charge(held);
        self.budget = budget;
        self.trim_to_budget();
    }

    fn set_run_state(&mut self, run: RunState) {
        self.run = run;
    }

    /// Resident bytes, the budget limit, and this pool's cumulative shard
    /// eviction/regeneration counters.
    fn memory_stats(&self) -> MemoryStats {
        MemoryStats {
            bytes_held: self.held(),
            bytes_limit: self.budget.limit(),
            shards_evicted: self.evicted,
            shards_regenerated: self.regenerated,
        }
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
        let bps = blocks_per_shard::<W>();
        let total = r.div_ceil(Self::BLOCK_LANES);
        let trailing_evicted = self.shards.last().is_some_and(|shard| !shard.resident());
        // Top up the trailing partial block, if any — unless its shard is
        // evicted, in which case the whole shard (top-up included)
        // regenerates at the new extent on its next touch.
        let mut achieved = cur;
        if !cur.is_multiple_of(Self::BLOCK_LANES) && !trailing_evicted {
            let b = cur / Self::BLOCK_LANES;
            let base = b * Self::BLOCK_LANES;
            let target = (r - base).min(Self::BLOCK_LANES);
            let last = &mut self.shards[b / bps].blocks[b % bps];
            Self::sample_lanes(&self.sampler, &mut last.masks, base, last.lanes as usize..target);
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
        // bounded by one shard of sampling. Blocks landing in the evicted
        // trailing shard are left to that shard's regeneration.
        let first = if trailing_evicted {
            (self.shards.len() * bps).min(total)
        } else {
            cur.div_ceil(Self::BLOCK_LANES)
        };
        let mut from = first;
        while from < total {
            // The growth gate: the Generation checkpoint, then the PoolGrow
            // failpoint (its error recorded on the run state). Stopping
            // between chunks leaves a consistent, smaller pool that a
            // re-issued request tops up bit-identically.
            if self.run.checkpoint(SamplingPhase::Generation) {
                break;
            }
            if let Err(e) = faults::hit(FaultSite::PoolGrow) {
                self.run.record(e);
                break;
            }
            let chunk_end = ((from / bps + 1) * bps).min(total);
            let blocks = self.build_blocks(from, chunk_end, r);
            match self.shards.get_mut(from / bps) {
                Some(shard) => shard.blocks.extend(blocks),
                None => self.shards.push(Shard { blocks, bytes: 0, last_used: 0 }),
            }
            achieved = (chunk_end * Self::BLOCK_LANES).min(r);
            from = chunk_end;
        }
        self.samples = achieved;
        // Account the new samples shard by shard, then shed LRU shards if
        // the shared ledger now exceeds its limit.
        if achieved > cur {
            for s in shard_span(cur, achieved) {
                self.stamp(s);
                self.settle_shard(s);
            }
        }
        self.trim_to_budget();
    }

    /// A batch of one.
    fn counts_from_center_range(&mut self, center: NodeId, lo: usize, hi: usize, out: &mut [u32]) {
        self.counts_from_centers_range(std::slice::from_ref(&center), lo, hi, out);
    }

    /// Per overlapping block, a label scan over the lanes the block's
    /// labels serve and a mask traversal over the rest, lane masks narrowed
    /// to the window's worlds so counts over disjoint windows add up
    /// exactly. A single row first labels the window's blocks that lack
    /// labels, when the labelling rule admits them, and traverses the
    /// lanes left unlabelled with one connectivity fixpoint from its
    /// center.
    ///
    /// Batches never label. They amortize by **component sharing**:
    /// connectivity reach sets are per-component, so if centers `c_i` and
    /// `c_j` are connected in some of a block's worlds, their rows are
    /// identical in those worlds. Per overlapping block,
    /// [`MultiWorldBfs::share_components`] runs a mask BFS per center only
    /// over the window lanes where its component is still unknown; every
    /// later center found inside the traversed reach set takes the reach
    /// masks for the shared worlds with one AND + popcount sweep instead of
    /// a re-traversal. On instances with a supercritical giant component
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
        let (n, m) = (self.graph().num_nodes(), self.graph().num_edges());
        let k = centers.len();
        assert_eq!(out.len(), k * n, "batch counts buffer has wrong length");
        assert!(lo <= hi && hi <= self.samples, "invalid sample range [{lo}, {hi})");
        if k == 0 || !self.resolve_range(lo, hi) {
            return;
        }
        if k == 1 {
            self.prepare_unlimited(lo, hi);
        }
        self.plan(lo, hi, true);
        if k > 1 {
            // A fully labelled block goes to label scans only when the
            // exact cost model prefers them over the sharing sweep; a block
            // with any unlabelled lanes runs the sweep for *all* its lanes,
            // because the traversal must run anyway and folding labelled
            // lanes into it is nearly free. Planning up front keeps the
            // stats exact — a batch block-query counts as label-served only
            // if labels actually serve it.
            let (mut label_q, mut mask_q) = (0usize, 0usize);
            for entry in &mut self.plan {
                let (b, labeled, masked) = *entry;
                let use_labels = masked.is_zero()
                    && labeled.any()
                    && labels_beat_shared_masks(
                        shard_block(&self.shards, b as usize)
                            .labels()
                            .batch_label_ops(centers, labeled),
                        n,
                        m,
                        k,
                        W,
                    );
                if use_labels {
                    label_q += 1;
                } else {
                    mask_q += 1;
                    *entry = (b, Mask::ZERO, labeled | masked);
                }
            }
            if self.adaptive {
                self.stats.label_queries += label_q;
                self.stats.mask_queries += mask_q;
            }
        }
        let work = self.block_work() + k * n;
        self.sweep(work, [out], |[counts], bfs, graph, block, labeled, masked| {
            if labeled.any() {
                let labels = block.labels();
                for (j, c) in centers.iter().enumerate() {
                    labels.accumulate_center(c.index(), labeled, &mut counts[j * n..(j + 1) * n]);
                }
            }
            match centers {
                _ if masked.is_zero() => {}
                [center] => bfs.run_unlimited(graph, &block.masks, *center, masked, |node, m| {
                    counts[node.index()] += m.count_ones();
                }),
                _ => bfs.share_components(graph, &block.masks, centers, masked, |j, lanes, bfs| {
                    let row = &mut counts[j * n..(j + 1) * n];
                    for u in bfs.reached() {
                        row[u.index()] += (bfs.reach(u) & lanes).count_ones();
                    }
                }),
            }
        });
    }

    /// A batch of one.
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
        let centers = std::slice::from_ref(&center);
        self.counts_within_depths_batch_range(
            centers, d_select, d_cover, lo, hi, out_select, out_cover,
        );
    }

    /// Per overlapping block, one depth-limited masked BFS per center, lane
    /// masks narrowed to the window's worlds. Centers loop inside the block
    /// loop, so a block's edge masks stay in cache across its centers.
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
        if k == 0 || !self.resolve_range(lo, hi) {
            return;
        }
        self.plan(lo, hi, false);
        let outs = [out_select, out_cover];
        self.sweep(self.block_work() * k, outs, |[select, cover], bfs, graph, block, _, lanes| {
            for (j, &center) in centers.iter().enumerate() {
                let row = j * n..(j + 1) * n;
                let (select, cover) = (&mut select[row.clone()], &mut cover[row]);
                bfs.run(graph, &block.masks, center, lanes, d_cover, |node, depth, m| {
                    let c = m.count_ones();
                    cover[node.index()] += c;
                    if depth <= d_select {
                        select[node.index()] += c;
                    }
                });
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ugraph_graph::{connected_components, Bitset, GraphBuilder, WorldView};

    fn chain(n: u32, p: f64) -> UncertainGraph {
        let mut b = GraphBuilder::new(n as usize);
        for i in 0..n - 1 {
            b.add_edge(i, i + 1, p).unwrap();
        }
        b.build().unwrap()
    }

    /// Component labels of every world the pools over `g` with master
    /// `seed` hold, from the sampler's own draw of each world.
    fn world_labels(g: &UncertainGraph, seed: u64, r: usize) -> Vec<Vec<u32>> {
        let sampler = WorldSampler::new(g, seed);
        (0..r)
            .map(|i| connected_components(&WorldView::new(g, &sampler.sample(i as u64))).0)
            .collect()
    }

    /// Checks every world of `pool` against the components of the
    /// sampler's own draw: one row over `[i, i + 1)` from each component's
    /// smallest node marks exactly that component.
    fn assert_worlds_match<const W: usize>(pool: &mut BitParallelPool<'_, W>, seed: u64) {
        let n = pool.graph().num_nodes();
        let mut row = vec![0u32; n];
        for (i, labels) in world_labels(pool.graph(), seed, pool.num_samples()).iter().enumerate() {
            let mut components = 0;
            for (c, &label) in labels.iter().enumerate() {
                if label != components {
                    continue;
                }
                components += 1;
                pool.counts_from_center_range(NodeId::from_index(c), i, i + 1, &mut row);
                let want: Vec<u32> = labels.iter().map(|&l| u32::from(l == label)).collect();
                assert_eq!(row, want, "world {i}, component of node {c}");
            }
        }
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
        // The stepped adaptive pool reads a row over its last world
        // between growth steps, so its trailing block is labeled, then
        // extended append-only; the one-shot pure-mask pool sweeps masks.
        let g = chain(12, 0.4);
        let mut a = BitParallelPool::<1>::new(&g, 3, 1);
        a.ensure(100);
        let mut b = BitParallelPool::<1>::new_adaptive(&g, 3, 1);
        let mut out = vec![0u32; 12];
        for r in [7, 13, 70, 100] {
            b.ensure(r);
            b.counts_from_center_range(NodeId(0), r - 1, r, &mut out);
        }
        assert_worlds_match(&mut a, 3);
        assert_worlds_match(&mut b, 3);
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
        assert_worlds_match(&mut serial, 5);
        assert_worlds_match(&mut parallel, 5);
    }

    #[test]
    fn membership_index_consistent_with_labels() {
        // Single-world row queries over finalized blocks are served by the
        // block labels' membership index: they must mark exactly the nodes
        // that share the center's component in that world.
        let g = chain(15, 0.5);
        let mut pool = BitParallelPool::<1>::new_adaptive(&g, 9, 1);
        pool.ensure(100);
        assert_worlds_match(&mut pool, 9);
        let stats = pool.engine_stats();
        assert_eq!((stats.finalized_lanes, stats.mask_queries), (100, 0), "{stats:?}");
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
    fn parallel_assignment_counts_match_serial() {
        // 352 single-word blocks clear the parallel gates of the unlimited
        // sweep; each node joins the center at the start of its 8-node run.
        let g = chain(64, 0.55);
        let centers: Vec<NodeId> = (0..8u32).map(|j| NodeId(j * 8)).collect();
        let cluster_of = |u: usize| (u.is_multiple_of(8) || u % 5 != 3).then_some(u / 8);
        for depth in [DEPTH_UNLIMITED, 3] {
            let mut serial = BitParallelPool::<1>::new(&g, 19, 1);
            let mut parallel = BitParallelPool::<1>::new(&g, 19, 4);
            serial.ensure(352 * LANES);
            parallel.ensure(352 * LANES);
            let (mut a, mut b) = (vec![0u32; 64], vec![0u32; 64]);
            serial.assignment_counts(&centers, cluster_of, depth, &mut a);
            parallel.assignment_counts(&centers, cluster_of, depth, &mut b);
            assert_eq!(a, b, "depth {depth}");
            for (u, &c) in a.iter().enumerate() {
                match cluster_of(u) {
                    None => assert_eq!(c, 0, "outlier {u}"),
                    Some(_) if u.is_multiple_of(8) => {
                        assert_eq!(c as usize, 352 * LANES, "center {u}")
                    }
                    Some(_) => {}
                }
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
    fn cold_pair_query_costs_one_row() {
        // A pair is one entry of a row: on a fresh adaptive pool it equals
        // the pure-mask answer, and it labels the blocks of its window and
        // charges their labels exactly as one row over that window does.
        let g = chain(6, 0.5);
        let (u, v, lo, hi) = (NodeId(0), NodeId(4), 10, 150);
        let mut mask = BitParallelPool::<1>::new(&g, 3, 1);
        let mut paired = BitParallelPool::<1>::new_adaptive(&g, 3, 1);
        let mut rowed = BitParallelPool::<1>::new_adaptive(&g, 3, 1);
        for pool in [&mut mask, &mut paired, &mut rowed] {
            pool.ensure(200);
        }
        assert_eq!(paired.pair_count_range(u, v, lo, hi), mask.pair_count_range(u, v, lo, hi));
        rowed.counts_from_center_range(u, lo, hi, &mut [0u32; 6]);
        let s = paired.engine_stats();
        assert_eq!(s, rowed.engine_stats());
        assert_eq!((s.finalized_blocks, s.finalized_lanes, s.label_queries), (3, 192, 3), "{s:?}");
        assert_eq!(s.mask_queries, 0, "{s:?}");
        assert_eq!(paired.memory_stats(), rowed.memory_stats());
        assert!(paired.memory_stats().bytes_held > mask.memory_stats().bytes_held);
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
        // Batched rows spanning finalized and mask blocks agree with the
        // pure-mask pool for windows straddling both kinds. Batches never
        // finalize, so every window sees the same mixed pool.
        let windows = [(0usize, 200usize), (10, 130), (64, 128), (100, 190), (0, 64)];
        let centers: Vec<NodeId> = (0..10).map(NodeId).collect();
        let mut want = vec![0u32; 10 * 10];
        let mut got = vec![0u32; 10 * 10];
        for (lo, hi) in windows {
            mask.counts_from_centers_range(&centers, lo, hi, &mut want);
            pool.counts_from_centers_range(&centers, lo, hi, &mut got);
            assert_eq!(got, want, "batch on [{lo},{hi})");
        }
        assert_eq!(pool.engine_stats().finalized_lanes, 64, "a batch finalized a block");
        // Pair queries agree too; each reads a row, which labels its window.
        for (lo, hi) in windows {
            for (u, v) in [(0u32, 9u32), (3, 7)] {
                assert_eq!(
                    mask.pair_count_range(NodeId(u), NodeId(v), lo, hi),
                    pool.pair_count_range(NodeId(u), NodeId(v), lo, hi),
                    "pair ({u},{v}) on [{lo},{hi})"
                );
            }
        }
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
    fn connected_pairs_regenerate_and_trim_the_ledger() {
        // Under a budget far below one shard, counting connected pairs
        // regenerates the evicted shards it reads, labels no block, and
        // trims the ledger on return; unbounded, it labels and charges
        // every block once. Both count what the per-world labels say.
        let g = chain(6, 0.5);
        let r = SHARD_WORLDS + 100;
        let clusters = [vec![NodeId(0), NodeId(1), NodeId(2)], vec![NodeId(4), NodeId(5)]];
        let cluster_of = [Some(0), Some(0), Some(0), None, Some(1), Some(1)];
        let mut mask = BitParallelPool::<4>::new(&g, 2, 1);
        mask.ensure(r);
        let mut want = (0u64, 0u64);
        for world in world_labels(&g, 2, r) {
            for u in 0..6 {
                for v in u + 1..6 {
                    let (Some(a), Some(b)) = (cluster_of[u], cluster_of[v]) else { continue };
                    if world[u] == world[v] {
                        want.0 += u64::from(a == b);
                        want.1 += 1;
                    }
                }
            }
        }
        let budget = MemoryBudget::bounded(512);
        let mut pool = BitParallelPool::<4>::new_adaptive(&g, 2, 1);
        pool.set_memory_budget(budget.clone());
        pool.ensure(r);
        assert_eq!(pool.connected_pairs(&clusters), want);
        assert!(budget.bytes_held() <= 512, "{} B over the limit", budget.bytes_held());
        assert!(pool.memory_stats().shards_regenerated > 0);
        assert_eq!(pool.engine_stats(), EngineStats::default(), "no block was labelled");
        let mut free = BitParallelPool::<4>::new_adaptive(&g, 2, 1);
        free.ensure(r);
        let masks = free.memory_stats().bytes_held;
        assert_eq!(free.connected_pairs(&clusters), want);
        let (stats, memory) = (free.engine_stats(), free.memory_stats());
        assert_eq!((stats.finalized_blocks, stats.finalized_lanes), (5, r), "{stats:?}");
        assert!(memory.bytes_held > masks, "labels were not charged: {memory:?}");
        assert_eq!(free.connected_pairs(&clusters), want);
        assert_eq!((free.engine_stats(), free.memory_stats()), (stats, memory), "labelled twice");
        assert_eq!(mask.connected_pairs(&clusters), want);
    }

    // ───────────── the labelling rule ─────────────

    /// Runs one full-window row from each of `centers` and returns the
    /// rows, concatenated.
    fn rows<const W: usize>(pool: &mut BitParallelPool<'_, W>, centers: &[u32]) -> Vec<u32> {
        let mut row = vec![0u32; pool.graph().num_nodes()];
        let mut out = Vec::new();
        for &c in centers {
            pool.counts_from_center(NodeId(c), &mut row);
            out.extend_from_slice(&row);
        }
        out
    }

    #[test]
    fn row_sweeps_masks_when_labels_do_not_fit_the_budget() {
        // Three blocks of a 40-node chain hold 3 744 B of masks, and the
        // labelling rule counts 81 156 B for each block's labels: 64 KiB
        // holds the masks, not what the rule counts.
        let g = chain(40, 0.7);
        let mut pool = BitParallelPool::<4>::new_adaptive(&g, 5, 1);
        pool.set_memory_budget(MemoryBudget::bounded(64 << 10));
        pool.ensure(600);
        let mut mask = BitParallelPool::<4>::new(&g, 5, 1);
        mask.ensure(600);
        assert_eq!(rows(&mut pool, &[7]), rows(&mut mask, &[7]));
        let stats = pool.engine_stats();
        let queries = (stats.finalized_lanes, stats.label_queries, stats.mask_queries);
        assert_eq!(queries, (0, 0, 3), "one mask query per block: {stats:?}");
        assert_eq!(rows(&mut pool, &[0, 21, 39]), rows(&mut mask, &[0, 21, 39]));
        assert_eq!(pool.engine_stats().finalized_lanes, 0);
        assert_eq!(pool.memory_stats().shards_evicted, 0, "the masks fit");
    }

    #[test]
    fn row_labels_when_labels_fit_the_budget() {
        let g = chain(40, 0.7);
        let mut pool = BitParallelPool::<4>::new_adaptive(&g, 5, 1);
        pool.set_memory_budget(MemoryBudget::bounded(1 << 20));
        pool.ensure(600);
        let mut free = BitParallelPool::<4>::new_adaptive(&g, 5, 1);
        free.ensure(600);
        let mut mask = BitParallelPool::<4>::new(&g, 5, 1);
        mask.ensure(600);
        let want = rows(&mut mask, &[7, 0, 39]);
        assert_eq!(rows(&mut pool, &[7, 0, 39]), want);
        assert_eq!(rows(&mut free, &[7, 0, 39]), want);
        let stats = pool.engine_stats();
        assert_eq!(stats, free.engine_stats(), "labels as an unbounded pool does");
        assert_eq!((stats.finalized_lanes, stats.label_queries, stats.mask_queries), (600, 9, 0));
        assert_eq!(pool.memory_stats().shards_evicted, 0);
    }

    #[test]
    fn a_labelled_shard_is_evicted_when_a_second_pool_fills_the_ledger() {
        // The first pool labels its one shard. A second pool's growth then
        // fills the shared ledger, so when the first pool grows a shard of
        // masks it must evict its least recently used shard: the labelled
        // one, whose blocks leave the finalized-block gauge.
        let g = chain(40, 0.7);
        let dense = {
            let mut b = GraphBuilder::new(30);
            for u in 0..30 {
                for v in u + 1..30 {
                    b.add_edge(u, v, 0.5).unwrap();
                }
            }
            b.build().unwrap()
        };
        // The first pool's labelled shard, measured on its own ledger.
        let labelled = {
            let mut pool = BitParallelPool::<4>::new_adaptive(&g, 5, 1);
            pool.ensure(SHARD_WORLDS);
            rows(&mut pool, &[3]);
            pool.memory_stats().bytes_held
        };
        let second = 3 * blocks_per_shard::<4>() * dense.num_edges() * 32;
        let budget = MemoryBudget::bounded(labelled + second + 1_000);
        let mut first = BitParallelPool::<4>::new_adaptive(&g, 5, 1);
        first.set_memory_budget(budget.clone());
        first.ensure(SHARD_WORLDS);
        let want = rows(&mut first, &[3]);
        assert_eq!(first.engine_stats().finalized_blocks, 4);
        let mut other = BitParallelPool::<4>::new(&dense, 9, 1);
        other.set_memory_budget(budget.clone());
        other.ensure(3 * SHARD_WORLDS);
        assert_eq!(other.memory_stats().shards_evicted, 0, "the second pool fits beside it");

        first.ensure(2 * SHARD_WORLDS);
        let (memory, stats) = (first.memory_stats(), first.engine_stats());
        assert_eq!(memory.shards_evicted, 1, "{memory:?}");
        assert_eq!(stats.finalized_blocks, 0, "the evicted shard took its labels: {stats:?}");
        assert_eq!(stats.finalized_lanes, SHARD_WORLDS, "lanes ever labelled stand");
        assert!(budget.bytes_held() <= budget.limit().unwrap());
        // The evicted shard regenerates bit-identically on its next read.
        let mut row = vec![0u32; 40];
        first.counts_from_center_range(NodeId(3), 0, SHARD_WORLDS, &mut row);
        assert_eq!(row, want);
        assert_eq!(first.memory_stats().shards_regenerated, 1);
    }
}
