//! Progressive sample pools — the backend implementations of the
//! [`WorldEngine`] seam.
//!
//! The clustering algorithms lower their probability threshold `q`
//! geometrically and re-estimate probabilities at each step (paper §4); the
//! required sample count grows as `q` shrinks. Pools therefore **grow
//! monotonically**: `ensure(r)` tops the pool up to `r` samples, reusing
//! everything drawn before — the progressive sampling strategy of the
//! paper. Because sample `i` is generated from a per-index RNG (see
//! [`crate::rng`]), the pool contents are independent of the growth
//! schedule, of the number of worker threads, **and of the backend**:
//!
//! * [`ComponentPool`] — scalar, unlimited connectivity: each world is
//!   reduced to its connected-component partition at generation time, so
//!   center queries only walk the center's component members;
//! * [`WorldPool`] — scalar, depth-limited: each world is kept as an edge
//!   bitset and queried with one bounded BFS per world;
//! * [`BitParallelPool`] — bit-parallel blocks of `64·W` worlds (`W`
//!   machine words per edge, see [`crate::BlockWidth`]; 256 worlds by
//!   default) as structure-of-arrays edge masks (`masks[e]` spans the
//!   block's worlds), queried with mask-propagating multi-world BFS — one
//!   traversal answers a whole block, for both unlimited and depth-limited
//!   semantics.
//!
//! ## Parallelism
//!
//! Every backend implements the ranged query forms
//! (`counts_from_center_range`, `counts_within_depths_range`,
//! `pair_count*_range`, and their batched variants); the full-pool forms
//! are provided by [`WorldEngine`] as the ranged forms over the whole
//! pool. Generation (`ensure`) and the queries run on rayon, gated by the
//! shared [`crate::tuning`] heuristics. Queries partition their work items
//! (sample rows, worlds, or blocks) into chunks, accumulate per-chunk
//! integer count vectors, and merge them — so every estimate is
//! bit-identical no matter how many threads run, which the property tests
//! assert.

use rayon::prelude::*;

use ugraph_graph::{
    Bitset, DepthBfs, Mask, MultiWorldBfs, NodeId, UncertainGraph, UnionFind, WorldView, LANES,
    MAX_SOURCES,
};

use crate::budget::{MemoryBudget, MemoryStats};
use crate::engine::{EngineStats, WorldEngine, DEPTH_UNLIMITED};
use crate::error::SamplingPhase;
use crate::faults::{self, FaultSite};
use crate::interrupt::RunState;
use crate::tuning::{
    chunked_counts, chunked_counts2_with, chunked_counts_with, chunked_sum_with,
    finalize_on_unlimited_query, ThreadConfig,
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
/// granularity shared by all backends so they report memory uniformly.
pub const SHARD_WORLDS: usize = SHARD_BLOCKS * LANES;

/// Blocks per shard at block width `W` words (64·W worlds per block):
/// 16 for width 64, 4 for width 256, 2 for width 512 — always the same
/// [`SHARD_WORLDS`] worlds per shard.
#[inline]
const fn blocks_per_shard<const W: usize>() -> usize {
    SHARD_WORLDS / (W * LANES)
}

/// Residency metadata of one shard of a **scalar** pool (the shard's
/// samples live in the pool's flat storage; evicted samples are replaced
/// by empty placeholders so indices stay stable).
#[derive(Clone, Debug, Default)]
struct ShardMeta {
    /// Heap bytes currently charged to the budget for this shard.
    bytes: usize,
    /// Recency stamp from [`MemoryBudget::touch`].
    last_used: u64,
    /// Whether the shard's samples are materialized.
    resident: bool,
}

/// Index of the least-recently-used resident shard, by `(stamp, index)` —
/// the deterministic victim order of the eviction loop.
fn lru_victim<T>(
    shards: &[T],
    resident: impl Fn(&T) -> bool,
    stamp: impl Fn(&T) -> u64,
) -> Option<usize> {
    shards
        .iter()
        .enumerate()
        .filter(|(_, sh)| resident(sh))
        .min_by_key(|&(s, sh)| (stamp(sh), s))
        .map(|(s, _)| s)
}

/// The shard indices covering sample range `[lo, hi)`.
#[inline]
fn shard_span(lo: usize, hi: usize) -> std::ops::RangeInclusive<usize> {
    debug_assert!(lo < hi);
    lo / SHARD_WORLDS..=(hi - 1) / SHARD_WORLDS
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

/// One sampled world reduced to its connected-component partition, at a
/// fixed label width `L`.
///
/// Stores the canonical label per node plus a *membership index* (nodes
/// sorted by label with bucket offsets), so all members of a given
/// component can be enumerated in time proportional to the component size.
#[derive(Clone, Debug)]
struct RowData<L> {
    /// Canonical component label per node.
    labels: Vec<L>,
    /// Node indices grouped by label.
    order: Vec<L>,
    /// `starts[c]..starts[c+1]` delimits component `c` in `order`.
    starts: Vec<u32>,
}

impl<L: Label> RowData<L> {
    fn build(labels: &[u32], num_components: usize) -> Self {
        let n = labels.len();
        let mut starts = vec![0u32; num_components + 1];
        for &l in labels {
            starts[l as usize + 1] += 1;
        }
        for c in 0..num_components {
            starts[c + 1] += starts[c];
        }
        let mut cursor = starts.clone();
        let mut order = vec![L::from_u32(0); n];
        for (node, &l) in labels.iter().enumerate() {
            let slot = cursor[l as usize] as usize;
            order[slot] = L::from_u32(node as u32);
            cursor[l as usize] += 1;
        }
        let labels = labels.iter().map(|&l| L::from_u32(l)).collect();
        RowData { labels, order, starts }
    }

    #[inline]
    fn members(&self, label: usize) -> &[L] {
        let lo = self.starts[label] as usize;
        let hi = self.starts[label + 1] as usize;
        &self.order[lo..hi]
    }

    /// Increments `counts[u]` for every member `u` of `center`'s component.
    #[inline]
    fn accumulate_center(&self, center: usize, counts: &mut [u32]) {
        for &u in self.members(self.labels[center].index()) {
            counts[u.index()] += 1;
        }
    }
}

/// [`RowData`] at the width picked for the pool's node count — the
/// narrow/wide dispatch point of the scalar backend.
#[derive(Clone, Debug)]
enum SampleRow {
    Narrow(RowData<u16>),
    Wide(RowData<u32>),
}

impl SampleRow {
    fn build(labels: &[u32], num_components: usize, wide: bool) -> Self {
        if wide {
            SampleRow::Wide(RowData::build(labels, num_components))
        } else {
            SampleRow::Narrow(RowData::build(labels, num_components))
        }
    }

    #[inline]
    fn accumulate_center(&self, center: usize, counts: &mut [u32]) {
        match self {
            SampleRow::Narrow(r) => r.accumulate_center(center, counts),
            SampleRow::Wide(r) => r.accumulate_center(center, counts),
        }
    }

    #[inline]
    fn connected(&self, u: usize, v: usize) -> bool {
        match self {
            SampleRow::Narrow(r) => r.labels[u] == r.labels[v],
            SampleRow::Wide(r) => r.labels[u] == r.labels[v],
        }
    }

    fn labels_into(&self, out: &mut [u32]) {
        match self {
            SampleRow::Narrow(r) => {
                for (o, &l) in out.iter_mut().zip(&r.labels) {
                    *o = u32::from(l);
                }
            }
            SampleRow::Wide(r) => out.copy_from_slice(&r.labels),
        }
    }

    fn members_u32(&self, label: u32) -> Vec<u32> {
        match self {
            SampleRow::Narrow(r) => {
                r.members(label as usize).iter().map(|&u| u32::from(u)).collect()
            }
            SampleRow::Wide(r) => r.members(label as usize).to_vec(),
        }
    }

    fn component_count(&self) -> usize {
        match self {
            SampleRow::Narrow(r) => r.starts.len() - 1,
            SampleRow::Wide(r) => r.starts.len() - 1,
        }
    }

    /// The empty placeholder standing in for an evicted row (indices stay
    /// stable; the shard regenerates as a whole on first touch).
    fn placeholder(wide: bool) -> Self {
        SampleRow::build(&[], 0, wide)
    }

    /// Heap bytes of this row — the unit of shard accounting.
    fn heap_bytes(&self) -> usize {
        match self {
            SampleRow::Narrow(r) => (r.labels.len() + r.order.len()) * 2 + r.starts.len() * 4,
            SampleRow::Wide(r) => (r.labels.len() + r.order.len() + r.starts.len()) * 4,
        }
    }
}

/// Pool of per-sample connected-component partitions, for **unlimited**
/// connection probabilities (the scalar backend of [`WorldEngine`]).
#[derive(Debug)]
pub struct ComponentPool<'g> {
    sampler: WorldSampler<'g>,
    rows: Vec<SampleRow>,
    config: ThreadConfig,
    /// `true` = `u32` labels; picked from the node count at construction
    /// (see [`Label`]), overridable for width-equivalence tests.
    wide: bool,
    /// Per-[`SHARD_WORLDS`]-rows residency/accounting metadata.
    shards: Vec<ShardMeta>,
    /// Shared byte ledger governing eviction (unbounded by default).
    budget: MemoryBudget,
    /// Shards evicted / regenerated by this pool (cumulative).
    evicted: u64,
    regenerated: u64,
    /// Per-solve interruption state, polled at shard boundaries
    /// (unarmed by default — see [`RunState`]).
    run: RunState,
}

impl Clone for ComponentPool<'_> {
    fn clone(&self) -> Self {
        // The clone shares the budget handle, so its copy of the resident
        // rows is charged to the ledger like any other pool's.
        self.budget.charge(self.shards.iter().map(|m| m.bytes).sum());
        ComponentPool {
            sampler: self.sampler,
            rows: self.rows.clone(),
            config: self.config.clone(),
            wide: self.wide,
            shards: self.shards.clone(),
            budget: self.budget.clone(),
            evicted: self.evicted,
            regenerated: self.regenerated,
            run: self.run.clone(),
        }
    }
}

impl Drop for ComponentPool<'_> {
    fn drop(&mut self) {
        self.budget.release(self.shards.iter().map(|m| m.bytes).sum());
    }
}

impl<'g> ComponentPool<'g> {
    /// Creates an empty pool over `graph` with master `seed`. `threads = 0`
    /// uses all available cores.
    pub fn new(graph: &'g UncertainGraph, seed: u64, threads: usize) -> Self {
        ComponentPool {
            sampler: WorldSampler::new(graph, seed),
            rows: Vec::new(),
            config: ThreadConfig::new(threads),
            wide: !narrow_fits(graph.num_nodes()),
            shards: Vec::new(),
            budget: MemoryBudget::unbounded(),
            evicted: 0,
            regenerated: 0,
            run: RunState::unlimited(),
        }
    }

    /// Binds the pool to a (possibly shared) memory budget: the resident
    /// bytes move to the new ledger and the pool immediately sheds
    /// least-recently-used shards if the new ledger is over its limit.
    pub fn set_memory_budget(&mut self, budget: MemoryBudget) {
        let held: usize = self.shards.iter().map(|m| m.bytes).sum();
        self.budget.release(held);
        budget.charge(held);
        self.budget = budget;
        self.trim_to_budget();
    }

    /// Attaches the per-solve interruption state; see
    /// [`WorldEngine::set_run_state`].
    pub fn set_run_state(&mut self, run: RunState) {
        self.run = run;
    }

    /// Resident bytes, the budget limit, and this pool's cumulative shard
    /// eviction/regeneration counters.
    pub fn memory_stats(&self) -> MemoryStats {
        MemoryStats {
            bytes_held: self.shards.iter().map(|m| m.bytes).sum(),
            bytes_limit: self.budget.limit(),
            shards_evicted: self.evicted,
            shards_regenerated: self.regenerated,
        }
    }

    /// Re-derives shard `s`'s byte charge from its rows and settles the
    /// difference with the ledger.
    fn sync_shard_bytes(&mut self, s: usize) {
        let lo = s * SHARD_WORLDS;
        let hi = ((s + 1) * SHARD_WORLDS).min(self.rows.len());
        let now: usize = self.rows[lo..hi].iter().map(SampleRow::heap_bytes).sum();
        let meta = &mut self.shards[s];
        if now >= meta.bytes {
            self.budget.charge(now - meta.bytes);
        } else {
            self.budget.release(meta.bytes - now);
        }
        meta.bytes = now;
    }

    /// The resolve-or-regenerate accessor of every aggregate query path:
    /// stamps the shards covering sample range `[lo, hi)` as recently used
    /// and regenerates any evicted one from its per-index RNG streams —
    /// bit-identical to the originally sampled rows. Doubles as the
    /// query-path cooperative checkpoint and the [`FaultSite::ShardRegen`]
    /// failpoint: returns `false` (recording the error on the
    /// [`RunState`]) if the query should be abandoned, in which case no
    /// shard has been touched beyond its recency stamp and the caller
    /// must not read the rows.
    #[must_use]
    fn resolve_range(&mut self, lo: usize, hi: usize) -> bool {
        if lo >= hi {
            return true;
        }
        if self.run.checkpoint(SamplingPhase::Sweep) {
            return false;
        }
        for s in shard_span(lo, hi) {
            self.shards[s].last_used = self.budget.touch();
            if !self.shards[s].resident {
                if let Err(e) = faults::hit(FaultSite::ShardRegen) {
                    self.run.record(e);
                    return false;
                }
                self.regenerate_shard(s);
            }
        }
        true
    }

    /// Infallible single-sample resolve of the per-sample accessors
    /// (`labels*`, `component_*`): these back evaluation paths that run
    /// outside any solve, so they are neither checkpoints nor failpoints.
    fn resolve_point(&mut self, i: usize) {
        let s = i / SHARD_WORLDS;
        self.shards[s].last_used = self.budget.touch();
        if !self.shards[s].resident {
            self.regenerate_shard(s);
        }
    }

    fn regenerate_shard(&mut self, s: usize) {
        let n = self.graph().num_nodes();
        let sampler = self.sampler;
        let wide = self.wide;
        let lo = s * SHARD_WORLDS;
        let hi = ((s + 1) * SHARD_WORLDS).min(self.rows.len());
        if self.config.parallel_generation(hi - lo) {
            let rows: Vec<SampleRow> = self.config.run(|| {
                (lo as u64..hi as u64)
                    .into_par_iter()
                    .map_init(
                        || (UnionFind::new(n), vec![0u32; n]),
                        |(uf, labels), i| {
                            let comps = sampler.sample_components(i, uf, labels);
                            SampleRow::build(labels, comps, wide)
                        },
                    )
                    .collect()
            });
            for (i, row) in rows.into_iter().enumerate() {
                self.rows[lo + i] = row;
            }
        } else {
            let mut uf = UnionFind::new(n);
            let mut labels = vec![0u32; n];
            for i in lo..hi {
                let comps = sampler.sample_components(i as u64, &mut uf, &mut labels);
                self.rows[i] = SampleRow::build(&labels, comps, wide);
            }
        }
        self.shards[s].resident = true;
        self.regenerated += 1;
        self.budget.note_regeneration();
        self.sync_shard_bytes(s);
    }

    fn evict_shard(&mut self, s: usize) {
        let lo = s * SHARD_WORLDS;
        let hi = ((s + 1) * SHARD_WORLDS).min(self.rows.len());
        for row in &mut self.rows[lo..hi] {
            *row = SampleRow::placeholder(self.wide);
        }
        self.shards[s].resident = false;
        self.evicted += 1;
        self.budget.note_eviction();
        self.sync_shard_bytes(s);
    }

    /// Evicts least-recently-used shards until the shared ledger fits its
    /// limit (or this pool has nothing left to shed) — the epilogue of
    /// `ensure` and of every aggregate query.
    fn trim_to_budget(&mut self) {
        while self.budget.over_budget() {
            match lru_victim(&self.shards, |m| m.resident, |m| m.last_used) {
                Some(s) => self.evict_shard(s),
                None => break,
            }
        }
    }

    /// Forces the wide (`u32`) label path even on small graphs. Counts are
    /// identical either way; the property tests use this to exercise the
    /// wide path without 65k-node instances.
    ///
    /// # Panics
    /// Panics if the pool already holds samples (rows are stored at a
    /// single width).
    #[doc(hidden)]
    pub fn with_wide_labels(mut self, wide: bool) -> Self {
        assert!(self.rows.is_empty(), "label width is fixed once samples exist");
        self.wide = wide || !narrow_fits(self.graph().num_nodes());
        self
    }

    /// The underlying graph.
    pub fn graph(&self) -> &'g UncertainGraph {
        self.sampler.graph()
    }

    /// Number of samples currently in the pool.
    pub fn num_samples(&self) -> usize {
        self.rows.len()
    }

    /// Grows the pool to at least `r` samples (no-op if already there).
    ///
    /// Samples are drawn in parallel; sample `i` always comes from RNG
    /// stream `i`, so the result is independent of the thread count.
    pub fn ensure(&mut self, r: usize) {
        let cur = self.rows.len();
        if r <= cur {
            return;
        }
        let n = self.graph().num_nodes();
        let sampler = self.sampler;
        let wide = self.wide;
        // Rows landing in a currently evicted trailing shard are appended
        // as placeholders — that shard regenerates as a whole on its next
        // touch, filling them from their RNG streams.
        let mut from = cur;
        if let Some(meta) = self.shards.last() {
            if !meta.resident {
                let end = (self.shards.len() * SHARD_WORLDS).min(r);
                self.rows.extend((cur..end).map(|_| SampleRow::placeholder(wide)));
                from = end;
                let s = self.shards.len() - 1;
                self.shards[s].last_used = self.budget.touch();
                self.sync_shard_bytes(s);
            }
        }
        // Grow shard by shard: each chunk is generated, appended, and
        // accounted as a unit, with a cooperative checkpoint (and the
        // `PoolGrow` failpoint) between chunks — an interrupted `ensure`
        // leaves a consistent, smaller pool that a re-issued request tops
        // up bit-identically.
        while from < r {
            if self.run.checkpoint(SamplingPhase::Generation) {
                break;
            }
            if let Err(e) = faults::hit(FaultSite::PoolGrow) {
                self.run.record(e);
                break;
            }
            let hi = ((from / SHARD_WORLDS + 1) * SHARD_WORLDS).min(r);
            if !self.config.parallel_generation(hi - from) {
                let mut uf = UnionFind::new(n);
                let mut labels = vec![0u32; n];
                for i in from as u64..hi as u64 {
                    let comps = sampler.sample_components(i, &mut uf, &mut labels);
                    self.rows.push(SampleRow::build(&labels, comps, wide));
                }
            } else {
                let new_rows: Vec<SampleRow> = self.config.run(|| {
                    (from as u64..hi as u64)
                        .into_par_iter()
                        .map_init(
                            || (UnionFind::new(n), vec![0u32; n]),
                            |(uf, labels), i| {
                                let comps = sampler.sample_components(i, uf, labels);
                                SampleRow::build(labels, comps, wide)
                            },
                        )
                        .collect()
                });
                self.rows.extend(new_rows);
            }
            // Account the finished chunk's shard, then move on.
            let s = from / SHARD_WORLDS;
            if s == self.shards.len() {
                self.shards.push(ShardMeta { bytes: 0, last_used: 0, resident: true });
            }
            self.shards[s].last_used = self.budget.touch();
            self.sync_shard_bytes(s);
            from = hi;
        }
        self.trim_to_budget();
    }

    /// Component labels of sample `i` (one per node), widened to `u32`.
    /// Regenerates `i`'s shard if it was evicted (these per-sample
    /// accessors resolve but do not trim — callers iterating the pool keep
    /// it resident; the next aggregate query or `ensure` settles the
    /// ledger).
    pub fn labels(&mut self, i: usize) -> Vec<u32> {
        let mut out = vec![0u32; self.graph().num_nodes()];
        self.labels_into(i, &mut out);
        out
    }

    /// Writes the component labels of sample `i` into `out` (the
    /// allocation-free form of [`ComponentPool::labels`]).
    ///
    /// # Panics
    /// Panics if `out.len() != n`.
    pub fn labels_into(&mut self, i: usize, out: &mut [u32]) {
        assert_eq!(out.len(), self.graph().num_nodes(), "labels buffer has wrong length");
        self.resolve_point(i);
        self.rows[i].labels_into(out);
    }

    /// Members of the component with `label` in sample `i`.
    pub fn component_members(&mut self, i: usize, label: u32) -> Vec<u32> {
        self.resolve_point(i);
        self.rows[i].members_u32(label)
    }

    /// Number of components in sample `i`.
    pub fn component_count(&mut self, i: usize) -> usize {
        self.resolve_point(i);
        self.rows[i].component_count()
    }

    /// The kernel of the center-count queries, over rows already resolved
    /// by the caller.
    fn counts_center_resident(&self, center: NodeId, lo: usize, hi: usize, out: &mut [u32]) {
        let n = self.graph().num_nodes();
        let run = &self.run;
        let accumulate = |counts: &mut [u32], (): &mut (), rows: &[SampleRow]| {
            for row in rows {
                // Cooperative per-row checkpoint (one relaxed load): once
                // the run trips, remaining rows are skipped and the
                // partial counts are discarded by the fallible caller.
                if run.checkpoint(SamplingPhase::Sweep) {
                    return;
                }
                row.accumulate_center(center.index(), counts);
            }
        };
        chunked_counts(&self.config, &self.rows[lo..hi], n, n, accumulate, out);
    }

    /// Batched [`ComponentPool::counts_from_center_range`]: one count row
    /// per requested center over the sample window `[lo, hi)`, row-major
    /// in `out` (`out[j * n + u]`).
    ///
    /// Implemented as a per-center loop: the membership index already makes
    /// a single-center sweep proportional to the center's component sizes,
    /// and keeping each pass focused on one `n`-sized output row is faster
    /// than a transposed one-pass sweep that scatters writes across all
    /// `k` rows (measured on the Krogan-like instance). The batch entry
    /// point still matters for the seam: other backends amortize real work
    /// here, and callers stay backend-agnostic.
    ///
    /// # Panics
    /// Panics if `out.len() != centers.len() * n`, `lo > hi`, or
    /// `hi > num_samples()`.
    pub fn counts_from_centers_range(
        &mut self,
        centers: &[NodeId],
        lo: usize,
        hi: usize,
        out: &mut [u32],
    ) {
        let n = self.graph().num_nodes();
        let k = centers.len();
        assert_eq!(out.len(), k * n, "batch counts buffer has wrong length");
        assert!(lo <= hi && hi <= self.rows.len(), "invalid sample range [{lo}, {hi})");
        if !self.resolve_range(lo, hi) {
            return;
        }
        for (j, &c) in centers.iter().enumerate() {
            self.counts_center_resident(c, lo, hi, &mut out[j * n..(j + 1) * n]);
        }
        self.trim_to_budget();
    }

    /// For every node `u`, the number of samples with index in `[lo, hi)`
    /// in which `u` lies in the same component as `center` — counts over
    /// disjoint ranges add up exactly.
    ///
    /// Runs in `Σ_i |comp_i(center)|` — only the center's component members
    /// are touched per sample, which on sparse sampled worlds is far below
    /// `n·r`. Sample rows are processed in parallel chunks; integer count
    /// merging keeps the result independent of the chunking.
    ///
    /// # Panics
    /// Panics if `out.len() != n`, `lo > hi`, or `hi > num_samples()`.
    pub fn counts_from_center_range(
        &mut self,
        center: NodeId,
        lo: usize,
        hi: usize,
        out: &mut [u32],
    ) {
        let n = self.graph().num_nodes();
        assert_eq!(out.len(), n, "counts buffer has wrong length");
        assert!(lo <= hi && hi <= self.rows.len(), "invalid sample range [{lo}, {hi})");
        if !self.resolve_range(lo, hi) {
            return;
        }
        self.counts_center_resident(center, lo, hi, out);
        self.trim_to_budget();
    }

    /// Number of samples with index in `[lo, hi)` where `u` and `v` are
    /// connected — one label comparison per in-window sample.
    ///
    /// # Panics
    /// Panics if `lo > hi` or `hi > num_samples()`.
    pub fn pair_count_range(&mut self, u: NodeId, v: NodeId, lo: usize, hi: usize) -> usize {
        assert!(lo <= hi && hi <= self.rows.len(), "invalid sample range [{lo}, {hi})");
        if !self.resolve_range(lo, hi) {
            return 0;
        }
        let total = chunked_sum_with(
            &self.config,
            &self.rows[lo..hi],
            1,
            &mut (),
            || (),
            |(), row| usize::from(row.connected(u.index(), v.index())),
        );
        self.trim_to_budget();
        total
    }
}

impl WorldEngine for ComponentPool<'_> {
    fn set_memory_budget(&mut self, budget: MemoryBudget) {
        ComponentPool::set_memory_budget(self, budget)
    }

    fn set_run_state(&mut self, run: RunState) {
        ComponentPool::set_run_state(self, run)
    }

    fn memory_stats(&self) -> MemoryStats {
        ComponentPool::memory_stats(self)
    }

    fn graph(&self) -> &UncertainGraph {
        ComponentPool::graph(self)
    }

    fn supports_finite_depths(&self) -> bool {
        false
    }

    fn num_samples(&self) -> usize {
        ComponentPool::num_samples(self)
    }

    fn ensure(&mut self, r: usize) {
        ComponentPool::ensure(self, r)
    }

    fn counts_from_center_range(&mut self, center: NodeId, lo: usize, hi: usize, out: &mut [u32]) {
        ComponentPool::counts_from_center_range(self, center, lo, hi, out)
    }

    fn counts_from_centers_range(
        &mut self,
        centers: &[NodeId],
        lo: usize,
        hi: usize,
        out: &mut [u32],
    ) {
        ComponentPool::counts_from_centers_range(self, centers, lo, hi, out)
    }

    fn pair_count_range(&mut self, u: NodeId, v: NodeId, lo: usize, hi: usize) -> usize {
        ComponentPool::pair_count_range(self, u, v, lo, hi)
    }

    /// # Panics
    /// Panics if `depth` is finite (see
    /// [`counts_within_depths_range`](WorldEngine::counts_within_depths_range)).
    fn pair_count_within_range(
        &mut self,
        u: NodeId,
        v: NodeId,
        depth: u32,
        lo: usize,
        hi: usize,
    ) -> usize {
        assert!(
            depth == DEPTH_UNLIMITED,
            "ComponentPool answers unlimited-depth queries only; use WorldPool or \
             BitParallelPool for finite depths"
        );
        ComponentPool::pair_count_range(self, u, v, lo, hi)
    }

    /// Component labels carry no distance information, so this scalar
    /// backend only answers [`DEPTH_UNLIMITED`] depths.
    ///
    /// # Panics
    /// Panics if either depth is finite.
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
        assert!(
            d_select == DEPTH_UNLIMITED && d_cover == DEPTH_UNLIMITED,
            "ComponentPool answers unlimited-depth queries only; use WorldPool or \
             BitParallelPool for finite depths"
        );
        ComponentPool::counts_from_center_range(self, center, lo, hi, out_cover);
        out_select.copy_from_slice(out_cover);
    }

    /// # Panics
    /// Panics if either depth is finite (see
    /// [`counts_within_depths_range`](WorldEngine::counts_within_depths_range)).
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
        assert!(
            d_select == DEPTH_UNLIMITED && d_cover == DEPTH_UNLIMITED,
            "ComponentPool answers unlimited-depth queries only; use WorldPool or \
             BitParallelPool for finite depths"
        );
        ComponentPool::counts_from_centers_range(self, centers, lo, hi, out_cover);
        out_select.copy_from_slice(out_cover);
    }
}

/// Pool of per-sample edge bitsets, for **depth-limited** d-connection
/// probabilities (paper §3.4) — the scalar depth-capable backend of
/// [`WorldEngine`], one bounded BFS per world per query.
#[derive(Debug)]
pub struct WorldPool<'g> {
    sampler: WorldSampler<'g>,
    worlds: Vec<Bitset>,
    config: ThreadConfig,
    /// Reusable bounded-BFS workspace for serial query paths; parallel
    /// chunks build their own.
    bfs: DepthBfs,
    /// Per-[`SHARD_WORLDS`]-worlds residency/accounting metadata.
    shards: Vec<ShardMeta>,
    /// Shared byte ledger governing eviction (unbounded by default).
    budget: MemoryBudget,
    /// Shards evicted / regenerated by this pool (cumulative).
    evicted: u64,
    regenerated: u64,
    /// Per-solve interruption state, polled at shard/world boundaries
    /// (unarmed by default — see [`RunState`]).
    run: RunState,
}

impl Clone for WorldPool<'_> {
    fn clone(&self) -> Self {
        // The clone shares the budget handle, so its copy of the resident
        // worlds is charged to the ledger like any other pool's.
        self.budget.charge(self.shards.iter().map(|m| m.bytes).sum());
        WorldPool {
            sampler: self.sampler,
            worlds: self.worlds.clone(),
            config: self.config.clone(),
            bfs: self.bfs.clone(),
            shards: self.shards.clone(),
            budget: self.budget.clone(),
            evicted: self.evicted,
            regenerated: self.regenerated,
            run: self.run.clone(),
        }
    }
}

impl Drop for WorldPool<'_> {
    fn drop(&mut self) {
        self.budget.release(self.shards.iter().map(|m| m.bytes).sum());
    }
}

impl<'g> WorldPool<'g> {
    /// Creates an empty world pool over `graph` with master `seed`.
    /// `threads = 0` uses all available cores.
    pub fn new(graph: &'g UncertainGraph, seed: u64, threads: usize) -> Self {
        WorldPool {
            sampler: WorldSampler::new(graph, seed),
            worlds: Vec::new(),
            config: ThreadConfig::new(threads),
            bfs: DepthBfs::new(graph.num_nodes()),
            shards: Vec::new(),
            budget: MemoryBudget::unbounded(),
            evicted: 0,
            regenerated: 0,
            run: RunState::unlimited(),
        }
    }

    /// Binds the pool to a (possibly shared) memory budget: the resident
    /// bytes move to the new ledger and the pool immediately sheds
    /// least-recently-used shards if the new ledger is over its limit.
    pub fn set_memory_budget(&mut self, budget: MemoryBudget) {
        let held: usize = self.shards.iter().map(|m| m.bytes).sum();
        self.budget.release(held);
        budget.charge(held);
        self.budget = budget;
        self.trim_to_budget();
    }

    /// Resident bytes, the budget limit, and this pool's cumulative shard
    /// eviction/regeneration counters.
    pub fn memory_stats(&self) -> MemoryStats {
        MemoryStats {
            bytes_held: self.shards.iter().map(|m| m.bytes).sum(),
            bytes_limit: self.budget.limit(),
            shards_evicted: self.evicted,
            shards_regenerated: self.regenerated,
        }
    }

    /// Attaches the per-solve interruption state; see
    /// [`WorldEngine::set_run_state`].
    pub fn set_run_state(&mut self, run: RunState) {
        self.run = run;
    }

    /// Re-derives shard `s`'s byte charge from its world bitsets and
    /// settles the difference with the ledger.
    fn sync_shard_bytes(&mut self, s: usize) {
        let lo = s * SHARD_WORLDS;
        let hi = ((s + 1) * SHARD_WORLDS).min(self.worlds.len());
        let now: usize = self.worlds[lo..hi].iter().map(|w| w.blocks().len() * 8).sum();
        let meta = &mut self.shards[s];
        if now >= meta.bytes {
            self.budget.charge(now - meta.bytes);
        } else {
            self.budget.release(meta.bytes - now);
        }
        meta.bytes = now;
    }

    /// The resolve-or-regenerate accessor of every aggregate query path:
    /// stamps the shards covering world range `[lo, hi)` as recently used
    /// and regenerates any evicted one from its per-index RNG streams —
    /// bit-identical to the originally sampled worlds.
    ///
    /// Doubles as the query-entry cooperative checkpoint: returns `false`
    /// (without touching any world data) when the attached [`RunState`]
    /// has tripped, or records the error and returns `false` when the
    /// [`FaultSite::ShardRegen`] failpoint fires. The failpoint fires
    /// *before* regeneration mutates anything, so a shard is always either
    /// fully regenerated or untouched.
    #[must_use]
    fn resolve_range(&mut self, lo: usize, hi: usize) -> bool {
        if lo >= hi {
            return true;
        }
        if self.run.checkpoint(SamplingPhase::Sweep) {
            return false;
        }
        for s in shard_span(lo, hi) {
            self.shards[s].last_used = self.budget.touch();
            if !self.shards[s].resident {
                if let Err(e) = faults::hit(FaultSite::ShardRegen) {
                    self.run.record(e);
                    return false;
                }
                self.regenerate_shard(s);
            }
        }
        true
    }

    /// Infallible single-world resolve for per-sample accessors: touches
    /// and (if evicted) regenerates world `i`'s shard with no checkpoint
    /// and no failpoint, so evaluation paths that walk the pool world by
    /// world cannot be broken by an armed fault plan or a tripped run
    /// state.
    fn resolve_point(&mut self, i: usize) {
        let s = i / SHARD_WORLDS;
        self.shards[s].last_used = self.budget.touch();
        if !self.shards[s].resident {
            self.regenerate_shard(s);
        }
    }

    fn regenerate_shard(&mut self, s: usize) {
        let m = self.graph().num_edges();
        let sampler = self.sampler;
        let lo = s * SHARD_WORLDS;
        let hi = ((s + 1) * SHARD_WORLDS).min(self.worlds.len());
        let draw = move |i: u64| {
            let mut world = Bitset::with_len(m);
            sampler
                .sample_into(i, &mut world)
                .unwrap_or_else(|e| unreachable!("pool-sized bitset cannot mismatch: {e}"));
            world
        };
        if self.config.parallel_generation(hi - lo) {
            let worlds: Vec<Bitset> =
                self.config.run(|| (lo as u64..hi as u64).into_par_iter().map(draw).collect());
            for (i, world) in worlds.into_iter().enumerate() {
                self.worlds[lo + i] = world;
            }
        } else {
            for i in lo..hi {
                self.worlds[i] = draw(i as u64);
            }
        }
        self.shards[s].resident = true;
        self.regenerated += 1;
        self.budget.note_regeneration();
        self.sync_shard_bytes(s);
    }

    fn evict_shard(&mut self, s: usize) {
        let lo = s * SHARD_WORLDS;
        let hi = ((s + 1) * SHARD_WORLDS).min(self.worlds.len());
        for world in &mut self.worlds[lo..hi] {
            *world = Bitset::with_len(0);
        }
        self.shards[s].resident = false;
        self.evicted += 1;
        self.budget.note_eviction();
        self.sync_shard_bytes(s);
    }

    /// Evicts least-recently-used shards until the shared ledger fits its
    /// limit (or this pool has nothing left to shed) — the epilogue of
    /// `ensure` and of every aggregate query.
    fn trim_to_budget(&mut self) {
        while self.budget.over_budget() {
            match lru_victim(&self.shards, |m| m.resident, |m| m.last_used) {
                Some(s) => self.evict_shard(s),
                None => break,
            }
        }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &'g UncertainGraph {
        self.sampler.graph()
    }

    /// Number of sampled worlds.
    pub fn num_samples(&self) -> usize {
        self.worlds.len()
    }

    /// Grows the pool to at least `r` worlds, sampling in parallel (world
    /// `i` always comes from RNG stream `i`).
    pub fn ensure(&mut self, r: usize) {
        let cur = self.worlds.len();
        if r <= cur {
            return;
        }
        let m = self.graph().num_edges();
        let sampler = self.sampler;
        let draw = move |i: u64| {
            let mut world = Bitset::with_len(m);
            sampler
                .sample_into(i, &mut world)
                .unwrap_or_else(|e| unreachable!("pool-sized bitset cannot mismatch: {e}"));
            world
        };
        // Worlds landing in a currently evicted trailing shard are
        // appended as empty placeholders — that shard regenerates as a
        // whole on its next touch.
        let mut from = cur;
        if let Some(meta) = self.shards.last() {
            if !meta.resident {
                let end = (self.shards.len() * SHARD_WORLDS).min(r);
                self.worlds.extend((cur..end).map(|_| Bitset::with_len(0)));
                from = end;
                let s = self.shards.len() - 1;
                self.shards[s].last_used = self.budget.touch();
                self.sync_shard_bytes(s);
            }
        }
        // Grow shard by shard so interruption latency is bounded by one
        // shard of sampling; each chunk is fully generated and charged
        // before the next checkpoint, so a break leaves the pool smaller
        // but consistent.
        while from < r {
            if self.run.checkpoint(SamplingPhase::Generation) {
                break;
            }
            if let Err(e) = faults::hit(FaultSite::PoolGrow) {
                self.run.record(e);
                break;
            }
            let hi = ((from / SHARD_WORLDS + 1) * SHARD_WORLDS).min(r);
            if !self.config.parallel_generation(hi - from) {
                self.worlds.extend((from as u64..hi as u64).map(draw));
            } else {
                let new_worlds: Vec<Bitset> = self
                    .config
                    .run(|| (from as u64..hi as u64).into_par_iter().map(draw).collect());
                self.worlds.extend(new_worlds);
            }
            let s = from / SHARD_WORLDS;
            if s == self.shards.len() {
                self.shards.push(ShardMeta { bytes: 0, last_used: 0, resident: true });
            }
            self.shards[s].last_used = self.budget.touch();
            self.sync_shard_bytes(s);
            from = hi;
        }
        self.trim_to_budget();
    }

    /// The edge bitset of world `i`. Regenerates `i`'s shard if it was
    /// evicted (this per-sample accessor resolves but does not trim —
    /// callers iterating the pool keep it resident; the next aggregate
    /// query or `ensure` settles the ledger).
    pub fn world(&mut self, i: usize) -> &Bitset {
        self.resolve_point(i);
        &self.worlds[i]
    }

    /// Depth-limited connection counts from `center` over the worlds with
    /// index in `[lo, hi)` — counts over disjoint ranges add up exactly.
    ///
    /// For every node `u`, after the call:
    /// * `out_select[u]` = #worlds with `dist(center, u) ≤ d_select`,
    /// * `out_cover[u]`  = #worlds with `dist(center, u) ≤ d_cover`.
    ///
    /// Requires `d_select ≤ d_cover` (one bounded BFS per world covers
    /// both).
    ///
    /// # Panics
    /// Panics on buffer-size mismatch, `d_select > d_cover`, `lo > hi`, or
    /// `hi > num_samples()`.
    #[allow(clippy::too_many_arguments)]
    pub fn counts_within_depths_range(
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
        assert!(lo <= hi && hi <= self.worlds.len(), "invalid sample range [{lo}, {hi})");
        if !self.resolve_range(lo, hi) {
            return;
        }
        let run = self.run.clone();
        let WorldPool { sampler, worlds, config, bfs, .. } = self;
        let graph = sampler.graph();
        chunked_counts2_with(
            config,
            &worlds[lo..hi],
            n,
            n,
            bfs,
            || DepthBfs::new(n),
            |select, cover, bfs, worlds| {
                for world in worlds {
                    if run.checkpoint(SamplingPhase::Sweep) {
                        return;
                    }
                    let view = WorldView::new(graph, world);
                    bfs.run(&view, center, d_cover, |node, depth| {
                        cover[node.index()] += 1;
                        if depth <= d_select {
                            select[node.index()] += 1;
                        }
                    });
                }
            },
            out_select,
            out_cover,
        );
        self.trim_to_budget();
    }

    /// Batched [`WorldPool::counts_within_depths_range`]: rows row-major
    /// per center over the worlds with index in `[lo, hi)`. Each in-window
    /// world's edge bitset is materialized as a [`WorldView`] **once** for
    /// all centers (one pass over the window), with counts identical to
    /// sequential per-center calls.
    ///
    /// # Panics
    /// Panics on buffer-size mismatch, `d_select > d_cover`, `lo > hi`, or
    /// `hi > num_samples()`.
    #[allow(clippy::too_many_arguments)]
    pub fn counts_within_depths_batch_range(
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
        assert!(lo <= hi && hi <= self.worlds.len(), "invalid sample range [{lo}, {hi})");
        if k == 0 {
            return;
        }
        if !self.resolve_range(lo, hi) {
            return;
        }
        let run = self.run.clone();
        let WorldPool { sampler, worlds, config, bfs, .. } = self;
        let graph = sampler.graph();
        chunked_counts2_with(
            config,
            &worlds[lo..hi],
            k * n,
            k * n,
            bfs,
            || DepthBfs::new(n),
            |select, cover, bfs, worlds| {
                for world in worlds {
                    if run.checkpoint(SamplingPhase::Sweep) {
                        return;
                    }
                    let view = WorldView::new(graph, world);
                    for (j, &c) in centers.iter().enumerate() {
                        bfs.run(&view, c, d_cover, |node, depth| {
                            cover[j * n + node.index()] += 1;
                            if depth <= d_select {
                                select[j * n + node.index()] += 1;
                            }
                        });
                    }
                }
            },
            out_select,
            out_cover,
        );
        self.trim_to_budget();
    }

    /// Number of worlds with index in `[lo, hi)` where `dist(u, v) ≤
    /// depth` — one bounded BFS per in-window world.
    ///
    /// # Panics
    /// Panics if `lo > hi` or `hi > num_samples()`.
    pub fn pair_count_within_range(
        &mut self,
        u: NodeId,
        v: NodeId,
        depth: u32,
        lo: usize,
        hi: usize,
    ) -> usize {
        assert!(lo <= hi && hi <= self.worlds.len(), "invalid sample range [{lo}, {hi})");
        if !self.resolve_range(lo, hi) {
            return 0;
        }
        let run = self.run.clone();
        let WorldPool { sampler, worlds, config, bfs, .. } = self;
        let graph = sampler.graph();
        let n = graph.num_nodes();
        let total = chunked_sum_with(
            config,
            &worlds[lo..hi],
            n,
            bfs,
            || DepthBfs::new(n),
            |bfs, world| {
                if run.checkpoint(SamplingPhase::Sweep) {
                    return 0;
                }
                let view = WorldView::new(graph, world);
                let mut hit = false;
                bfs.run(&view, u, depth, |node, _| hit |= node == v);
                usize::from(hit)
            },
        );
        self.trim_to_budget();
        total
    }
}

impl WorldEngine for WorldPool<'_> {
    fn set_memory_budget(&mut self, budget: MemoryBudget) {
        WorldPool::set_memory_budget(self, budget)
    }

    fn set_run_state(&mut self, run: RunState) {
        WorldPool::set_run_state(self, run)
    }

    fn memory_stats(&self) -> MemoryStats {
        WorldPool::memory_stats(self)
    }

    fn graph(&self) -> &UncertainGraph {
        WorldPool::graph(self)
    }

    fn num_samples(&self) -> usize {
        WorldPool::num_samples(self)
    }

    fn ensure(&mut self, r: usize) {
        WorldPool::ensure(self, r)
    }

    fn counts_from_center_range(&mut self, center: NodeId, lo: usize, hi: usize, out: &mut [u32]) {
        // Dedicated unlimited path: one increment per reached node, no
        // select row to duplicate.
        let n = self.graph().num_nodes();
        assert_eq!(out.len(), n, "counts buffer has wrong length");
        assert!(lo <= hi && hi <= self.worlds.len(), "invalid sample range [{lo}, {hi})");
        if !self.resolve_range(lo, hi) {
            return;
        }
        let run = self.run.clone();
        let WorldPool { sampler, worlds, config, bfs, .. } = self;
        let graph = sampler.graph();
        chunked_counts_with(
            config,
            &worlds[lo..hi],
            n,
            n,
            bfs,
            || DepthBfs::new(n),
            |counts, bfs, worlds| {
                for world in worlds {
                    if run.checkpoint(SamplingPhase::Sweep) {
                        return;
                    }
                    let view = WorldView::new(graph, world);
                    bfs.run(&view, center, DEPTH_UNLIMITED, |node, _| counts[node.index()] += 1);
                }
            },
            out,
        );
        self.trim_to_budget();
    }

    fn counts_from_centers_range(
        &mut self,
        centers: &[NodeId],
        lo: usize,
        hi: usize,
        out: &mut [u32],
    ) {
        // One pass over the window: each in-window world's view is built
        // once for all centers instead of once per center.
        let n = self.graph().num_nodes();
        let k = centers.len();
        assert_eq!(out.len(), k * n, "batch counts buffer has wrong length");
        assert!(lo <= hi && hi <= self.worlds.len(), "invalid sample range [{lo}, {hi})");
        if k == 0 {
            return;
        }
        if !self.resolve_range(lo, hi) {
            return;
        }
        let run = self.run.clone();
        let WorldPool { sampler, worlds, config, bfs, .. } = self;
        let graph = sampler.graph();
        chunked_counts_with(
            config,
            &worlds[lo..hi],
            k * n,
            k * n,
            bfs,
            || DepthBfs::new(n),
            |counts, bfs, worlds| {
                for world in worlds {
                    if run.checkpoint(SamplingPhase::Sweep) {
                        return;
                    }
                    let view = WorldView::new(graph, world);
                    for (j, &c) in centers.iter().enumerate() {
                        bfs.run(&view, c, DEPTH_UNLIMITED, |node, _| {
                            counts[j * n + node.index()] += 1;
                        });
                    }
                }
            },
            out,
        );
        self.trim_to_budget();
    }

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
        WorldPool::counts_within_depths_range(
            self, center, d_select, d_cover, lo, hi, out_select, out_cover,
        )
    }

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
        WorldPool::counts_within_depths_batch_range(
            self, centers, d_select, d_cover, lo, hi, out_select, out_cover,
        )
    }

    fn pair_count_range(&mut self, u: NodeId, v: NodeId, lo: usize, hi: usize) -> usize {
        WorldPool::pair_count_within_range(self, u, v, DEPTH_UNLIMITED, lo, hi)
    }

    fn pair_count_within_range(
        &mut self,
        u: NodeId,
        v: NodeId,
        depth: u32,
        lo: usize,
        hi: usize,
    ) -> usize {
        WorldPool::pair_count_within_range(self, u, v, depth, lo, hi)
    }
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

/// A group of consecutive mask blocks covering [`SHARD_WORLDS`] worlds —
/// the allocation/eviction granularity of the bit-parallel backend. The
/// shard owns its blocks' masks **and** their finalized labels; eviction
/// drops both (an empty `blocks` vector ⇔ evicted), and regeneration
/// rebuilds the masks bit-identically from their per-index RNG streams
/// while labels simply re-finalize on the next unlimited query.
#[derive(Clone, Debug)]
struct BlockShard<const W: usize> {
    blocks: Vec<MaskBlock<W>>,
    /// Heap bytes currently charged to the budget for this shard.
    bytes: usize,
    /// Recency stamp from [`MemoryBudget::touch`].
    last_used: u64,
}

impl<const W: usize> BlockShard<W> {
    #[inline]
    fn resident(&self) -> bool {
        !self.blocks.is_empty()
    }

    fn heap_bytes(&self) -> usize {
        self.blocks.iter().map(MaskBlock::heap_bytes).sum()
    }
}

/// Block `b` of a sharded bit-parallel pool (the shard must be resident).
#[inline]
fn shard_block<const W: usize>(shards: &[BlockShard<W>], b: usize) -> &MaskBlock<W> {
    &shards[b / blocks_per_shard::<W>()].blocks[b % blocks_per_shard::<W>()]
}

/// The **bit-parallel** backend of [`WorldEngine`]: worlds stored in
/// blocks of `64·W` (`W` words per edge) as structure-of-arrays edge
/// masks, queried with mask-propagating multi-world BFS
/// ([`MultiWorldBfs`]).
///
/// One traversal answers a whole block at once, so queries cost
/// `O((n + m) · W · ⌈r/64W⌉)` word operations instead of `r` per-world
/// walks — and generation skips the per-world union-find/labeling pass
/// entirely. World `i` lives in lane `i % 64W` of block `i / 64W` and is
/// drawn from per-index RNG stream `i`, so the pool is world-for-world
/// identical to the scalar pools under the same master seed
/// (property-tested). Blocks are grouped into [`SHARD_WORLDS`]-world
/// shards charged against a [`MemoryBudget`].
#[derive(Debug)]
pub struct BitParallelPool<'g, const W: usize = 1> {
    sampler: WorldSampler<'g>,
    shards: Vec<BlockShard<W>>,
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
    /// Shared byte ledger governing eviction (unbounded by default).
    budget: MemoryBudget,
    /// Shards evicted / regenerated by this pool (cumulative).
    evicted: u64,
    regenerated: u64,
    /// Per-solve interruption state, polled at shard/block boundaries
    /// (unarmed by default — see [`RunState`]).
    run: RunState,
}

impl<const W: usize> Clone for BitParallelPool<'_, W> {
    fn clone(&self) -> Self {
        // The clone shares the budget handle, so its copy of the resident
        // shards is charged to the ledger like any other pool's.
        self.budget.charge(self.shards.iter().map(|sh| sh.bytes).sum());
        BitParallelPool {
            sampler: self.sampler,
            shards: self.shards.clone(),
            samples: self.samples,
            config: self.config.clone(),
            bfs: self.bfs.clone(),
            items: self.items.clone(),
            batch_plan: self.batch_plan.clone(),
            adaptive: self.adaptive,
            wide: self.wide,
            stats: self.stats,
            budget: self.budget.clone(),
            evicted: self.evicted,
            regenerated: self.regenerated,
            run: self.run.clone(),
        }
    }
}

impl<const W: usize> Drop for BitParallelPool<'_, W> {
    fn drop(&mut self) {
        self.budget.release(self.shards.iter().map(|sh| sh.bytes).sum());
    }
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
            budget: MemoryBudget::unbounded(),
            evicted: 0,
            regenerated: 0,
            run: RunState::unlimited(),
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
    /// (≈ one scalar component row per world) for mask traversals.
    /// Disabling drops existing labels.
    pub fn with_finalization(mut self, adaptive: bool) -> Self {
        self.adaptive = adaptive;
        if !adaptive {
            for s in 0..self.shards.len() {
                for block in &mut self.shards[s].blocks {
                    block.labels = None;
                    block.mask_queries = 0;
                }
                self.sync_shard_bytes(s);
            }
            self.stats = EngineStats::default();
        }
        self
    }

    /// Forces the wide (`u32`) label path even on small graphs (see
    /// [`ComponentPool::with_wide_labels`]).
    ///
    /// # Panics
    /// Panics if any block is already finalized.
    #[doc(hidden)]
    pub fn with_wide_labels(mut self, wide: bool) -> Self {
        assert!(
            self.shards.iter().flat_map(|sh| &sh.blocks).all(|b| b.labels.is_none()),
            "label width is fixed once blocks are finalized"
        );
        self.wide = wide || !narrow_fits(self.graph().num_nodes());
        self
    }

    /// Binds the pool to a (possibly shared) memory budget: the resident
    /// bytes move to the new ledger and the pool immediately sheds
    /// least-recently-used shards if the new ledger is over its limit.
    pub fn set_memory_budget(&mut self, budget: MemoryBudget) {
        let held: usize = self.shards.iter().map(|sh| sh.bytes).sum();
        self.budget.release(held);
        budget.charge(held);
        self.budget = budget;
        self.trim_to_budget();
    }

    /// Resident bytes, the budget limit, and this pool's cumulative shard
    /// eviction/regeneration counters.
    pub fn memory_stats(&self) -> MemoryStats {
        MemoryStats {
            bytes_held: self.shards.iter().map(|sh| sh.bytes).sum(),
            bytes_limit: self.budget.limit(),
            shards_evicted: self.evicted,
            shards_regenerated: self.regenerated,
        }
    }

    /// Attaches the per-solve interruption state; see
    /// [`WorldEngine::set_run_state`].
    pub fn set_run_state(&mut self, run: RunState) {
        self.run = run;
    }

    /// Re-derives shard `s`'s byte charge from its blocks (masks plus any
    /// finalized labels) and settles the difference with the ledger.
    fn sync_shard_bytes(&mut self, s: usize) {
        let now = self.shards[s].heap_bytes();
        let sh = &mut self.shards[s];
        if now >= sh.bytes {
            self.budget.charge(now - sh.bytes);
        } else {
            self.budget.release(sh.bytes - now);
        }
        sh.bytes = now;
    }

    /// The resolve-or-regenerate accessor of every query path: stamps the
    /// shards covering sample range `[lo, hi)` as recently used and
    /// regenerates any evicted one from its per-index RNG streams —
    /// bit-identical to the originally sampled blocks (dropped labels
    /// re-finalize lazily, per the usual adaptive heuristics).
    ///
    /// Doubles as the query-entry cooperative checkpoint: returns `false`
    /// (without touching any sample data) when the attached [`RunState`]
    /// has tripped, or records the error and returns `false` when the
    /// [`FaultSite::ShardRegen`] failpoint fires. The failpoint fires
    /// *before* regeneration mutates anything, so a shard is always either
    /// fully regenerated or untouched.
    #[must_use]
    fn resolve_range(&mut self, lo: usize, hi: usize) -> bool {
        if lo >= hi {
            return true;
        }
        if self.run.checkpoint(SamplingPhase::Sweep) {
            return false;
        }
        for s in shard_span(lo, hi) {
            self.shards[s].last_used = self.budget.touch();
            if !self.shards[s].resident() {
                if let Err(e) = faults::hit(FaultSite::ShardRegen) {
                    self.run.record(e);
                    return false;
                }
                self.regenerate_shard(s);
            }
        }
        true
    }

    fn regenerate_shard(&mut self, s: usize) {
        let m = self.graph().num_edges();
        let sampler = self.sampler;
        let r = self.samples;
        let first = s * blocks_per_shard::<W>();
        let last = ((s + 1) * blocks_per_shard::<W>()).min(r.div_ceil(Self::BLOCK_LANES));
        let build = |b: usize| Self::build_block(&sampler, m, b, r);
        let blocks: Vec<MaskBlock<W>> =
            if self.config.parallel_generation((last - first) * Self::BLOCK_LANES) {
                self.config.run(|| (first..last).into_par_iter().map(build).collect())
            } else {
                (first..last).map(build).collect()
            };
        self.shards[s].blocks = blocks;
        self.regenerated += 1;
        self.budget.note_regeneration();
        self.sync_shard_bytes(s);
    }

    fn evict_shard(&mut self, s: usize) {
        // Dropping a shard drops its finalized labels with it; the
        // finalized-block gauge shrinks accordingly (lanes/query counters
        // are cumulative and stand).
        let labeled = self.shards[s].blocks.iter().filter(|b| b.labels.is_some()).count();
        self.stats.finalized_blocks = self.stats.finalized_blocks.saturating_sub(labeled);
        self.shards[s].blocks = Vec::new();
        self.evicted += 1;
        self.budget.note_eviction();
        self.sync_shard_bytes(s);
    }

    /// Evicts least-recently-used shards until the shared ledger fits its
    /// limit (or this pool has nothing left to shed) — the epilogue of
    /// `ensure` and of every aggregate query.
    fn trim_to_budget(&mut self) {
        while self.budget.over_budget() {
            match lru_victim(&self.shards, BlockShard::resident, |sh| sh.last_used) {
                Some(s) => self.evict_shard(s),
                None => break,
            }
        }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &'g UncertainGraph {
        self.sampler.graph()
    }

    /// Number of samples currently in the pool.
    pub fn num_samples(&self) -> usize {
        self.samples
    }

    /// Number of `W·64`-world blocks backing the pool (resident or
    /// evicted).
    pub fn num_blocks(&self) -> usize {
        self.samples.div_ceil(Self::BLOCK_LANES)
    }

    /// Finalization counters (all zero for pure-mask pools).
    pub fn engine_stats(&self) -> EngineStats {
        self.stats
    }

    /// Presence mask of edge `e` in block `block` (lane `l` ⇔ the edge
    /// exists in world `block·W·64 + l`). Exposed for tests and
    /// diagnostics; the block's shard must be resident.
    pub fn edge_mask(&self, block: usize, e: usize) -> Mask<W> {
        shard_block(&self.shards, block).masks[e]
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
        if !self.adaptive || lo >= hi || self.run.checkpoint(SamplingPhase::Labeling) {
            return;
        }
        let graph = self.sampler.graph();
        let n = graph.num_nodes();
        // CSR offsets into the block-label membership index are u32.
        if n.saturating_mul(Self::BLOCK_LANES) > u32::MAX as usize {
            return;
        }
        let bps = blocks_per_shard::<W>();
        let (mut label_q, mut mask_q) = (0usize, 0usize);
        let mut todo: Vec<usize> = Vec::new();
        for b in lo / Self::BLOCK_LANES..=(hi - 1) / Self::BLOCK_LANES {
            let block = &mut self.shards[b / bps].blocks[b % bps];
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
            let shards: &[BlockShard<W>] = &self.shards;
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
                self.shards[b / bps].blocks[b % bps].labels = Some(labels);
            }
        }
        // Serial (and catch-up) path: blocks the parallel branch already
        // attached are fully labeled and fall through both updates.
        for &b in &todo {
            let block = &mut self.shards[b / bps].blocks[b % bps];
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
        // Labels grew: re-charge the touched shards' bytes to the ledger.
        for s in shard_span(lo, hi) {
            self.sync_shard_bytes(s);
        }
    }

    /// Grows the pool to at least `r` samples (no-op if already there).
    ///
    /// A partial last block is topped up lane by lane; full new blocks are
    /// generated in parallel. Either way world `i` comes from RNG stream
    /// `i`, so the pool is independent of the growth schedule and thread
    /// count.
    pub fn ensure(&mut self, r: usize) {
        if r <= self.samples {
            return;
        }
        let cur = self.samples;
        let m = self.graph().num_edges();
        let sampler = self.sampler;
        let bps = blocks_per_shard::<W>();
        let total = r.div_ceil(Self::BLOCK_LANES);
        let trailing_evicted = self.shards.last().is_some_and(|sh| !sh.resident());
        // Top up the trailing partial block, if any — unless its shard is
        // evicted, in which case the whole shard (top-up included)
        // regenerates at the new extent on its next touch.
        let mut achieved = cur;
        if !cur.is_multiple_of(Self::BLOCK_LANES) && !trailing_evicted {
            let b = cur / Self::BLOCK_LANES;
            let base = b * Self::BLOCK_LANES;
            let target = (r - base).min(Self::BLOCK_LANES);
            let last = &mut self.shards[b / bps].blocks[b % bps];
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
        // before the next checkpoint, so a break leaves the pool smaller
        // but consistent. Blocks landing in the evicted trailing shard are
        // left to that shard's regeneration.
        let first = if trailing_evicted {
            (self.shards.len() * bps).min(total)
        } else {
            cur.div_ceil(Self::BLOCK_LANES)
        };
        let mut from = first;
        while from < total {
            if self.run.checkpoint(SamplingPhase::Generation) {
                break;
            }
            if let Err(e) = faults::hit(FaultSite::PoolGrow) {
                self.run.record(e);
                break;
            }
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
                self.shards.push(BlockShard { blocks: Vec::new(), bytes: 0, last_used: 0 });
            }
            self.shards[s].blocks.extend(new_blocks);
            achieved = (chunk_end * Self::BLOCK_LANES).min(r);
            from = chunk_end;
        }
        self.samples = achieved;
        // Account the new samples shard by shard, then shed LRU shards if
        // the shared ledger now exceeds its limit.
        if achieved > cur {
            for s in shard_span(cur, achieved) {
                self.shards[s].last_used = self.budget.touch();
                self.sync_shard_bytes(s);
            }
        }
        self.trim_to_budget();
    }

    /// Batched [`BitParallelPool::counts_from_center_range`]: one count row
    /// per requested center over the sample window `[lo, hi)`, row-major in
    /// `out` (`out[j * n + u]`).
    ///
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
    ///
    /// # Panics
    /// Panics if `out.len() != centers.len() * n`, `lo > hi`, or
    /// `hi > num_samples()`.
    pub fn counts_from_centers_range(
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
            return BitParallelPool::counts_from_center_range(self, centers[0], lo, hi, out);
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
        let run = self.run.clone();
        let BitParallelPool { sampler, shards, config, bfs, .. } = self;
        let graph = sampler.graph();
        let shards: &[BlockShard<W>] = shards;
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

    /// For every node `u`, the number of samples with index in `[lo, hi)`
    /// in which `u` is connected to `center` — per overlapping block, an
    /// O(n + members) label scan over the block's finalized lanes (adaptive
    /// mode), and one connectivity-fixpoint traversal popcounting the final
    /// reach masks over the rest. Lane masks are narrowed to the range's
    /// lanes, so counts over disjoint ranges add up exactly.
    ///
    /// # Panics
    /// Panics if `out.len() != n`, `lo > hi`, or `hi > num_samples()`.
    pub fn counts_from_center_range(
        &mut self,
        center: NodeId,
        lo: usize,
        hi: usize,
        out: &mut [u32],
    ) {
        let n = self.graph().num_nodes();
        assert_eq!(out.len(), n, "counts buffer has wrong length");
        assert!(lo <= hi && hi <= self.samples, "invalid sample range [{lo}, {hi})");
        if !self.resolve_range(lo, hi) {
            return;
        }
        self.prepare_unlimited(lo, hi, UnlimitedShape::Row);
        let mut items = std::mem::take(&mut self.items);
        Self::range_blocks_into(lo, hi, &mut items);
        let run = self.run.clone();
        let BitParallelPool { sampler, shards, config, bfs, .. } = self;
        let graph = sampler.graph();
        let shards: &[BlockShard<W>] = shards;
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

    /// Number of samples with index in `[lo, hi)` where `u` and `v` are
    /// connected — a label comparison over finalized lanes and one masked
    /// fixpoint traversal per overlapping block over the rest.
    ///
    /// # Panics
    /// Panics if `lo > hi` or `hi > num_samples()`.
    pub fn pair_count_range(&mut self, u: NodeId, v: NodeId, lo: usize, hi: usize) -> usize {
        assert!(lo <= hi && hi <= self.samples, "invalid sample range [{lo}, {hi})");
        if !self.resolve_range(lo, hi) {
            return 0;
        }
        self.prepare_unlimited(lo, hi, UnlimitedShape::Pair);
        let mut items = std::mem::take(&mut self.items);
        Self::range_blocks_into(lo, hi, &mut items);
        let run = self.run.clone();
        let BitParallelPool { sampler, shards, config, bfs, .. } = self;
        let graph = sampler.graph();
        let shards: &[BlockShard<W>] = shards;
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

    /// Batched [`BitParallelPool::counts_within_depths_range`]: rows
    /// row-major per center over the sample window `[lo, hi)`, computed
    /// with multi-source level-synchronous mask BFS in groups of up to
    /// [`MAX_SOURCES`] centers — one traversal per overlapping block per
    /// group, with lane masks narrowed to the window's worlds.
    ///
    /// # Panics
    /// Panics on buffer-size mismatch, `d_select > d_cover`, `lo > hi`, or
    /// `hi > num_samples()`.
    #[allow(clippy::too_many_arguments)]
    pub fn counts_within_depths_batch_range(
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
        if !self.resolve_range(lo, hi) {
            return;
        }
        let mut items = std::mem::take(&mut self.items);
        Self::range_blocks_into(lo, hi, &mut items);
        let run = self.run.clone();
        let BitParallelPool { sampler, shards, config, bfs, .. } = self;
        let graph = sampler.graph();
        let shards: &[BlockShard<W>] = shards;
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

    /// Depth-limited connection counts from `center` over the samples with
    /// index in `[lo, hi)` (same contract as
    /// [`WorldPool::counts_within_depths_range`]) — one depth-limited
    /// masked BFS per overlapping block, lane masks narrowed to the range.
    ///
    /// # Panics
    /// Panics on buffer-size mismatch, `d_select > d_cover`, `lo > hi`, or
    /// `hi > num_samples()`.
    #[allow(clippy::too_many_arguments)]
    pub fn counts_within_depths_range(
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
        let run = self.run.clone();
        let BitParallelPool { sampler, shards, config, bfs, .. } = self;
        let graph = sampler.graph();
        let shards: &[BlockShard<W>] = shards;
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

    /// Number of samples with index in `[lo, hi)` where `dist(u, v) ≤
    /// depth`.
    ///
    /// # Panics
    /// Panics if `lo > hi` or `hi > num_samples()`.
    pub fn pair_count_within_range(
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
        let run = self.run.clone();
        let BitParallelPool { sampler, shards, config, bfs, .. } = self;
        let graph = sampler.graph();
        let shards: &[BlockShard<W>] = shards;
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

impl<const W: usize> WorldEngine for BitParallelPool<'_, W> {
    fn set_memory_budget(&mut self, budget: MemoryBudget) {
        BitParallelPool::set_memory_budget(self, budget)
    }

    fn set_run_state(&mut self, run: RunState) {
        BitParallelPool::set_run_state(self, run)
    }

    fn memory_stats(&self) -> MemoryStats {
        BitParallelPool::memory_stats(self)
    }

    fn graph(&self) -> &UncertainGraph {
        BitParallelPool::graph(self)
    }

    fn num_samples(&self) -> usize {
        BitParallelPool::num_samples(self)
    }

    fn engine_stats(&self) -> EngineStats {
        BitParallelPool::engine_stats(self)
    }

    fn ensure(&mut self, r: usize) {
        BitParallelPool::ensure(self, r)
    }

    fn counts_from_center_range(&mut self, center: NodeId, lo: usize, hi: usize, out: &mut [u32]) {
        BitParallelPool::counts_from_center_range(self, center, lo, hi, out)
    }

    fn counts_from_centers_range(
        &mut self,
        centers: &[NodeId],
        lo: usize,
        hi: usize,
        out: &mut [u32],
    ) {
        BitParallelPool::counts_from_centers_range(self, centers, lo, hi, out)
    }

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
        BitParallelPool::counts_within_depths_range(
            self, center, d_select, d_cover, lo, hi, out_select, out_cover,
        )
    }

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
        BitParallelPool::counts_within_depths_batch_range(
            self, centers, d_select, d_cover, lo, hi, out_select, out_cover,
        )
    }

    fn pair_count_range(&mut self, u: NodeId, v: NodeId, lo: usize, hi: usize) -> usize {
        BitParallelPool::pair_count_range(self, u, v, lo, hi)
    }

    fn pair_count_within_range(
        &mut self,
        u: NodeId,
        v: NodeId,
        depth: u32,
        lo: usize,
        hi: usize,
    ) -> usize {
        BitParallelPool::pair_count_within_range(self, u, v, depth, lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ugraph_graph::GraphBuilder;

    fn chain(n: u32, p: f64) -> UncertainGraph {
        let mut b = GraphBuilder::new(n as usize);
        for i in 0..n - 1 {
            b.add_edge(i, i + 1, p).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn ensure_grows_monotonically() {
        let g = chain(10, 0.5);
        let mut pool = ComponentPool::new(&g, 1, 1);
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
        let g = chain(12, 0.4);
        let mut a = ComponentPool::new(&g, 3, 1);
        a.ensure(20);
        let mut b = ComponentPool::new(&g, 3, 1);
        b.ensure(7);
        b.ensure(13);
        b.ensure(20);
        for i in 0..20 {
            assert_eq!(a.labels(i), b.labels(i), "sample {i} differs");
        }
    }

    #[test]
    fn parallel_generation_matches_serial() {
        let g = chain(20, 0.5);
        let mut serial = ComponentPool::new(&g, 5, 1);
        serial.ensure(33);
        let mut parallel = ComponentPool::new(&g, 5, 4);
        parallel.ensure(33);
        for i in 0..33 {
            assert_eq!(serial.labels(i), parallel.labels(i), "sample {i} differs");
        }
    }

    #[test]
    fn membership_index_consistent_with_labels() {
        let g = chain(15, 0.5);
        let mut pool = ComponentPool::new(&g, 9, 1);
        pool.ensure(20);
        for i in 0..20 {
            let labels = pool.labels(i);
            for c in 0..pool.component_count(i) as u32 {
                let members = pool.component_members(i, c);
                assert!(!members.is_empty());
                for u in members {
                    assert_eq!(labels[u as usize], c);
                }
            }
            let total: usize = (0..pool.component_count(i) as u32)
                .map(|c| pool.component_members(i, c).len())
                .sum();
            assert_eq!(total, g.num_nodes());
        }
    }

    #[test]
    fn counts_from_center_match_pair_counts() {
        let g = chain(8, 0.6);
        let mut pool = ComponentPool::new(&g, 2, 1);
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
        // 64 nodes × 1100 rows clears the MIN_PARALLEL_WORK gate, so the
        // 4-worker pool genuinely takes the chunked parallel path.
        let g = chain(64, 0.55);
        let mut serial = ComponentPool::new(&g, 13, 1);
        let mut parallel = ComponentPool::new(&g, 13, 4);
        serial.ensure(1100);
        parallel.ensure(1100);
        let mut counts_serial = vec![0u32; 64];
        let mut counts_parallel = vec![0u32; 64];
        for center in [0u32, 21, 42, 63] {
            serial.counts_from_center(NodeId(center), &mut counts_serial);
            parallel.counts_from_center(NodeId(center), &mut counts_parallel);
            assert_eq!(counts_serial, counts_parallel, "center {center}");
        }
    }

    #[test]
    fn parallel_pair_counts_match_serial() {
        // pair_count is O(1) per row, so its parallel path needs a pool
        // larger than MIN_PARALLEL_WORK rows.
        let g = chain(8, 0.5);
        let mut serial = ComponentPool::new(&g, 17, 1);
        let mut parallel = ComponentPool::new(&g, 17, 4);
        serial.ensure(70_000);
        parallel.ensure(70_000);
        for v in 1..8u32 {
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
        let mut pool = ComponentPool::new(&g, 8, 1);
        pool.ensure(10);
        assert_eq!(pool.pair_estimate(NodeId(0), NodeId(3)), 1.0);
    }

    #[test]
    fn empty_pool_estimates_zero() {
        let g = chain(3, 0.5);
        let mut pool = ComponentPool::new(&g, 1, 1);
        assert_eq!(pool.pair_estimate(NodeId(0), NodeId(1)), 0.0);
    }

    #[test]
    fn world_pool_grows_and_reproduces() {
        let g = chain(10, 0.5);
        let mut a = WorldPool::new(&g, 77, 1);
        a.ensure(12);
        let mut b = WorldPool::new(&g, 77, 3);
        b.ensure(4);
        b.ensure(12);
        for i in 0..12 {
            assert_eq!(a.world(i), b.world(i), "world {i} differs");
        }
    }

    #[test]
    fn depth_counts_respect_depth() {
        // Certain chain 0-1-2-3: within depth 1 of node 0 only {0,1}.
        let g = chain(4, 1.0);
        let mut pool = WorldPool::new(&g, 1, 1);
        pool.ensure(5);
        let mut sel = vec![0u32; 4];
        let mut cov = vec![0u32; 4];
        pool.counts_within_depths(NodeId(0), 1, 2, &mut sel, &mut cov);
        assert_eq!(sel, vec![5, 5, 0, 0]);
        assert_eq!(cov, vec![5, 5, 5, 0]);
    }

    #[test]
    fn parallel_depth_counts_match_serial() {
        // 64 nodes × 1100 worlds clears the MIN_PARALLEL_WORK gate for the
        // depth-limited queries (per-item work ≈ n).
        let g = chain(64, 0.6);
        let mut serial = WorldPool::new(&g, 21, 1);
        let mut parallel = WorldPool::new(&g, 21, 4);
        serial.ensure(1100);
        parallel.ensure(1100);
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
        let mut pool = WorldPool::new(&g, 4, 1);
        pool.ensure(8);
        assert_eq!(pool.pair_estimate_within(NodeId(0), NodeId(2), 1), 0.0);
        assert_eq!(pool.pair_estimate_within(NodeId(0), NodeId(2), 2), 1.0);
    }

    #[test]
    fn world_and_component_pools_agree_at_full_depth() {
        let g = chain(6, 0.5);
        let mut cpool = ComponentPool::new(&g, 31, 1);
        let mut wpool = WorldPool::new(&g, 31, 1);
        cpool.ensure(200);
        wpool.ensure(200);
        for u in 0..6u32 {
            for v in (u + 1)..6 {
                let a = cpool.pair_estimate(NodeId(u), NodeId(v));
                let b = wpool.pair_estimate_within(NodeId(u), NodeId(v), 5);
                assert!((a - b).abs() < 1e-12, "({u},{v}): {a} vs {b}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "d_select")]
    fn depth_order_enforced() {
        let g = chain(3, 1.0);
        let mut pool = WorldPool::new(&g, 1, 1);
        pool.ensure(1);
        let mut sel = vec![0u32; 3];
        let mut cov = vec![0u32; 3];
        pool.counts_within_depths(NodeId(0), 2, 1, &mut sel, &mut cov);
    }

    // ───────────── bit-parallel backend ─────────────

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
        let g = chain(12, 0.45);
        let mut scalar = WorldPool::new(&g, 99, 1);
        scalar.ensure(130);
        // Grown in uneven steps to exercise partial-block top-up.
        let mut bit = BitParallelPool::<1>::new(&g, 99, 1);
        bit.ensure(10);
        bit.ensure(64);
        bit.ensure(70);
        bit.ensure(130);
        for i in 0..130 {
            let world = scalar.world(i);
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
    fn bit_pool_counts_match_component_pool() {
        let g = chain(9, 0.5);
        let mut scalar = ComponentPool::new(&g, 42, 1);
        let mut bit = BitParallelPool::<1>::new(&g, 42, 1);
        // 100 is deliberately not a multiple of 64.
        scalar.ensure(100);
        bit.ensure(100);
        let mut a = vec![0u32; 9];
        let mut b = vec![0u32; 9];
        for c in 0..9u32 {
            scalar.counts_from_center(NodeId(c), &mut a);
            bit.counts_from_center(NodeId(c), &mut b);
            assert_eq!(a, b, "center {c}");
            for v in 0..9u32 {
                assert_eq!(
                    scalar.pair_count(NodeId(c), NodeId(v)),
                    bit.pair_count(NodeId(c), NodeId(v)),
                    "pair ({c},{v})"
                );
            }
        }
    }

    #[test]
    fn bit_pool_depth_counts_match_world_pool() {
        let g = chain(10, 0.6);
        let mut scalar = WorldPool::new(&g, 5, 1);
        let mut bit = BitParallelPool::<1>::new(&g, 5, 1);
        scalar.ensure(97);
        bit.ensure(97);
        let (mut s1, mut c1) = (vec![0u32; 10], vec![0u32; 10]);
        let (mut s2, mut c2) = (vec![0u32; 10], vec![0u32; 10]);
        for center in 0..10u32 {
            for (ds, dc) in [(0, 0), (1, 2), (2, 2), (3, 9)] {
                scalar.counts_within_depths(NodeId(center), ds, dc, &mut s1, &mut c1);
                bit.counts_within_depths(NodeId(center), ds, dc, &mut s2, &mut c2);
                assert_eq!(s1, s2, "select center {center} depths ({ds},{dc})");
                assert_eq!(c1, c2, "cover center {center} depths ({ds},{dc})");
            }
        }
        for v in 1..10u32 {
            for d in [1u32, 3, 8] {
                assert_eq!(
                    scalar.pair_count_within(NodeId(0), NodeId(v), d),
                    bit.pair_count_within(NodeId(0), NodeId(v), d),
                    "pair (0,{v}) depth {d}"
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
        let mut scalar = ComponentPool::new(&g, 3, 1);
        let mut bit = BitParallelPool::<1>::new(&g, 3, 1);
        WorldEngine::ensure(&mut scalar, 70);
        WorldEngine::ensure(&mut bit, 70);
        assert_eq!(total_reach(&mut scalar, NodeId(2)), total_reach(&mut bit, NodeId(2)));
    }

    #[test]
    fn batched_counts_match_sequential_on_all_backends() {
        let g = chain(11, 0.5);
        let centers: Vec<NodeId> = [0u32, 5, 5, 10, 3].iter().map(|&c| NodeId(c)).collect(); // incl. duplicate
        let k = centers.len();
        let mut want = vec![0u32; k * 11];
        let mut scalar = ComponentPool::new(&g, 77, 1);
        scalar.ensure(90);
        for (j, &c) in centers.iter().enumerate() {
            scalar.counts_from_center(c, &mut want[j * 11..(j + 1) * 11]);
        }
        let mut got = vec![0u32; k * 11];
        scalar.counts_from_centers(&centers, &mut got);
        assert_eq!(got, want, "component pool batch differs");
        let mut bit = BitParallelPool::<1>::new(&g, 77, 1);
        bit.ensure(90);
        got.fill(0);
        bit.counts_from_centers(&centers, &mut got);
        assert_eq!(got, want, "bit-parallel batch differs");
        let mut world = WorldPool::new(&g, 77, 1);
        world.ensure(90);
        got.fill(0);
        WorldEngine::counts_from_centers(&mut world, &centers, &mut got);
        assert_eq!(got, want, "world pool batch differs");
    }

    #[test]
    fn ranged_counts_add_up_to_full_counts() {
        let g = chain(9, 0.55);
        let mut scalar = ComponentPool::new(&g, 5, 1);
        let mut bit = BitParallelPool::<1>::new(&g, 5, 1);
        scalar.ensure(150);
        bit.ensure(150);
        let mut full = vec![0u32; 9];
        let mut acc = vec![0u32; 9];
        let mut part = vec![0u32; 9];
        for center in [0u32, 4, 8] {
            scalar.counts_from_center(NodeId(center), &mut full);
            // Split points chosen to straddle the 64-world block boundary.
            for (engine, name) in [
                (&mut scalar as &mut dyn WorldEngine, "scalar"),
                (&mut bit as &mut dyn WorldEngine, "bitparallel"),
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
        let mut scalar = WorldPool::new(&g, 21, 1);
        let mut bit = BitParallelPool::<1>::new(&g, 21, 1);
        scalar.ensure(100);
        bit.ensure(100);
        let (mut fs, mut fc) = (vec![0u32; 10], vec![0u32; 10]);
        scalar.counts_within_depths(NodeId(2), 1, 3, &mut fs, &mut fc);
        let (mut ps, mut pc) = (vec![0u32; 10], vec![0u32; 10]);
        for (engine, name) in [
            (&mut scalar as &mut dyn WorldEngine, "scalar"),
            (&mut bit as &mut dyn WorldEngine, "bitparallel"),
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
        let mut scalar = WorldPool::new(&g, 9, 1);
        let mut bit = BitParallelPool::<1>::new(&g, 9, 1);
        scalar.ensure(97);
        bit.ensure(97);
        let (mut ws, mut wc) = (vec![0u32; k * 10], vec![0u32; k * 10]);
        for (j, &c) in centers.iter().enumerate() {
            scalar.counts_within_depths(
                c,
                1,
                4,
                &mut ws[j * 10..(j + 1) * 10],
                &mut wc[j * 10..(j + 1) * 10],
            );
        }
        let (mut gs, mut gc) = (vec![0u32; k * 10], vec![0u32; k * 10]);
        scalar.counts_within_depths_batch(&centers, 1, 4, &mut gs, &mut gc);
        assert_eq!((&gs, &gc), (&ws, &wc), "world pool batch depth rows differ");
        gs.fill(0);
        gc.fill(0);
        bit.counts_within_depths_batch(&centers, 1, 4, &mut gs, &mut gc);
        assert_eq!((&gs, &gc), (&ws, &wc), "bit-parallel batch depth rows differ");
    }

    #[test]
    fn empty_center_batch_is_a_noop() {
        let g = chain(4, 0.5);
        let mut pool = ComponentPool::new(&g, 1, 1);
        pool.ensure(8);
        pool.counts_from_centers(&[], &mut []);
        let mut bit = BitParallelPool::<1>::new(&g, 1, 1);
        bit.ensure(8);
        bit.counts_from_centers(&[], &mut []);
    }

    #[test]
    #[should_panic(expected = "invalid sample range")]
    fn ranged_counts_reject_out_of_bounds() {
        let g = chain(4, 0.5);
        let mut pool = ComponentPool::new(&g, 1, 1);
        pool.ensure(8);
        let mut out = vec![0u32; 4];
        pool.counts_from_center_range(NodeId(0), 2, 9, &mut out);
    }

    #[test]
    #[should_panic(expected = "unlimited-depth queries only")]
    fn component_pool_rejects_finite_depths() {
        let g = chain(3, 0.5);
        let mut pool = ComponentPool::new(&g, 1, 1);
        pool.ensure(4);
        let mut sel = vec![0u32; 3];
        let mut cov = vec![0u32; 3];
        WorldEngine::counts_within_depths(&mut pool, NodeId(0), 1, 2, &mut sel, &mut cov);
    }

    #[test]
    fn ranged_batch_counts_match_sequential_ranged_on_all_backends() {
        let g = chain(11, 0.55);
        let centers: Vec<NodeId> = [0u32, 5, 5, 10, 3].iter().map(|&c| NodeId(c)).collect(); // incl. duplicate
        let k = centers.len();
        let n = 11;
        let mut scalar = ComponentPool::new(&g, 33, 1);
        let mut world = WorldPool::new(&g, 33, 1);
        let mut bit = BitParallelPool::<1>::new(&g, 33, 1);
        scalar.ensure(150);
        world.ensure(150);
        bit.ensure(150);
        // Windows straddle block boundaries, incl. a single-world window.
        for (lo, hi) in [(0usize, 10usize), (10, 64), (64, 65), (37, 130), (130, 150), (70, 70)] {
            let mut want = vec![0u32; k * n];
            for (j, &c) in centers.iter().enumerate() {
                scalar.counts_from_center_range(c, lo, hi, &mut want[j * n..(j + 1) * n]);
            }
            let mut got = vec![0u32; k * n];
            for (engine, name) in [
                (&mut scalar as &mut dyn WorldEngine, "scalar"),
                (&mut world as &mut dyn WorldEngine, "world"),
                (&mut bit as &mut dyn WorldEngine, "bitparallel"),
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
        let mut scalar = WorldPool::new(&g, 13, 1);
        let mut bit = BitParallelPool::<1>::new(&g, 13, 1);
        scalar.ensure(130);
        bit.ensure(130);
        for (lo, hi) in [(0usize, 50usize), (50, 64), (63, 65), (64, 130), (90, 90)] {
            let (mut ws, mut wc) = (vec![0u32; k * n], vec![0u32; k * n]);
            for (j, &c) in centers.iter().enumerate() {
                scalar.counts_within_depths_range(
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
                (&mut scalar as &mut dyn WorldEngine, "world"),
                (&mut bit as &mut dyn WorldEngine, "bitparallel"),
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
        let mut scalar = ComponentPool::new(&g, 19, 1);
        let mut world = WorldPool::new(&g, 19, 1);
        let mut bit = BitParallelPool::<1>::new(&g, 19, 1);
        scalar.ensure(150);
        world.ensure(150);
        bit.ensure(150);
        let windows = [(0usize, 10usize), (10, 64), (64, 65), (65, 130), (130, 150)];
        for (u, v) in [(0u32, 1u32), (0, 9), (3, 7)] {
            let (u, v) = (NodeId(u), NodeId(v));
            let full = scalar.pair_count(u, v);
            for (engine, name) in [
                (&mut scalar as &mut dyn WorldEngine, "scalar"),
                (&mut world as &mut dyn WorldEngine, "world"),
                (&mut bit as &mut dyn WorldEngine, "bitparallel"),
            ] {
                let sum: usize =
                    windows.iter().map(|&(lo, hi)| engine.pair_count_range(u, v, lo, hi)).sum();
                assert_eq!(sum, full, "{name} ranged pair counts for ({u}, {v})");
            }
            // Depth-limited ranged pair counts on the depth-capable pair.
            let full_d = world.pair_count_within(u, v, 3);
            for (engine, name) in [
                (&mut world as &mut dyn WorldEngine, "world"),
                (&mut bit as &mut dyn WorldEngine, "bitparallel"),
            ] {
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
    fn adaptive_counts_match_scalar_and_pure_mask() {
        let g = chain(11, 0.5);
        let mut scalar = ComponentPool::new(&g, 6, 1);
        let mut mask = BitParallelPool::<1>::new(&g, 6, 1);
        let mut adaptive = BitParallelPool::<1>::new_adaptive(&g, 6, 1);
        // 150 = 2 full blocks + a 22-lane tail.
        scalar.ensure(150);
        mask.ensure(150);
        adaptive.ensure(150);
        let mut a = vec![0u32; 11];
        let mut b = vec![0u32; 11];
        let mut c = vec![0u32; 11];
        for center in 0..11u32 {
            scalar.counts_from_center(NodeId(center), &mut a);
            mask.counts_from_center(NodeId(center), &mut b);
            adaptive.counts_from_center(NodeId(center), &mut c);
            assert_eq!(a, b, "mask center {center}");
            assert_eq!(a, c, "adaptive center {center}");
            for v in 0..11u32 {
                assert_eq!(
                    scalar.pair_count(NodeId(center), NodeId(v)),
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
        // Counts still match a fresh scalar pool.
        let mut scalar = ComponentPool::new(&g, 9, 1);
        scalar.ensure(40);
        let mut want = vec![0u32; 7];
        scalar.counts_from_center(NodeId(2), &mut want);
        assert_eq!(counts, want);
    }

    #[test]
    fn cold_pair_queries_stay_on_masks_until_threshold() {
        use crate::tuning::FINALIZE_AFTER_MASK_QUERIES;
        let g = chain(6, 0.5);
        let mut pool = BitParallelPool::<1>::new_adaptive(&g, 3, 1);
        pool.ensure(64);
        let want = {
            let mut scalar = ComponentPool::new(&g, 3, 1);
            scalar.ensure(64);
            scalar.pair_count(NodeId(0), NodeId(4))
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
        let mut scalar = ComponentPool::new(&g, 21, 1);
        let mut pool = BitParallelPool::<1>::new_adaptive(&g, 21, 1);
        scalar.ensure(200);
        pool.ensure(200);
        // Finalize only block 1 (a row query restricted to its worlds).
        let mut row = vec![0u32; 10];
        pool.counts_from_center_range(NodeId(0), 64, 128, &mut row);
        let s = pool.engine_stats();
        assert_eq!((s.finalized_blocks, s.finalized_lanes), (1, 64));
        // Pair queries spanning finalized and mask blocks agree with
        // scalar for windows straddling both kinds.
        for (lo, hi) in [(0usize, 200usize), (10, 130), (64, 128), (100, 190), (0, 64)] {
            for (u, v) in [(0u32, 9u32), (3, 7)] {
                assert_eq!(
                    scalar.pair_count_range(NodeId(u), NodeId(v), lo, hi),
                    pool.pair_count_range(NodeId(u), NodeId(v), lo, hi),
                    "pair ({u},{v}) on [{lo},{hi})"
                );
            }
        }
        // Batched rows across the mixed pool agree too.
        let centers: Vec<NodeId> = (0..10).map(NodeId).collect();
        let mut want = vec![0u32; 10 * 10];
        let mut got = vec![0u32; 10 * 10];
        scalar.counts_from_centers(&centers, &mut want);
        pool.counts_from_centers(&centers, &mut got);
        assert_eq!(got, want);
    }

    #[test]
    fn wide_and_narrow_labels_agree() {
        let g = chain(13, 0.5);
        let mut narrow = ComponentPool::new(&g, 5, 1);
        let mut wide = ComponentPool::new(&g, 5, 1).with_wide_labels(true);
        narrow.ensure(90);
        wide.ensure(90);
        let mut a = vec![0u32; 13];
        let mut b = vec![0u32; 13];
        for c in 0..13u32 {
            narrow.counts_from_center(NodeId(c), &mut a);
            wide.counts_from_center(NodeId(c), &mut b);
            assert_eq!(a, b, "scalar width mismatch at center {c}");
        }
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
}
