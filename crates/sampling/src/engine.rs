//! The `WorldEngine` backend seam of the Monte-Carlo stack.
//!
//! Every Monte-Carlo query of the clustering algorithms reduces to *counts
//! over a pool of sampled possible worlds*: in how many worlds is `u`
//! connected to a center (optionally within a hop limit)? The
//! [`WorldEngine`] trait captures exactly that contract, so the machinery
//! answering it is swappable:
//!
//! * the **bit-parallel** pool ([`crate::BitParallelPool`]) packs worlds
//!   into blocks of 256 ([`BlockWidth`]) as structure-of-arrays edge masks
//!   and answers a whole block per traversal with mask-propagating
//!   multi-world BFS ([`ugraph_graph::MultiWorldBfs`]);
//! * it also caches per-lane component labels of the blocks unlimited
//!   row queries hit, so those queries become label scans, whenever its
//!   memory budget can keep the labels resident.
//!
//! Every engine draws world `i` from the same per-index RNG stream, so for
//! a fixed master seed every engine holds **bit-identical worlds** and
//! returns **identical integer counts** — estimates do not depend on the
//! engine, block width, budget or thread count that produced them. The
//! property-test suite asserts this against a naive one-world-at-a-time
//! reference engine; other backends plug into the same seam under the
//! same contract.

use ugraph_graph::{NodeId, UncertainGraph};

use crate::budget::{MemoryBudget, MemoryStats};
use crate::interrupt::RunState;

/// Depth value meaning "no hop limit" in [`WorldEngine`] queries.
pub const DEPTH_UNLIMITED: u32 = u32::MAX;

/// The Monte-Carlo backend that powers pools and oracles. There is one:
/// the pool decides from its memory budget whether to label blocks, so
/// the type remains for callers and wire frames that name it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum EngineKind {
    /// Blocks of 256 worlds ([`BlockWidth`]) as structure-of-arrays edge
    /// masks, queried with mask-propagating multi-world BFS, plus **lazy
    /// per-block component labels**: an unlimited-depth row query labels
    /// the blocks it touches (one component-sharing fixpoint sweep per
    /// block) when its memory budget can keep the labels, so later
    /// unlimited queries over those blocks are label scans: one
    /// AND+popcount per node over each world's largest component, plus a
    /// walk of the center's smaller component in the other worlds.
    /// Generation and depth-limited queries stay pure bit-parallel.
    #[default]
    Adaptive,
}

impl EngineKind {
    /// Short stable name, used in benchmark labels and reports.
    pub fn name(self) -> &'static str {
        "adaptive"
    }

    /// Parses an engine name (wire requests). `bitparallel` and `scalar`,
    /// the names of retired backends, are accepted as aliases of
    /// `adaptive`: all answer with identical counts.
    pub fn from_name(name: &str) -> Option<EngineKind> {
        matches!(name, "adaptive" | "bitparallel" | "scalar").then_some(EngineKind::Adaptive)
    }
}

/// Block width of the bit-parallel backends: pools always pack 256
/// worlds per mask block (four `u64` words per edge), the width that won
/// or tied every end-to-end measurement. Counts do not depend on the
/// width — world `i` always comes from per-index RNG stream `i` — so it
/// is not a setting; the type remains for callers that name it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum BlockWidth {
    /// 256 worlds per block.
    #[default]
    W256,
}

impl BlockWidth {
    /// Short stable name, used in wire frames and reports.
    pub fn name(self) -> &'static str {
        "256"
    }

    /// Parses a width name. The retired widths `64` and `512` are accepted
    /// as aliases of `256`: every width answers with identical counts.
    pub fn from_name(name: &str) -> Option<BlockWidth> {
        matches!(name, "64" | "256" | "512").then_some(BlockWidth::W256)
    }
}

/// Counters describing the pool's lazy block finalization (all zero for
/// engines without finalization, such as a pool built
/// `with_finalization(false)`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Blocks currently holding finalized component labels.
    pub finalized_blocks: usize,
    /// World lanes ever labeled. Monotone, and each lane is labeled **at
    /// most once per residency**: growing a pool appends new lanes but
    /// never relabels a finalized one. Shard eviction drops a block's
    /// labels with its masks, so a lane of a regenerated shard counts
    /// again when it re-finalizes.
    pub finalized_lanes: usize,
    /// Unlimited block-queries served from finalized labels.
    pub label_queries: usize,
    /// Unlimited block-queries served by mask BFS: batch blocks the cost
    /// model sent to the sharing sweep, every block of an evaluation
    /// sweep, and the blocks a row (or a pair, which reads a row) left
    /// unlabelled because the memory budget could not keep their labels.
    pub mask_queries: usize,
}

impl EngineStats {
    /// The counters accumulated since an earlier snapshot (field-wise
    /// difference, saturating) — how a session reports per-request
    /// finalization work from an engine's cumulative counters.
    pub fn since(self, earlier: EngineStats) -> EngineStats {
        EngineStats {
            finalized_blocks: self.finalized_blocks.saturating_sub(earlier.finalized_blocks),
            finalized_lanes: self.finalized_lanes.saturating_sub(earlier.finalized_lanes),
            label_queries: self.label_queries.saturating_sub(earlier.label_queries),
            mask_queries: self.mask_queries.saturating_sub(earlier.mask_queries),
        }
    }

    /// Field-wise sum — aggregation across a session's engines.
    pub fn merged(self, other: EngineStats) -> EngineStats {
        EngineStats {
            finalized_blocks: self.finalized_blocks + other.finalized_blocks,
            finalized_lanes: self.finalized_lanes + other.finalized_lanes,
            label_queries: self.label_queries + other.label_queries,
            mask_queries: self.mask_queries + other.mask_queries,
        }
    }
}

/// Backend-agnostic interface to a pool of sampled possible worlds.
///
/// Implementations grow **monotonically** ([`WorldEngine::ensure`]) and
/// draw sample `i` from the per-index RNG stream `i` (see [`crate::rng`]),
/// which makes the pool contents independent of the growth schedule, the
/// thread count, and the backend.
///
/// Queries come in three shapes per family: a single center row, a
/// **batched** multi-center form (`counts_from_centers`,
/// `counts_within_depths_batch`) answering many rows in one pool sweep,
/// and a **ranged** form (`counts_from_center_range`,
/// `counts_within_depths_range`) restricted to a sample-index window —
/// counts over disjoint windows add up exactly, which is what the oracle
/// layer's incremental row cache builds on. All three shapes return
/// identical integer counts for the same pool. Backends implement the
/// ranged forms; each full-pool form is provided as its ranged form over
/// `[0, num_samples())`.
///
/// Depth parameters use [`DEPTH_UNLIMITED`] for plain connectivity.
/// Engines that precompute per-world connectivity and cannot answer
/// finite-depth queries document this, return `false` from
/// [`WorldEngine::supports_finite_depths`] and panic on finite depths;
/// [`crate::McOracle`] only pairs depth queries with depth-capable
/// engines.
pub trait WorldEngine {
    /// The underlying uncertain graph.
    fn graph(&self) -> &UncertainGraph;

    /// Whether this backend can answer **finite**-depth queries.
    ///
    /// Defaults to `true`; engines that precompute per-world connectivity
    /// and lose distance information return `false`, and the
    /// depth-limited oracle rejects them at construction instead of
    /// panicking at first query.
    fn supports_finite_depths(&self) -> bool {
        true
    }

    /// Number of samples currently in the pool.
    fn num_samples(&self) -> usize;

    /// Finalization counters of the pool (all zero for backends without
    /// lazy block finalization).
    fn engine_stats(&self) -> EngineStats {
        EngineStats::default()
    }

    /// Binds the pool's shard storage to a (possibly shared)
    /// [`MemoryBudget`]: resident bytes move onto the new ledger, and from
    /// then on the pool sheds least-recently-used shards whenever the
    /// ledger exceeds its limit, regenerating them bit-identically from
    /// their per-index RNG streams on the next touch. The default is a
    /// no-op, for engines without budgeted storage.
    fn set_memory_budget(&mut self, budget: MemoryBudget) {
        let _ = budget;
    }

    /// Attaches the per-solve interruption state (see [`RunState`]): the
    /// engine polls it cooperatively at shard/block boundaries — one
    /// relaxed atomic load per checkpoint — and, once it trips, abandons
    /// the current operation between self-contained units of work,
    /// leaving the pool consistent. Callers observe the recorded error
    /// through the fallible oracle layer; with the default unarmed state
    /// the engine never interrupts. The default impl is a no-op, for
    /// engines without long-running operations.
    fn set_run_state(&mut self, run: RunState) {
        let _ = run;
    }

    /// Shard-storage memory accounting: resident bytes, the budget limit
    /// in force, and this engine's cumulative eviction/regeneration
    /// counters (all zero/unbounded for engines without budgeted storage).
    fn memory_stats(&self) -> MemoryStats {
        MemoryStats::default()
    }

    /// Grows the pool to at least `r` samples (no-op if already there).
    fn ensure(&mut self, r: usize);

    /// For every node `u`, writes the number of samples in which `u` is
    /// connected to `center` (unlimited path length) into `out[u]`.
    ///
    /// # Panics
    /// Panics if `out.len() != graph().num_nodes()`.
    fn counts_from_center(&mut self, center: NodeId, out: &mut [u32]) {
        let hi = self.num_samples();
        self.counts_from_center_range(center, 0, hi, out);
    }

    /// Batched [`WorldEngine::counts_from_center`]: one count row per
    /// requested center, written row-major into `out`
    /// (`out[j * n + u]` = count for `centers[j]` and node `u`).
    ///
    /// Counts are **identical** to `centers.len()` sequential
    /// `counts_from_center` calls — batching only changes how the pool is
    /// swept, never what is counted (see
    /// [`WorldEngine::counts_from_centers_range`]). Duplicate centers are
    /// allowed.
    ///
    /// # Panics
    /// Panics if `out.len() != centers.len() * graph().num_nodes()`.
    fn counts_from_centers(&mut self, centers: &[NodeId], out: &mut [u32]) {
        let hi = self.num_samples();
        self.counts_from_centers_range(centers, 0, hi, out);
    }

    /// Restriction of [`WorldEngine::counts_from_center`] to the samples
    /// with index in `[lo, hi)`: `out[u]` counts only those worlds.
    ///
    /// Because pools grow monotonically and sample `i` is fixed by its RNG
    /// stream, counts over disjoint index ranges **add up exactly**:
    /// `counts[0, r1) + counts[r1, r2) == counts[0, r2)`. This is what lets
    /// cached rows be topped up incrementally after pool growth instead of
    /// recomputed.
    ///
    /// # Panics
    /// Panics if `out.len() != graph().num_nodes()`, `lo > hi`, or
    /// `hi > num_samples()`.
    fn counts_from_center_range(&mut self, center: NodeId, lo: usize, hi: usize, out: &mut [u32]);

    /// Batched [`WorldEngine::counts_from_center_range`]: one count row per
    /// requested center over the sample window `[lo, hi)`, written
    /// row-major into `out` (`out[j * n + u]`).
    ///
    /// This is the query shape of a row-cache **top-up wave**: after
    /// `prepare(q)` growth, many cached candidate rows need the same new
    /// window counted, and issuing them one center at a time re-pays the
    /// per-window traversal setup per row (on the bit-parallel backend,
    /// the losing single-row mask-BFS shape). Backends override the
    /// default per-center loop with genuinely amortized sweeps (one pass
    /// over the window updating all rows; component sharing on the
    /// bit-parallel backend). Counts are identical to
    /// sequential `counts_from_center_range` calls and add up exactly
    /// over disjoint windows.
    ///
    /// # Panics
    /// Panics if `out.len() != centers.len() * graph().num_nodes()`,
    /// `lo > hi`, or `hi > num_samples()`.
    fn counts_from_centers_range(
        &mut self,
        centers: &[NodeId],
        lo: usize,
        hi: usize,
        out: &mut [u32],
    ) {
        let n = self.graph().num_nodes();
        assert_eq!(out.len(), centers.len() * n, "batch counts buffer has wrong length");
        for (j, &c) in centers.iter().enumerate() {
            self.counts_from_center_range(c, lo, hi, &mut out[j * n..(j + 1) * n]);
        }
    }

    /// Number of samples in which `u` and `v` are connected (unlimited
    /// path length).
    fn pair_count(&mut self, u: NodeId, v: NodeId) -> usize {
        let hi = self.num_samples();
        self.pair_count_range(u, v, 0, hi)
    }

    /// Restriction of [`WorldEngine::pair_count`] to the samples with
    /// index in `[lo, hi)` — the pairwise analogue of
    /// [`WorldEngine::counts_from_center_range`], with the same exact
    /// additivity over disjoint windows. The default, which
    /// [`crate::BitParallelPool`] uses, computes `u`'s ranged count row and
    /// reads `v`'s entry, so a pair costs what the row over its window
    /// costs.
    ///
    /// # Panics
    /// Panics if `lo > hi` or `hi > num_samples()`.
    fn pair_count_range(&mut self, u: NodeId, v: NodeId, lo: usize, hi: usize) -> usize {
        let mut counts = vec![0u32; self.graph().num_nodes()];
        self.counts_from_center_range(u, lo, hi, &mut counts);
        counts[v.index()] as usize
    }

    /// Depth-limited connection counts from `center`: after the call
    /// `out_select[u]` counts samples with `dist(center, u) ≤ d_select`
    /// and `out_cover[u]` those with `dist(center, u) ≤ d_cover`.
    ///
    /// # Panics
    /// Panics on buffer-size mismatch, on `d_select > d_cover`, or if the
    /// backend cannot answer finite depths (see the trait docs).
    fn counts_within_depths(
        &mut self,
        center: NodeId,
        d_select: u32,
        d_cover: u32,
        out_select: &mut [u32],
        out_cover: &mut [u32],
    ) {
        let hi = self.num_samples();
        self.counts_within_depths_range(center, d_select, d_cover, 0, hi, out_select, out_cover);
    }

    /// Batched [`WorldEngine::counts_within_depths`]: one select row and
    /// one cover row per requested center, written row-major
    /// (`out_select[j * n + u]`, `out_cover[j * n + u]`). Counts are
    /// identical to sequential per-center calls (see
    /// [`WorldEngine::counts_from_centers`]).
    ///
    /// # Panics
    /// Panics on buffer-size mismatch, `d_select > d_cover`, or a backend
    /// that cannot answer finite depths.
    fn counts_within_depths_batch(
        &mut self,
        centers: &[NodeId],
        d_select: u32,
        d_cover: u32,
        out_select: &mut [u32],
        out_cover: &mut [u32],
    ) {
        let hi = self.num_samples();
        self.counts_within_depths_batch_range(
            centers, d_select, d_cover, 0, hi, out_select, out_cover,
        );
    }

    /// Restriction of [`WorldEngine::counts_within_depths`] to the samples
    /// with index in `[lo, hi)` — the depth-limited analogue of
    /// [`WorldEngine::counts_from_center_range`], with the same exact
    /// additivity over disjoint ranges.
    ///
    /// # Panics
    /// Panics on buffer-size mismatch, `lo > hi`, `hi > num_samples()`,
    /// `d_select > d_cover`, or a backend that cannot answer finite depths.
    #[allow(clippy::too_many_arguments)]
    fn counts_within_depths_range(
        &mut self,
        center: NodeId,
        d_select: u32,
        d_cover: u32,
        lo: usize,
        hi: usize,
        out_select: &mut [u32],
        out_cover: &mut [u32],
    );

    /// Batched [`WorldEngine::counts_within_depths_range`]: one select row
    /// and one cover row per requested center over the sample window
    /// `[lo, hi)`, written row-major — the depth-limited analogue of
    /// [`WorldEngine::counts_from_centers_range`], serving the depth
    /// oracle's top-up waves with one pass over the window (the
    /// bit-parallel backend resolves and trims its shards once per batch,
    /// not once per center).
    ///
    /// # Panics
    /// Panics on buffer-size mismatch, `d_select > d_cover`, `lo > hi`,
    /// `hi > num_samples()`, or a backend that cannot answer finite
    /// depths.
    #[allow(clippy::too_many_arguments)]
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
        assert_eq!(out_select.len(), centers.len() * n, "batch select buffer has wrong length");
        assert_eq!(out_cover.len(), centers.len() * n, "batch cover buffer has wrong length");
        for (j, &c) in centers.iter().enumerate() {
            self.counts_within_depths_range(
                c,
                d_select,
                d_cover,
                lo,
                hi,
                &mut out_select[j * n..(j + 1) * n],
                &mut out_cover[j * n..(j + 1) * n],
            );
        }
    }

    /// Number of samples in which `dist(u, v) ≤ depth`.
    ///
    /// # Panics
    /// Panics if the backend cannot answer finite depths.
    fn pair_count_within(&mut self, u: NodeId, v: NodeId, depth: u32) -> usize {
        let hi = self.num_samples();
        self.pair_count_within_range(u, v, depth, 0, hi)
    }

    /// Restriction of [`WorldEngine::pair_count_within`] to the samples
    /// with index in `[lo, hi)` (see [`WorldEngine::pair_count_range`]).
    ///
    /// # Panics
    /// Panics if `lo > hi`, `hi > num_samples()`, or the backend cannot
    /// answer finite depths.
    fn pair_count_within_range(
        &mut self,
        u: NodeId,
        v: NodeId,
        depth: u32,
        lo: usize,
        hi: usize,
    ) -> usize {
        let n = self.graph().num_nodes();
        let mut select = vec![0u32; n];
        let mut cover = vec![0u32; n];
        self.counts_within_depths_range(u, depth, depth, lo, hi, &mut select, &mut cover);
        cover[v.index()] as usize
    }

    /// The estimator `p̃(u, v)` of Eq. 3. Returns 0 for an empty pool.
    fn pair_estimate(&mut self, u: NodeId, v: NodeId) -> f64 {
        let r = self.num_samples();
        if r == 0 {
            return 0.0;
        }
        self.pair_count(u, v) as f64 / r as f64
    }

    /// Estimator of the d-connection probability `Pr(u ~d~ v)`.
    fn pair_estimate_within(&mut self, u: NodeId, v: NodeId, depth: u32) -> f64 {
        let r = self.num_samples();
        if r == 0 {
            return 0.0;
        }
        self.pair_count_within(u, v, depth) as f64 / r as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_kind_defaults_and_names() {
        assert_eq!(EngineKind::default(), EngineKind::Adaptive);
        assert_eq!(EngineKind::Adaptive.name(), "adaptive");
        // The retired backends' names still parse.
        for name in ["adaptive", "bitparallel", "scalar"] {
            assert_eq!(EngineKind::from_name(name), Some(EngineKind::Adaptive), "{name}");
        }
        assert_eq!(EngineKind::from_name("gpu"), None);
    }

    #[test]
    fn engine_stats_since_and_merged() {
        let a = EngineStats {
            finalized_blocks: 3,
            finalized_lanes: 192,
            label_queries: 10,
            mask_queries: 2,
        };
        let b = EngineStats {
            finalized_blocks: 1,
            finalized_lanes: 64,
            label_queries: 4,
            mask_queries: 1,
        };
        assert_eq!(
            a.since(b),
            EngineStats {
                finalized_blocks: 2,
                finalized_lanes: 128,
                label_queries: 6,
                mask_queries: 1,
            }
        );
        assert_eq!(
            a.merged(b),
            EngineStats {
                finalized_blocks: 4,
                finalized_lanes: 256,
                label_queries: 14,
                mask_queries: 3,
            }
        );
    }
}
