//! The connection-probability oracle interface consumed by the clustering
//! algorithms, and its Monte-Carlo implementation.
//!
//! The paper first presents its algorithms against an exact oracle for
//! `Pr(u ~ v)` (§3) and then replaces it with progressive Monte-Carlo
//! estimation (§4). The [`Oracle`] trait captures exactly the access
//! pattern of `min-partial` (Algorithms 1 and 4):
//!
//! * [`Oracle::prepare`]`(q)` — announce that probabilities `≥ q` are about
//!   to be thresholded, letting Monte-Carlo implementations grow their
//!   sample pool per their [`SampleSchedule`];
//! * [`Oracle::center_probs`]`(c, select, cover)` — estimates of the
//!   connection probability of every node to a candidate center `c`, at the
//!   *selection* radius (`q̄` / depth `d'`) and the *cover* radius (`q` /
//!   depth `d`). For depth-unlimited oracles the two are identical;
//! * [`Oracle::pair_prob`] — a single pairwise estimate (used by objective
//!   evaluation).
//!
//! [`McOracle`] is the one Monte-Carlo implementation. It estimates
//! probabilities over paths of at most `d_select` hops (selection) and
//! `d_cover` hops (cover), the depth-limited objective of §3.4; plain
//! connectivity is the case `d_select = d_cover =` [`DEPTH_UNLIMITED`]. It
//! owns a boxed [`WorldEngine`], so the backends selected by
//! [`EngineKind`] are interchangeable behind an unchanged oracle
//! interface — and every backend yields bit-identical
//! estimates for a fixed master seed. Each oracle call is one engine query
//! over a window of sample indices: plain-connectivity oracles use the
//! unlimited queries ([`WorldEngine::counts_from_center_range`], its
//! batched form, [`WorldEngine::pair_count_range`]) and keep no selection
//! row; depth-limited oracles use [`WorldEngine::counts_within_depths_range`],
//! its batched form and [`WorldEngine::pair_count_within_range`].
//!
//! ## Row amortization: batching and the incremental count cache
//!
//! The clustering drivers re-run `min-partial` many times over the *same*
//! grow-only sample pool (the MCP/ACP guessing schedules), and each
//! invocation thresholds many center rows. Two mechanisms keep that from
//! re-sweeping the pool per row:
//!
//! * **Batching** — [`Oracle::center_probs_batch`] fetches all candidate
//!   rows of one greedy step through the engines' multi-center queries
//!   (one pool sweep updating every row; multi-source mask BFS on the
//!   bit-parallel backend). Oracles whose selection and cover rows always
//!   coincide advertise it via [`Oracle::identical_rows`], and the batch
//!   then writes each row **once**.
//! * **Row caching** — the oracle keeps, per center, the raw **integer
//!   counts** together with the pool size they integrate over.
//!
//! ### When do cached counts stay valid?
//!
//! Always, as a *prefix*: pools grow monotonically and sample `i` is fixed
//! by its per-index RNG stream, so a cached row covering the first `r₀`
//! samples is never invalidated — it is merely *incomplete* once the pool
//! has grown to `r > r₀`. Serving a row then needs only a **top-up**: a
//! ranged count over the new worlds `[r₀, r)` added onto the cached
//! integers (counts over disjoint index ranges are exactly additive).
//! Probabilities are derived by dividing by the pool size at serve time,
//! so a cached row yields bit-identical estimates to a fresh
//! recomputation. Top-up waves triggered by one batched fetch are grouped
//! by their start index and answered through the engines' **ranged
//! multi-center** queries ([`WorldEngine::counts_from_centers_range`],
//! [`WorldEngine::counts_within_depths_batch_range`]), so rows cached at
//! the same guess share one sweep of the new worlds. Cache effectiveness
//! is reported via [`Oracle::cache_stats`] as [`RowCacheStats`] (hits /
//! incremental top-ups / full recomputes).
//!
//! ### The active sample window
//!
//! A reused oracle (held by a `UgraphSession` across many clustering
//! requests) distinguishes its **physical** pool — every world sampled so
//! far, never shrinking — from the **active window**, the prefix
//! `[0, active)` that estimates integrate over and every engine query is
//! restricted to. [`Oracle::begin_request`] resets the window to empty and
//! [`Oracle::prepare`] re-grows it per the schedule, so a request served
//! by a warm oracle uses exactly the samples a fresh oracle would have
//! drawn — bit-identical results — while skipping the re-sampling of
//! worlds the pool already holds. Cached rows covering *more* than the
//! active window cannot serve it (counts are not subtractable) and are
//! rebuilt over the window; rows covering a prefix of it top up as usual.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use ugraph_graph::{NodeId, UncertainGraph};

use crate::bounds::SampleSchedule;
use crate::budget::{MemoryBudget, MemoryStats};
use crate::engine::{EngineKind, EngineStats, WorldEngine, DEPTH_UNLIMITED};
use crate::error::SamplingError;
use crate::exact::ExactOracle;
use crate::faults::{self, FaultSite};
use crate::interrupt::RunState;
use crate::pool::BitParallelPool;

/// Counters describing how an oracle's per-center row cache served the
/// probability rows requested so far (see the module docs for the cache's
/// validity rules). All zero for oracles without a cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RowCacheStats {
    /// Rows served entirely from cached counts (pool unchanged since the
    /// row was cached).
    pub hits: usize,
    /// Rows topped up incrementally: only the worlds sampled since the row
    /// was cached were counted.
    pub topups: usize,
    /// Rows computed from scratch over the full pool (cache misses, plus
    /// every row when caching is disabled).
    pub fulls: usize,
}

impl RowCacheStats {
    /// Total number of rows served.
    pub fn rows_served(&self) -> usize {
        self.hits + self.topups + self.fulls
    }

    /// The counters accumulated since an earlier snapshot (field-wise
    /// difference, saturating) — how a session reports per-request cache
    /// service from an oracle's cumulative counters.
    pub fn since(self, earlier: RowCacheStats) -> RowCacheStats {
        RowCacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            topups: self.topups.saturating_sub(earlier.topups),
            fulls: self.fulls.saturating_sub(earlier.fulls),
        }
    }

    /// Field-wise sum — aggregation across a session's oracles.
    pub fn merged(self, other: RowCacheStats) -> RowCacheStats {
        RowCacheStats {
            hits: self.hits + other.hits,
            topups: self.topups + other.topups,
            fulls: self.fulls + other.fulls,
        }
    }
}

/// One cached center row: raw integer counts plus the pool size they
/// integrate over.
#[derive(Clone, Debug)]
struct CachedRow {
    /// Number of pool samples (a prefix of the pool) the counts cover.
    covered: usize,
    /// Selection-radius counts; empty when identical to `cover`.
    select: Vec<u32>,
    /// Cover-radius counts.
    cover: Vec<u32>,
}

/// Default soft memory budget of one oracle's row cache, in `u32` count
/// entries (2²⁸ entries = 1 GiB). Once the cache holds `budget / (n ·
/// rows per center)` distinct centers, further centers are computed
/// without being cached — estimates are unchanged, only reuse stops
/// growing. This is what keeps the ACP *Theory* invocation (`α = n`,
/// every node a candidate center) from accumulating `O(n²)` cache memory
/// on large graphs; already-admitted rows keep serving hits and top-ups.
/// When an explicit [`MemoryBudget`] is attached, the cap tightens to
/// half that budget and every admitted row is charged to the shared
/// ledger (see [`RowCache::set_budget`]).
const ROW_CACHE_BUDGET_U32S: usize = 1 << 28;

/// Per-center incremental count cache of a [`McOracle`].
#[derive(Debug)]
struct RowCache {
    rows: HashMap<u32, CachedRow>,
    stats: RowCacheStats,
    enabled: bool,
    /// Maximum number of distinct centers admitted, derived from
    /// [`ROW_CACHE_BUDGET_U32S`] at construction and tightened by
    /// [`RowCache::set_budget`].
    max_rows: usize,
    /// Approximate heap bytes of one admitted row (count entries only).
    bytes_per_row: usize,
    /// Bytes this cache has charged against `budget`.
    bytes: usize,
    /// Shared ledger the cached rows are charged to (unbounded by
    /// default). Cached counts cannot be evicted — they are grow-only
    /// prefixes — so the budget gates *admission* instead.
    budget: MemoryBudget,
}

impl RowCache {
    /// Creates a cache for `n`-node rows storing `rows_per_center` count
    /// vectors per admitted center.
    fn new(enabled: bool, n: usize, rows_per_center: usize) -> Self {
        let max_rows = ROW_CACHE_BUDGET_U32S / (n * rows_per_center).max(1);
        RowCache {
            rows: HashMap::new(),
            stats: RowCacheStats::default(),
            enabled,
            max_rows,
            bytes_per_row: n * rows_per_center * std::mem::size_of::<u32>(),
            bytes: 0,
            budget: MemoryBudget::unbounded(),
        }
    }

    /// Attaches a shared memory budget: already-charged bytes move to the
    /// new ledger, and — when the budget is bounded — the admission cap
    /// tightens so cached rows claim at most **half** the limit, leaving
    /// the rest for the (evictable) sample shards.
    fn set_budget(&mut self, budget: MemoryBudget) {
        self.budget.release(self.bytes);
        budget.charge(self.bytes);
        if let Some(limit) = budget.limit() {
            self.max_rows = self.max_rows.min((limit / 2) / self.bytes_per_row.max(1));
        }
        self.budget = budget;
    }

    /// Whether `center`'s row may go through the cache: caching is on, and
    /// the center is either already cached or the budget admits another
    /// (row-count cap *and* ledger headroom — cached rows are grow-only,
    /// so a row that would push the shared ledger past its limit is never
    /// admitted).
    fn admits(&self, center: NodeId) -> bool {
        self.enabled
            && (self.rows.contains_key(&center.0)
                || (self.rows.len() < self.max_rows
                    && !self.budget.would_exceed(self.bytes_per_row)))
    }

    /// Inserts a freshly computed row, charging its bytes to the ledger
    /// (only on first insertion for the center — batch paths may compute
    /// a duplicate center twice and overwrite).
    fn insert(&mut self, center: NodeId, row: CachedRow) {
        if self.rows.insert(center.0, row).is_none() {
            self.budget.charge(self.bytes_per_row);
            self.bytes += self.bytes_per_row;
        }
    }

    /// Drops every cached row and releases the charged bytes.
    fn clear(&mut self) {
        self.rows.clear();
        self.budget.release(self.bytes);
        self.bytes = 0;
    }

    /// The cache-serve protocol, written once: returns the up-to-date row
    /// for `center`, counting a hit, a top-up, or a full recompute.
    /// `topup(ctx, row, lo)` must add counts over the new worlds
    /// `[lo, r_now)` onto the row — **only after validating** that the
    /// underlying sweep completed, so an interrupted query never merges
    /// torn counts; `full(ctx)` must build a row covering `[0, r_now)`
    /// under the same discipline. A cached row covering **more** than
    /// `r_now` (the active window is a strict prefix of what the row
    /// integrated — counts cannot be subtracted) is rebuilt by `full` as
    /// well. `ctx` carries the engine and scratch buffers (both closures
    /// need them, and two closures cannot capture the same `&mut` state).
    ///
    /// On `Err` the cache is exactly as it was — the row is either absent
    /// or still covering its old prefix, and the bytes reserved for a new
    /// row are rolled back by the [`crate::budget::ChargeGuard`].
    fn serve<C>(
        &mut self,
        ctx: &mut C,
        center: NodeId,
        r_now: usize,
        topup: impl FnOnce(&mut C, &mut CachedRow, usize) -> Result<(), SamplingError>,
        full: impl FnOnce(&mut C) -> Result<CachedRow, SamplingError>,
    ) -> Result<&CachedRow, SamplingError> {
        match self.rows.entry(center.0) {
            Entry::Occupied(e) => {
                let row = e.into_mut();
                if row.covered < r_now {
                    let lo = row.covered;
                    topup(ctx, row, lo)?;
                    row.covered = r_now;
                    self.stats.topups += 1;
                } else if row.covered == r_now {
                    self.stats.hits += 1;
                } else {
                    *row = full(ctx)?;
                    self.stats.fulls += 1;
                }
                Ok(row)
            }
            Entry::Vacant(v) => {
                faults::hit(FaultSite::BudgetAdmission)?;
                let reserved = self.budget.reserve(self.bytes_per_row);
                let row = full(ctx)?;
                reserved.commit();
                self.bytes += self.bytes_per_row;
                self.stats.fulls += 1;
                Ok(v.insert(row))
            }
        }
    }

    /// Batch-path classification of one requested row against the active
    /// window `[0, r_now)`: a hit is counted immediately; top-ups and
    /// misses are returned to the caller, which defers them to grouped
    /// ranged sweeps (top-ups) or one batched full sweep (misses). A row
    /// covering more than `r_now` classifies as a miss (see
    /// [`RowCache::serve`]).
    fn classify(&mut self, center: NodeId, r_now: usize) -> RowService {
        match self.rows.get(&center.0) {
            Some(row) if row.covered == r_now => {
                self.stats.hits += 1;
                RowService::Hit
            }
            Some(row) if row.covered < r_now => RowService::Topup { lo: row.covered },
            Some(_) | None => RowService::Miss,
        }
    }
}

impl Drop for RowCache {
    fn drop(&mut self) {
        self.budget.release(self.bytes);
    }
}

/// Outcome of [`RowCache::classify`] for one batched row request.
enum RowService {
    Hit,
    Topup { lo: usize },
    Miss,
}

/// One top-up wave of a batched row fetch: all entries share the window
/// start `lo`, and duplicate centers are collapsed onto one computed row.
struct TopupGroup {
    lo: usize,
    /// Distinct centers of the group, in first-appearance order.
    uniq: Vec<NodeId>,
    /// `(batch index j, slot into uniq)` per requested row.
    entries: Vec<(usize, usize)>,
}

/// Groups `(batch index, window start)` top-up entries by their window
/// start, deduplicating centers within each group — the plan executed by
/// one ranged multi-center engine query per group.
fn plan_topups(mut topups: Vec<(usize, usize)>, centers: &[NodeId]) -> Vec<TopupGroup> {
    topups.sort_unstable_by_key(|&(j, lo)| (lo, j));
    let mut groups: Vec<TopupGroup> = Vec::new();
    for (j, lo) in topups {
        if groups.last().is_none_or(|g| g.lo != lo) {
            groups.push(TopupGroup { lo, uniq: Vec::new(), entries: Vec::new() });
        }
        let g = groups.last_mut().unwrap_or_else(|| unreachable!("group pushed above"));
        let c = centers[j];
        let slot = g.uniq.iter().position(|&u| u == c).unwrap_or_else(|| {
            g.uniq.push(c);
            g.uniq.len() - 1
        });
        g.entries.push((j, slot));
    }
    groups
}

/// Writes `counts[i] / r` into `out[i]`.
#[inline]
fn write_probs(counts: &[u32], r: f64, out: &mut [f64]) {
    for (o, &c) in out.iter_mut().zip(counts) {
        *o = c as f64 / r;
    }
}

/// Element-wise `row[i] += fresh[i]`, the top-up merge.
#[inline]
fn add_counts(row: &mut [u32], fresh: &[u32]) {
    for (a, &d) in row.iter_mut().zip(fresh) {
        *a += d;
    }
}

/// Source of (estimated) connection probabilities.
pub trait Oracle {
    /// Number of nodes of the underlying graph.
    fn num_nodes(&self) -> usize;

    /// Relative-error parameter ε of the estimates (0 for exact oracles).
    ///
    /// Thresholds are relaxed to `(1 − ε/2)·q` by the algorithms, per §4.1.
    fn epsilon(&self) -> f64;

    /// Ensures that subsequent estimates are reliable for probabilities
    /// `≥ q`. Monte-Carlo implementations grow their sample pools here.
    ///
    /// # Errors
    /// Returns [`SamplingError::Interrupted`] when the attached
    /// [`RunState`] trips (deadline or cancellation) mid-growth, or
    /// [`SamplingError::FaultInjected`] under an armed fault plan. The
    /// oracle remains consistent: the active window is clamped to what
    /// the pool actually holds, and re-preparing after the interruption
    /// clears completes bit-identically.
    fn prepare(&mut self, q: f64) -> Result<(), SamplingError>;

    /// Attaches the cooperative interruption state polled at the oracle's
    /// checkpoints, forwarding it to the backing engine. Defaults to a
    /// no-op for oracles that cannot be interrupted (exact oracles).
    fn set_run_state(&mut self, run: RunState) {
        let _ = run;
    }

    /// Begins a new logical request on a (possibly reused) oracle.
    ///
    /// Monte-Carlo oracles reset their **active sample window** to empty;
    /// subsequent [`Oracle::prepare`] calls re-grow it per the schedule
    /// while the physical pool — which never shrinks — keeps every world
    /// already sampled. Estimates then integrate over exactly the prefix a
    /// fresh oracle would have used, which is what makes a request served
    /// by a warm session oracle bit-identical to a one-shot run (see the
    /// module docs). No-op for exact oracles.
    fn begin_request(&mut self) {}

    /// Number of samples currently backing the estimates — the active
    /// window for Monte-Carlo oracles (1 for exact).
    fn num_samples(&self) -> usize;

    /// Number of worlds in the oracle's **physical** pool, regardless of
    /// the active window (`≥ num_samples()`; 1 for exact oracles) — what a
    /// session reports as worlds actually sampled.
    fn pool_samples(&self) -> usize {
        self.num_samples()
    }

    /// Writes, for every node `u`, the estimated connection probability
    /// between `u` and `center` — at the selection radius into `select` and
    /// at the cover radius into `cover` (identical for unlimited oracles).
    ///
    /// # Errors
    /// Returns [`SamplingError::Interrupted`] /
    /// [`SamplingError::FaultInjected`] when the sweep is interrupted or
    /// a failpoint fires; the output buffers are then unspecified but the
    /// oracle (including its row cache) holds no torn state.
    ///
    /// # Panics
    /// Implementations panic if the buffers are not of length `num_nodes()`.
    fn center_probs(
        &mut self,
        center: NodeId,
        select: &mut [f64],
        cover: &mut [f64],
    ) -> Result<(), SamplingError>;

    /// Estimated connection probability between `u` and `v` at the cover
    /// radius.
    ///
    /// # Errors
    /// Returns [`SamplingError::Interrupted`] /
    /// [`SamplingError::FaultInjected`] under interruption or an armed
    /// failpoint (see [`Oracle::center_probs`]).
    fn pair_prob(&mut self, u: NodeId, v: NodeId) -> Result<f64, SamplingError>;

    /// Whether the selection and cover rows of this oracle are **always**
    /// identical (depth-unlimited oracles, and depth oracles with
    /// `d_select == d_cover`). Callers may then request only cover rows
    /// from [`Oracle::center_probs_batch`] and read selection estimates
    /// from them — the identical-rows fast path that writes each row once.
    fn identical_rows(&self) -> bool {
        false
    }

    /// Batched [`Oracle::center_probs`]: one selection row and one cover
    /// row per requested center, row-major (`select[j * n + u]`,
    /// `cover[j * n + u]`). Estimates are identical to sequential
    /// `center_probs` calls; implementations amortize the pool sweeps and
    /// serve cached rows where possible.
    ///
    /// When [`Oracle::identical_rows`] is `true`, callers may pass an
    /// **empty** `select` buffer and read selection estimates from
    /// `cover`; each row is then written once.
    ///
    /// # Errors
    /// Returns [`SamplingError::Interrupted`] /
    /// [`SamplingError::FaultInjected`] under interruption or an armed
    /// failpoint (see [`Oracle::center_probs`]).
    ///
    /// # Panics
    /// Panics if `cover.len() != centers.len() * num_nodes()`, or if
    /// `select` is neither empty (identical rows only) nor of the same
    /// length as `cover`.
    fn center_probs_batch(
        &mut self,
        centers: &[NodeId],
        select: &mut [f64],
        cover: &mut [f64],
    ) -> Result<(), SamplingError> {
        let n = self.num_nodes();
        assert_eq!(cover.len(), centers.len() * n, "batch cover buffer has wrong length");
        if select.is_empty() && !centers.is_empty() {
            assert!(self.identical_rows(), "empty select buffer requires identical rows");
            let mut scratch = vec![0.0; n];
            for (j, &c) in centers.iter().enumerate() {
                self.center_probs(c, &mut scratch, &mut cover[j * n..(j + 1) * n])?;
            }
        } else {
            assert_eq!(select.len(), cover.len(), "batch select buffer has wrong length");
            for (j, &c) in centers.iter().enumerate() {
                self.center_probs(
                    c,
                    &mut select[j * n..(j + 1) * n],
                    &mut cover[j * n..(j + 1) * n],
                )?;
            }
        }
        Ok(())
    }

    /// Row-cache effectiveness counters (all zero for oracles without a
    /// cache).
    fn cache_stats(&self) -> RowCacheStats {
        RowCacheStats::default()
    }

    /// Finalization counters of the backing engine (all zero for oracles
    /// whose backend has no lazy block finalization — see
    /// [`crate::EngineStats`]).
    fn engine_stats(&self) -> EngineStats {
        EngineStats::default()
    }

    /// Memory accounting of the backing engine plus this oracle's cached
    /// rows (zero and unbounded for oracles without budgeted storage —
    /// see [`MemoryStats`]).
    fn memory_stats(&self) -> MemoryStats {
        MemoryStats::default()
    }
}

/// The depth pair of a [`McOracle`] and the engine queries that answer it.
///
/// Both depths at [`DEPTH_UNLIMITED`] is plain connectivity, answered by
/// the unlimited queries, which fill cover rows only — so no selection row
/// is counted, copied, or cached. Any finite depth goes to the
/// depth-limited queries, which fill a selection and a cover row.
#[derive(Clone, Copy)]
struct Depths {
    select: u32,
    cover: u32,
}

impl Depths {
    /// Plain connectivity (`select ≤ cover`, so both are unlimited).
    fn unlimited(self) -> bool {
        self.select == DEPTH_UNLIMITED
    }

    /// Whether selection and cover rows always coincide.
    fn identical(self) -> bool {
        self.select == self.cover
    }

    /// `center`'s counts over the sample window `[lo, hi)`: a single-row
    /// query filling `cover` (and `select`, `n` entries, unless unlimited).
    fn count_row(
        self,
        engine: &mut dyn WorldEngine,
        center: NodeId,
        lo: usize,
        hi: usize,
        select: &mut [u32],
        cover: &mut [u32],
    ) {
        if self.unlimited() {
            engine.counts_from_center_range(center, lo, hi, cover);
        } else {
            engine.counts_within_depths_range(
                center,
                self.select,
                self.cover,
                lo,
                hi,
                select,
                cover,
            );
        }
    }

    /// Batched [`Depths::count_row`]: one multi-center query, rows
    /// row-major per center.
    fn count_rows(
        self,
        engine: &mut dyn WorldEngine,
        centers: &[NodeId],
        lo: usize,
        hi: usize,
        select: &mut [u32],
        cover: &mut [u32],
    ) {
        if self.unlimited() {
            engine.counts_from_centers_range(centers, lo, hi, cover);
        } else {
            engine.counts_within_depths_batch_range(
                centers,
                self.select,
                self.cover,
                lo,
                hi,
                select,
                cover,
            );
        }
    }

    /// Number of worlds in `[0, hi)` in which `u` reaches `v` within the
    /// cover depth.
    fn pair_count(self, engine: &mut dyn WorldEngine, u: NodeId, v: NodeId, hi: usize) -> usize {
        if self.unlimited() {
            engine.pair_count_range(u, v, 0, hi)
        } else {
            engine.pair_count_within_range(u, v, self.cover, 0, hi)
        }
    }
}

/// Reusable count rows of the engine queries, grown on demand.
#[derive(Default)]
struct Scratch {
    select: Vec<u32>,
    cover: Vec<u32>,
}

impl Scratch {
    /// Buffers for `k` rows of `n` counts, row-major: the cover rows, and
    /// the selection rows the depth-limited queries fill (empty for plain
    /// connectivity).
    fn rows(&mut self, depths: Depths, k: usize, n: usize) -> (&mut [u32], &mut [u32]) {
        self.select.resize(if depths.unlimited() { 0 } else { k * n }, 0);
        self.cover.resize(k * n, 0);
        (&mut self.select, &mut self.cover)
    }
}

/// Monte-Carlo oracle for connection probabilities over paths of at most
/// `d_select` hops (selection) and `d_cover` hops (cover), backed by a
/// progressive [`WorldEngine`].
///
/// `d_select` is the selection depth `d'` (paths counted when choosing a
/// center, Algorithm 4 line 5) and `d_cover` the cover depth `d` (paths
/// counted when removing covered nodes, line 8); `d_select ≤ d_cover`.
/// Both at [`DEPTH_UNLIMITED`] is plain connectivity (Algorithm 1).
///
/// Both pool growth ([`Oracle::prepare`]) and estimation
/// ([`Oracle::center_probs`], [`Oracle::pair_prob`]) run on rayon with the
/// engine's configured thread count; per-index RNG streams and integer
/// count merging make every estimate bit-identical across thread counts
/// **and across backends**.
pub struct McOracle<'g> {
    engine: Box<dyn WorldEngine + 'g>,
    schedule: SampleSchedule,
    epsilon: f64,
    /// Active sample window: estimates integrate over `[0, active)`, a
    /// prefix of the physical pool (see the module docs).
    active: usize,
    depths: Depths,
    scratch: Scratch,
    cache: RowCache,
    /// Cooperative interruption state shared with the engine.
    run: RunState,
}

impl<'g> McOracle<'g> {
    /// Creates the oracle with selection depth `d_select` and cover depth
    /// `d_cover` ([`DEPTH_UNLIMITED`] for both: plain connectivity) on a
    /// [`BitParallelPool`], adaptive or pure-mask as `kind` selects.
    /// `threads = 0` uses all cores; `epsilon` is the relative-error target
    /// reflected by [`Oracle::epsilon`]. Estimates are bit-identical on
    /// every engine.
    ///
    /// # Errors
    /// Returns [`SamplingError::InvalidDepths`] if `d_select > d_cover`.
    #[allow(clippy::too_many_arguments)]
    pub fn with_engine(
        graph: &'g UncertainGraph,
        seed: u64,
        threads: usize,
        schedule: SampleSchedule,
        epsilon: f64,
        d_select: u32,
        d_cover: u32,
        kind: EngineKind,
    ) -> Result<Self, SamplingError> {
        let pool = BitParallelPool::<4>::new(graph, seed, threads)
            .with_finalization(kind == EngineKind::Adaptive);
        Self::from_engine_depths(Box::new(pool), schedule, epsilon, d_select, d_cover)
    }

    /// Wraps an already-built engine as a plain-connectivity oracle.
    pub fn from_engine(
        engine: Box<dyn WorldEngine + 'g>,
        schedule: SampleSchedule,
        epsilon: f64,
    ) -> Self {
        Self::from_engine_depths(engine, schedule, epsilon, DEPTH_UNLIMITED, DEPTH_UNLIMITED)
            .unwrap_or_else(|e| unreachable!("every engine answers unlimited depths: {e}"))
    }

    /// Wraps an already-built engine with selection depth `d_select` and
    /// cover depth `d_cover`.
    ///
    /// # Errors
    /// Returns [`SamplingError::InvalidDepths`] if `d_select > d_cover`,
    /// or [`SamplingError::DepthIncapableEngine`] if a finite depth is
    /// requested from an engine that cannot answer finite-depth queries —
    /// caught here, at construction, rather than panicking at the first
    /// query deep inside a clustering run.
    pub fn from_engine_depths(
        engine: Box<dyn WorldEngine + 'g>,
        schedule: SampleSchedule,
        epsilon: f64,
        d_select: u32,
        d_cover: u32,
    ) -> Result<Self, SamplingError> {
        if d_select > d_cover {
            return Err(SamplingError::InvalidDepths { d_select, d_cover });
        }
        let depths = Depths { select: d_select, cover: d_cover };
        if !depths.unlimited() && !engine.supports_finite_depths() {
            return Err(SamplingError::DepthIncapableEngine);
        }
        let n = engine.graph().num_nodes();
        let active = engine.num_samples();
        Ok(McOracle {
            engine,
            schedule,
            epsilon,
            active,
            depths,
            scratch: Scratch::default(),
            cache: RowCache::new(true, n, if depths.identical() { 1 } else { 2 }),
            run: RunState::unlimited(),
        })
    }

    /// Enables or disables the per-center row cache (enabled by default).
    /// Disabling also drops any cached rows; estimates are identical either
    /// way — the cache trades memory (one or two integer rows per distinct
    /// center) for skipped pool sweeps.
    pub fn with_row_cache(mut self, enabled: bool) -> Self {
        self.cache.enabled = enabled;
        if !enabled {
            self.cache.clear();
        }
        self
    }

    /// Attaches a shared [`MemoryBudget`]: the backing engine charges its
    /// sample shards to it (evicting least-recently-used shards under
    /// pressure, bit-identically regenerated on demand) and the row cache
    /// admits new centers only while the ledger has headroom.
    pub fn with_memory_budget(mut self, budget: MemoryBudget) -> Self {
        self.engine.set_memory_budget(budget.clone());
        self.cache.set_budget(budget);
        self
    }

    /// The configured `(d_select, d_cover)` depths.
    pub fn depths(&self) -> (u32, u32) {
        (self.depths.select, self.depths.cover)
    }

    /// Read access to the backing engine (used by metrics and benches).
    pub fn engine(&self) -> &dyn WorldEngine {
        self.engine.as_ref()
    }

    /// `center`'s `(select, cover)` counts over the active window —
    /// `select` is empty when the rows are identical. Served through the
    /// row cache when it admits the center, otherwise counted into scratch
    /// (a full recompute).
    fn row_counts(&mut self, center: NodeId) -> Result<(&[u32], &[u32]), SamplingError> {
        let n = self.num_nodes();
        let r_now = self.active;
        let run = self.run.clone();
        let McOracle { engine, depths, scratch, cache, .. } = self;
        let depths = *depths;
        if !cache.admits(center) {
            let (select, cover) = scratch.rows(depths, 1, n);
            depths.count_row(engine.as_mut(), center, 0, r_now, select, cover);
            run.error()?;
            cache.stats.fulls += 1;
            let select: &[u32] = if depths.identical() { &[] } else { select };
            return Ok((select, cover));
        }
        let mut ctx = (engine, scratch);
        let row = cache.serve(
            &mut ctx,
            center,
            r_now,
            |(engine, scratch), row, lo| {
                let (select, cover) = scratch.rows(depths, 1, n);
                depths.count_row(engine.as_mut(), center, lo, r_now, select, cover);
                run.error()?;
                add_counts(&mut row.cover, cover);
                if !depths.identical() {
                    add_counts(&mut row.select, select);
                }
                Ok(())
            },
            |(engine, scratch)| {
                let (select, cover) = scratch.rows(depths, 1, n);
                depths.count_row(engine.as_mut(), center, 0, r_now, select, cover);
                run.error()?;
                // Identical rows: one stored row serves both radii.
                let select = if depths.identical() { Vec::new() } else { select.to_vec() };
                Ok(CachedRow { covered: r_now, select, cover: cover.to_vec() })
            },
        )?;
        Ok((&row.select, &row.cover))
    }
}

impl std::fmt::Debug for McOracle<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("McOracle")
            .field("samples", &self.engine.num_samples())
            .field("depths", &self.depths())
            .field("epsilon", &self.epsilon)
            .finish_non_exhaustive()
    }
}

impl Oracle for McOracle<'_> {
    fn num_nodes(&self) -> usize {
        self.engine.graph().num_nodes()
    }

    fn epsilon(&self) -> f64 {
        self.epsilon
    }

    fn prepare(&mut self, q: f64) -> Result<(), SamplingError> {
        let r = self.schedule.samples_for(q, self.num_nodes());
        self.active = self.active.max(r);
        self.engine.ensure(self.active);
        if let Err(e) = self.run.error() {
            // Growth stopped early: clamp the window to what the pool
            // actually holds so a BestEffort continuation never sweeps
            // worlds that were not generated.
            self.active = self.active.min(self.engine.num_samples());
            return Err(e);
        }
        Ok(())
    }

    fn set_run_state(&mut self, run: RunState) {
        self.run = run.clone();
        self.engine.set_run_state(run);
    }

    fn begin_request(&mut self) {
        self.active = 0;
    }

    fn num_samples(&self) -> usize {
        self.active
    }

    fn pool_samples(&self) -> usize {
        self.engine.num_samples()
    }

    fn center_probs(
        &mut self,
        center: NodeId,
        select: &mut [f64],
        cover: &mut [f64],
    ) -> Result<(), SamplingError> {
        let r = self.active.max(1) as f64;
        let identical = self.depths.identical();
        let (row_select, row_cover) = self.row_counts(center)?;
        write_probs(row_cover, r, cover);
        if identical {
            select.copy_from_slice(cover);
        } else {
            write_probs(row_select, r, select);
        }
        Ok(())
    }

    fn pair_prob(&mut self, u: NodeId, v: NodeId) -> Result<f64, SamplingError> {
        let r_now = self.active;
        if r_now == 0 {
            return Ok(0.0);
        }
        if !self.cache.admits(u) {
            let hits = self.depths.pair_count(self.engine.as_mut(), u, v, r_now);
            self.run.error()?;
            return Ok(hits as f64 / r_now as f64);
        }
        // Serve the pair from u's (cached) cover row: objective evaluation
        // asks one pair per node against a handful of centers, so the row
        // is computed once and every further pair is a lookup.
        let (_, cover) = self.row_counts(u)?;
        Ok(cover[v.index()] as f64 / r_now as f64)
    }

    /// Selection and cover rows coincide exactly when the two depths do
    /// (always for plain connectivity).
    fn identical_rows(&self) -> bool {
        self.depths.identical()
    }

    fn center_probs_batch(
        &mut self,
        centers: &[NodeId],
        select: &mut [f64],
        cover: &mut [f64],
    ) -> Result<(), SamplingError> {
        let n = self.num_nodes();
        let k = centers.len();
        assert_eq!(cover.len(), k * n, "batch cover buffer has wrong length");
        let depths = self.depths;
        let identical = depths.identical();
        assert!(
            select.len() == cover.len() || (select.is_empty() && identical),
            "batch select buffer has wrong length (empty requires identical rows)"
        );
        // Selection rows are written per row only when they differ from
        // the cover rows; otherwise one bulk copy fills them at the end.
        let write_select = !select.is_empty() && !identical;
        let r_now = self.active;
        let r = r_now.max(1) as f64;
        let run = self.run.clone();
        let McOracle { engine, scratch, cache, .. } = self;
        // Serve hits immediately; defer top-ups to grouped ranged sweeps
        // and misses to one batched full sweep over the active window.
        let mut missing: Vec<usize> = Vec::new();
        let mut topups: Vec<(usize, usize)> = Vec::new();
        if cache.enabled {
            for (j, &c) in centers.iter().enumerate() {
                match cache.classify(c, r_now) {
                    RowService::Hit => {
                        let row = &cache.rows[&c.0];
                        write_probs(&row.cover, r, &mut cover[j * n..(j + 1) * n]);
                        if write_select {
                            write_probs(&row.select, r, &mut select[j * n..(j + 1) * n]);
                        }
                    }
                    RowService::Topup { lo } => topups.push((j, lo)),
                    RowService::Miss => missing.push(j),
                }
            }
        } else {
            missing.extend(0..k);
        }
        // Top-up waves: rows cached at the same guess share their window
        // start, so one ranged multi-center sweep per group counts all the
        // new worlds (component sharing / multi-source BFS in the engine)
        // instead of one single-row ranged query per cached candidate.
        for g in plan_topups(topups, centers) {
            let (new_select, new_cover) = scratch.rows(depths, g.uniq.len(), n);
            depths.count_rows(engine.as_mut(), &g.uniq, g.lo, r_now, new_select, new_cover);
            // Validate the sweep before merging this group — an
            // interrupted ranged query must never add torn counts onto
            // cached rows (groups already merged are complete, which is
            // fine: their rows simply cover the window).
            run.error()?;
            let mut merged = vec![false; g.uniq.len()];
            for &(j, slot) in &g.entries {
                let row = cache
                    .rows
                    .get_mut(&centers[j].0)
                    .unwrap_or_else(|| unreachable!("planned top-up row is cached"));
                if merged[slot] {
                    // A duplicate center: its shared row is already up to
                    // date, so this request is a plain hit.
                    cache.stats.hits += 1;
                } else {
                    add_counts(&mut row.cover, &new_cover[slot * n..(slot + 1) * n]);
                    if !identical {
                        add_counts(&mut row.select, &new_select[slot * n..(slot + 1) * n]);
                    }
                    row.covered = r_now;
                    cache.stats.topups += 1;
                    merged[slot] = true;
                }
                write_probs(&row.cover, r, &mut cover[j * n..(j + 1) * n]);
                if write_select {
                    write_probs(&row.select, r, &mut select[j * n..(j + 1) * n]);
                }
            }
        }
        if !missing.is_empty() {
            let miss_centers: Vec<NodeId> = missing.iter().map(|&j| centers[j]).collect();
            let (new_select, new_cover) = scratch.rows(depths, missing.len(), n);
            depths.count_rows(engine.as_mut(), &miss_centers, 0, r_now, new_select, new_cover);
            run.error()?;
            cache.stats.fulls += missing.len();
            for (bi, &j) in missing.iter().enumerate() {
                let row_cover = &new_cover[bi * n..(bi + 1) * n];
                let row_select =
                    if identical { &[][..] } else { &new_select[bi * n..(bi + 1) * n] };
                write_probs(row_cover, r, &mut cover[j * n..(j + 1) * n]);
                if write_select {
                    write_probs(row_select, r, &mut select[j * n..(j + 1) * n]);
                }
                if cache.admits(centers[j]) {
                    faults::hit(FaultSite::BudgetAdmission)?;
                    cache.insert(
                        centers[j],
                        CachedRow {
                            covered: r_now,
                            select: row_select.to_vec(),
                            cover: row_cover.to_vec(),
                        },
                    );
                }
            }
        }
        // Identical-rows fast path: each row was written once into `cover`;
        // a non-empty select buffer gets one bulk copy.
        if !select.is_empty() && identical {
            select.copy_from_slice(cover);
        }
        Ok(())
    }

    fn cache_stats(&self) -> RowCacheStats {
        self.cache.stats
    }

    fn engine_stats(&self) -> EngineStats {
        self.engine.engine_stats()
    }

    fn memory_stats(&self) -> MemoryStats {
        let mut stats = self.engine.memory_stats();
        stats.bytes_held += self.cache.bytes;
        stats
    }
}

/// The depth-limited constructor under the name it had while depth-limited
/// oracles were a type of their own. The end-to-end benchmark package
/// (`perfbench/`) is revised separately from the library and still builds
/// its depth-limited oracles through this name, so it stays until the
/// benchmark's next revision. It has no fields and returns a [`McOracle`];
/// new code calls [`McOracle::from_engine_depths`].
#[derive(Clone, Copy, Debug)]
pub struct DepthMcOracle;

impl DepthMcOracle {
    /// [`McOracle::from_engine_depths`].
    ///
    /// # Errors
    /// As [`McOracle::from_engine_depths`].
    pub fn from_engine<'g>(
        engine: Box<dyn WorldEngine + 'g>,
        schedule: SampleSchedule,
        epsilon: f64,
        d_select: u32,
        d_cover: u32,
    ) -> Result<McOracle<'g>, SamplingError> {
        McOracle::from_engine_depths(engine, schedule, epsilon, d_select, d_cover)
    }
}

/// Adapter exposing an [`ExactOracle`] through the [`Oracle`] trait
/// (selection and cover probabilities coincide; build the inner oracle
/// with [`ExactOracle::with_depth`] for exact depth-limited variants).
pub struct ExactOracleAdapter {
    inner: ExactOracle,
}

impl ExactOracleAdapter {
    /// Wraps an exact oracle.
    pub fn new(inner: ExactOracle) -> Self {
        ExactOracleAdapter { inner }
    }

    /// The wrapped oracle.
    pub fn inner(&self) -> &ExactOracle {
        &self.inner
    }
}

impl Oracle for ExactOracleAdapter {
    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }

    fn epsilon(&self) -> f64 {
        0.0
    }

    fn prepare(&mut self, _q: f64) -> Result<(), SamplingError> {
        Ok(())
    }

    fn num_samples(&self) -> usize {
        1
    }

    fn center_probs(
        &mut self,
        center: NodeId,
        select: &mut [f64],
        cover: &mut [f64],
    ) -> Result<(), SamplingError> {
        let row = self.inner.probs_from(center);
        select.copy_from_slice(row);
        cover.copy_from_slice(row);
        Ok(())
    }

    fn pair_prob(&mut self, u: NodeId, v: NodeId) -> Result<f64, SamplingError> {
        Ok(self.inner.pair_probability(u, v))
    }

    /// Exact oracles have a single radius.
    fn identical_rows(&self) -> bool {
        true
    }

    fn center_probs_batch(
        &mut self,
        centers: &[NodeId],
        select: &mut [f64],
        cover: &mut [f64],
    ) -> Result<(), SamplingError> {
        let n = self.num_nodes();
        assert_eq!(cover.len(), centers.len() * n, "batch cover buffer has wrong length");
        assert!(
            select.is_empty() || select.len() == cover.len(),
            "batch select buffer has wrong length"
        );
        for (j, &c) in centers.iter().enumerate() {
            cover[j * n..(j + 1) * n].copy_from_slice(self.inner.probs_from(c));
        }
        if !select.is_empty() {
            select.copy_from_slice(cover);
        }
        Ok(())
    }
}

/// Internal check that the unlimited sentinel is what engines expect.
const _: () = assert!(DEPTH_UNLIMITED == u32::MAX);

#[cfg(test)]
mod tests {
    use super::*;
    use ugraph_graph::GraphBuilder;

    const UNLIMITED: (u32, u32) = (DEPTH_UNLIMITED, DEPTH_UNLIMITED);

    /// Depth-limited shapes of the oracle-level equivalence tests:
    /// identical finite depths, and a selection depth below the cover depth
    /// (the only shape with a separate selection row). Each equivalence
    /// check runs once over `[UNLIMITED]` and once over these.
    const DEPTH_SHAPES: [(u32, u32); 2] = [(2, 2), (1, 3)];

    const ENGINES: [EngineKind; 2] = [EngineKind::BitParallel, EngineKind::Adaptive];

    fn chain(n: u32, p: f64) -> UncertainGraph {
        let mut b = GraphBuilder::new(n as usize);
        for i in 0..n - 1 {
            b.add_edge(i, i + 1, p).unwrap();
        }
        b.build().unwrap()
    }

    /// A single-threaded oracle at `depths` on `kind`.
    fn oracle(
        g: &UncertainGraph,
        seed: u64,
        schedule: SampleSchedule,
        (d_select, d_cover): (u32, u32),
        kind: EngineKind,
    ) -> McOracle<'_> {
        McOracle::with_engine(g, seed, 1, schedule, 0.1, d_select, d_cover, kind).unwrap()
    }

    /// A single-threaded oracle at `depths` over a pool of `64·W`-world
    /// blocks, adaptive or pure-mask as `kind` selects.
    fn oracle_at<const W: usize>(
        g: &UncertainGraph,
        seed: u64,
        schedule: SampleSchedule,
        (d_select, d_cover): (u32, u32),
        kind: EngineKind,
    ) -> McOracle<'_> {
        let pool =
            BitParallelPool::<W>::new(g, seed, 1).with_finalization(kind == EngineKind::Adaptive);
        McOracle::from_engine_depths(Box::new(pool), schedule, 0.1, d_select, d_cover).unwrap()
    }

    #[test]
    fn mc_oracle_prepare_grows_pool() {
        let g = chain(6, 0.5);
        let mut o = oracle(&g, 1, SampleSchedule::practical(), UNLIMITED, EngineKind::Adaptive);
        assert_eq!(o.num_samples(), 0);
        o.prepare(1.0).unwrap();
        assert_eq!(o.num_samples(), 50);
        o.prepare(0.1).unwrap();
        assert_eq!(o.num_samples(), 500);
        o.prepare(0.5).unwrap(); // never shrinks
        assert_eq!(o.num_samples(), 500);
    }

    #[test]
    fn mc_oracle_center_probs_match_exact_roughly() {
        let g = chain(4, 0.8);
        let exact = ExactOracle::new(&g).unwrap();
        let mut o = oracle(&g, 42, SampleSchedule::Fixed(8000), UNLIMITED, EngineKind::Adaptive);
        o.prepare(0.1).unwrap();
        let mut sel = vec![0.0; 4];
        let mut cov = vec![0.0; 4];
        o.center_probs(NodeId(0), &mut sel, &mut cov).unwrap();
        assert_eq!(sel, cov, "unlimited oracle: select == cover");
        for v in 0..4u32 {
            let want = exact.pair_probability(NodeId(0), NodeId(v));
            assert!(
                (cov[v as usize] - want).abs() < 0.03,
                "Pr(0~{v}) est {} vs exact {want}",
                cov[v as usize]
            );
        }
    }

    /// Every engine and block width serves the rows and pair
    /// probabilities of the pure-mask width-64 engine.
    fn check_backends_agree_bit_for_bit(shapes: &[(u32, u32)]) {
        let g = chain(9, 0.6);
        let schedule = SampleSchedule::Fixed(90);
        for &depths in shapes {
            let mut base = oracle_at::<1>(&g, 7, schedule, depths, EngineKind::BitParallel);
            base.prepare(0.5).unwrap();
            for kind in ENGINES {
                let widths = [
                    (64, oracle_at::<1>(&g, 7, schedule, depths, kind)),
                    (256, oracle_at::<4>(&g, 7, schedule, depths, kind)),
                    (512, oracle_at::<8>(&g, 7, schedule, depths, kind)),
                ];
                for (width, mut other) in widths {
                    let tag = format!("{depths:?} {kind:?} width {width}");
                    other.prepare(0.5).unwrap();
                    assert_eq!(base.num_samples(), other.num_samples());
                    let (mut s1, mut c1) = (vec![0.0; 9], vec![0.0; 9]);
                    let (mut s2, mut c2) = (vec![0.0; 9], vec![0.0; 9]);
                    for c in 0..9u32 {
                        base.center_probs(NodeId(c), &mut s1, &mut c1).unwrap();
                        other.center_probs(NodeId(c), &mut s2, &mut c2).unwrap();
                        assert_eq!(s1, s2, "{tag}: select rows differ at center {c}");
                        assert_eq!(c1, c2, "{tag}: cover rows differ at center {c}");
                    }
                    for v in 1..9u32 {
                        assert_eq!(
                            base.pair_prob(NodeId(0), NodeId(v)).unwrap(),
                            other.pair_prob(NodeId(0), NodeId(v)).unwrap(),
                            "{tag}: pair_prob differs at {v}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn mc_oracle_backends_agree_bit_for_bit() {
        check_backends_agree_bit_for_bit(&[UNLIMITED]);
    }

    #[test]
    fn depth_oracle_backends_agree_bit_for_bit() {
        check_backends_agree_bit_for_bit(&DEPTH_SHAPES);
    }

    #[test]
    fn depth_oracle_select_below_cover() {
        let g = chain(5, 1.0);
        let mut o = oracle(&g, 1, SampleSchedule::Fixed(10), (1, 3), EngineKind::Adaptive);
        o.prepare(1.0).unwrap();
        let mut sel = vec![0.0; 5];
        let mut cov = vec![0.0; 5];
        o.center_probs(NodeId(0), &mut sel, &mut cov).unwrap();
        assert_eq!(sel, vec![1.0, 1.0, 0.0, 0.0, 0.0]);
        assert_eq!(cov, vec![1.0, 1.0, 1.0, 1.0, 0.0]);
        assert_eq!(o.depths(), (1, 3));
    }

    #[test]
    fn depth_oracle_pair_prob_uses_cover_depth() {
        let g = chain(4, 1.0);
        let mut o = oracle(&g, 1, SampleSchedule::Fixed(5), (1, 2), EngineKind::Adaptive);
        o.prepare(1.0).unwrap();
        assert_eq!(o.pair_prob(NodeId(0), NodeId(2)).unwrap(), 1.0);
        assert_eq!(o.pair_prob(NodeId(0), NodeId(3)).unwrap(), 0.0);
    }

    #[test]
    fn exact_adapter_is_exact() {
        let g = chain(3, 0.5);
        let mut o = ExactOracleAdapter::new(ExactOracle::new(&g).unwrap());
        assert_eq!(o.epsilon(), 0.0);
        o.prepare(1e-9).unwrap(); // no-op
        let mut sel = vec![0.0; 3];
        let mut cov = vec![0.0; 3];
        o.center_probs(NodeId(0), &mut sel, &mut cov).unwrap();
        assert!((cov[1] - 0.5).abs() < 1e-12);
        assert!((cov[2] - 0.25).abs() < 1e-12);
        assert_eq!(sel, cov);
        assert!((o.pair_prob(NodeId(0), NodeId(2)).unwrap() - 0.25).abs() < 1e-12);
    }

    /// A cached oracle serves the same rows as an uncached one while the
    /// pool grows, sequentially and batched.
    fn check_row_cache_identical_across_growth(shapes: &[(u32, u32)]) {
        let g = chain(8, 0.6);
        let schedule = SampleSchedule::practical();
        for &depths in shapes {
            for kind in ENGINES {
                let tag = format!("{depths:?} {kind:?}");
                let mut cached = oracle(&g, 11, schedule, depths, kind);
                let mut plain = oracle(&g, 11, schedule, depths, kind).with_row_cache(false);
                assert_eq!(cached.identical_rows(), depths.0 == depths.1, "{tag}");
                let (mut s1, mut c1) = (vec![0.0; 8], vec![0.0; 8]);
                let (mut s2, mut c2) = (vec![0.0; 8], vec![0.0; 8]);
                // Interleave growth and queries so hits, top-ups, and full
                // recomputes all occur.
                for q in [1.0, 1.0, 0.5, 0.2, 0.2, 0.05] {
                    cached.prepare(q).unwrap();
                    plain.prepare(q).unwrap();
                    for c in 0..8u32 {
                        cached.center_probs(NodeId(c), &mut s1, &mut c1).unwrap();
                        plain.center_probs(NodeId(c), &mut s2, &mut c2).unwrap();
                        assert_eq!(c1, c2, "{tag}: cover rows differ at center {c}, q {q}");
                        assert_eq!(s1, s2, "{tag}: select rows differ at center {c}, q {q}");
                    }
                }
                let stats = cached.cache_stats();
                assert_eq!(stats.fulls, 8, "{tag}: first pass computes each row once");
                assert!(stats.hits > 0, "{tag}: repeated thresholds must hit");
                assert!(stats.topups > 0, "{tag}: growth must top up, not recompute");
                assert_eq!(stats.rows_served(), 6 * 8);
                let plain_stats = plain.cache_stats();
                assert_eq!((plain_stats.hits, plain_stats.topups), (0, 0));
                assert_eq!(plain_stats.fulls, 6 * 8);
                // Batched rows (all hits now) agree with the sequential ones.
                let centers: Vec<NodeId> = (0..8).map(NodeId).collect();
                let (mut bs, mut bc) = (vec![0.0; 8 * 8], vec![0.0; 8 * 8]);
                cached.center_probs_batch(&centers, &mut bs, &mut bc).unwrap();
                for (j, &c) in centers.iter().enumerate() {
                    plain.center_probs(c, &mut s2, &mut c2).unwrap();
                    assert_eq!(&bs[j * 8..(j + 1) * 8], &s2[..], "{tag}: batch select row {c}");
                    assert_eq!(&bc[j * 8..(j + 1) * 8], &c2[..], "{tag}: batch cover row {c}");
                }
            }
        }
    }

    #[test]
    fn row_cache_serves_identical_estimates_across_growth() {
        check_row_cache_identical_across_growth(&[UNLIMITED]);
    }

    #[test]
    fn depth_oracle_cache_identical_across_growth() {
        check_row_cache_identical_across_growth(&DEPTH_SHAPES);
    }

    #[test]
    fn batched_probs_match_sequential_and_use_cache() {
        let g = chain(9, 0.5);
        let schedule = SampleSchedule::practical();
        let mut o = oracle(&g, 3, schedule, UNLIMITED, EngineKind::Adaptive);
        o.prepare(0.5).unwrap();
        let centers: Vec<NodeId> = [2u32, 7, 2, 0].iter().map(|&c| NodeId(c)).collect();
        let n = 9;
        let mut want = vec![0.0; centers.len() * n];
        {
            let mut scratch = vec![0.0; n];
            let mut fresh = oracle(&g, 3, schedule, UNLIMITED, EngineKind::Adaptive);
            fresh.prepare(0.5).unwrap();
            for (j, &c) in centers.iter().enumerate() {
                fresh.center_probs(c, &mut scratch, &mut want[j * n..(j + 1) * n]).unwrap();
            }
        }
        // Empty select buffer: identical-rows fast path.
        let mut cov = vec![0.0; centers.len() * n];
        o.center_probs_batch(&centers, &mut [], &mut cov).unwrap();
        assert_eq!(cov, want);
        // Duplicate centers within one batch are both computed (misses are
        // deferred to a single engine sweep, so the second occurrence
        // cannot see the first's row yet) — correct, just not deduped.
        assert_eq!(o.cache_stats().fulls, 4);
        assert_eq!(o.cache_stats().hits, 0);
        // Full select buffer agrees too.
        let mut sel = vec![0.0; centers.len() * n];
        cov.fill(0.0);
        o.center_probs_batch(&centers, &mut sel, &mut cov).unwrap();
        assert_eq!(cov, want);
        assert_eq!(sel, want);
    }

    #[test]
    fn row_cache_budget_stops_admitting_new_centers() {
        // Derived cap: 1 GiB budget over n·rows_per_center entries.
        let c = RowCache::new(true, 1 << 20, 2);
        assert_eq!(c.max_rows, (1 << 28) / (1 << 21));
        // Once at capacity, known centers still go through the cache but
        // new ones are computed without admission.
        let mut c = RowCache::new(true, 4, 1);
        c.max_rows = 1;
        assert!(c.admits(NodeId(0)));
        c.rows.insert(0, CachedRow { covered: 1, select: Vec::new(), cover: vec![0; 4] });
        assert!(c.admits(NodeId(0)), "cached center keeps serving");
        assert!(!c.admits(NodeId(1)), "budget exhausted: no new admissions");
        let disabled = RowCache::new(false, 4, 1);
        assert!(!disabled.admits(NodeId(0)));
    }

    #[test]
    fn memory_budget_gates_cache_admission_and_charges_ledger() {
        let g = chain(8, 0.6);
        let schedule = SampleSchedule::Fixed(40);
        // A budget too small even for one shard or one cached row: the
        // cache is starved, yet estimates match the unbounded oracle —
        // shards evict and regenerate bit-identically.
        let tiny = MemoryBudget::bounded(32);
        let mut starved = oracle(&g, 11, schedule, UNLIMITED, EngineKind::Adaptive)
            .with_memory_budget(tiny.clone());
        starved.prepare(0.5).unwrap();
        let mut plain = oracle(&g, 11, schedule, UNLIMITED, EngineKind::Adaptive);
        plain.prepare(0.5).unwrap();
        let (mut s, mut c) = (vec![0.0; 8], vec![0.0; 8]);
        let (mut s2, mut c2) = (vec![0.0; 8], vec![0.0; 8]);
        for u in 0..8u32 {
            starved.center_probs(NodeId(u), &mut s, &mut c).unwrap();
            plain.center_probs(NodeId(u), &mut s2, &mut c2).unwrap();
            assert_eq!(c, c2, "budgeted estimates differ at center {u}");
        }
        assert_eq!(starved.cache.rows.len(), 0, "no room for a row: nothing admitted");
        assert!(starved.memory_stats().shards_evicted > 0, "tiny budget must evict");

        // A roomy budget admits rows and charges them to the shared
        // ledger; dropping the oracle releases everything.
        let roomy = MemoryBudget::bounded(1 << 20);
        let mut o = oracle(&g, 11, schedule, UNLIMITED, EngineKind::Adaptive)
            .with_memory_budget(roomy.clone());
        o.prepare(0.5).unwrap();
        o.center_probs(NodeId(0), &mut s, &mut c).unwrap();
        o.center_probs(NodeId(1), &mut s, &mut c).unwrap();
        assert_eq!(o.cache.rows.len(), 2);
        assert_eq!(o.cache.bytes, 2 * 32, "8-node u32 rows are 32 bytes each");
        assert!(o.memory_stats().bytes_held >= 64);
        assert!(roomy.bytes_held() >= 64);
        drop(o);
        assert_eq!(roomy.bytes_held(), 0, "dropping the oracle releases everything");

        // set_budget tightens the admission cap to half the limit.
        let mut cache = RowCache::new(true, 8, 1);
        let ledger = MemoryBudget::bounded(80);
        cache.set_budget(ledger.clone()); // (80/2)/32 = 1 row
        assert_eq!(cache.max_rows, 1);
        // Ledger headroom gates admission on its own: the cap admits one
        // row, but not while resident shards leave no room for it.
        ledger.charge(60);
        assert!(!cache.admits(NodeId(0)), "no headroom: nothing admitted");
        ledger.release(60);
        assert!(cache.admits(NodeId(0)));
    }

    #[test]
    fn equal_depths_advertise_identical_rows() {
        let g = chain(5, 1.0);
        let mut o = oracle(&g, 1, SampleSchedule::Fixed(10), (2, 2), EngineKind::Adaptive);
        assert!(o.identical_rows());
        o.prepare(1.0).unwrap();
        let mut cov = vec![0.0; 10];
        o.center_probs_batch(&[NodeId(0), NodeId(2)], &mut [], &mut cov).unwrap();
        assert_eq!(cov[..5], [1.0, 1.0, 1.0, 0.0, 0.0]);
        assert_eq!(cov[5..], [1.0, 1.0, 1.0, 1.0, 1.0]);
    }

    /// A warm oracle whose pool grew to 500 worlds in a previous request
    /// must, after begin_request, serve a small request over exactly the
    /// 50-world prefix a fresh oracle would use — including rows that were
    /// cached at larger coverage (rebuilt over the window).
    fn check_begin_request_identical_to_fresh(shapes: &[(u32, u32)]) {
        let g = chain(9, 0.6);
        let schedule = SampleSchedule::practical();
        for &depths in shapes {
            for kind in ENGINES {
                let tag = format!("{depths:?} {kind:?}");
                let mut warm = oracle(&g, 7, schedule, depths, kind);
                warm.prepare(0.1).unwrap(); // grows active + physical to 500
                let (mut s1, mut c1) = (vec![0.0; 9], vec![0.0; 9]);
                for c in 0..9u32 {
                    warm.center_probs(NodeId(c), &mut s1, &mut c1).unwrap();
                }
                assert_eq!(warm.num_samples(), 500);

                warm.begin_request();
                assert_eq!(warm.num_samples(), 0);
                warm.prepare(1.0).unwrap(); // active 50, physical stays 500
                assert_eq!(warm.num_samples(), 50);
                assert_eq!(warm.pool_samples(), 500);

                let mut fresh = oracle(&g, 7, schedule, depths, kind);
                fresh.prepare(1.0).unwrap();
                let (mut s2, mut c2) = (vec![0.0; 9], vec![0.0; 9]);
                for c in 0..9u32 {
                    warm.center_probs(NodeId(c), &mut s1, &mut c1).unwrap();
                    fresh.center_probs(NodeId(c), &mut s2, &mut c2).unwrap();
                    assert_eq!(c1, c2, "{tag}: warm cover row differs from fresh at {c}");
                    assert_eq!(s1, s2, "{tag}: warm select row differs from fresh at {c}");
                    assert_eq!(
                        warm.pair_prob(NodeId(0), NodeId(c)).unwrap(),
                        fresh.pair_prob(NodeId(0), NodeId(c)).unwrap(),
                        "{tag}: warm pair_prob differs at {c}"
                    );
                }
                // Growing the window again inside the second request tops
                // the (rebuilt) rows up incrementally and stays
                // fresh-identical.
                warm.prepare(0.2).unwrap();
                fresh.prepare(0.2).unwrap();
                for c in 0..9u32 {
                    warm.center_probs(NodeId(c), &mut s1, &mut c1).unwrap();
                    fresh.center_probs(NodeId(c), &mut s2, &mut c2).unwrap();
                    assert_eq!(c1, c2, "{tag}: post-growth cover row differs at {c}");
                    assert_eq!(s1, s2, "{tag}: post-growth select row differs at {c}");
                }
            }
        }
    }

    #[test]
    fn begin_request_makes_warm_oracle_identical_to_fresh() {
        check_begin_request_identical_to_fresh(&[UNLIMITED]);
    }

    #[test]
    fn begin_request_depth_oracle_identical_to_fresh() {
        check_begin_request_identical_to_fresh(&DEPTH_SHAPES);
    }

    #[test]
    fn batched_topups_are_grouped_and_deduplicated() {
        let g = chain(9, 0.5);
        let schedule = SampleSchedule::practical();
        let mut o = oracle(&g, 3, schedule, UNLIMITED, EngineKind::Adaptive);
        o.prepare(1.0).unwrap(); // 50 samples
        let centers: Vec<NodeId> = (0..6).map(NodeId).collect();
        let n = 9;
        let mut cov = vec![0.0; centers.len() * n];
        o.center_probs_batch(&centers, &mut [], &mut cov).unwrap();
        assert_eq!(o.cache_stats().fulls, 6);
        // Grow to 100: all six rows now need the same window. Duplicate
        // center 2 in the batch: one shared ranged row, the second
        // occurrence served as a hit.
        o.prepare(0.5).unwrap();
        let batch: Vec<NodeId> = [0u32, 2, 2, 5].iter().map(|&c| NodeId(c)).collect();
        let mut cov2 = vec![0.0; batch.len() * n];
        o.center_probs_batch(&batch, &mut [], &mut cov2).unwrap();
        let stats = o.cache_stats();
        assert_eq!(stats.topups, 3, "three distinct rows topped up, grouped by window start");
        assert_eq!(stats.hits, 1, "duplicate center served from the freshly topped row");
        assert_eq!(stats.fulls, 6, "no recomputes");
        // Values equal an uncached oracle's.
        let mut plain =
            oracle(&g, 3, schedule, UNLIMITED, EngineKind::Adaptive).with_row_cache(false);
        plain.prepare(1.0).unwrap();
        plain.prepare(0.5).unwrap();
        let mut want = vec![0.0; batch.len() * n];
        plain.center_probs_batch(&batch, &mut [], &mut want).unwrap();
        assert_eq!(cov2, want);
        // Both rows of the duplicate agree.
        assert_eq!(cov2[n..2 * n], cov2[2 * n..3 * n]);
    }

    #[test]
    fn depth_oracle_rejects_bad_depths() {
        let g = chain(3, 0.5);
        let err = McOracle::with_engine(
            &g,
            1,
            1,
            SampleSchedule::Fixed(5),
            0.1,
            3,
            2,
            EngineKind::Adaptive,
        )
        .unwrap_err();
        assert_eq!(err, SamplingError::InvalidDepths { d_select: 3, d_cover: 2 });
    }

    /// An engine that answers unlimited-depth queries only.
    struct UnlimitedOnly<'g>(BitParallelPool<'g>);

    impl WorldEngine for UnlimitedOnly<'_> {
        fn graph(&self) -> &UncertainGraph {
            self.0.graph()
        }

        fn supports_finite_depths(&self) -> bool {
            false
        }

        fn num_samples(&self) -> usize {
            self.0.num_samples()
        }

        fn ensure(&mut self, r: usize) {
            self.0.ensure(r);
        }

        fn counts_from_center_range(&mut self, c: NodeId, lo: usize, hi: usize, out: &mut [u32]) {
            self.0.counts_from_center_range(c, lo, hi, out);
        }

        fn counts_within_depths_range(
            &mut self,
            _: NodeId,
            _: u32,
            _: u32,
            _: usize,
            _: usize,
            _: &mut [u32],
            _: &mut [u32],
        ) {
            unreachable!("finite depths are rejected at oracle construction")
        }
    }

    #[test]
    fn depth_oracle_rejects_depth_incapable_engine() {
        let g = chain(3, 0.5);
        let engine = Box::new(UnlimitedOnly(BitParallelPool::new(&g, 1, 1)));
        let err = McOracle::from_engine_depths(engine, SampleSchedule::Fixed(5), 0.1, 1, 2)
            .expect_err("an unlimited-only engine cannot back a finite-depth oracle");
        assert_eq!(err, SamplingError::DepthIncapableEngine);
        // The former type name builds the same oracle.
        let engine = Box::new(UnlimitedOnly(BitParallelPool::new(&g, 1, 1)));
        let err = DepthMcOracle::from_engine(engine, SampleSchedule::Fixed(5), 0.1, 1, 2)
            .expect_err("an unlimited-only engine cannot back a finite-depth oracle");
        assert_eq!(err, SamplingError::DepthIncapableEngine);
        // At unlimited depths it is a valid engine.
        let engine = Box::new(UnlimitedOnly(BitParallelPool::new(&g, 1, 1)));
        let mut o = McOracle::from_engine(engine, SampleSchedule::Fixed(5), 0.1);
        o.prepare(1.0).unwrap();
        assert_eq!(o.pair_prob(NodeId(0), NodeId(0)).unwrap(), 1.0);
    }
}
