//! Shared parallelism heuristics for the sample-pool backends.
//!
//! Every operation of the block pool ([`crate::BitParallelPool`]) faces the
//! same dispatch decision: is the batch big enough that a rayon fork-join
//! pays for itself? The thresholds, the resolved thread configuration and
//! the chunked count kernels live here, next to the adaptive backend's
//! finalization and batch-dispatch heuristics.

use rayon::prelude::*;

/// Below this many items a parallel pass costs more than it saves.
///
/// Rationale: waking a rayon worker (or spawning a scoped thread under the
/// vendored subset) costs on the order of microseconds, while a single
/// sample-row accumulation is tens of nanoseconds; with fewer than ~32
/// rows per worker the dispatch overhead dominates even when the per-item
/// work estimate is pessimistic.
pub const MIN_PARALLEL_ITEMS: usize = 32;

/// Minimum estimated work units (`items × per-item cost`) before a query
/// takes the parallel path.
///
/// `per-item cost` is measured in elementary operations (e.g. `n` for a
/// query touching every node of every sample row, 1 for an O(1) per-row
/// predicate). Below `2¹⁶` total units, parallel dispatch (worker wake-up
/// under real rayon, scoped-thread spawn under the vendored subset) costs
/// more than the accumulation it distributes — a 64 Ki-operation
/// accumulation finishes in tens of microseconds on one core.
pub const MIN_PARALLEL_WORK: usize = 1 << 16;

/// Mask-path pair queries a 64-world block absorbs before the adaptive
/// backend finalizes its component labels anyway.
///
/// Rationale: finalizing a block costs roughly one connectivity-fixpoint
/// sweep over every component (≈ 2–3 single-source mask traversals) plus an
/// `O(64·n)` bucket sort, while a *single* pair query costs one traversal —
/// so a cold pair query should never pay full-block labeling. From the
/// third pair query on, labeling would already have been cheaper in
/// hindsight (finalized pair lookups are O(lanes) label compares), so the
/// heuristic converts the block at that point.
pub const FINALIZE_AFTER_MASK_QUERIES: u32 = 2;

/// Decides whether an unlimited-depth query against a not-yet-finalized
/// block of the adaptive backend should finalize its component labels
/// first (see [`FINALIZE_AFTER_MASK_QUERIES`]).
///
/// Full-row queries (`counts_from_center*` and the batched/ranged forms)
/// finalize **eagerly**: they traverse the whole block anyway, labeling
/// costs little more than the query itself, and the clustering drivers
/// re-query every pool many times — so the first row query converts the
/// block and every later unlimited query runs as a label scan.
/// Pair queries stay on masks while the block has absorbed fewer than
/// [`FINALIZE_AFTER_MASK_QUERIES`] of them; the next one converts it.
#[inline]
pub fn finalize_on_unlimited_query(full_row: bool, prior_mask_queries: u32) -> bool {
    full_row || prior_mask_queries >= FINALIZE_AFTER_MASK_QUERIES
}

/// Cost model deciding whether a **batched** multi-center unlimited query
/// over a finalized block should scan component labels or run the mask
/// component-sharing sweep.
///
/// Label scans cost one increment per (center, lane, member) —
/// `label_ops`, computable exactly from the finalized bucket sizes with
/// `k · lanes` lookups — independent of the block width. The sharing
/// sweep costs roughly one fixpoint traversal (`n + 2m` mask ops) plus
/// one AND+popcount inherit pass per center (`k · n`), each op touching
/// `words` `u64`s (the block width `W`) but answering `words · 64` worlds
/// at once. On supercritical instances (giant components,
/// `label_ops ≈ lanes · k · n`) sharing wins decisively; on shattered
/// subcritical blocks (`label_ops ≪ k · n`) the label scans win. Single
/// rows and pair queries always prefer labels — with `k = 1` there is
/// nothing for the traversal to amortize across. This gate only picks a
/// strategy; both sides produce identical counts.
#[inline]
pub fn labels_beat_shared_masks(
    label_ops: usize,
    n: usize,
    m: usize,
    k: usize,
    words: usize,
) -> bool {
    label_ops < (n + 2 * m + k * n) * words
}

/// A backend's rayon configuration, resolved **once** at pool
/// construction — re-resolving the worker count (a syscall) or rebuilding
/// a pinned pool on every query would burden the clustering inner loop.
///
/// `threads == 0` (the default) runs on the ambient/global rayon pool; any
/// other value pins a dedicated worker pool (persistent workers under real
/// rayon, a cheap scoped-thread handle under the vendored subset).
#[derive(Clone, Debug)]
pub struct ThreadConfig {
    /// Resolved worker count (never 0).
    workers: usize,
    /// The dedicated pool, shared across pool clones; `None` = ambient.
    pool: Option<std::sync::Arc<rayon::ThreadPool>>,
}

impl ThreadConfig {
    /// Resolves the configuration for a requested thread count
    /// (`0` = all available cores on the ambient pool).
    pub fn new(threads: usize) -> Self {
        let workers = if threads == 0 {
            std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
        } else {
            threads
        };
        // Spawning worker threads can genuinely fail (resource
        // exhaustion); there is no useful degraded mode here, so the
        // panic policy is deliberate.
        #[allow(clippy::expect_used)]
        let pool = (threads != 0).then(|| {
            std::sync::Arc::new(
                rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .expect("failed to build sampling thread pool"),
            )
        });
        ThreadConfig { workers, pool }
    }

    /// Runs `op` with this configuration's worker count governing rayon.
    pub fn run<R: Send>(&self, op: impl FnOnce() -> R + Send) -> R {
        match &self.pool {
            Some(pool) => pool.install(op),
            None => op(),
        }
    }

    /// Whether parallel generation of `count` new samples is worthwhile.
    /// Sampling a world is always expensive (one Bernoulli draw per edge),
    /// so any non-trivial batch parallelizes.
    pub fn parallel_generation(&self, count: usize) -> bool {
        count >= 4 && self.workers > 1
    }

    /// Whether a query over `items` units (mask blocks of the pool),
    /// costing roughly `per_item_work` operations each, should take the
    /// parallel path. Applies [`MIN_PARALLEL_ITEMS`] and [`MIN_PARALLEL_WORK`].
    pub fn parallel_query(&self, items: usize, per_item_work: usize) -> bool {
        self.workers > 1
            && items >= MIN_PARALLEL_ITEMS
            && items.saturating_mul(per_item_work.max(1)) >= MIN_PARALLEL_WORK
    }

    /// Chunk size that spreads `items` evenly over the workers.
    pub fn chunk_size(&self, items: usize) -> usize {
        items.div_ceil(self.workers).max(1)
    }
}

/// Element-wise `a[i] += b[i]`, the merge step of chunked count queries.
/// Counts are integers, so merged results are bit-identical no matter how
/// the items were chunked — the reproducibility contract of every backend.
pub fn merge_counts(mut a: Vec<u32>, b: Vec<u32>) -> Vec<u32> {
    debug_assert_eq!(a.len(), b.len());
    for (x, y) in a.iter_mut().zip(b) {
        *x += y;
    }
    a
}

/// Parallel-or-serial chunked count accumulation: runs `accumulate` over
/// chunks of `items` and merges the per-chunk count vectors, falling back
/// to a single serial pass when the parallel path is not worthwhile. The
/// serial path reuses the caller's traversal workspace `serial_ws`;
/// parallel workers build their own through `make_ws` (rayon `map_init`).
#[allow(clippy::too_many_arguments)]
pub fn chunked_counts_with<T: Sync, W: Send>(
    config: &ThreadConfig,
    items: &[T],
    n: usize,
    per_item_work: usize,
    serial_ws: &mut W,
    make_ws: impl Fn() -> W + Send + Sync,
    accumulate: impl Fn(&mut [u32], &mut W, &[T]) + Send + Sync,
    out: &mut [u32],
) {
    if !config.parallel_query(items.len(), per_item_work) {
        out.fill(0);
        accumulate(out, serial_ws, items);
        return;
    }
    let merged = config.run(|| {
        items
            .par_chunks(config.chunk_size(items.len()))
            .map_init(&make_ws, |ws, chunk| {
                let mut counts = vec![0u32; n];
                accumulate(&mut counts, ws, chunk);
                counts
            })
            .reduce(|| vec![0u32; n], merge_counts)
    });
    out.copy_from_slice(&merged);
}

/// Two-output variant of [`chunked_counts_with`] for queries that
/// accumulate a select row and a cover row in one pass.
#[allow(clippy::too_many_arguments)]
pub fn chunked_counts2_with<T: Sync, W: Send>(
    config: &ThreadConfig,
    items: &[T],
    n: usize,
    per_item_work: usize,
    serial_ws: &mut W,
    make_ws: impl Fn() -> W + Send + Sync,
    accumulate: impl Fn(&mut [u32], &mut [u32], &mut W, &[T]) + Send + Sync,
    out_a: &mut [u32],
    out_b: &mut [u32],
) {
    if !config.parallel_query(items.len(), per_item_work) {
        out_a.fill(0);
        out_b.fill(0);
        accumulate(out_a, out_b, serial_ws, items);
        return;
    }
    let (a, b) = config.run(|| {
        items
            .par_chunks(config.chunk_size(items.len()))
            .map_init(&make_ws, |ws, chunk| {
                let mut a = vec![0u32; n];
                let mut b = vec![0u32; n];
                accumulate(&mut a, &mut b, ws, chunk);
                (a, b)
            })
            .reduce(
                || (vec![0u32; n], vec![0u32; n]),
                |(a1, b1), (a2, b2)| (merge_counts(a1, a2), merge_counts(b1, b2)),
            )
    });
    out_a.copy_from_slice(&a);
    out_b.copy_from_slice(&b);
}

/// Parallel-or-serial chunked summation of a per-item statistic (the
/// scaffolding of every `pair_count*` query), under the same dispatch
/// gate and workspace policy as [`chunked_counts_with`].
pub fn chunked_sum_with<T: Sync, W: Send>(
    config: &ThreadConfig,
    items: &[T],
    per_item_work: usize,
    serial_ws: &mut W,
    make_ws: impl Fn() -> W + Send + Sync,
    per_item: impl Fn(&mut W, &T) -> usize + Send + Sync,
) -> usize {
    if !config.parallel_query(items.len(), per_item_work) {
        return items.iter().map(|item| per_item(serial_ws, item)).sum();
    }
    config.run(|| {
        items
            .par_chunks(config.chunk_size(items.len()))
            .map_init(&make_ws, |ws, chunk| {
                chunk.iter().map(|item| per_item(ws, item)).sum::<usize>()
            })
            .sum()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_config_resolves_workers() {
        let c = ThreadConfig::new(3);
        assert_eq!(c.workers, 3);
        assert!(c.pool.is_some());
        let ambient = ThreadConfig::new(0);
        assert!(ambient.workers >= 1);
        assert!(ambient.pool.is_none());
    }

    #[test]
    fn parallel_query_gates() {
        let c = ThreadConfig::new(4);
        assert!(!c.parallel_query(MIN_PARALLEL_ITEMS - 1, usize::MAX));
        assert!(!c.parallel_query(MIN_PARALLEL_ITEMS, 1));
        assert!(c.parallel_query(MIN_PARALLEL_ITEMS, MIN_PARALLEL_WORK));
        let serial = ThreadConfig::new(1);
        assert!(!serial.parallel_query(1 << 20, 1 << 20));
    }

    #[test]
    fn merge_counts_adds_elementwise() {
        assert_eq!(merge_counts(vec![1, 2, 3], vec![10, 20, 30]), vec![11, 22, 33]);
    }

    #[test]
    fn chunked_counts_matches_serial() {
        let items: Vec<u32> = (0..5000).collect();
        let accumulate = |counts: &mut [u32], (): &mut (), chunk: &[u32]| {
            for &x in chunk {
                counts[(x % 16) as usize] += 1;
            }
        };
        let mut serial = vec![0u32; 16];
        let mut parallel = vec![0u32; 16];
        for (threads, out) in [(1, &mut serial), (4, &mut parallel)] {
            let config = ThreadConfig::new(threads);
            chunked_counts_with(&config, &items, 16, 100, &mut (), || (), accumulate, out);
        }
        assert_eq!(serial, parallel);
        assert_eq!(serial.iter().sum::<u32>(), 5000);
    }
}
