//! Shared parallelism heuristics for the sample-pool backends.
//!
//! Every operation of the block pool ([`crate::BitParallelPool`]) faces the
//! same dispatch decision: is the batch big enough that a rayon fork-join
//! pays for itself? The thresholds, the resolved thread configuration and
//! the one chunked count helper ([`chunked_counts_with`], which every
//! count query's block sweep goes through) live here, next to the
//! adaptive backend's batch-dispatch cost model.

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

/// Cost model deciding whether a **batched** multi-center unlimited query
/// over a finalized block should scan component labels or run the mask
/// component-sharing sweep.
///
/// Label scans are modelled at one increment per (center, lane, member) —
/// `label_ops`, the summed sizes of each center's component in each
/// lane, from the finalized labels with `k · lanes` lookups —
/// independent of the block width. The labels now answer a center's
/// lanes in the largest component with one AND+popcount per node, far
/// below that count; the model still counts members on purpose, so every
/// dispatch decision and its counters stay as they were, and re-deriving
/// it for the cheaper kernel is a change of its own. The sharing
/// sweep costs roughly one fixpoint traversal (`n + 2m` mask ops) plus
/// one AND+popcount inherit pass per center (`k · n`), each op touching
/// `words` `u64`s (the block width `W`) but answering `words · 64` worlds
/// at once. On supercritical instances (giant components,
/// `label_ops ≈ lanes · k · n`) sharing wins decisively; on shattered
/// subcritical blocks (`label_ops ≪ k · n`) the label scans win. Single
/// rows (and pairs, which read a row) always use labels — with `k = 1`
/// there is nothing for the traversal to amortize across. This gate only
/// picks a strategy; both sides produce identical counts.
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
    /// The dedicated worker pool; `None` = ambient.
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
pub fn merge_counts(a: &mut [u32], b: &[u32]) {
    debug_assert_eq!(a.len(), b.len());
    for (x, y) in a.iter_mut().zip(b) {
        *x += y;
    }
}

/// Parallel-or-serial chunked count accumulation into `N` output rows:
/// runs `accumulate` over chunks of `items` and adds up the per-chunk
/// rows, falling back to a single serial pass when the parallel path is
/// not worthwhile. The serial path zeroes the caller's rows and
/// accumulates straight into them on the caller's traversal workspace
/// `serial_ws`; parallel workers build their own workspaces through
/// `make_ws` (rayon `map_init`) and their own zeroed rows, which are merged
/// and copied out.
pub fn chunked_counts_with<T: Sync, W: Send, const N: usize>(
    config: &ThreadConfig,
    items: &[T],
    per_item_work: usize,
    serial_ws: &mut W,
    make_ws: impl Fn() -> W + Send + Sync,
    accumulate: impl Fn(&mut [&mut [u32]; N], &mut W, &[T]) + Send + Sync,
    mut outs: [&mut [u32]; N],
) {
    if !config.parallel_query(items.len(), per_item_work) {
        for out in &mut outs {
            out.fill(0);
        }
        accumulate(&mut outs, serial_ws, items);
        return;
    }
    let lens = outs.each_ref().map(|out| out.len());
    let zero = || lens.map(|len| vec![0u32; len]);
    let merged = config.run(|| {
        items
            .par_chunks(config.chunk_size(items.len()))
            .map_init(&make_ws, |ws, chunk| {
                let mut rows = zero();
                accumulate(&mut rows.each_mut().map(|row| row.as_mut_slice()), ws, chunk);
                rows
            })
            .reduce(zero, |mut a, b| {
                for (a, b) in a.iter_mut().zip(&b) {
                    merge_counts(a, b);
                }
                a
            })
    });
    for (out, row) in outs.iter_mut().zip(&merged) {
        out.copy_from_slice(row);
    }
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
        let mut a = vec![1, 2, 3];
        merge_counts(&mut a, &[10, 20, 30]);
        assert_eq!(a, vec![11, 22, 33]);
    }

    #[test]
    fn chunked_counts_matches_serial() {
        let items: Vec<u32> = (0..5000).collect();
        // Two rows: residues mod 16, and mod 3 — the two-row shape of the
        // depth batches.
        let accumulate = |[by16, by3]: &mut [&mut [u32]; 2], (): &mut (), chunk: &[u32]| {
            for &x in chunk {
                by16[(x % 16) as usize] += 1;
                by3[(x % 3) as usize] += 1;
            }
        };
        let (mut serial, mut parallel) = (vec![7u32; 19], vec![7u32; 19]);
        for (threads, out) in [(1, &mut serial), (4, &mut parallel)] {
            let config = ThreadConfig::new(threads);
            let (by16, by3) = out.split_at_mut(16);
            chunked_counts_with(&config, &items, 100, &mut (), || (), accumulate, [by16, by3]);
        }
        assert_eq!(serial, parallel);
        assert_eq!(serial[..16].iter().sum::<u32>(), 5000);
        assert_eq!(serial[16..].iter().sum::<u32>(), 5000);
    }
}
