//! Property tests for the `WorldEngine` backend seam: for any graph,
//! master seed, thread count, and sample size (multiples of 64 or not),
//! the bit-parallel block pool — pure-mask and adaptive, at every block
//! width — must produce **identical integer counts** to a naive
//! one-world-at-a-time reference engine (`support::ReferenceEngine`) for
//! every query family: they hold the same worlds, drawn from the same
//! per-index RNG streams.
//!
//! The batched (`counts_from_centers`, `counts_within_depths_batch`) and
//! ranged (`counts_from_center_range`, `counts_within_depths_range`) query
//! shapes are held to the same standard: batched rows must equal the
//! sequential per-center rows, and counts accumulated over any split of
//! the pool's growth history must equal from-scratch counts — for random
//! seeds, thread counts, and pools straddling the 64-world block boundary.
//! The oracle layer's row cache is built on exactly these identities, so
//! they are what keeps cached estimates bit-identical to fresh ones.

mod support;

use proptest::prelude::*;
use ugraph_graph::{GraphBuilder, NodeId, UncertainGraph};
use ugraph_sampling::{
    BitParallelPool, McOracle, MemoryBudget, Oracle, SampleSchedule, WorldEngine, DEPTH_UNLIMITED,
    SHARD_WORLDS,
};

use support::ReferenceEngine;

/// A single-threaded plain-connectivity oracle on an adaptive or a
/// pure-mask pool.
fn unlimited_oracle(
    g: &UncertainGraph,
    seed: u64,
    schedule: SampleSchedule,
    adaptive: bool,
) -> McOracle<'_> {
    let pool = BitParallelPool::<4>::new(g, seed, 1).with_finalization(adaptive);
    McOracle::from_engine(Box::new(pool), schedule, 0.1)
}

/// Strategy: a small random uncertain graph (any shape, including
/// disconnected and edgeless ones).
fn small_graph(max_n: u32, max_m: usize) -> impl Strategy<Value = UncertainGraph> {
    (2..=max_n).prop_flat_map(move |n| {
        let edge = (0..n, 0..n, 0.05f64..=1.0);
        proptest::collection::vec(edge, 0..max_m).prop_map(move |edges| {
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

/// Sample sizes straddling the 64-world block boundary: partial single
/// blocks, exact blocks, and partial trailing blocks.
fn sample_sizes() -> impl Strategy<Value = usize> {
    (0u32..4, 1usize..64).prop_map(|(kind, x)| match kind {
        0 => x,      // partial single block
        1 => 64,     // exactly one block
        2 => 128,    // exactly two blocks
        _ => 64 + x, // partial trailing block
    })
}

/// 1 worker (serial paths) or 3 workers (chunked parallel paths).
fn thread_counts() -> impl Strategy<Value = usize> {
    any::<bool>().prop_map(|b| if b { 1 } else { 3 })
}

/// Sample sizes straddling the 64-, 256-, and 512-world block boundaries:
/// partial tails at every supported block width, including tails that
/// populate only some words of a wide block.
fn wide_sample_sizes() -> impl Strategy<Value = usize> {
    (0u32..5, 1usize..64).prop_map(|(kind, x)| match kind {
        0 => x,       // partial first word at every width
        1 => 64 + x,  // full word + partial second (multi-word tail)
        2 => 256,     // exactly one 256-block, half a 512-block
        3 => 256 + x, // partial second 256-block
        _ => 512 + x, // partial second 512-block
    })
}

/// Runs every `WorldEngine` query family over `e` and packs the integer
/// results into one vector, so pools at different block widths can be
/// compared with a single equality check.
fn query_fingerprint(
    e: &mut dyn WorldEngine,
    centers: &[NodeId],
    d_select: u32,
    d_cover: u32,
    lo: usize,
    hi: usize,
) -> Vec<u32> {
    let n = e.graph().num_nodes();
    let k = centers.len();
    let mut fp = Vec::new();
    let mut row = vec![0u32; n];
    for &c in centers {
        e.counts_from_center(c, &mut row);
        fp.extend_from_slice(&row);
    }
    let mut batch = vec![0u32; k * n];
    e.counts_from_centers(centers, &mut batch);
    fp.extend_from_slice(&batch);
    batch.fill(0);
    e.counts_from_centers_range(centers, lo, hi, &mut batch);
    fp.extend_from_slice(&batch);
    for &c in centers {
        fp.push(e.pair_count(centers[0], c) as u32);
        fp.push(e.pair_count_within(centers[0], c, d_cover) as u32);
        fp.push(e.pair_count_range(centers[0], c, lo, hi) as u32);
    }
    let (mut s1, mut c1) = (vec![0u32; n], vec![0u32; n]);
    for &c in centers {
        e.counts_within_depths(c, d_select, d_cover, &mut s1, &mut c1);
        fp.extend_from_slice(&s1);
        fp.extend_from_slice(&c1);
    }
    let (mut bs, mut bc) = (vec![0u32; k * n], vec![0u32; k * n]);
    e.counts_within_depths_batch(centers, d_select, d_cover, &mut bs, &mut bc);
    fp.extend_from_slice(&bs);
    fp.extend_from_slice(&bc);
    bs.fill(0);
    bc.fill(0);
    e.counts_within_depths_batch_range(centers, d_select, d_cover, lo, hi, &mut bs, &mut bc);
    fp.extend_from_slice(&bs);
    fp.extend_from_slice(&bc);
    fp
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Unlimited connectivity: `counts_from_center` and pair counts agree
    /// between the reference engine and the bit-parallel pool, for every
    /// center, across thread counts.
    #[test]
    fn center_and_pair_counts_agree(
        g in small_graph(10, 16),
        seed in any::<u64>(),
        r in sample_sizes(),
        threads in thread_counts(),
    ) {
        let n = g.num_nodes();
        let mut reference = ReferenceEngine::new(&g, seed);
        let mut bit = BitParallelPool::<1>::new(&g, seed, threads);
        reference.ensure(r);
        bit.ensure(r);
        prop_assert_eq!(reference.num_samples(), bit.num_samples());
        let mut a = vec![0u32; n];
        let mut b = vec![0u32; n];
        for c in 0..n as u32 {
            reference.counts_from_center(NodeId(c), &mut a);
            bit.counts_from_center(NodeId(c), &mut b);
            prop_assert_eq!(&a, &b, "center {} differs (r = {}, threads = {})", c, r, threads);
        }
        for u in 0..n as u32 {
            for v in 0..n as u32 {
                prop_assert_eq!(
                    reference.pair_count(NodeId(u), NodeId(v)),
                    bit.pair_count(NodeId(u), NodeId(v)),
                    "pair ({}, {}) differs", u, v
                );
            }
        }
    }

    /// Depth-limited queries: `counts_within_depths` and
    /// `pair_count_within` agree between the reference engine and the
    /// bit-parallel pool for random depth pairs.
    #[test]
    fn depth_counts_agree(
        g in small_graph(9, 14),
        seed in any::<u64>(),
        r in sample_sizes(),
        d_select in 0u32..4,
        extra in 0u32..4,
        threads in thread_counts(),
    ) {
        let n = g.num_nodes();
        let d_cover = d_select + extra;
        let mut reference = ReferenceEngine::new(&g, seed);
        let mut bit = BitParallelPool::<1>::new(&g, seed, threads);
        reference.ensure(r);
        bit.ensure(r);
        let (mut s1, mut c1) = (vec![0u32; n], vec![0u32; n]);
        let (mut s2, mut c2) = (vec![0u32; n], vec![0u32; n]);
        for c in 0..n as u32 {
            reference.counts_within_depths(NodeId(c), d_select, d_cover, &mut s1, &mut c1);
            bit.counts_within_depths(NodeId(c), d_select, d_cover, &mut s2, &mut c2);
            prop_assert_eq!(&s1, &s2, "select differs at center {} ({}, {})", c, d_select, d_cover);
            prop_assert_eq!(&c1, &c2, "cover differs at center {} ({}, {})", c, d_select, d_cover);
        }
        for v in 0..n as u32 {
            prop_assert_eq!(
                reference.pair_count_within(NodeId(0), NodeId(v), d_cover),
                bit.pair_count_within(NodeId(0), NodeId(v), d_cover),
                "pair (0, {}) differs at depth {}", v, d_cover
            );
        }
    }

    /// Growth-schedule invariance across the block boundary: a pool grown
    /// in arbitrary uneven steps equals a pool grown in one shot, and both
    /// equal the reference engine.
    #[test]
    fn growth_schedule_invariant_across_blocks(
        g in small_graph(8, 12),
        seed in any::<u64>(),
        steps in proptest::collection::vec(1usize..70, 1..5),
    ) {
        let n = g.num_nodes();
        let total: usize = steps.iter().sum();
        let mut stepped = BitParallelPool::<1>::new(&g, seed, 1);
        let mut reached = 0;
        for s in &steps {
            reached += s;
            stepped.ensure(reached);
        }
        let mut oneshot = BitParallelPool::<1>::new(&g, seed, 1);
        oneshot.ensure(total);
        let mut reference = ReferenceEngine::new(&g, seed);
        reference.ensure(total);
        let mut a = vec![0u32; n];
        let mut b = vec![0u32; n];
        let mut c = vec![0u32; n];
        for center in 0..n as u32 {
            stepped.counts_from_center(NodeId(center), &mut a);
            oneshot.counts_from_center(NodeId(center), &mut b);
            reference.counts_from_center(NodeId(center), &mut c);
            prop_assert_eq!(&a, &b, "stepped vs one-shot differ at center {}", center);
            prop_assert_eq!(&b, &c, "bit-parallel vs reference differ at center {}", center);
        }
    }

    /// Batched multi-center rows equal the sequential per-center rows on
    /// every backend — the contract `min-partial`'s batched candidate
    /// fetch rests on. Candidate sets include duplicates.
    #[test]
    fn batched_rows_equal_sequential_rows(
        g in small_graph(10, 16),
        seed in any::<u64>(),
        r in sample_sizes(),
        threads in thread_counts(),
        picks in proptest::collection::vec(0u32..10, 1..12),
    ) {
        let n = g.num_nodes();
        let centers: Vec<NodeId> =
            picks.iter().map(|&c| NodeId(c % n as u32)).collect();
        let k = centers.len();
        let mut reference = ReferenceEngine::new(&g, seed);
        let mut bit = BitParallelPool::<1>::new(&g, seed, threads);
        let mut adaptive = BitParallelPool::<4>::new_adaptive(&g, seed, threads);
        reference.ensure(r);
        bit.ensure(r);
        adaptive.ensure(r);
        // Sequential reference rows.
        let mut want = vec![0u32; k * n];
        for (j, &c) in centers.iter().enumerate() {
            reference.counts_from_center(c, &mut want[j * n..(j + 1) * n]);
        }
        let mut got = vec![0u32; k * n];
        bit.counts_from_centers(&centers, &mut got);
        prop_assert_eq!(&got, &want, "bit-parallel batch (r = {}, k = {})", r, k);
        got.fill(0);
        adaptive.counts_from_centers(&centers, &mut got);
        prop_assert_eq!(&got, &want, "adaptive batch (r = {}, k = {})", r, k);
    }

    /// Batched depth rows equal the reference engine's sequential depth
    /// rows.
    #[test]
    fn batched_depth_rows_equal_sequential_rows(
        g in small_graph(9, 14),
        seed in any::<u64>(),
        r in sample_sizes(),
        d_select in 0u32..4,
        extra in 0u32..4,
        threads in thread_counts(),
    ) {
        let n = g.num_nodes();
        let d_cover = d_select + extra;
        let centers: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
        let k = centers.len();
        let mut world = ReferenceEngine::new(&g, seed);
        let mut bit = BitParallelPool::<1>::new(&g, seed, threads);
        world.ensure(r);
        bit.ensure(r);
        let (mut want_s, mut want_c) = (vec![0u32; k * n], vec![0u32; k * n]);
        for (j, &c) in centers.iter().enumerate() {
            world.counts_within_depths(
                c,
                d_select,
                d_cover,
                &mut want_s[j * n..(j + 1) * n],
                &mut want_c[j * n..(j + 1) * n],
            );
        }
        let (mut got_s, mut got_c) = (vec![0u32; k * n], vec![0u32; k * n]);
        bit.counts_within_depths_batch(&centers, d_select, d_cover, &mut got_s, &mut got_c);
        prop_assert_eq!(&got_s, &want_s, "bit-parallel batch select ({}, {})", d_select, d_cover);
        prop_assert_eq!(&got_c, &want_c, "bit-parallel batch cover ({}, {})", d_select, d_cover);
    }

    /// Ranged **multi-center** rows equal the reference engine's
    /// sequential single-center ranged rows, for arbitrary windows — the
    /// contract the oracle row cache's grouped top-up waves rest on.
    #[test]
    fn ranged_batched_rows_equal_sequential_ranged_rows(
        g in small_graph(10, 16),
        seed in any::<u64>(),
        r in sample_sizes(),
        threads in thread_counts(),
        picks in proptest::collection::vec(0u32..10, 1..10),
        window in (0usize..200, 0usize..200),
    ) {
        let n = g.num_nodes();
        let (a, b) = window;
        let (lo, hi) = (a.min(b).min(r), b.max(a).min(r));
        let centers: Vec<NodeId> =
            picks.iter().map(|&c| NodeId(c % n as u32)).collect();
        let k = centers.len();
        let mut reference = ReferenceEngine::new(&g, seed);
        let mut bit = BitParallelPool::<1>::new(&g, seed, threads);
        let mut adaptive = BitParallelPool::<4>::new_adaptive(&g, seed, threads);
        reference.ensure(r);
        bit.ensure(r);
        adaptive.ensure(r);
        let mut want = vec![0u32; k * n];
        for (j, &c) in centers.iter().enumerate() {
            reference.counts_from_center_range(c, lo, hi, &mut want[j * n..(j + 1) * n]);
        }
        let mut got = vec![0u32; k * n];
        bit.counts_from_centers_range(&centers, lo, hi, &mut got);
        prop_assert_eq!(&got, &want, "bit-parallel ranged batch [{}, {})", lo, hi);
        got.fill(0);
        adaptive.counts_from_centers_range(&centers, lo, hi, &mut got);
        prop_assert_eq!(&got, &want, "adaptive ranged batch [{}, {})", lo, hi);
    }

    /// The depth-limited ranged batch obeys the same contract.
    #[test]
    fn ranged_batched_depth_rows_equal_sequential_ranged_rows(
        g in small_graph(9, 14),
        seed in any::<u64>(),
        r in sample_sizes(),
        depths in (0u32..3, 0u32..3),
        threads in thread_counts(),
        window in (0usize..200, 0usize..200),
    ) {
        let n = g.num_nodes();
        let (d_select, extra) = depths;
        let d_cover = d_select + extra;
        let (a, b) = window;
        let (lo, hi) = (a.min(b).min(r), b.max(a).min(r));
        let centers: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
        let k = centers.len();
        let mut world = ReferenceEngine::new(&g, seed);
        let mut bit = BitParallelPool::<1>::new(&g, seed, threads);
        world.ensure(r);
        bit.ensure(r);
        let (mut want_s, mut want_c) = (vec![0u32; k * n], vec![0u32; k * n]);
        for (j, &c) in centers.iter().enumerate() {
            world.counts_within_depths_range(
                c,
                d_select,
                d_cover,
                lo,
                hi,
                &mut want_s[j * n..(j + 1) * n],
                &mut want_c[j * n..(j + 1) * n],
            );
        }
        let (mut got_s, mut got_c) = (vec![0u32; k * n], vec![0u32; k * n]);
        bit.counts_within_depths_batch_range(
            &centers, d_select, d_cover, lo, hi, &mut got_s, &mut got_c,
        );
        prop_assert_eq!(&got_s, &want_s, "bit-parallel ranged batch select [{}, {})", lo, hi);
        prop_assert_eq!(&got_c, &want_c, "bit-parallel ranged batch cover [{}, {})", lo, hi);
    }

    /// Incremental top-ups equal from-scratch counts: growing the pool in
    /// arbitrary steps and summing ranged counts over the growth windows
    /// reproduces the reference engine's full-pool counts exactly, on the
    /// pure-mask and the adaptive pool. This is precisely the oracle row
    /// cache's serve path.
    #[test]
    fn incremental_topups_equal_from_scratch(
        g in small_graph(9, 14),
        seed in any::<u64>(),
        steps in proptest::collection::vec(1usize..70, 1..5),
        threads in thread_counts(),
    ) {
        let n = g.num_nodes();
        let total: usize = steps.iter().sum();
        let mut adaptive = BitParallelPool::<4>::new_adaptive(&g, seed, threads);
        let mut bit = BitParallelPool::<1>::new(&g, seed, threads);
        let mut part = vec![0u32; n];
        let mut acc_adaptive = vec![vec![0u32; n]; n];
        let mut acc_bit = vec![vec![0u32; n]; n];
        let mut reached = 0usize;
        for s in &steps {
            let lo = reached;
            reached += s;
            adaptive.ensure(reached);
            bit.ensure(reached);
            // Top up every center's accumulated row over the new window,
            // as the row cache does after `prepare` growth.
            for c in 0..n as u32 {
                adaptive.counts_from_center_range(NodeId(c), lo, reached, &mut part);
                for (a, &p) in acc_adaptive[c as usize].iter_mut().zip(&part) { *a += p; }
                bit.counts_from_center_range(NodeId(c), lo, reached, &mut part);
                for (a, &p) in acc_bit[c as usize].iter_mut().zip(&part) { *a += p; }
            }
        }
        let mut fresh = ReferenceEngine::new(&g, seed);
        fresh.ensure(total);
        let mut want = vec![0u32; n];
        for c in 0..n as u32 {
            fresh.counts_from_center(NodeId(c), &mut want);
            prop_assert_eq!(&acc_adaptive[c as usize], &want, "adaptive top-ups at center {}", c);
            prop_assert_eq!(&acc_bit[c as usize], &want, "bit-parallel top-ups at center {}", c);
        }
    }

    /// The depth-limited ranged counts obey the same additivity.
    #[test]
    fn incremental_depth_topups_equal_from_scratch(
        g in small_graph(8, 12),
        seed in any::<u64>(),
        split in 1usize..100,
        d_select in 0u32..3,
        extra in 0u32..3,
    ) {
        let n = g.num_nodes();
        let total = 100usize;
        let split = split.min(total);
        let d_cover = d_select + extra;
        let mut world = ReferenceEngine::new(&g, seed);
        let mut bit = BitParallelPool::<1>::new(&g, seed, 1);
        let mut wide = BitParallelPool::<4>::new_adaptive(&g, seed, 1);
        world.ensure(total);
        bit.ensure(total);
        wide.ensure(total);
        let (mut ws, mut wc) = (vec![0u32; n], vec![0u32; n]);
        let (mut ps, mut pc) = (vec![0u32; n], vec![0u32; n]);
        for c in 0..n as u32 {
            world.counts_within_depths(NodeId(c), d_select, d_cover, &mut ws, &mut wc);
            for (engine, name) in [
                (&mut bit as &mut dyn WorldEngine, "width 64"),
                (&mut wide as &mut dyn WorldEngine, "width 256"),
            ] {
                let (mut acs, mut acc) = (vec![0u32; n], vec![0u32; n]);
                for (lo, hi) in [(0, split), (split, total)] {
                    engine.counts_within_depths_range(
                        NodeId(c), d_select, d_cover, lo, hi, &mut ps, &mut pc,
                    );
                    for i in 0..n {
                        acs[i] += ps[i];
                        acc[i] += pc[i];
                    }
                }
                prop_assert_eq!(&acs, &ws, "{} select split {} center {}", name, split, c);
                prop_assert_eq!(&acc, &wc, "{} cover split {} center {}", name, split, c);
            }
        }
    }

    /// End to end through the oracle layer: a cache-enabled oracle serves
    /// bit-identical probability rows to a cache-disabled one across an
    /// arbitrary prepare/query schedule, on adaptive and pure-mask pools.
    #[test]
    fn cached_oracle_rows_identical_to_uncached(
        g in small_graph(8, 12),
        seed in any::<u64>(),
        qs in proptest::collection::vec(0.05f64..1.0, 1..5),
        pure_mask in any::<bool>(),
    ) {
        let n = g.num_nodes();
        let schedule = SampleSchedule::practical();
        let mut cached = unlimited_oracle(&g, seed, schedule, !pure_mask);
        let mut plain = unlimited_oracle(&g, seed, schedule, !pure_mask).with_row_cache(false);
        let (mut s1, mut c1) = (vec![0.0; n], vec![0.0; n]);
        let (mut s2, mut c2) = (vec![0.0; n], vec![0.0; n]);
        for &q in &qs {
            cached.prepare(q).unwrap();
            plain.prepare(q).unwrap();
            for c in 0..n as u32 {
                cached.center_probs(NodeId(c), &mut s1, &mut c1).unwrap();
                plain.center_probs(NodeId(c), &mut s2, &mut c2).unwrap();
                prop_assert_eq!(&c1, &c2, "cover rows differ at center {} q {}", c, q);
                prop_assert_eq!(&s1, &s2, "select rows differ at center {} q {}", c, q);
            }
            // Batched fetch with the identical-rows fast path agrees too.
            let centers: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
            let mut batch = vec![0.0; n * n];
            cached.center_probs_batch(&centers, &mut [], &mut batch).unwrap();
            for c in 0..n {
                plain.center_probs(NodeId(c as u32), &mut s2, &mut c2).unwrap();
                prop_assert_eq!(&batch[c * n..(c + 1) * n], &c2[..], "batch row {} q {}", c, q);
            }
        }
    }

    /// The adaptive backend (bit-parallel + lazy block finalization) is
    /// count-identical to both the reference engine and the pure-mask pool
    /// across arbitrary growth schedules that finalize blocks mid-request:
    /// after each growth step a row query converts/extends the touched
    /// blocks (non-multiple-of-64 tails included), and every query family
    /// must keep agreeing on the resulting mixed finalized/unfinalized
    /// pool.
    #[test]
    fn adaptive_counts_agree_across_growth_schedules(
        g in small_graph(10, 16),
        seed in any::<u64>(),
        steps in proptest::collection::vec(1usize..70, 1..4),
        threads in thread_counts(),
        picks in proptest::collection::vec(0u32..10, 1..6),
    ) {
        let n = g.num_nodes();
        let centers: Vec<NodeId> = picks.iter().map(|&c| NodeId(c % n as u32)).collect();
        let k = centers.len();
        let mut reference = ReferenceEngine::new(&g, seed);
        let mut mask = BitParallelPool::<1>::new(&g, seed, 1);
        let mut adaptive = BitParallelPool::<1>::new_adaptive(&g, seed, threads);
        let mut reached = 0usize;
        let mut a = vec![0u32; n];
        let mut b = vec![0u32; n];
        for s in &steps {
            let lo = reached;
            reached += s;
            reference.ensure(reached);
            mask.ensure(reached);
            adaptive.ensure(reached);
            // Single rows (finalizes the touched blocks mid-request)...
            for c in 0..n as u32 {
                reference.counts_from_center(NodeId(c), &mut a);
                adaptive.counts_from_center(NodeId(c), &mut b);
                prop_assert_eq!(&a, &b, "center {} after growing to {}", c, reached);
            }
            // ...ranged rows over just the new window...
            reference.counts_from_center_range(centers[0], lo, reached, &mut a);
            adaptive.counts_from_center_range(centers[0], lo, reached, &mut b);
            prop_assert_eq!(&a, &b, "ranged window [{}, {})", lo, reached);
            // ...batched rows, and pairs (label path on finalized blocks).
            let mut wa = vec![0u32; k * n];
            let mut wb = vec![0u32; k * n];
            mask.counts_from_centers(&centers, &mut wa);
            adaptive.counts_from_centers(&centers, &mut wb);
            prop_assert_eq!(&wa, &wb, "batch at {} samples", reached);
            for u in 0..n as u32 {
                prop_assert_eq!(
                    reference.pair_count(NodeId(0), NodeId(u)),
                    adaptive.pair_count(NodeId(0), NodeId(u)),
                    "pair (0, {}) at {} samples", u, reached
                );
            }
        }
        // Every lane was labeled at most once across the whole schedule.
        let stats = adaptive.engine_stats();
        prop_assert!(stats.finalized_lanes <= reached,
            "relabeling detected: {} lanes labeled, {} sampled", stats.finalized_lanes, reached);
    }

    /// A labelled pool holds every world's components exactly as the
    /// reference engine does, serial or on several threads: one row over
    /// each single world from each component's smallest node marks that
    /// component. Its rows and pairs over labels equal a pure-mask pool's.
    #[test]
    fn labelled_worlds_match_reference_labels(
        g in small_graph(10, 16),
        seed in any::<u64>(),
        r in sample_sizes(),
        threads in thread_counts(),
    ) {
        let n = g.num_nodes();
        let mut pool = BitParallelPool::<1>::new_adaptive(&g, seed, threads);
        let mut mask = BitParallelPool::<1>::new(&g, seed, 1);
        let mut reference = ReferenceEngine::new(&g, seed);
        pool.ensure(r);
        mask.ensure(r);
        reference.ensure(r);
        let mut a = vec![0u32; n];
        let mut b = vec![0u32; n];
        for i in 0..r {
            for (center, want) in reference.component_rows(i) {
                pool.counts_from_center_range(center, i, i + 1, &mut a);
                prop_assert_eq!(&a, &want, "world {}, component of node {}", i, center);
            }
        }
        for c in 0..n as u32 {
            pool.counts_from_center(NodeId(c), &mut a);
            mask.counts_from_center(NodeId(c), &mut b);
            prop_assert_eq!(&a, &b, "rows differ at center {}", c);
            prop_assert_eq!(
                pool.pair_count(NodeId(0), NodeId(c)),
                mask.pair_count(NodeId(0), NodeId(c)),
                "pair (0, {}) differs", c
            );
        }
        prop_assert_eq!(pool.engine_stats().finalized_lanes, r);
    }

    /// End to end through the oracle layer: the adaptive engine serves
    /// bit-identical probability rows to an oracle over the scalar
    /// reference engine across an arbitrary prepare/query schedule.
    #[test]
    fn adaptive_oracle_rows_identical_to_scalar(
        g in small_graph(8, 12),
        seed in any::<u64>(),
        qs in proptest::collection::vec(0.05f64..1.0, 1..4),
    ) {
        let n = g.num_nodes();
        let schedule = SampleSchedule::practical();
        let engine = Box::new(ReferenceEngine::new(&g, seed));
        let mut reference = McOracle::from_engine(engine, schedule, 0.1);
        let mut adaptive = unlimited_oracle(&g, seed, schedule, true);
        let (mut s1, mut c1) = (vec![0.0; n], vec![0.0; n]);
        let (mut s2, mut c2) = (vec![0.0; n], vec![0.0; n]);
        for &q in &qs {
            reference.prepare(q).unwrap();
            adaptive.prepare(q).unwrap();
            for c in 0..n as u32 {
                reference.center_probs(NodeId(c), &mut s1, &mut c1).unwrap();
                adaptive.center_probs(NodeId(c), &mut s2, &mut c2).unwrap();
                prop_assert_eq!(&c1, &c2, "cover rows differ at center {} q {}", c, q);
            }
            prop_assert_eq!(
                reference.pair_prob(NodeId(0), NodeId(n as u32 - 1)),
                adaptive.pair_prob(NodeId(0), NodeId(n as u32 - 1)),
                "pair prob differs at q {}", q
            );
        }
    }

    /// The trait-level estimates (the numbers the clustering algorithms
    /// actually consume) are bit-identical to the reference engine's.
    #[test]
    fn trait_estimates_identical(
        g in small_graph(8, 12),
        seed in any::<u64>(),
        r in sample_sizes(),
    ) {
        let mut reference = ReferenceEngine::new(&g, seed);
        let mut bit = BitParallelPool::<1>::new(&g, seed, 1);
        let engines: &mut [&mut dyn WorldEngine] = &mut [&mut reference, &mut bit];
        for e in engines.iter_mut() {
            e.ensure(r);
        }
        let n = g.num_nodes() as u32;
        for u in 0..n {
            for v in 0..n {
                let a = engines[0].pair_estimate(NodeId(u), NodeId(v));
                let b = engines[1].pair_estimate(NodeId(u), NodeId(v));
                // Identical counts divided by identical r: exact equality.
                prop_assert_eq!(a, b, "estimate ({}, {}) differs", u, v);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Tentpole invariant: the bit-parallel pool produces bit-identical
    /// counts at every block width (64, 256, and 512 worlds per block),
    /// across every query family, for sample sizes that leave partial
    /// tails at each width, in both pure-mask and adaptive mode.
    #[test]
    fn block_widths_agree_on_all_query_shapes(
        g in small_graph(10, 16),
        seed in any::<u64>(),
        r in wide_sample_sizes(),
        threads in thread_counts(),
        picks in proptest::collection::vec(any::<u32>(), 1..5),
        shape in ((0u32..3, 0u32..3), (0usize..600, 0usize..600), any::<bool>()),
    ) {
        let n = g.num_nodes() as u32;
        let centers: Vec<NodeId> = picks.iter().map(|&c| NodeId(c % n)).collect();
        let ((d_select, extra), (a, b), adaptive) = shape;
        let d_cover = d_select + extra;
        let (lo, hi) = (a.min(b).min(r), a.max(b).min(r));

        let mut w1 = BitParallelPool::<1>::new(&g, seed, 1).with_finalization(adaptive);
        let mut w4 = BitParallelPool::<4>::new(&g, seed, threads).with_finalization(adaptive);
        let mut w8 = BitParallelPool::<8>::new(&g, seed, threads).with_finalization(adaptive);
        w1.ensure(r);
        w4.ensure(r);
        w8.ensure(r);
        prop_assert_eq!(w1.num_samples(), r);
        prop_assert_eq!(w4.num_samples(), r);
        prop_assert_eq!(w8.num_samples(), r);

        let want = query_fingerprint(&mut w1, &centers, d_select, d_cover, lo, hi);
        let got4 = query_fingerprint(&mut w4, &centers, d_select, d_cover, lo, hi);
        prop_assert_eq!(&want, &got4, "widths 64 vs 256 differ (r = {}, window [{}, {}))", r, lo, hi);
        let got8 = query_fingerprint(&mut w8, &centers, d_select, d_cover, lo, hi);
        prop_assert_eq!(&want, &got8, "widths 64 vs 512 differ (r = {}, window [{}, {}))", r, lo, hi);
    }

    /// Adaptive pools stay count-identical across widths when the pool
    /// grows *between* queries: each step tops up partially-filled blocks
    /// (different tail geometry per width) and re-queries, so lazily
    /// finalized labels from earlier steps must coexist with fresh worlds.
    #[test]
    fn block_widths_agree_across_growth_schedules(
        g in small_graph(9, 14),
        seed in any::<u64>(),
        steps in proptest::collection::vec(1usize..300, 1..4),
        threads in thread_counts(),
    ) {
        let n = g.num_nodes();
        let mut w1 = BitParallelPool::<1>::new_adaptive(&g, seed, 1);
        let mut w4 = BitParallelPool::<4>::new_adaptive(&g, seed, threads);
        let mut w8 = BitParallelPool::<8>::new_adaptive(&g, seed, 1);
        let centers: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
        let mut reached = 0usize;
        for &s in &steps {
            let lo = reached;
            reached += s;
            w1.ensure(reached);
            w4.ensure(reached);
            w8.ensure(reached);
            let want = query_fingerprint(&mut w1, &centers, 1, 2, lo, reached);
            let got4 = query_fingerprint(&mut w4, &centers, 1, 2, lo, reached);
            prop_assert_eq!(&want, &got4, "widths 64 vs 256 differ at {} samples", reached);
            let got8 = query_fingerprint(&mut w8, &centers, 1, 2, lo, reached);
            prop_assert_eq!(&want, &got8, "widths 64 vs 512 differ at {} samples", reached);
        }
    }
}

proptest! {
    // Each case spans several shards (> 2 · SHARD_WORLDS worlds), so keep
    // the case count low.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Shard eviction and regeneration preserve width equivalence: pools
    /// whose budget holds only ~1.5 of their 3 shards must evict under
    /// every query below and regenerate bit-identical worlds on demand,
    /// at every width, matching an unbounded width-64 reference.
    #[test]
    fn block_widths_agree_under_memory_budget(
        g in small_graph(8, 12),
        seed in any::<u64>(),
        tail in 1usize..64,
        threads in thread_counts(),
    ) {
        // An edgeless graph's shards hold 0 bytes, so no budget can evict.
        prop_assume!(g.num_edges() > 0);
        let n = g.num_nodes() as u32;
        let r = 2 * SHARD_WORLDS + tail;
        let centers: Vec<NodeId> = (0..n).map(NodeId).collect();

        let mut reference = BitParallelPool::<1>::new(&g, seed, 1);
        reference.ensure(r);
        let want = query_fingerprint(&mut reference, &centers, 1, 2, 100, r - 50);

        // A shard's mask bytes are width-independent (SHARD_WORLDS worlds
        // over m edges), so the same budget stresses each width equally.
        let shard_bytes = g.num_edges() * (SHARD_WORLDS / 8);
        let budget = shard_bytes * 3 / 2;

        let mut w1 = BitParallelPool::<1>::new(&g, seed, 1);
        w1.set_memory_budget(MemoryBudget::bounded(budget));
        let mut w4 = BitParallelPool::<4>::new(&g, seed, threads);
        w4.set_memory_budget(MemoryBudget::bounded(budget));
        let mut w8 = BitParallelPool::<8>::new(&g, seed, threads);
        w8.set_memory_budget(MemoryBudget::bounded(budget));
        w1.ensure(r);
        w4.ensure(r);
        w8.ensure(r);

        let got1 = query_fingerprint(&mut w1, &centers, 1, 2, 100, r - 50);
        prop_assert_eq!(&want, &got1, "width 64 differs under budget");
        let got4 = query_fingerprint(&mut w4, &centers, 1, 2, 100, r - 50);
        prop_assert_eq!(&want, &got4, "width 256 differs under budget");
        let got8 = query_fingerprint(&mut w8, &centers, 1, 2, 100, r - 50);
        prop_assert_eq!(&want, &got8, "width 512 differs under budget");

        // The budget is below the 3-shard working set, so every pool must
        // actually have exercised the evict-and-regenerate path.
        prop_assert!(w1.memory_stats().shards_evicted > 0);
        prop_assert!(w4.memory_stats().shards_evicted > 0);
        prop_assert!(w8.memory_stats().shards_evicted > 0);
    }
}

/// Strategy: a 20–120-node graph whose worlds hold a mix of one large
/// component, smaller multi-node components and isolated nodes — or ties
/// for the largest component. Kinds 0–3 draw `n` to `2n` random edges and
/// scale their probabilities so a world's mean degree lands between 0.5
/// and 2.5, around the percolation threshold at 1; kind 4 is edgeless
/// (every component a single node); kinds 5 and 6 are two equal disjoint
/// cliques, certain or with edge probability 0.9, so the two cliques tie
/// for the largest component in every or in many worlds.
fn percolating_graph() -> impl Strategy<Value = UncertainGraph> {
    (0u32..7, 20u32..=120, 0.5f64..=2.5).prop_flat_map(|(kind, n, degree)| {
        let edge = (0..n, 0..n, 0.5f64..=1.5);
        proptest::collection::vec(edge, n as usize..=2 * n as usize).prop_map(move |edges| {
            match kind {
                4 => GraphBuilder::new(n as usize).build().unwrap(),
                5 | 6 => {
                    let side = n.min(60) / 2;
                    let p = if kind == 5 { 1.0 } else { 0.9 };
                    let mut b = GraphBuilder::new(2 * side as usize);
                    for half in [0, side] {
                        for u in half..half + side {
                            for v in u + 1..half + side {
                                b.add_edge(u, v, p).unwrap();
                            }
                        }
                    }
                    b.build().unwrap()
                }
                _ => {
                    // Each edge is present with probability ≈ `degree · n /
                    // 2m`, jittered per edge, so a world's mean degree is
                    // about `degree`.
                    let scale = degree * f64::from(n) / (2.0 * edges.len() as f64);
                    let mut b = GraphBuilder::new(n as usize);
                    for (u, v, jitter) in edges {
                        if u != v {
                            b.add_edge(u, v, (scale * jitter).min(1.0)).unwrap();
                        }
                    }
                    b.build().unwrap()
                }
            }
        })
    })
}

/// `counts[c · n + u]` = the worlds `[lo, hi)` in which `u` shares `c`'s
/// component, from per-world reference labels.
fn rows_from_labels(labels: &[Vec<u32>], lo: usize, hi: usize) -> Vec<u32> {
    let n = labels.first().map_or(0, Vec::len);
    let mut counts = vec![0u32; n * n];
    for world in &labels[lo..hi] {
        for c in 0..n {
            for u in 0..n {
                counts[c * n + u] += u32::from(world[u] == world[c]);
            }
        }
    }
    counts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The labelled pool at the shipped block width (256 worlds per block)
    /// answers like a pure-mask pool and like the reference engine on
    /// worlds with a large component, multi-node small components,
    /// isolated nodes, or ties for the largest component. The pool grows
    /// through a schedule whose steps end inside a block, so rows label
    /// the trailing block partially and the next step tops it up. After
    /// every step, full rows and rows over the step's new window from
    /// every center, a batch of two centers and a batch of every node
    /// (labels and masks answer batches on different sides of the cost
    /// model), pairs, and one row over each single world from each of its
    /// components must agree; no lane is labelled twice.
    #[test]
    fn labelled_blocks_agree_at_the_shipped_width(
        g in percolating_graph(),
        seed in any::<u64>(),
        steps in proptest::collection::vec(1usize..300, 1..4),
        threads in thread_counts(),
    ) {
        let n = g.num_nodes();
        let all: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
        let pair = [NodeId(0), NodeId(n as u32 - 1)];
        let mut reference = ReferenceEngine::new(&g, seed);
        let mut mask = BitParallelPool::<4>::new(&g, seed, 1);
        let mut pool = BitParallelPool::<4>::new_adaptive(&g, seed, threads);
        let mut labels = Vec::new();
        let mut reached = 0usize;
        let (mut a, mut b) = (vec![0u32; n], vec![0u32; n]);
        for s in &steps {
            let lo = reached;
            reached += s;
            reference.ensure(reached);
            mask.ensure(reached);
            pool.ensure(reached);
            labels.extend((lo..reached).map(|i| reference.labels(i)));
            for (window, want) in [
                ((0, reached), rows_from_labels(&labels, 0, reached)),
                ((lo, reached), rows_from_labels(&labels, lo, reached)),
            ] {
                for c in 0..n {
                    let center = NodeId(c as u32);
                    pool.counts_from_center_range(center, window.0, window.1, &mut a);
                    mask.counts_from_center_range(center, window.0, window.1, &mut b);
                    prop_assert_eq!(&a, &b, "center {} on {:?}", c, window);
                    prop_assert_eq!(&a[..], &want[c * n..(c + 1) * n], "center {} on {:?}", c, window);
                }
            }
            for centers in [&pair[..], &all[..]] {
                let k = centers.len();
                let (mut wa, mut wb) = (vec![0u32; k * n], vec![0u32; k * n]);
                pool.counts_from_centers(centers, &mut wa);
                mask.counts_from_centers(centers, &mut wb);
                prop_assert_eq!(&wa, &wb, "batch of {} at {} samples", k, reached);
            }
            for u in 0..n as u32 {
                prop_assert_eq!(
                    pool.pair_count(NodeId(0), NodeId(u)),
                    reference.pair_count(NodeId(0), NodeId(u)),
                    "pair (0, {}) at {} samples", u, reached
                );
            }
        }
        for i in 0..reached {
            for (center, want) in reference.component_rows(i) {
                pool.counts_from_center_range(center, i, i + 1, &mut a);
                prop_assert_eq!(&a, &want, "world {}, component of node {}", i, center);
            }
        }
        let stats = pool.engine_stats();
        prop_assert!(stats.finalized_lanes <= reached,
            "relabelling: {} lanes labelled, {} sampled", stats.finalized_lanes, reached);
    }
}

/// The graph kinds above reach both sides of the batch cost model: on an
/// edgeless graph a labelled block answers a batch of two from its labels,
/// and on two certain cliques it sweeps masks.
#[test]
fn labelled_batches_reach_both_sides_of_the_cost_model() {
    let edgeless = GraphBuilder::new(120).build().unwrap();
    let mut b = GraphBuilder::new(60);
    for half in [0, 30] {
        for u in half..half + 30 {
            for v in u + 1..half + 30 {
                b.add_edge(u, v, 1.0).unwrap();
            }
        }
    }
    let cliques = b.build().unwrap();
    for (g, label_side) in [(&edgeless, true), (&cliques, false)] {
        let mut pool = BitParallelPool::<4>::new_adaptive(g, 3, 1);
        pool.ensure(512);
        pool.counts_from_center(NodeId(0), &mut vec![0u32; g.num_nodes()]);
        let before = pool.engine_stats();
        pool.counts_from_centers(&[NodeId(0), NodeId(40)], &mut vec![0u32; 2 * g.num_nodes()]);
        let after = pool.engine_stats();
        let sides =
            (after.label_queries - before.label_queries, after.mask_queries - before.mask_queries);
        assert_eq!(sides, if label_side { (2, 0) } else { (0, 2) }, "label side {label_side}");
    }
}

/// A random clustering of `n` nodes around `k` distinct centers: every
/// other node is an outlier with probability 1/4 and otherwise joins a
/// uniformly drawn cluster, so some clusters hold only their center.
fn random_clustering(n: usize, k: usize, seed: u64) -> (Vec<NodeId>, Vec<Option<usize>>) {
    let mut state = seed;
    let mut draw = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let z = (state ^ (state >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, (draw() % (i as u64 + 1)) as usize);
    }
    let centers: Vec<NodeId> = order[..k].iter().map(|&u| NodeId::from_index(u)).collect();
    let mut assign = vec![None; n];
    for (j, c) in centers.iter().enumerate() {
        assign[c.index()] = Some(j);
    }
    if k > 0 {
        for &u in &order[k..] {
            let x = draw();
            if !x.is_multiple_of(4) {
                assign[u] = Some((x >> 8) as usize % k);
            }
        }
    }
    (centers, assign)
}

/// Per node, the reference engine's count of worlds in which it reaches
/// its own center within `depth` hops; 0 for outliers.
fn reference_assignment_counts(
    reference: &mut ReferenceEngine<'_>,
    centers: &[NodeId],
    assign: &[Option<usize>],
    depth: u32,
) -> Vec<u32> {
    let n = assign.len();
    let (mut select, mut cover) = (vec![0u32; n], vec![0u32; n]);
    let mut want = vec![0u32; n];
    for (j, &c) in centers.iter().enumerate() {
        reference.counts_within_depths(c, depth, depth, &mut select, &mut cover);
        for u in (0..n).filter(|&u| assign[u] == Some(j)) {
            want[u] = cover[u];
        }
    }
    want
}

/// A pool of `r` worlds in one of four label states: pure-mask (0),
/// adaptive and unlabelled (1), adaptive with every lane labelled (2), or
/// adaptive with its trailing block grown past its labelled lanes (3).
fn pool_in_label_state<const W: usize>(
    g: &UncertainGraph,
    seed: u64,
    threads: usize,
    r: usize,
    state: u32,
) -> BitParallelPool<'_, W> {
    let mut pool = BitParallelPool::<W>::new(g, seed, threads).with_finalization(state > 0);
    let mut row = vec![0u32; g.num_nodes()];
    // An unlimited row query labels every block it touches.
    match state {
        2 => {
            pool.ensure(r);
            pool.counts_from_center(NodeId(0), &mut row);
        }
        3 => {
            pool.ensure(r.div_ceil(2));
            pool.counts_from_center(NodeId(0), &mut row);
            pool.ensure(r);
        }
        _ => pool.ensure(r),
    }
    pool
}

/// The kernel's counts on `pool` (the buffer starts dirty, so outliers
/// must be written), and whether the call left the pool's labelled lanes
/// and ledger bytes as it found them.
fn kernel_counts<const W: usize>(
    pool: &mut BitParallelPool<'_, W>,
    centers: &[NodeId],
    assign: &[Option<usize>],
    depth: u32,
) -> (Vec<u32>, bool) {
    let footprint = |p: &BitParallelPool<'_, W>| {
        (p.engine_stats().finalized_lanes, p.memory_stats().bytes_held)
    };
    let before = footprint(pool);
    let mut out = vec![u32::MAX; assign.len()];
    pool.assignment_counts(centers, |u| assign[u], depth, &mut out);
    (out, footprint(pool) == before)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `BitParallelPool::assignment_counts` gives each covered node the
    /// reference engine's count from its own center, unlimited and at
    /// depths 1–4, and outliers 0: for k from 0 to n, at every block
    /// width, on pure-mask pools and on adaptive pools with none, all or
    /// part of their lanes labelled. It labels nothing and charges nothing.
    #[test]
    fn assignment_counts_match_reference_rows(
        g in small_graph(10, 16),
        seed in any::<u64>(),
        r in wide_sample_sizes(),
        threads in thread_counts(),
        (k_pick, clustering_seed) in (any::<u32>(), any::<u64>()),
        state in 0u32..4,
    ) {
        let n = g.num_nodes();
        let (centers, assign) = random_clustering(n, k_pick as usize % (n + 1), clustering_seed);
        let mut reference = ReferenceEngine::new(&g, seed);
        reference.ensure(r);
        let mut w1 = pool_in_label_state::<1>(&g, seed, threads, r, state);
        let mut w4 = pool_in_label_state::<4>(&g, seed, threads, r, state);
        let mut w8 = pool_in_label_state::<8>(&g, seed, threads, r, state);
        for depth in [DEPTH_UNLIMITED, 1, 2, 3, 4] {
            let want = reference_assignment_counts(&mut reference, &centers, &assign, depth);
            let at = format!("depth {depth}, k = {}, r = {r}, state {state}", centers.len());
            let (got, clean) = kernel_counts(&mut w1, &centers, &assign, depth);
            prop_assert_eq!(&got, &want, "width 64, {}", at);
            prop_assert!(clean, "width 64 labelled or charged, {}", at);
            let (got, clean) = kernel_counts(&mut w4, &centers, &assign, depth);
            prop_assert_eq!(&got, &want, "width 256, {}", at);
            prop_assert!(clean, "width 256 labelled or charged, {}", at);
            let (got, clean) = kernel_counts(&mut w8, &centers, &assign, depth);
            prop_assert_eq!(&got, &want, "width 512, {}", at);
            prop_assert!(clean, "width 512 labelled or charged, {}", at);
        }
    }
}

proptest! {
    // Each case spans three shards, so keep the case count low.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Under a ledger that holds ~1.5 of a pool's 3 shards, the kernel
    /// regenerates the evicted shards it reads, still matches the
    /// reference counts, and returns with the ledger under its limit.
    #[test]
    fn assignment_counts_regenerate_under_budget(
        g in small_graph(8, 12),
        seed in any::<u64>(),
        tail in 1usize..64,
        threads in thread_counts(),
        (k_pick, clustering_seed) in (any::<u32>(), any::<u64>()),
        (depth_pick, adaptive) in (0u32..5, any::<bool>()),
    ) {
        // An edgeless graph's shards hold 0 bytes, so no budget can evict.
        prop_assume!(g.num_edges() > 0);
        let n = g.num_nodes();
        let depth = if depth_pick == 0 { DEPTH_UNLIMITED } else { depth_pick };
        let r = 2 * SHARD_WORLDS + tail;
        let (centers, assign) = random_clustering(n, 1 + k_pick as usize % n, clustering_seed);
        let mut reference = ReferenceEngine::new(&g, seed);
        reference.ensure(r);
        let want = reference_assignment_counts(&mut reference, &centers, &assign, depth);

        let limit = g.num_edges() * (SHARD_WORLDS / 8) * 3 / 2;
        let mut pool = BitParallelPool::<4>::new(&g, seed, threads).with_finalization(adaptive);
        pool.set_memory_budget(MemoryBudget::bounded(limit));
        pool.ensure(r);
        if adaptive {
            pool.counts_from_center(centers[0], &mut vec![0u32; n]);
        }
        let regenerated = pool.memory_stats().shards_regenerated;
        let mut got = vec![0u32; n];
        pool.assignment_counts(&centers, |u| assign[u], depth, &mut got);
        prop_assert_eq!(&got, &want, "depth {}, adaptive {}", depth, adaptive);
        let stats = pool.memory_stats();
        prop_assert!(stats.shards_regenerated > regenerated, "nothing regenerated: {:?}", stats);
        prop_assert!(stats.bytes_held <= limit, "{} B held over {} B", stats.bytes_held, limit);
    }
}

/// Depth batches wider than 64 centers, with duplicates, on an adaptive
/// 256-world pool whose budget holds ~1.5 of its 3 shards: every window
/// (one crossing a 256-world block boundary, one spanning all three
/// shards) yields the reference engine's per-center rows, and the pool
/// evicts and regenerates shards along the way.
#[test]
fn wide_depth_batches_match_reference_under_budget() {
    let side = 6u32;
    let mut b = GraphBuilder::new((side * side) as usize);
    for u in 0..side * side {
        let p = 0.3 + 0.1 * f64::from(u % 5);
        if u % side + 1 < side {
            b.add_edge(u, u + 1, p).unwrap();
        }
        if u + side < side * side {
            b.add_edge(u, u + side, 1.1 - p).unwrap();
        }
    }
    b.add_edge(0, 35, 0.5).unwrap();
    b.add_edge(5, 30, 0.4).unwrap();
    let g = b.build().unwrap();
    let n = g.num_nodes();
    let seed = 23;
    let r = 2 * SHARD_WORLDS + 37;
    let centers: Vec<NodeId> = (0..75u32).map(|j| NodeId(j * 7 % 36)).collect();
    let k = centers.len();
    let mut reference = ReferenceEngine::new(&g, seed);
    reference.ensure(r);
    let budget = g.num_edges() * (SHARD_WORLDS / 8) * 3 / 2;
    let windows = [(200, 300), (SHARD_WORLDS - 30, r - 10), (0, r)];
    for threads in [1, 3] {
        let mut pool = BitParallelPool::<4>::new_adaptive(&g, seed, threads);
        pool.set_memory_budget(MemoryBudget::bounded(budget));
        pool.ensure(r);
        for (d_select, d_cover) in [(0, 2), (1, 3), (2, 2)] {
            let (mut want_s, mut want_c) = (vec![0u32; k * n], vec![0u32; k * n]);
            let (mut got_s, mut got_c) = (vec![0u32; k * n], vec![0u32; k * n]);
            for (lo, hi) in windows {
                for (j, &c) in centers.iter().enumerate() {
                    let row = j * n..(j + 1) * n;
                    reference.counts_within_depths_range(
                        c,
                        d_select,
                        d_cover,
                        lo,
                        hi,
                        &mut want_s[row.clone()],
                        &mut want_c[row],
                    );
                }
                pool.counts_within_depths_batch_range(
                    &centers, d_select, d_cover, lo, hi, &mut got_s, &mut got_c,
                );
                let at = format!("[{lo}, {hi}) depths ({d_select}, {d_cover}), {threads} threads");
                assert_eq!(got_s, want_s, "ranged select {at}");
                assert_eq!(got_c, want_c, "ranged cover {at}");
            }
            // The last window is the whole pool.
            pool.counts_within_depths_batch(&centers, d_select, d_cover, &mut got_s, &mut got_c);
            assert_eq!(got_s, want_s, "full-pool select ({d_select}, {d_cover})");
            assert_eq!(got_c, want_c, "full-pool cover ({d_select}, {d_cover})");
        }
        let stats = pool.memory_stats();
        assert!(stats.shards_evicted > 0, "the budget never evicted: {stats:?}");
        assert!(stats.shards_regenerated > 0, "no shard was regenerated: {stats:?}");
    }
}

/// A 9-node chain at p = 0.5 over 100 worlds (not a multiple of 64): every
/// center row and pair count of the pure-mask and adaptive pools equals
/// the reference engine's.
#[test]
fn bit_pool_counts_match_reference() {
    let g = chain(9, 0.5);
    let mut reference = ReferenceEngine::new(&g, 42);
    let mut bit = BitParallelPool::<1>::new(&g, 42, 1);
    let mut adaptive = BitParallelPool::<4>::new_adaptive(&g, 42, 1);
    reference.ensure(100);
    bit.ensure(100);
    adaptive.ensure(100);
    let (mut a, mut b, mut c) = (vec![0u32; 9], vec![0u32; 9], vec![0u32; 9]);
    for center in 0..9u32 {
        reference.counts_from_center(NodeId(center), &mut a);
        bit.counts_from_center(NodeId(center), &mut b);
        adaptive.counts_from_center(NodeId(center), &mut c);
        assert_eq!(a, b, "center {center}");
        assert_eq!(a, c, "adaptive center {center}");
        for v in 0..9u32 {
            let want = reference.pair_count(NodeId(center), NodeId(v));
            assert_eq!(want, bit.pair_count(NodeId(center), NodeId(v)), "pair ({center},{v})");
            assert_eq!(want, adaptive.pair_count(NodeId(center), NodeId(v)), "pair ({center},{v})");
        }
    }
}

/// A 10-node chain at p = 0.6 over 97 worlds: depth-limited rows and pair
/// counts of the bit-parallel pool equal the reference engine's at every
/// depth pair, including `d_select = d_cover = 0`.
#[test]
fn bit_pool_depth_counts_match_reference() {
    let g = chain(10, 0.6);
    let mut reference = ReferenceEngine::new(&g, 5);
    let mut bit = BitParallelPool::<1>::new(&g, 5, 1);
    reference.ensure(97);
    bit.ensure(97);
    let (mut s1, mut c1) = (vec![0u32; 10], vec![0u32; 10]);
    let (mut s2, mut c2) = (vec![0u32; 10], vec![0u32; 10]);
    for center in 0..10u32 {
        for (ds, dc) in [(0, 0), (1, 2), (2, 2), (3, 9)] {
            reference.counts_within_depths(NodeId(center), ds, dc, &mut s1, &mut c1);
            bit.counts_within_depths(NodeId(center), ds, dc, &mut s2, &mut c2);
            assert_eq!(s1, s2, "select center {center} depths ({ds},{dc})");
            assert_eq!(c1, c2, "cover center {center} depths ({ds},{dc})");
        }
    }
    for v in 1..10u32 {
        for d in [1u32, 3, 8] {
            assert_eq!(
                reference.pair_count_within(NodeId(0), NodeId(v), d),
                bit.pair_count_within(NodeId(0), NodeId(v), d),
                "pair (0,{v}) depth {d}"
            );
        }
    }
}

/// Digests of [`adaptive_pool_growth_is_pinned`]: unbounded, then under a
/// budget that declines labels from the third step on.
const GROWTH_DIGESTS: [u64; 2] = [0xa355_3f04_1145_70a7, 0x8f1c_06f7_83f8_6e33];

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn counts(&mut self, counts: &[u32]) {
        counts.iter().for_each(|&c| self.word(u64::from(c)));
    }
}

/// A 60-node ring with one link in four a chord, probabilities over
/// [0.15, 0.95): its worlds hold a large component, small components of
/// several nodes and isolated nodes.
fn ring_with_chords() -> UncertainGraph {
    let n = 60u32;
    let mut state = 0x5eed_0026u64;
    let mut b = GraphBuilder::new(n as usize);
    for u in 0..n {
        for hop in [1, 2] {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let x = state >> 11;
            let v = if x.is_multiple_of(4) { (x >> 8) as u32 % n } else { (u + hop) % n };
            if v != u {
                b.add_edge(u, v, 0.15 + 0.8 * ((x >> 20) % 1000) as f64 / 1000.0).unwrap();
            }
        }
    }
    b.build().unwrap()
}

/// Pins what an adaptive 256-world pool answers and counts while it grows
/// through sizes that end inside blocks, at 1 and 4 threads. After each
/// step it folds full rows and rows over the new window from every node,
/// a batch of two centers, the connected pairs of a fixed clustering,
/// `engine_stats()` and `memory_stats()` into one digest. On odd steps
/// the connected pairs come first, so they label blocks on their own;
/// on even steps rows label the window. The schedule runs unbounded,
/// where some window lacks labels on at least two blocks (the parallel
/// labelling branch at 4 threads), and under a budget whose labelling
/// rule admits labels for the first two steps and declines them after.
#[test]
fn adaptive_pool_growth_is_pinned() {
    let g = ring_with_chords();
    let n = g.num_nodes();
    let clusters: Vec<Vec<NodeId>> = (0..6u32)
        .map(|j| (j * 10..j * 10 + 10).filter(|u| u % 7 != 3).map(NodeId).collect())
        .collect();
    let mut digests = Vec::new();
    for budget in [None, Some(400 << 10)] {
        let mut per_thread = Vec::new();
        for threads in [1, 4] {
            let mut pool = BitParallelPool::<4>::new_adaptive(&g, 26, threads);
            if let Some(limit) = budget {
                pool.set_memory_budget(MemoryBudget::bounded(limit));
            }
            let mut digest = Digest(0xcbf2_9ce4_8422_2325);
            let (mut row, mut batch) = (vec![0u32; n], vec![0u32; 2 * n]);
            let (mut reached, mut most_fresh) = (0, 0);
            for (step, r) in [100, 700, 1300, 2600, 3000].into_iter().enumerate() {
                let lo = std::mem::replace(&mut reached, r);
                pool.ensure(r);
                let pairs = |pool: &mut BitParallelPool<'_, 4>, digest: &mut Digest| {
                    let (intra, covered) = pool.connected_pairs(&clusters);
                    digest.word(intra);
                    digest.word(covered);
                };
                if step % 2 == 1 {
                    pairs(&mut pool, &mut digest);
                }
                let before = pool.engine_stats().finalized_blocks;
                for (from, c) in
                    [0, lo].into_iter().flat_map(|from| (0..n as u32).map(move |c| (from, c)))
                {
                    pool.counts_from_center_range(NodeId(c), from, r, &mut row);
                    digest.counts(&row);
                }
                most_fresh = most_fresh.max(pool.engine_stats().finalized_blocks - before);
                pool.counts_from_centers(&[NodeId(5), NodeId(41)], &mut batch);
                digest.counts(&batch);
                if step % 2 == 0 {
                    pairs(&mut pool, &mut digest);
                }
                let (stats, memory) = (pool.engine_stats(), pool.memory_stats());
                for w in [stats.finalized_blocks, stats.finalized_lanes, stats.label_queries] {
                    digest.word(w as u64);
                }
                digest.word(stats.mask_queries as u64);
                digest.word(memory.bytes_held as u64);
                digest.word(memory.shards_evicted);
                digest.word(memory.shards_regenerated);
            }
            let stats = pool.engine_stats();
            match budget {
                None => {
                    assert!(most_fresh >= 2, "no window lacked labels on two blocks");
                    assert_eq!(stats.finalized_lanes, reached, "{stats:?}");
                }
                Some(_) => {
                    let labelled = 0 < stats.finalized_lanes && stats.finalized_lanes < reached;
                    assert!(labelled && stats.mask_queries > 0, "{stats:?}");
                }
            }
            per_thread.push(digest.0);
        }
        assert_eq!(per_thread[0], per_thread[1], "threads changed the digest, budget {budget:?}");
        digests.push(per_thread[0]);
    }
    assert_eq!(digests, GROWTH_DIGESTS, "pool answers or counters changed: {digests:#x?}");
}

fn chain(n: u32, p: f64) -> UncertainGraph {
    let mut b = GraphBuilder::new(n as usize);
    for i in 0..n - 1 {
        b.add_edge(i, i + 1, p).unwrap();
    }
    b.build().unwrap()
}
