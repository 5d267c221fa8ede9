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
    BitParallelPool, EngineKind, McOracle, MemoryBudget, Oracle, SampleSchedule, WorldEngine,
    DEPTH_UNLIMITED, SHARD_WORLDS,
};

use support::ReferenceEngine;

/// A single-threaded plain-connectivity oracle on `kind`.
fn unlimited_oracle(
    g: &UncertainGraph,
    seed: u64,
    schedule: SampleSchedule,
    kind: EngineKind,
) -> McOracle<'_> {
    let d = DEPTH_UNLIMITED;
    McOracle::with_engine(g, seed, 1, schedule, 0.1, d, d, kind)
        .expect("unlimited depths are valid")
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
    /// fetch rests on. Candidate sets include duplicates and span the
    /// multi-source group size on small graphs.
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
    /// arbitrary prepare/query schedule, on both engines.
    #[test]
    fn cached_oracle_rows_identical_to_uncached(
        g in small_graph(8, 12),
        seed in any::<u64>(),
        qs in proptest::collection::vec(0.05f64..1.0, 1..5),
        bitparallel in any::<bool>(),
    ) {
        let n = g.num_nodes();
        let kind = if bitparallel { EngineKind::BitParallel } else { EngineKind::Adaptive };
        let schedule = SampleSchedule::practical();
        let mut cached = unlimited_oracle(&g, seed, schedule, kind);
        let mut plain = unlimited_oracle(&g, seed, schedule, kind).with_row_cache(false);
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

    /// The narrow (`u16`) and wide (`u32`) block-label widths are
    /// count-identical, and both label every world exactly like the
    /// reference engine.
    #[test]
    fn label_widths_agree(
        g in small_graph(10, 16),
        seed in any::<u64>(),
        r in sample_sizes(),
        threads in thread_counts(),
    ) {
        let n = g.num_nodes();
        let mut bn = BitParallelPool::<1>::new_adaptive(&g, seed, 1);
        let mut bw = BitParallelPool::<1>::new_adaptive(&g, seed, threads).with_wide_labels(true);
        let mut reference = ReferenceEngine::new(&g, seed);
        bn.ensure(r);
        bw.ensure(r);
        reference.ensure(r);
        let mut a = vec![0u32; n];
        let mut b = vec![0u32; n];
        for i in 0..r {
            bn.labels_into(i, &mut a);
            bw.labels_into(i, &mut b);
            prop_assert_eq!(&a, &reference.labels(i), "narrow labels of world {}", i);
            prop_assert_eq!(&b, &reference.labels(i), "wide labels of world {}", i);
        }
        for c in 0..n as u32 {
            bn.counts_from_center(NodeId(c), &mut a);
            bw.counts_from_center(NodeId(c), &mut b);
            prop_assert_eq!(&a, &b, "block-label widths differ at center {}", c);
            prop_assert_eq!(
                bn.pair_count(NodeId(0), NodeId(c)),
                bw.pair_count(NodeId(0), NodeId(c)),
                "pair (0, {}) widths differ", c
            );
        }
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
        let mut adaptive = unlimited_oracle(&g, seed, schedule, EngineKind::Adaptive);
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

fn chain(n: u32, p: f64) -> UncertainGraph {
    let mut b = GraphBuilder::new(n as usize);
    for i in 0..n - 1 {
        b.add_edge(i, i + 1, p).unwrap();
    }
    b.build().unwrap()
}
