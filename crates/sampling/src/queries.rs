//! Reliability query primitives on uncertain graphs.
//!
//! The clustering paper builds on a line of work about querying uncertain
//! graphs by *reliability*: k-nearest-neighbor queries under probabilistic
//! distance (Potamias, Bonchi, Gionis, Kollios — VLDB 2010) and the
//! most-reliable-source problem of classical network reliability (§1.1 of
//! the paper). These primitives fall out of the same Monte-Carlo machinery
//! the clustering algorithms use, so they are provided here as first-class
//! queries — generic over the [`WorldEngine`] seam, so they run unchanged
//! on every engine and block width.

use ugraph_graph::NodeId;

use crate::engine::WorldEngine;

/// Ranks nonzero counts, excluding the source, by decreasing estimate.
fn rank_counts(counts: &[u32], source: NodeId, k: usize, r: usize) -> Vec<(NodeId, f64)> {
    let mut scored: Vec<(NodeId, f64)> = counts
        .iter()
        .enumerate()
        .filter(|&(u, &c)| u != source.index() && c > 0)
        .map(|(u, &c)| (NodeId::from_index(u), c as f64 / r as f64))
        .collect();
    scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    scored.truncate(k);
    scored
}

/// The `k` nodes most reliably connected to `source` (excluding the source
/// itself), sorted by decreasing estimated connection probability; ties
/// break toward smaller node ids. Nodes with estimate 0 are never returned,
/// so fewer than `k` results are possible.
///
/// This is the reliability variant of the k-NN query of Potamias et al.,
/// using majority semantics over the sample pool.
///
/// # Panics
/// Panics if the engine's pool is empty.
pub fn reliability_knn<E: WorldEngine + ?Sized>(
    engine: &mut E,
    source: NodeId,
    k: usize,
) -> Vec<(NodeId, f64)> {
    let n = engine.graph().num_nodes();
    let r = engine.num_samples();
    assert!(r > 0, "sample pool is empty");
    let mut counts = vec![0u32; n];
    engine.counts_from_center(source, &mut counts);
    rank_counts(&counts, source, k, r)
}

/// Depth-limited variant of [`reliability_knn`]: only paths of length at
/// most `depth` count (paper §3.4 semantics). Requires a depth-capable
/// engine such as [`crate::BitParallelPool`].
///
/// # Panics
/// Panics if the engine's pool is empty or cannot answer finite depths.
pub fn reliability_knn_within<E: WorldEngine + ?Sized>(
    engine: &mut E,
    source: NodeId,
    k: usize,
    depth: u32,
) -> Vec<(NodeId, f64)> {
    let n = engine.graph().num_nodes();
    let r = engine.num_samples();
    assert!(r > 0, "sample pool is empty");
    let mut sel = vec![0u32; n];
    let mut cov = vec![0u32; n];
    engine.counts_within_depths(source, depth, depth, &mut sel, &mut cov);
    rank_counts(&cov, source, k, r)
}

/// Folds per-node assignment counts over `r` worlds, as
/// [`crate::BitParallelPool::assignment_counts`] writes them, into the
/// paper's `(p_min, p_avg)` pair (Eqs. 1-2). A covered node's probability
/// is `counts[u] / r`; `p_min` is the minimum over covered nodes (`1.0`
/// when nothing is covered) and `p_avg` averages over **all** nodes with
/// uncovered nodes contributing 0 (`0.0` for empty inputs). The sum runs
/// in node order. The single reduction shared by `ugraph-metrics`'
/// quality functions and `ugraph-cluster`'s session evaluation, so the
/// outlier convention cannot drift between them.
pub fn quality_from_counts(
    counts: &[u32],
    r: usize,
    covered: impl Fn(usize) -> bool,
) -> (f64, f64) {
    let n = counts.len();
    let r = r as f64;
    let mut p_min = 1.0f64;
    let mut sum = 0.0f64;
    for (u, &c) in counts.iter().enumerate() {
        if covered(u) {
            let p = c as f64 / r;
            p_min = p_min.min(p);
            sum += p;
        }
    }
    (p_min, if n == 0 { 0.0 } else { sum / n as f64 })
}

/// Statistic used by [`most_reliable_source`] to rank candidates.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SourceObjective {
    /// Maximize the minimum connection probability to any target (the
    /// classical most-reliable-source criterion; MCP's flavor).
    #[default]
    MinToTargets,
    /// Maximize the average connection probability to the targets (ACP's
    /// flavor).
    AvgToTargets,
}

/// Candidate rows fetched per batched engine call in
/// [`most_reliable_source`].
const SOURCE_BATCH: usize = 64;

/// Picks, among `candidates`, the node maximizing the chosen reliability
/// statistic toward `targets` (the *most reliable source* problem, a
/// special case of the paper's clustering objectives with `k = 1`).
/// Returns the winner and its statistic; `None` if `candidates` or
/// `targets` is empty. Ties break toward the smaller node id.
///
/// Candidate rows are fetched through the engine's batched
/// `counts_from_centers` in `SOURCE_BATCH`-sized groups, so the pool is
/// swept once per group instead of once per candidate.
///
/// # Panics
/// Panics if the engine's pool is empty.
pub fn most_reliable_source<E: WorldEngine + ?Sized>(
    engine: &mut E,
    candidates: &[NodeId],
    targets: &[NodeId],
    objective: SourceObjective,
) -> Option<(NodeId, f64)> {
    if candidates.is_empty() || targets.is_empty() {
        return None;
    }
    let n = engine.graph().num_nodes();
    let r = engine.num_samples();
    assert!(r > 0, "sample pool is empty");
    let mut counts = vec![0u32; SOURCE_BATCH.min(candidates.len()) * n];
    let mut best: Option<(NodeId, f64)> = None;
    for chunk in candidates.chunks(SOURCE_BATCH) {
        engine.counts_from_centers(chunk, &mut counts[..chunk.len() * n]);
        for (j, &c) in chunk.iter().enumerate() {
            let row = &counts[j * n..(j + 1) * n];
            let stat = match objective {
                SourceObjective::MinToTargets => targets
                    .iter()
                    .map(|t| row[t.index()] as f64 / r as f64)
                    .fold(f64::INFINITY, f64::min),
                SourceObjective::AvgToTargets => {
                    targets.iter().map(|t| row[t.index()] as f64 / r as f64).sum::<f64>()
                        / targets.len() as f64
                }
            };
            let better = match best {
                None => true,
                Some((bn, bs)) => stat > bs || (stat == bs && c < bn),
            };
            if better {
                best = Some((c, stat));
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use ugraph_graph::{GraphBuilder, UncertainGraph};

    use crate::pool::BitParallelPool;

    /// Star: center 0 with spokes of decreasing reliability, plus a far
    /// node 4 two hops out.
    fn star() -> UncertainGraph {
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 1, 0.9).unwrap();
        b.add_edge(0, 2, 0.6).unwrap();
        b.add_edge(0, 3, 0.3).unwrap();
        b.add_edge(3, 4, 0.3).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn knn_orders_by_reliability() {
        let g = star();
        let mut pool = BitParallelPool::<4>::new_adaptive(&g, 5, 1);
        pool.ensure(4000);
        let knn = reliability_knn(&mut pool, NodeId(0), 3);
        assert_eq!(knn.len(), 3);
        let ids: Vec<u32> = knn.iter().map(|(n, _)| n.0).collect();
        assert_eq!(ids, vec![1, 2, 3], "expected reliability order, got {knn:?}");
        assert!((knn[0].1 - 0.9).abs() < 0.03);
        assert!((knn[1].1 - 0.6).abs() < 0.03);
    }

    #[test]
    fn knn_truncates_and_excludes_source() {
        let g = star();
        let mut pool = BitParallelPool::<4>::new_adaptive(&g, 5, 1);
        pool.ensure(500);
        let knn = reliability_knn(&mut pool, NodeId(0), 100);
        assert!(knn.len() <= 4);
        assert!(knn.iter().all(|(n, _)| *n != NodeId(0)));
        let top1 = reliability_knn(&mut pool, NodeId(0), 1);
        assert_eq!(top1.len(), 1);
        assert_eq!(top1[0].0, NodeId(1));
    }

    #[test]
    fn knn_depth_limited_drops_far_nodes() {
        let g = star();
        let mut pool = BitParallelPool::<4>::new_adaptive(&g, 5, 1);
        pool.ensure(1000);
        let within1 = reliability_knn_within(&mut pool, NodeId(0), 10, 1);
        assert!(within1.iter().all(|(n, _)| n.0 != 4), "node 4 is 2 hops away");
        let within2 = reliability_knn_within(&mut pool, NodeId(0), 10, 2);
        assert!(within2.iter().any(|(n, _)| n.0 == 4));
    }

    #[test]
    fn queries_agree_across_backends() {
        let g = star();
        let mut adaptive = BitParallelPool::<4>::new_adaptive(&g, 5, 1);
        let mut bit = BitParallelPool::<1>::new(&g, 5, 1);
        adaptive.ensure(777);
        bit.ensure(777);
        assert_eq!(
            reliability_knn(&mut adaptive, NodeId(0), 4),
            reliability_knn(&mut bit, NodeId(0), 4)
        );
        assert_eq!(
            reliability_knn_within(&mut adaptive, NodeId(0), 4, 1),
            reliability_knn_within(&mut bit, NodeId(0), 4, 1)
        );
        let cands = [NodeId(0), NodeId(4)];
        let targets = [NodeId(1), NodeId(2)];
        assert_eq!(
            most_reliable_source(&mut adaptive, &cands, &targets, SourceObjective::MinToTargets),
            most_reliable_source(&mut bit, &cands, &targets, SourceObjective::MinToTargets)
        );
    }

    #[test]
    fn most_reliable_source_min_objective() {
        let g = star();
        let mut pool = BitParallelPool::<4>::new_adaptive(&g, 9, 1);
        pool.ensure(4000);
        // Candidates 0 and 4 serving targets {1, 2}: node 0 is adjacent to
        // both; node 4 reaches them through two weak hops.
        let got = most_reliable_source(
            &mut pool,
            &[NodeId(0), NodeId(4)],
            &[NodeId(1), NodeId(2)],
            SourceObjective::MinToTargets,
        )
        .unwrap();
        assert_eq!(got.0, NodeId(0));
        assert!((got.1 - 0.6).abs() < 0.04, "min stat {}", got.1);
        let avg = most_reliable_source(
            &mut pool,
            &[NodeId(0), NodeId(4)],
            &[NodeId(1), NodeId(2)],
            SourceObjective::AvgToTargets,
        )
        .unwrap();
        assert_eq!(avg.0, NodeId(0));
        assert!((avg.1 - 0.75).abs() < 0.04, "avg stat {}", avg.1);
    }

    #[test]
    fn most_reliable_source_empty_inputs() {
        let g = star();
        let mut pool = BitParallelPool::<4>::new_adaptive(&g, 1, 1);
        pool.ensure(10);
        assert!(most_reliable_source(&mut pool, &[], &[NodeId(1)], SourceObjective::default())
            .is_none());
        assert!(most_reliable_source(&mut pool, &[NodeId(0)], &[], SourceObjective::default())
            .is_none());
    }

    #[test]
    fn source_includes_itself_as_target_with_prob_one() {
        let g = star();
        let mut pool = BitParallelPool::<4>::new_adaptive(&g, 2, 1);
        pool.ensure(100);
        let got = most_reliable_source(
            &mut pool,
            &[NodeId(1)],
            &[NodeId(1)],
            SourceObjective::MinToTargets,
        )
        .unwrap();
        assert_eq!(got, (NodeId(1), 1.0));
    }
}
