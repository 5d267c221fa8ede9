//! Algorithm 1 (`min-partial`) and its depth-limited form, Algorithm 4
//! (`min-partial-d`).
//!
//! Given a threshold `q`, `min-partial` greedily selects up to `k` centers
//! and covers every node whose (estimated) connection probability to some
//! selected center is at least `q`; nodes it cannot cover remain outliers.
//! The center picked in each iteration is, among a set `T` of `α` candidate
//! uncovered nodes, the one whose *selection disk* `M_v = {u ∈ V' :
//! Pr(u ~ v) ≥ q̄}` is largest — a generalization of the
//! Charikar-Khuller-Mount-Narasimhan outlier k-center strategy to
//! probability space (paper §3.1).
//!
//! The depth-limited variant differs only in the depths of the oracle
//! backing the probabilities: a [`McOracle`](ugraph_sampling::McOracle)
//! built with depths `(d', d)` evaluates the selection disks at depth `d'`
//! and the cover disks at depth `d` (Algorithm 4 lines 5 and 8), so this
//! module is depth-agnostic.
//!
//! It is also **backend-agnostic**: every probability row consumed here
//! comes through the [`Oracle`] trait, whose Monte-Carlo implementation
//! sits on the `WorldEngine` seam — whether the pool answers a row from
//! cached labels or from edge masks, `min-partial` sees identical
//! estimates.

use rand::rngs::SmallRng;
use rand::Rng;

use ugraph_graph::NodeId;
use ugraph_sampling::{Oracle, SamplingError};

use crate::clustering::{Clustering, PartialClustering};

/// Sentinel used in the internal assignment representation.
const UNASSIGNED: u32 = u32::MAX;

/// Parameters of one `min-partial` invocation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MinPartialParams {
    /// Number of clusters `k ≥ 1`.
    pub k: usize,
    /// Cover threshold `q ∈ (0, 1]`: nodes with estimated probability
    /// `≥ (1 − ε/2)·q` to a selected center are covered (line 8).
    pub q: f64,
    /// Candidate-set size `α ≥ 1` (line 4); `usize::MAX` means "all
    /// uncovered nodes".
    pub alpha: usize,
    /// Selection threshold `q̄ ∈ [q, 1]` sizing the greedy disks (line 5).
    pub q_bar: f64,
    /// Monte-Carlo relaxation ε applied to both thresholds (§4.1); pass 0
    /// for exact oracles.
    pub epsilon: f64,
}

impl MinPartialParams {
    /// Convenience constructor with `q̄ = q` and no relaxation.
    pub fn simple(k: usize, q: f64) -> Self {
        MinPartialParams { k, q, alpha: 1, q_bar: q, epsilon: 0.0 }
    }
}

/// Candidate rows fetched per batched oracle call: large enough to amortize
/// a pool sweep over many rows, small enough to bound the row buffers at
/// `2 · CANDIDATE_BATCH · n` floats even when `α = n`.
const CANDIDATE_BATCH: usize = 16;

/// Reusable buffers for repeated [`min_partial`] invocations.
///
/// One `min-partial` run needs seven `n`-sized working vectors (coverage
/// bookkeeping and probability rows); the MCP/ACP drivers invoke
/// `min-partial` once per threshold guess over the same graph, so they own
/// one workspace and pass it to [`min_partial_with`] — repeated guesses
/// reset the buffers in place instead of re-allocating them.
#[derive(Clone, Debug, Default)]
pub struct MinPartialWorkspace {
    is_center: Vec<bool>,
    /// V' as a compact vector of live node ids.
    uncovered: Vec<u32>,
    best_prob: Vec<f64>,
    best_center: Vec<u32>,
    covered: Vec<bool>,
    /// Batched selection-radius rows, candidate-major (empty while the
    /// oracle's rows are identical).
    sel_rows: Vec<f64>,
    /// Batched cover-radius rows, candidate-major.
    cov_rows: Vec<f64>,
    /// Cover row of the best candidate found so far this iteration; in the
    /// lines 10–11 fill-up, the row of the center being added.
    best_cov: Vec<f64>,
    /// Candidate ids of the current batch.
    batch: Vec<NodeId>,
}

impl MinPartialWorkspace {
    /// Creates a workspace for graphs of `n` nodes (buffers are sized
    /// lazily, so any `n` works; this just pre-sizes).
    pub fn new(n: usize) -> Self {
        let mut ws = MinPartialWorkspace::default();
        ws.reset(n);
        ws
    }

    /// Re-initializes all bookkeeping for a fresh invocation.
    fn reset(&mut self, n: usize) {
        self.is_center.clear();
        self.is_center.resize(n, false);
        self.uncovered.clear();
        self.uncovered.extend(0..n as u32);
        self.best_prob.clear();
        self.best_prob.resize(n, 0.0);
        self.best_center.clear();
        self.best_center.resize(n, UNASSIGNED);
        self.covered.clear();
        self.covered.resize(n, false);
        self.best_cov.clear();
        self.best_cov.resize(n, 0.0);
    }

    /// Adds `c` as center number `ci`, whose cover row is `best_cov`, and
    /// updates line 12's assignment `c(u, S) = argmax_c p̃(c, u)`. Centers
    /// stay pinned to themselves.
    fn add_center(&mut self, c: u32, ci: u32) {
        self.is_center[c as usize] = true;
        self.covered[c as usize] = true;
        for (u, &p) in self.best_cov.iter().enumerate() {
            if !self.is_center[u] && p > self.best_prob[u] {
                self.best_prob[u] = p;
                self.best_center[u] = ci;
            }
        }
        self.best_prob[c as usize] = 1.0;
        self.best_center[c as usize] = ci;
    }
}

/// Runs `min-partial(G, k, q, α, q̄)` against `oracle`.
///
/// The oracle must already be [`prepare`](Oracle::prepare)d for
/// probabilities `≥ q` (the drivers do this). `rng` supplies the "arbitrary"
/// choices of the pseudocode (candidate sets), making runs reproducible
/// under a fixed seed.
///
/// Returns the partial clustering, per-node assignment probabilities, and
/// the best-center map used to complete partial clusterings.
///
/// This convenience wrapper allocates a fresh [`MinPartialWorkspace`];
/// repeated callers (the MCP/ACP guessing schedules) use
/// [`min_partial_with`] to reuse one.
///
/// # Errors
/// Propagates oracle failures (cooperative interruptions, injected
/// faults). The workspace and oracle caches stay consistent: nothing
/// partial is committed, and re-running the invocation completes
/// bit-identically.
///
/// # Panics
/// Panics if `params.k == 0` or `params.alpha == 0`.
pub fn min_partial<O: Oracle + ?Sized>(
    oracle: &mut O,
    params: &MinPartialParams,
    rng: &mut SmallRng,
) -> Result<PartialClustering, SamplingError> {
    min_partial_with(oracle, params, rng, &mut MinPartialWorkspace::new(oracle.num_nodes()))
}

/// [`min_partial`] with caller-owned working buffers.
///
/// Candidate probability rows are fetched through
/// [`Oracle::center_probs_batch`] in `CANDIDATE_BATCH`-sized groups, so the
/// Monte-Carlo oracles answer a greedy step with amortized pool sweeps and
/// cached rows instead of one full sweep per candidate; when
/// [`Oracle::identical_rows`] holds, only cover rows are materialized. The
/// returned clustering is **bit-identical** to per-candidate
/// `center_probs` calls: candidates are evaluated in the same order, ties
/// break the same way, and the rng is consumed identically.
///
/// # Errors
/// See [`min_partial`].
///
/// # Panics
/// Panics if `params.k == 0` or `params.alpha == 0`.
pub fn min_partial_with<O: Oracle + ?Sized>(
    oracle: &mut O,
    params: &MinPartialParams,
    rng: &mut SmallRng,
    ws: &mut MinPartialWorkspace,
) -> Result<PartialClustering, SamplingError> {
    assert!(params.k >= 1, "k must be at least 1");
    assert!(params.alpha >= 1, "alpha must be at least 1");
    let n = oracle.num_nodes();
    let relax = 1.0 - params.epsilon / 2.0;
    let select_thresh = relax * params.q_bar;
    let cover_thresh = relax * params.q;
    let identical_rows = oracle.identical_rows();

    let mut centers: Vec<NodeId> = Vec::with_capacity(params.k);
    ws.reset(n);

    for _iter in 0..params.k {
        if ws.uncovered.is_empty() {
            break;
        }
        // Line 4: arbitrary T ⊆ V' with |T| = min(α, |V'|), drawn by a
        // partial Fisher-Yates shuffle so candidates are distinct.
        let t_size = params.alpha.min(ws.uncovered.len());
        for i in 0..t_size {
            let j = i + rng.gen_range(0..ws.uncovered.len() - i);
            ws.uncovered.swap(i, j);
        }

        // Lines 5-6: greedy disk maximization over the candidates, rows
        // fetched in batches.
        let mut best: Option<(usize, u32)> = None; // (|Mv|, candidate node)
        let mut start = 0usize;
        while start < t_size {
            let len = (t_size - start).min(CANDIDATE_BATCH);
            ws.batch.clear();
            ws.batch.extend(ws.uncovered[start..start + len].iter().map(|&u| NodeId(u)));
            ws.cov_rows.resize(len * n, 0.0);
            if identical_rows {
                oracle.center_probs_batch(&ws.batch, &mut [], &mut ws.cov_rows)?;
            } else {
                ws.sel_rows.resize(len * n, 0.0);
                oracle.center_probs_batch(&ws.batch, &mut ws.sel_rows, &mut ws.cov_rows)?;
            }
            for (bj, &cand) in ws.uncovered[start..start + len].iter().enumerate() {
                let cov_row = &ws.cov_rows[bj * n..(bj + 1) * n];
                let sel_row =
                    if identical_rows { cov_row } else { &ws.sel_rows[bj * n..(bj + 1) * n] };
                let disk =
                    ws.uncovered.iter().filter(|&&u| sel_row[u as usize] >= select_thresh).count();
                let better = match best {
                    None => true,
                    // Tie-break toward the smaller node id for determinism.
                    Some((bd, bc)) => disk > bd || (disk == bd && cand < bc),
                };
                if better {
                    best = Some((disk, cand));
                    ws.best_cov.copy_from_slice(cov_row);
                }
            }
            start += len;
        }
        let (_, chosen) =
            best.unwrap_or_else(|| unreachable!("candidate set cannot be empty here"));
        ws.add_center(chosen, centers.len() as u32);
        centers.push(NodeId(chosen));

        // Line 8: remove from V' everything now covered by the new center.
        let (best_cov, covered) = (&ws.best_cov, &mut ws.covered);
        ws.uncovered.retain(|&u| {
            if best_cov[u as usize] >= cover_thresh || u == chosen {
                covered[u as usize] = true;
                false
            } else {
                true
            }
        });
    }

    // Lines 10-11: top up with arbitrary non-center nodes when fewer than k
    // centers were selected (V' ran out early). Their cover rows are still
    // computed so the final assignment honors c(u, S) over all of S.
    for u in 0..n as u32 {
        if centers.len() == params.k {
            break;
        }
        if !ws.is_center[u as usize] {
            oracle.center_probs(NodeId(u), &mut [], &mut ws.best_cov)?;
            ws.add_center(u, centers.len() as u32);
            centers.push(NodeId(u));
        }
    }

    // Materialize: covered nodes take their best center; outliers stay out.
    let mut assignment = vec![UNASSIGNED; n];
    let mut assign_probs = vec![0.0f64; n];
    for u in 0..n {
        if ws.covered[u] && ws.best_center[u] != UNASSIGNED {
            assignment[u] = ws.best_center[u];
            assign_probs[u] = ws.best_prob[u];
        }
    }
    let clustering = Clustering::from_raw(centers, assignment);
    let best_center_opt: Vec<Option<u32>> =
        ws.best_center.iter().map(|&c| (c != UNASSIGNED).then_some(c)).collect();
    Ok(PartialClustering {
        clustering,
        assign_probs,
        best_center: best_center_opt,
        best_prob: ws.best_prob.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use ugraph_graph::{GraphBuilder, UncertainGraph};
    use ugraph_sampling::ExactOracle;

    fn exact_oracle(g: &UncertainGraph) -> ExactOracle {
        ExactOracle::new(g).unwrap()
    }

    /// Two cliques of 3, p = 0.9 inside, bridged by p = 0.01.
    fn two_communities() -> UncertainGraph {
        let mut b = GraphBuilder::new(6);
        for (u, v) in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)] {
            b.add_edge(u, v, 0.9).unwrap();
        }
        b.add_edge(2, 3, 0.01).unwrap();

        b.build().unwrap()
    }

    #[test]
    fn covers_everything_at_low_threshold() {
        let g = two_communities();
        let mut oracle = exact_oracle(&g);
        let mut rng = SmallRng::seed_from_u64(1);
        let pc = min_partial(&mut oracle, &MinPartialParams::simple(2, 0.5), &mut rng).unwrap();
        assert!(pc.clustering.is_full());
        assert_eq!(pc.clustering.num_clusters(), 2);
        // Each triangle forms one cluster.
        let c0 = pc.clustering.cluster_of(NodeId(0));
        assert_eq!(pc.clustering.cluster_of(NodeId(1)), c0);
        assert_eq!(pc.clustering.cluster_of(NodeId(2)), c0);
        let c3 = pc.clustering.cluster_of(NodeId(3));
        assert_ne!(c0, c3);
        assert_eq!(pc.clustering.cluster_of(NodeId(5)), c3);
    }

    #[test]
    fn covered_nodes_meet_threshold() {
        let g = two_communities();
        let mut oracle = exact_oracle(&g);
        let mut rng = SmallRng::seed_from_u64(7);
        let q = 0.7;
        let pc = min_partial(&mut oracle, &MinPartialParams::simple(2, q), &mut rng).unwrap();
        for u in 0..6u32 {
            if pc.clustering.cluster_of(NodeId(u)).is_some() {
                assert!(
                    pc.assign_probs[u as usize] >= q - 1e-12,
                    "covered node {u} has prob {} < q = {q}",
                    pc.assign_probs[u as usize]
                );
            }
        }
    }

    #[test]
    fn k1_on_high_threshold_leaves_outliers() {
        let g = two_communities();
        let mut oracle = exact_oracle(&g);
        let mut rng = SmallRng::seed_from_u64(3);
        let pc = min_partial(&mut oracle, &MinPartialParams::simple(1, 0.5), &mut rng).unwrap();
        // One center can only cover its own triangle (bridge prob ~0.01).
        assert_eq!(pc.clustering.covered_count(), 3);
        assert_eq!(pc.clustering.outliers().len(), 3);
        // phi counts only covered nodes.
        assert!(pc.phi() > 0.0 && pc.phi() < 1.0);
    }

    #[test]
    fn centers_pin_to_their_own_cluster() {
        let g = two_communities();
        let mut oracle = exact_oracle(&g);
        let mut rng = SmallRng::seed_from_u64(11);
        let pc = min_partial(&mut oracle, &MinPartialParams::simple(3, 0.3), &mut rng).unwrap();
        for (i, &c) in pc.clustering.centers().iter().enumerate() {
            assert_eq!(pc.clustering.cluster_of(c), Some(i));
            assert_eq!(pc.assign_probs[c.index()], 1.0);
        }
    }

    #[test]
    fn fills_up_to_k_centers_when_graph_is_small() {
        // Fully reliable triangle: all nodes covered by the first center,
        // so centers 2 and 3 are arbitrary fill-ins.
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1.0).unwrap();
        b.add_edge(1, 2, 1.0).unwrap();
        b.add_edge(0, 2, 1.0).unwrap();
        let g = b.build().unwrap();
        let mut oracle = exact_oracle(&g);
        let mut rng = SmallRng::seed_from_u64(5);
        let pc = min_partial(&mut oracle, &MinPartialParams::simple(2, 0.9), &mut rng).unwrap();
        assert_eq!(pc.clustering.num_clusters(), 2);
        assert!(pc.clustering.is_full());
        assert!(pc.clustering.validate().is_ok());
    }

    #[test]
    fn alpha_all_considers_every_uncovered_candidate() {
        let g = two_communities();
        let mut oracle = exact_oracle(&g);
        let mut rng = SmallRng::seed_from_u64(2);
        let params = MinPartialParams { k: 2, q: 0.5, alpha: usize::MAX, q_bar: 0.5, epsilon: 0.0 };
        let pc = min_partial(&mut oracle, &params, &mut rng).unwrap();
        assert!(pc.clustering.is_full());
        // With alpha = all and exact probabilities the result is
        // rng-independent: any seed gives the same deterministic outcome
        // because ties break on node id.
        let mut oracle2 = exact_oracle(&g);
        let mut rng2 = SmallRng::seed_from_u64(999);
        let pc2 = min_partial(&mut oracle2, &params, &mut rng2).unwrap();
        assert_eq!(pc.clustering, pc2.clustering);
    }

    #[test]
    fn q_bar_above_q_shrinks_selection_disks_but_not_cover() {
        let g = two_communities();
        let mut oracle = exact_oracle(&g);
        let mut rng = SmallRng::seed_from_u64(4);
        let params = MinPartialParams { k: 2, q: 0.1, alpha: usize::MAX, q_bar: 0.9, epsilon: 0.0 };
        let pc = min_partial(&mut oracle, &params, &mut rng).unwrap();
        // Cover threshold is low, so everything still gets covered.
        assert!(pc.clustering.is_full());
    }

    #[test]
    fn reproducible_under_seed() {
        let g = two_communities();
        let run = |seed: u64| {
            let mut oracle = exact_oracle(&g);
            let mut rng = SmallRng::seed_from_u64(seed);
            min_partial(&mut oracle, &MinPartialParams::simple(2, 0.5), &mut rng)
                .unwrap()
                .clustering
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    #[should_panic(expected = "k must be")]
    fn zero_k_panics() {
        let g = two_communities();
        let mut oracle = exact_oracle(&g);
        let mut rng = SmallRng::seed_from_u64(0);
        let params = MinPartialParams { k: 0, q: 0.5, alpha: 1, q_bar: 0.5, epsilon: 0.0 };
        let _ = min_partial(&mut oracle, &params, &mut rng).unwrap();
    }

    #[test]
    fn epsilon_relaxes_thresholds() {
        // Path 0 -0.8- 1: at q = 0.8 with ε = 0.5 the relaxed threshold is
        // 0.6, so node 1 is covered by center 0 even though 0.8 < q/(1-ε/2).
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 0.7).unwrap();
        let g = b.build().unwrap();
        let mut oracle = exact_oracle(&g);
        let mut rng = SmallRng::seed_from_u64(0);
        let strict = MinPartialParams { k: 1, q: 0.8, alpha: 1, q_bar: 0.8, epsilon: 0.0 };
        let pc = min_partial(&mut oracle, &strict, &mut rng).unwrap();
        assert_eq!(pc.clustering.covered_count(), 1);
        let relaxed = MinPartialParams { k: 1, q: 0.8, alpha: 1, q_bar: 0.8, epsilon: 0.5 };
        let pc = min_partial(&mut oracle, &relaxed, &mut rng).unwrap();
        assert_eq!(pc.clustering.covered_count(), 2);
    }
}
