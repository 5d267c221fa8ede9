//! Shared machinery of the experiment harness: algorithm runners with
//! timing, evaluation against fresh sample pools, and the experiment
//! configurations.

use std::time::{Duration, Instant};

use ugraph_baselines::{gmm, kpt, mcl, KptConfig, MclConfig};
use ugraph_cluster::{acp, acp_depth, mcp, mcp_depth, ClusterConfig, Clustering};
use ugraph_datasets::DatasetSpec;
use ugraph_graph::UncertainGraph;
use ugraph_metrics::{avpr, clustering_quality, Avpr, Quality};
use ugraph_sampling::{BitParallelPool, WorldEngine};

/// Global harness options (parsed from the CLI).
#[derive(Clone, Debug)]
pub struct HarnessConfig {
    /// Seed for dataset generation and algorithms.
    pub seed: u64,
    /// DBLP scale factor (1.0 = full published size).
    pub dblp_scale: f64,
    /// Samples used by the *evaluation* pools (independent of algorithms).
    pub eval_samples: usize,
    /// Quick mode: smaller k grid / fewer samples for smoke runs.
    pub quick: bool,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig { seed: 1, dblp_scale: 0.05, eval_samples: 512, quick: false }
    }
}

/// The four compared algorithms.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algo {
    /// Gonzalez k-center on `ln(1/p)` weights.
    Gmm,
    /// Markov Cluster algorithm (k is implied by the inflation).
    Mcl {
        /// Inflation stored ×100 so the enum stays `Eq` (1.2 → 120).
        inflation_x100: u32,
    },
    /// The paper's MCP.
    Mcp,
    /// The paper's ACP.
    Acp,
}

impl Algo {
    /// Display name.
    pub fn name(&self) -> String {
        match self {
            Algo::Gmm => "gmm".into(),
            Algo::Mcl { .. } => "mcl".into(),
            Algo::Mcp => "mcp".into(),
            Algo::Acp => "acp".into(),
        }
    }
}

/// Outcome of one timed clustering run.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// The clustering produced.
    pub clustering: Clustering,
    /// Wall-clock time of the algorithm alone.
    pub elapsed: Duration,
}

/// Runs `algo` on `graph` with target `k` (ignored by MCL) and returns the
/// clustering with its wall-clock time. Returns `None` when the algorithm
/// reports no feasible clustering (e.g. MCP on > k components).
pub fn run_algo(graph: &UncertainGraph, algo: Algo, k: usize, seed: u64) -> Option<RunOutcome> {
    let cfg = ClusterConfig::default().with_seed(seed);
    let t = Instant::now();
    let clustering = match algo {
        Algo::Gmm => gmm(graph, k, seed).ok()?,
        Algo::Mcl { inflation_x100 } => {
            mcl(graph, &MclConfig::with_inflation(f64::from(inflation_x100) / 100.0)).clustering
        }
        Algo::Mcp => mcp(graph, k, &cfg).ok()?.clustering,
        Algo::Acp => acp(graph, k, &cfg).ok()?.clustering,
    };
    Some(RunOutcome { clustering, elapsed: t.elapsed() })
}

/// Depth-limited run (Table 2). `None` when no full clustering exists at
/// this depth.
pub fn run_depth_algo(
    graph: &UncertainGraph,
    algo: Algo,
    k: usize,
    depth: u32,
    seed: u64,
) -> Option<RunOutcome> {
    let cfg = ClusterConfig::default().with_seed(seed);
    let t = Instant::now();
    let clustering = match algo {
        Algo::Mcp => mcp_depth(graph, k, depth, &cfg).ok()?.clustering,
        Algo::Acp => acp_depth(graph, k, depth, &cfg).ok()?.clustering,
        _ => return None,
    };
    Some(RunOutcome { clustering, elapsed: t.elapsed() })
}

/// Runs KPT (Table 2 comparator).
pub fn run_kpt(graph: &UncertainGraph, seed: u64) -> RunOutcome {
    let t = Instant::now();
    let clustering = kpt(graph, &KptConfig { edge_threshold: 0.5, seed });
    RunOutcome { clustering, elapsed: t.elapsed() }
}

/// Fresh-pool evaluation of a clustering: `p_min`/`p_avg` + AVPR.
pub fn evaluate(
    graph: &UncertainGraph,
    clustering: &Clustering,
    eval_samples: usize,
    seed: u64,
) -> (Quality, Avpr) {
    let mut pool = eval_pool(graph, eval_samples, seed);
    (clustering_quality(&mut pool, clustering), avpr(&mut pool, clustering))
}

/// Builds a reusable adaptive evaluation pool (when several clusterings
/// are graded on the same graph).
pub fn eval_pool<'g>(
    graph: &'g UncertainGraph,
    eval_samples: usize,
    seed: u64,
) -> BitParallelPool<'g, 4> {
    let mut pool = BitParallelPool::new_adaptive(graph, seed ^ 0xEAA1_5EED, 0);
    pool.ensure(eval_samples);
    pool
}

/// The PPI dataset specs in paper order.
pub fn ppi_specs() -> Vec<(DatasetSpec, crate::paper::FigureRef)> {
    vec![
        (DatasetSpec::Collins, crate::paper::COLLINS),
        (DatasetSpec::Gavin, crate::paper::GAVIN),
        (DatasetSpec::Krogan, crate::paper::KROGAN),
    ]
}

/// Finds an MCL inflation whose cluster count lands closest to `target_k`
/// by bisection (cluster count grows with inflation), returning the chosen
/// inflation (×100) and its timed run.
///
/// The paper's protocol derives the k grid from MCL runs at published
/// inflation values; on synthetic stand-in graphs those inflations yield
/// different granularities, so the harness instead matches MCL's
/// granularity to the *published* k — keeping all columns comparable with
/// the paper's figures.
pub fn mcl_at_granularity(graph: &UncertainGraph, target_k: usize, seed: u64) -> (u32, RunOutcome) {
    let run = |inflation_x100: u32| {
        run_algo(graph, Algo::Mcl { inflation_x100 }, 0, seed).expect("mcl always returns")
    };
    let mut lo = 105u32; // inflation 1.05
    let mut hi = 400u32; // inflation 4.0
    let mut best = (lo, run(lo));
    let consider = |cand: (u32, RunOutcome), best: &mut (u32, RunOutcome)| {
        if cand.1.clustering.num_clusters().abs_diff(target_k)
            < best.1.clustering.num_clusters().abs_diff(target_k)
        {
            *best = cand;
        }
    };
    let first_hi = run(hi);
    consider((hi, first_hi), &mut best);
    for _ in 0..8 {
        if hi - lo <= 2 {
            break;
        }
        let mid = (lo + hi) / 2;
        let out = run(mid);
        let k = out.clustering.num_clusters();
        consider((mid, out), &mut best);
        if k < target_k {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    best
}

/// Estimated peak memory of an MCL run on `graph` in bytes: the dense-ish
/// expansion working set (`nnz(M²) ≈ n · max_entries` entries of 12 bytes,
/// upper-bounded by column caps). Used by the Figure 4 reproduction to
/// report *would-OOM* points without actually exhausting the machine.
pub fn mcl_memory_estimate(graph: &UncertainGraph, max_entries_per_column: usize) -> u64 {
    let n = graph.num_nodes() as u64;
    let avg_deg = if graph.num_nodes() == 0 {
        0.0
    } else {
        2.0 * graph.num_edges() as f64 / graph.num_nodes() as f64
    };
    // Before pruning, a squared column touches ~deg² rows (capped by n);
    // entry = (u32, f64) + Vec overhead ≈ 12-16 bytes.
    let per_col = (avg_deg * avg_deg).min(n as f64).max(max_entries_per_column as f64);
    (n as f64 * per_col * 16.0) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use ugraph_graph::GraphBuilder;

    fn toy() -> UncertainGraph {
        let mut b = GraphBuilder::new(6);
        for (u, v) in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)] {
            b.add_edge(u, v, 0.9).unwrap();
        }
        b.add_edge(2, 3, 0.05).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn run_algo_all_variants() {
        let g = toy();
        for algo in [Algo::Gmm, Algo::Mcl { inflation_x100: 200 }, Algo::Mcp, Algo::Acp] {
            let out = run_algo(&g, algo, 2, 1).expect("runs");
            assert!(out.clustering.validate().is_ok(), "{}", algo.name());
            assert!(out.elapsed.as_nanos() > 0);
        }
    }

    #[test]
    fn run_algo_propagates_infeasibility() {
        // 3 components, k = 2: mcp must return None, mcl ignores k.
        let mut b = GraphBuilder::new(6);
        b.add_edge(0, 1, 0.9).unwrap();
        b.add_edge(2, 3, 0.9).unwrap();
        b.add_edge(4, 5, 0.9).unwrap();
        let g = b.build().unwrap();
        assert!(run_algo(&g, Algo::Mcp, 2, 1).is_none());
        assert!(run_algo(&g, Algo::Mcl { inflation_x100: 150 }, 2, 1).is_some());
    }

    #[test]
    fn depth_runs_and_kpt() {
        let g = toy();
        let out = run_depth_algo(&g, Algo::Mcp, 2, 2, 1).expect("depth mcp");
        assert!(out.clustering.is_full());
        assert!(run_depth_algo(&g, Algo::Gmm, 2, 2, 1).is_none(), "gmm has no depth variant");
        let kpt_out = run_kpt(&g, 1);
        assert!(kpt_out.clustering.validate().is_ok());
    }

    #[test]
    fn evaluation_is_deterministic() {
        let g = toy();
        let out = run_algo(&g, Algo::Mcp, 2, 1).unwrap();
        let (q1, a1) = evaluate(&g, &out.clustering, 200, 9);
        let (q2, a2) = evaluate(&g, &out.clustering, 200, 9);
        assert_eq!(q1, q2);
        assert_eq!(a1, a2);
        assert!(q1.p_min > 0.5);
        assert!(a1.inner > a1.outer);
    }

    #[test]
    fn granularity_matching_hits_small_targets() {
        // Ring of moderately reliable edges: inflation sweeps from one
        // cluster to many; the bisection must land near the target.
        let mut b = GraphBuilder::new(24);
        for i in 0..24u32 {
            b.add_edge(i, (i + 1) % 24, 0.6).unwrap();
        }
        let g = b.build().unwrap();
        for target in [2usize, 6, 12] {
            let (inflation_x100, out) = mcl_at_granularity(&g, target, 1);
            let k = out.clustering.num_clusters();
            assert!(
                k.abs_diff(target) <= target,
                "target {target}: got k = {k} at inflation {inflation_x100}"
            );
            assert!((105..=400).contains(&inflation_x100));
        }
    }

    #[test]
    fn memory_estimate_grows_with_graph() {
        let small = toy();
        let est_small = mcl_memory_estimate(&small, 64);
        let mut b = GraphBuilder::new(1000);
        for i in 0..999u32 {
            b.add_edge(i, i + 1, 0.5).unwrap();
        }
        let big = b.build().unwrap();
        assert!(mcl_memory_estimate(&big, 64) > est_small);
    }
}
