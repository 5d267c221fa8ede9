//! Scalar vs. bit-parallel `WorldEngine` backends on the Krogan-like PPI
//! instance — the microbenchmark behind the backend seam.
//!
//! Before any timing, an **equality gate** asserts that both backends
//! return identical center counts and depth counts for the same master
//! seed; a benchmark comparing backends that disagree would be
//! meaningless.
//!
//! Besides the criterion groups, the bench emits machine-readable results
//! (median ns per operation and scalar/bit-parallel speedups) to
//! `BENCH_worldengine.json` in the repository root, so the performance
//! trajectory of the engine accumulates across PRs. Set `BENCH_SMOKE=1`
//! for a fast CI smoke run (equality gates on, minimal sampling).

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ugraph_cluster::{
    acp_with_oracle, mcp, AcpInvocation, AcpResult, ClusterConfig, ClusterRequest, McpResult,
    SolveResult, UgraphSession,
};
use ugraph_datasets::DatasetSpec;
use ugraph_graph::NodeId;
use ugraph_sampling::{
    BitParallelPool, BlockWidth, ComponentPool, EngineKind, McOracle, Oracle, WorldEngine,
    WorldPool, DEPTH_UNLIMITED,
};

fn smoke() -> bool {
    std::env::var("BENCH_SMOKE").is_ok_and(|v| v != "0")
}

/// Median wall-clock nanoseconds of `reps` runs of `f`.
fn median_ns(reps: usize, mut f: impl FnMut()) -> u128 {
    let mut times: Vec<u128> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos()
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2]
}

/// Asserts both backends produce identical counts on `graph`.
fn equality_gate(graph: &ugraph_graph::UncertainGraph, samples: usize) {
    const SEED: u64 = 41;
    let n = graph.num_nodes();
    let mut scalar = ComponentPool::new(graph, SEED, 1);
    let mut world = WorldPool::new(graph, SEED, 1);
    let mut bit = BitParallelPool::<1>::new(graph, SEED, 1);
    scalar.ensure(samples);
    world.ensure(samples);
    bit.ensure(samples);
    let mut a = vec![0u32; n];
    let mut b = vec![0u32; n];
    for center in (0..n as u32).step_by(211) {
        scalar.counts_from_center(NodeId(center), &mut a);
        bit.counts_from_center(NodeId(center), &mut b);
        assert_eq!(a, b, "backends disagree on center counts at {center} ({samples} samples)");
    }
    let (mut s1, mut c1) = (vec![0u32; n], vec![0u32; n]);
    let (mut s2, mut c2) = (vec![0u32; n], vec![0u32; n]);
    for center in (0..n as u32).step_by(419) {
        world.counts_within_depths(NodeId(center), 2, 4, &mut s1, &mut c1);
        bit.counts_within_depths(NodeId(center), 2, 4, &mut s2, &mut c2);
        assert_eq!(s1, s2, "backends disagree on select counts at {center}");
        assert_eq!(c1, c2, "backends disagree on cover counts at {center}");
    }
}

struct Comparison {
    name: &'static str,
    scalar_ns: u128,
    bitparallel_ns: u128,
}

impl Comparison {
    fn speedup(&self) -> f64 {
        self.scalar_ns as f64 / (self.bitparallel_ns as f64).max(1.0)
    }
}

/// Replays the pre-batching oracle access pattern: every candidate row is
/// one full per-center pool sweep (the `Oracle` trait's default batch
/// loop), with the row cache disabled. `min-partial` run against this
/// wrapper performs exactly the work the query layer did before the
/// batched/cached row layer existed.
struct PerRowOracle<'g>(McOracle<'g>);

impl Oracle for PerRowOracle<'_> {
    fn num_nodes(&self) -> usize {
        self.0.num_nodes()
    }
    fn epsilon(&self) -> f64 {
        self.0.epsilon()
    }
    fn prepare(&mut self, q: f64) -> Result<(), ugraph_sampling::SamplingError> {
        self.0.prepare(q)
    }
    fn num_samples(&self) -> usize {
        self.0.num_samples()
    }
    fn center_probs(
        &mut self,
        center: NodeId,
        select: &mut [f64],
        cover: &mut [f64],
    ) -> Result<(), ugraph_sampling::SamplingError> {
        self.0.center_probs(center, select, cover)
    }
    fn pair_prob(&mut self, u: NodeId, v: NodeId) -> Result<f64, ugraph_sampling::SamplingError> {
        self.0.pair_prob(u, v)
    }
    // identical_rows() stays false and center_probs_batch stays the default
    // per-center loop: both rows are materialized per candidate, as the
    // pre-batching code path did.
}

/// One engine's guess-schedule replay measurement.
struct Replay {
    engine: &'static str,
    /// Pre-PR access pattern: per-row sweeps, no cache.
    per_row_ns: u128,
    /// Batched rows + incremental row cache (the current default).
    cached_ns: u128,
}

impl Replay {
    fn speedup(&self) -> f64 {
        self.per_row_ns as f64 / (self.cached_ns as f64).max(1.0)
    }
}

/// Head-to-head medians for the JSON report (independent of criterion's
/// own calibration, so the file is stable and cheap to produce).
fn measure_comparisons(graph: &ugraph_graph::UncertainGraph, reps: usize) -> Vec<Comparison> {
    const SEED: u64 = 41;
    let n = graph.num_nodes();
    let mut results = Vec::new();
    let centers: Vec<u32> = (0..n as u32).step_by(n / 16).collect();

    // Pool generation at 256 samples: scalar pays union-find + labeling
    // per world, bit-parallel only packs Bernoulli draws into mask lanes.
    results.push(Comparison {
        name: "ensure_256",
        scalar_ns: median_ns(reps, || {
            let mut pool = ComponentPool::new(graph, SEED, 1);
            pool.ensure(256);
            assert_eq!(pool.num_samples(), 256);
        }),
        bitparallel_ns: median_ns(reps, || {
            let mut pool = BitParallelPool::<1>::new(graph, SEED, 1);
            pool.ensure(256);
            assert_eq!(pool.num_samples(), 256);
        }),
    });

    // Unlimited center counts per query against an already-built pool, at
    // 64 and 256 samples. This deliberately excludes pool generation, so
    // it flatters the scalar backend: ComponentPool prepaid the per-world
    // connectivity work (union-find + labels) inside `ensure`.
    for &(name, samples) in
        &[("center_counts_query_only_64", 64usize), ("center_counts_query_only_256", 256)]
    {
        let mut scalar = ComponentPool::new(graph, SEED, 1);
        let mut bit = BitParallelPool::<1>::new(graph, SEED, 1);
        scalar.ensure(samples);
        bit.ensure(samples);
        let mut counts = vec![0u32; n];
        let scalar_ns = median_ns(reps, || {
            for &c in &centers {
                scalar.counts_from_center(NodeId(c), &mut counts);
            }
        });
        let bitparallel_ns = median_ns(reps, || {
            for &c in &centers {
                bit.counts_from_center(NodeId(c), &mut counts);
            }
        });
        results.push(Comparison {
            name,
            scalar_ns: scalar_ns / centers.len() as u128,
            bitparallel_ns: bitparallel_ns / centers.len() as u128,
        });
    }

    // Depth-limited counts (d = 4) per query at 128 samples — the §3.4
    // workload where every scalar query is a fresh BFS per world.
    {
        let samples = 128;
        let mut scalar = WorldPool::new(graph, SEED, 1);
        let mut bit = BitParallelPool::<1>::new(graph, SEED, 1);
        scalar.ensure(samples);
        bit.ensure(samples);
        let mut sel = vec![0u32; n];
        let mut cov = vec![0u32; n];
        let scalar_ns = median_ns(reps, || {
            for &c in &centers {
                scalar.counts_within_depths(NodeId(c), 2, 4, &mut sel, &mut cov);
            }
        });
        let bitparallel_ns = median_ns(reps, || {
            for &c in &centers {
                bit.counts_within_depths(NodeId(c), 2, 4, &mut sel, &mut cov);
            }
        });
        results.push(Comparison {
            name: "depth4_counts_128",
            scalar_ns: scalar_ns / centers.len() as u128,
            bitparallel_ns: bitparallel_ns / centers.len() as u128,
        });
    }

    // End-to-end center-query rounds: generate the pool and answer 16
    // center queries — the shape of one min-partial guess (α = 1,
    // k ≈ 16), i.e. what the drivers actually pay per threshold. This is
    // the fair "center queries" comparison: the scalar backend's query
    // speed is bought by per-world connectivity work inside `ensure`.
    for &(name, samples) in &[("center_queries_64", 64usize), ("center_queries_256", 256)] {
        results.push(Comparison {
            name,
            scalar_ns: median_ns(reps, || {
                let mut pool = ComponentPool::new(graph, SEED, 1);
                pool.ensure(samples);
                let mut counts = vec![0u32; n];
                for &c in &centers {
                    pool.counts_from_center(NodeId(c), &mut counts);
                }
            }),
            bitparallel_ns: median_ns(reps, || {
                let mut pool = BitParallelPool::<1>::new(graph, SEED, 1);
                pool.ensure(samples);
                let mut counts = vec![0u32; n];
                for &c in &centers {
                    pool.counts_from_center(NodeId(c), &mut counts);
                }
            }),
        });
    }

    results
}

/// `batch_rows`: multi-center batched count rows, scalar vs bit-parallel.
/// Per-center queries are where bit-parallel loses to the scalar labels
/// (`center_counts_query_only`); batching amortizes the mask-BFS memory
/// traffic over all centers per traversal, which is the workload
/// `min-partial`'s candidate evaluation actually presents.
fn measure_batch_rows(graph: &ugraph_graph::UncertainGraph, reps: usize) -> Vec<Comparison> {
    const SEED: u64 = 41;
    let n = graph.num_nodes();
    let k = 16usize;
    let centers: Vec<NodeId> = (0..k as u32).map(|i| NodeId(i * (n as u32 / k as u32))).collect();
    let mut results = Vec::new();
    for &(name, samples) in &[("batch_rows_16x64", 64usize), ("batch_rows_16x256", 256)] {
        let mut scalar = ComponentPool::new(graph, SEED, 1);
        let mut bit = BitParallelPool::<1>::new(graph, SEED, 1);
        scalar.ensure(samples);
        bit.ensure(samples);
        // Equality gate: batched rows identical across backends and to the
        // sequential per-center rows.
        let mut a = vec![0u32; k * n];
        let mut b = vec![0u32; k * n];
        scalar.counts_from_centers(&centers, &mut a);
        bit.counts_from_centers(&centers, &mut b);
        assert_eq!(a, b, "backends disagree on batched rows ({samples} samples)");
        let mut row = vec![0u32; n];
        for (j, &c) in centers.iter().enumerate() {
            scalar.counts_from_center(c, &mut row);
            assert_eq!(&a[j * n..(j + 1) * n], &row[..], "batch differs from sequential");
        }
        results.push(Comparison {
            name,
            scalar_ns: median_ns(reps, || scalar.counts_from_centers(&centers, &mut a)),
            bitparallel_ns: median_ns(reps, || bit.counts_from_centers(&centers, &mut b)),
        });
    }
    results
}

/// One three-way `unlimited_query_adaptive` measurement: scalar labels vs
/// pure-mask bit-parallel vs the adaptive backend (bit-parallel + lazy
/// block finalization).
struct Tri {
    name: &'static str,
    scalar_ns: u128,
    bitparallel_ns: u128,
    adaptive_ns: u128,
}

impl Tri {
    /// Adaptive speedup over scalar labels (the acceptance gate:
    /// ≥ 1.0× on query-only unlimited counts).
    fn vs_scalar(&self) -> f64 {
        self.scalar_ns as f64 / (self.adaptive_ns as f64).max(1.0)
    }

    /// Adaptive speedup over the pure-mask backend.
    fn vs_bitparallel(&self) -> f64 {
        self.bitparallel_ns as f64 / (self.adaptive_ns as f64).max(1.0)
    }
}

/// `unlimited_query_adaptive`: the query shape the adaptive engine exists
/// for — unlimited-depth counts — measured cold (single pair, no
/// finalization paid) and warm (row queries and batches over finalized
/// blocks), equality-gated against the scalar labels.
fn measure_adaptive(graph: &ugraph_graph::UncertainGraph, reps: usize) -> Vec<Tri> {
    const SEED: u64 = 41;
    let n = graph.num_nodes();
    let samples = 256usize;
    let centers: Vec<u32> = (0..n as u32).step_by(n / 16).collect();

    // Equality gate: the adaptive pool must agree with scalar labels on
    // every row it will be timed on (finalized and unfinalized paths).
    {
        let mut scalar = ComponentPool::new(graph, SEED, 1);
        let mut adaptive = BitParallelPool::<1>::new_adaptive(graph, SEED, 1);
        scalar.ensure(samples);
        adaptive.ensure(samples);
        let mut a = vec![0u32; n];
        let mut b = vec![0u32; n];
        for &c in &centers {
            scalar.counts_from_center(NodeId(c), &mut a);
            adaptive.counts_from_center(NodeId(c), &mut b);
            assert_eq!(a, b, "adaptive disagrees with scalar at center {c}");
            assert_eq!(
                scalar.pair_count(NodeId(0), NodeId(c)),
                adaptive.pair_count(NodeId(0), NodeId(c)),
                "adaptive pair count disagrees at ({c})"
            );
        }
        let stats = adaptive.engine_stats();
        assert!(stats.finalized_blocks > 0, "warm adaptive pool did not finalize: {stats:?}");
    }

    let mut out = Vec::new();

    // Cold single pair: the heuristic keeps the adaptive pool on masks, so
    // no full-block labeling is paid for a one-off point query. Pools are
    // rebuilt per rep (a timed query must really be the pool's first).
    {
        let (u, v) = (NodeId(0), NodeId(centers[centers.len() / 2]));
        let time_cold = |mk: &mut dyn FnMut() -> u128| {
            let mut times: Vec<u128> = (0..reps.max(1)).map(|_| mk()).collect();
            times.sort_unstable();
            times[times.len() / 2]
        };
        let scalar_ns = time_cold(&mut || {
            let mut pool = ComponentPool::new(graph, SEED, 1);
            pool.ensure(samples);
            let t = Instant::now();
            std::hint::black_box(pool.pair_count(u, v));
            t.elapsed().as_nanos()
        });
        let bitparallel_ns = time_cold(&mut || {
            let mut pool = BitParallelPool::<1>::new(graph, SEED, 1);
            pool.ensure(samples);
            let t = Instant::now();
            std::hint::black_box(pool.pair_count(u, v));
            t.elapsed().as_nanos()
        });
        let adaptive_ns = time_cold(&mut || {
            let mut pool = BitParallelPool::<1>::new_adaptive(graph, SEED, 1);
            pool.ensure(samples);
            let t = Instant::now();
            std::hint::black_box(pool.pair_count(u, v));
            let ns = t.elapsed().as_nanos();
            assert_eq!(
                pool.engine_stats().finalized_lanes,
                0,
                "a cold single pair query must not pay labeling"
            );
            ns
        });
        out.push(Tri { name: "cold_pair_single_256", scalar_ns, bitparallel_ns, adaptive_ns });
    }

    // Warm query-only unlimited counts — the workload PR 2 recorded the
    // 0.09×–0.23× bit-parallel loss on. The adaptive pool is warmed by one
    // row query (finalizing every block); timing then measures pure label
    // scans on all three backends.
    {
        let mut scalar = ComponentPool::new(graph, SEED, 1);
        let mut mask = BitParallelPool::<1>::new(graph, SEED, 1);
        let mut adaptive = BitParallelPool::<1>::new_adaptive(graph, SEED, 1);
        scalar.ensure(samples);
        mask.ensure(samples);
        adaptive.ensure(samples);
        let mut counts = vec![0u32; n];
        adaptive.counts_from_center(NodeId(0), &mut counts);
        let scalar_ns = median_ns(reps, || {
            for &c in &centers {
                scalar.counts_from_center(NodeId(c), &mut counts);
            }
        });
        let bitparallel_ns = median_ns(reps, || {
            for &c in &centers {
                mask.counts_from_center(NodeId(c), &mut counts);
            }
        });
        let adaptive_ns = median_ns(reps, || {
            for &c in &centers {
                adaptive.counts_from_center(NodeId(c), &mut counts);
            }
        });
        out.push(Tri {
            name: "warm_center_counts_query_only_256",
            scalar_ns: scalar_ns / centers.len() as u128,
            bitparallel_ns: bitparallel_ns / centers.len() as u128,
            adaptive_ns: adaptive_ns / centers.len() as u128,
        });

        // Warm pair queries (objective evaluation's shape) on the same
        // already-finalized pool.
        let pairs: Vec<(NodeId, NodeId)> =
            centers.iter().map(|&c| (NodeId(c), NodeId((c + 7) % n as u32))).collect();
        let scalar_ns = median_ns(reps, || {
            for &(u, v) in &pairs {
                std::hint::black_box(scalar.pair_count(u, v));
            }
        });
        let bitparallel_ns = median_ns(reps, || {
            for &(u, v) in &pairs {
                std::hint::black_box(mask.pair_count(u, v));
            }
        });
        let adaptive_ns = median_ns(reps, || {
            for &(u, v) in &pairs {
                std::hint::black_box(adaptive.pair_count(u, v));
            }
        });
        out.push(Tri {
            name: "warm_pair_counts_256",
            scalar_ns: scalar_ns / pairs.len() as u128,
            bitparallel_ns: bitparallel_ns / pairs.len() as u128,
            adaptive_ns: adaptive_ns / pairs.len() as u128,
        });

        // Warm batched rows (one min-partial greedy step).
        let k = 16usize;
        let batch_centers: Vec<NodeId> =
            (0..k as u32).map(|i| NodeId(i * (n as u32 / k as u32))).collect();
        let mut rows = vec![0u32; k * n];
        let scalar_ns = median_ns(reps, || scalar.counts_from_centers(&batch_centers, &mut rows));
        let bitparallel_ns =
            median_ns(reps, || mask.counts_from_centers(&batch_centers, &mut rows));
        let adaptive_ns =
            median_ns(reps, || adaptive.counts_from_centers(&batch_centers, &mut rows));
        out.push(Tri { name: "warm_batch_rows_16x256", scalar_ns, bitparallel_ns, adaptive_ns });
    }

    // Pool generation: finalization is lazy, so adaptive generation must
    // stay within noise of the pure-mask backend.
    out.push(Tri {
        name: "ensure_256",
        scalar_ns: median_ns(reps, || {
            let mut pool = ComponentPool::new(graph, SEED, 1);
            pool.ensure(samples);
        }),
        bitparallel_ns: median_ns(reps, || {
            let mut pool = BitParallelPool::<1>::new(graph, SEED, 1);
            pool.ensure(samples);
        }),
        adaptive_ns: median_ns(reps, || {
            let mut pool = BitParallelPool::<1>::new_adaptive(graph, SEED, 1);
            pool.ensure(samples);
        }),
    });

    out
}

fn write_adaptive_json(
    graph: &ugraph_graph::UncertainGraph,
    name: &str,
    tris: &[Tri],
    replay: &[Replay],
    smoke: bool,
) {
    let mut rows = String::new();
    for (i, t) in tris.iter().enumerate() {
        if i > 0 {
            rows.push_str(",\n");
        }
        rows.push_str(&format!(
            "    {{\"name\": \"{}\", \"scalar_ns\": {}, \"bitparallel_ns\": {}, \
             \"adaptive_ns\": {}, \"adaptive_vs_scalar\": {:.3}, \
             \"adaptive_vs_bitparallel\": {:.3}}}",
            t.name,
            t.scalar_ns,
            t.bitparallel_ns,
            t.adaptive_ns,
            t.vs_scalar(),
            t.vs_bitparallel()
        ));
    }
    let mut replays = String::new();
    for (i, r) in replay.iter().enumerate() {
        if i > 0 {
            replays.push_str(",\n");
        }
        replays.push_str(&format!(
            "    {{\"engine\": \"{}\", \"per_row_ns\": {}, \"cached_ns\": {}, \
             \"speedup\": {:.3}}}",
            r.engine,
            r.per_row_ns,
            r.cached_ns,
            r.speedup()
        ));
    }
    let json = format!(
        "{{\n  \"benchmark\": \"unlimited_query_adaptive\",\n  \"dataset\": \"{}\",\n  \
         \"nodes\": {},\n  \"edges\": {},\n  \"smoke\": {},\n  \"results\": [\n{}\n  ],\n  \
         \"guess_schedule_replay\": [\n{}\n  ]\n}}\n",
        name,
        graph.num_nodes(),
        graph.num_edges(),
        smoke,
        rows,
        replays
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_adaptive.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => eprintln!("\ncould not write {path}: {e}"),
    }
}

/// `guess_schedule_replay`: one full ACP guessing schedule (the paper's
/// Theorem-4 invocation, `α = n`, whose candidate sets overlap heavily
/// across iterations and guesses) end to end — the pre-PR per-row access
/// pattern vs batched rows + the incremental row cache.
fn measure_replay(graph: &ugraph_graph::UncertainGraph, smoke: bool) -> Vec<Replay> {
    let (k, p_l, reps) = if smoke { (2, 0.8, 1) } else { (4, 0.3, 2) };
    let cfg = ClusterConfig::default()
        .with_seed(17)
        .with_acp_invocation(AcpInvocation::Theory)
        .with_p_l(p_l)
        .with_threads(1);
    let oracle = |kind: EngineKind| {
        let (d, w) = (DEPTH_UNLIMITED, BlockWidth::default());
        McOracle::with_engine_width(graph, 99, 1, cfg.schedule, cfg.epsilon, d, d, kind, w)
            .expect("unlimited depths are valid")
    };
    let run_cached = |kind: EngineKind| -> (AcpResult, u128) {
        let t = Instant::now();
        let mut oracle = oracle(kind);
        let r = acp_with_oracle(&mut oracle, k, &cfg).expect("acp (cached)");
        (r, t.elapsed().as_nanos())
    };
    let run_per_row = |kind: EngineKind| -> (AcpResult, u128) {
        let t = Instant::now();
        let mut oracle = PerRowOracle(oracle(kind).with_row_cache(false));
        let r = acp_with_oracle(&mut oracle, k, &cfg).expect("acp (per-row)");
        (r, t.elapsed().as_nanos())
    };
    let mut out = Vec::new();
    let mut reference: Option<AcpResult> = None;
    for kind in [EngineKind::Scalar, EngineKind::BitParallel, EngineKind::Adaptive] {
        let mut cached_ns = u128::MAX;
        let mut per_row_ns = u128::MAX;
        for _ in 0..reps {
            let (cached, t_cached) = run_cached(kind);
            let (plain, t_plain) = run_per_row(kind);
            // Equality gate: the batched + cached schedule must reproduce
            // the pre-PR results bit for bit.
            assert_eq!(
                cached.clustering,
                plain.clustering,
                "{} replay: cached clustering differs",
                kind.name()
            );
            assert_eq!(
                cached.assign_probs,
                plain.assign_probs,
                "{} replay: cached assignment probabilities differ",
                kind.name()
            );
            assert_eq!(cached.guesses, plain.guesses);
            assert!(cached.row_cache.hits > 0, "{} replay exercised no cache hits", kind.name());
            // Cross-engine gate: every backend replays the identical
            // schedule (count-identity through the whole driver).
            match &reference {
                None => reference = Some(cached),
                Some(r) => {
                    assert_eq!(r.clustering, cached.clustering, "{} diverges", kind.name());
                    assert_eq!(r.assign_probs, cached.assign_probs, "{} diverges", kind.name());
                }
            }
            cached_ns = cached_ns.min(t_cached);
            per_row_ns = per_row_ns.min(t_plain);
        }
        out.push(Replay { engine: kind.name(), per_row_ns, cached_ns });
    }
    out
}

/// One engine's k-sweep measurement: `k_lo..=k_hi` MCP requests served
/// cold (one `mcp()` free-function call per k, each resampling its pool
/// from scratch) vs warm (one [`UgraphSession`] serving every k from a
/// shared grow-only pool and row caches).
struct Sweep {
    engine: &'static str,
    cold_ns: u128,
    warm_ns: u128,
    /// Worlds the cold calls sampled in total vs worlds the session holds.
    cold_worlds: usize,
    warm_worlds: usize,
    /// Cache service of the warm sweep (hits + top-ups = reused rows).
    hits: usize,
    topups: usize,
    fulls: usize,
}

impl Sweep {
    fn speedup(&self) -> f64 {
        self.cold_ns as f64 / (self.warm_ns as f64).max(1.0)
    }
}

/// `k_sweep_session`: the acceptance workload — k = 2..=10 (2..=4 in
/// smoke mode) on the Krogan-like instance through one session vs
/// independent `mcp` calls, equality-gated per k: the warm request must
/// reproduce the cold clustering, assignment probabilities, guess trace,
/// and sample count bit for bit.
fn measure_k_sweep(
    graph: &ugraph_graph::UncertainGraph,
    smoke: bool,
) -> (usize, usize, Vec<Sweep>) {
    let (k_lo, k_hi) = if smoke { (2usize, 4usize) } else { (2usize, 10usize) };
    let reps = if smoke { 1 } else { 3 };
    let mut out = Vec::new();
    for kind in [EngineKind::Scalar, EngineKind::BitParallel, EngineKind::Adaptive] {
        let cfg = ClusterConfig::default().with_seed(23).with_engine(kind).with_threads(1);
        let mut best_cold = u128::MAX;
        let mut best_warm = u128::MAX;
        let mut cold_worlds = 0usize;
        let mut warm_stats = None;
        for _ in 0..reps {
            let t = Instant::now();
            let cold: Vec<McpResult> =
                (k_lo..=k_hi).map(|k| mcp(graph, k, &cfg).expect("cold mcp")).collect();
            best_cold = best_cold.min(t.elapsed().as_nanos());

            let t = Instant::now();
            let mut session = UgraphSession::new(graph, cfg.clone()).expect("session");
            let warm: Vec<SolveResult> = (k_lo..=k_hi)
                .map(|k| session.solve(ClusterRequest::mcp(k)).expect("warm mcp"))
                .collect();
            best_warm = best_warm.min(t.elapsed().as_nanos());

            // Equality gate: a faster sweep that answers differently
            // would be meaningless.
            for (w, c) in warm.iter().zip(&cold) {
                assert_eq!(w.clustering, c.clustering, "{} k-sweep diverges", kind.name());
                assert_eq!(w.assign_probs, c.assign_probs, "{} k-sweep probs diverge", kind.name());
                assert_eq!((w.guesses, w.samples_used), (c.guesses, c.samples_used));
            }
            let stats = session.stats();
            assert!(
                stats.row_cache.hits + stats.row_cache.topups > 0,
                "{} warm sweep reused no rows",
                kind.name()
            );
            cold_worlds = cold.iter().map(|r| r.samples_used).sum();
            warm_stats = Some(stats);
        }
        let stats = warm_stats.expect("at least one rep");
        out.push(Sweep {
            engine: kind.name(),
            cold_ns: best_cold,
            warm_ns: best_warm,
            cold_worlds,
            warm_worlds: stats.worlds_held,
            hits: stats.row_cache.hits,
            topups: stats.row_cache.topups,
            fulls: stats.row_cache.fulls,
        });
    }
    (k_lo, k_hi, out)
}

fn write_session_json(
    graph: &ugraph_graph::UncertainGraph,
    name: &str,
    k_lo: usize,
    k_hi: usize,
    sweeps: &[Sweep],
    smoke: bool,
) {
    let mut rows = String::new();
    for (i, s) in sweeps.iter().enumerate() {
        if i > 0 {
            rows.push_str(",\n");
        }
        rows.push_str(&format!(
            "    {{\"engine\": \"{}\", \"cold_ns\": {}, \"warm_ns\": {}, \"speedup\": {:.3}, \
             \"cold_worlds\": {}, \"warm_worlds\": {}, \"hits\": {}, \"topups\": {}, \
             \"fulls\": {}}}",
            s.engine,
            s.cold_ns,
            s.warm_ns,
            s.speedup(),
            s.cold_worlds,
            s.warm_worlds,
            s.hits,
            s.topups,
            s.fulls
        ));
    }
    let json = format!(
        "{{\n  \"benchmark\": \"k_sweep_session\",\n  \"dataset\": \"{}\",\n  \"nodes\": {},\n  \
         \"edges\": {},\n  \"smoke\": {},\n  \"k_min\": {},\n  \"k_max\": {},\n  \
         \"sweeps\": [\n{}\n  ]\n}}\n",
        name,
        graph.num_nodes(),
        graph.num_edges(),
        smoke,
        k_lo,
        k_hi,
        rows
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_session.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => eprintln!("\ncould not write {path}: {e}"),
    }
}

fn write_oracle_json(
    graph: &ugraph_graph::UncertainGraph,
    name: &str,
    batch: &[Comparison],
    replay: &[Replay],
    smoke: bool,
) {
    let mut rows = String::new();
    for (i, r) in batch.iter().enumerate() {
        if i > 0 {
            rows.push_str(",\n");
        }
        rows.push_str(&format!(
            "    {{\"name\": \"{}\", \"scalar_ns\": {}, \"bitparallel_ns\": {}, \
             \"speedup\": {:.3}}}",
            r.name,
            r.scalar_ns,
            r.bitparallel_ns,
            r.speedup()
        ));
    }
    let mut replays = String::new();
    for (i, r) in replay.iter().enumerate() {
        if i > 0 {
            replays.push_str(",\n");
        }
        replays.push_str(&format!(
            "    {{\"engine\": \"{}\", \"per_row_ns\": {}, \"cached_ns\": {}, \
             \"speedup\": {:.3}}}",
            r.engine,
            r.per_row_ns,
            r.cached_ns,
            r.speedup()
        ));
    }
    let json = format!(
        "{{\n  \"benchmark\": \"micro_oracle\",\n  \"dataset\": \"{}\",\n  \"nodes\": {},\n  \
         \"edges\": {},\n  \"smoke\": {},\n  \"batch_rows\": [\n{}\n  ],\n  \
         \"guess_schedule_replay\": [\n{}\n  ]\n}}\n",
        name,
        graph.num_nodes(),
        graph.num_edges(),
        smoke,
        rows,
        replays
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_oracle.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => eprintln!("\ncould not write {path}: {e}"),
    }
}

/// One block-width scenario: median ns per operation at widths 64, 256,
/// and 512 worlds per mask block.
struct WidthRow {
    name: &'static str,
    w64_ns: u128,
    w256_ns: u128,
    w512_ns: u128,
}

impl WidthRow {
    fn speedup_256(&self) -> f64 {
        self.w64_ns as f64 / (self.w256_ns as f64).max(1.0)
    }

    fn speedup_512(&self) -> f64 {
        self.w64_ns as f64 / (self.w512_ns as f64).max(1.0)
    }
}

/// Per-width timings of the scenarios in the `block_width_sweep` group.
struct WidthTimes {
    ensure_ns: u128,
    depth_ns: u128,
    row_ns: u128,
    pair_ns: u128,
    batch_ns: u128,
    warm_batch_ns: u128,
}

/// Counts sampled at one width, compared across widths before timing.
struct WidthGate {
    rows: Vec<u32>,
    depths: Vec<u32>,
    batch: Vec<u32>,
    pairs: Vec<usize>,
}

/// Measures every width scenario at one block width `W` and checks the
/// counts against `gate` (the width-64 reference) before any timing.
fn measure_one_width<const W: usize>(
    graph: &ugraph_graph::UncertainGraph,
    reps: usize,
    samples: usize,
    gate: &mut Option<WidthGate>,
) -> WidthTimes {
    const SEED: u64 = 41;
    let n = graph.num_nodes();
    let centers: Vec<u32> = (0..n as u32).step_by(n / 16).collect();
    let k = 16usize;
    let batch_centers: Vec<NodeId> =
        (0..k as u32).map(|i| NodeId(i * (n as u32 / k as u32))).collect();

    let mut pool = BitParallelPool::<W>::new(graph, SEED, 1);
    pool.ensure(samples);
    assert_eq!(pool.num_samples(), samples);

    // Equality gate: all counts below must be bit-identical to width 64.
    {
        let mut rows = Vec::new();
        let mut row = vec![0u32; n];
        let (mut sel, mut cov) = (vec![0u32; n], vec![0u32; n]);
        let mut depths = Vec::new();
        let mut pairs = Vec::new();
        for &c in &centers {
            pool.counts_from_center(NodeId(c), &mut row);
            rows.extend_from_slice(&row);
            pool.counts_within_depths(NodeId(c), 2, 4, &mut sel, &mut cov);
            depths.extend_from_slice(&sel);
            depths.extend_from_slice(&cov);
            pairs.push(pool.pair_count(NodeId(0), NodeId(c)));
        }
        let mut batch = vec![0u32; k * n];
        pool.counts_from_centers(&batch_centers, &mut batch);
        let fp = WidthGate { rows, depths, batch, pairs };
        match gate {
            None => *gate = Some(fp),
            Some(want) => {
                assert_eq!(want.rows, fp.rows, "width {} center rows differ", W * 64);
                assert_eq!(want.depths, fp.depths, "width {} depth counts differ", W * 64);
                assert_eq!(want.batch, fp.batch, "width {} batch rows differ", W * 64);
                assert_eq!(want.pairs, fp.pairs, "width {} pair counts differ", W * 64);
            }
        }
    }

    // Pool generation. Dominated by the per-edge Bernoulli draws (the RNG
    // stream is pinned per world for cross-width identity), so the wide
    // win here is bounded by the non-RNG fraction — see HOTPATH.md.
    let ensure_ns = median_ns(reps, || {
        let mut p = BitParallelPool::<W>::new(graph, SEED, 1);
        p.ensure(samples);
    });

    // Depth-limited counts (d = 4): frontier expansion over Mask<W>
    // blocks, the workload wide words exist for.
    let (mut sel, mut cov) = (vec![0u32; n], vec![0u32; n]);
    let depth_ns = median_ns(reps, || {
        for &c in &centers {
            pool.counts_within_depths(NodeId(c), 2, 4, &mut sel, &mut cov);
        }
    }) / centers.len() as u128;

    // Unlimited mask-path rows, pairs, and batched rows on the pure-mask
    // pool (no label finalization: every query runs the mask kernels).
    let mut row = vec![0u32; n];
    let row_ns = median_ns(reps, || {
        for &c in &centers {
            pool.counts_from_center(NodeId(c), &mut row);
        }
    }) / centers.len() as u128;
    let pairs: Vec<(NodeId, NodeId)> =
        centers.iter().map(|&c| (NodeId(c), NodeId((c + 7) % n as u32))).collect();
    let pair_ns = median_ns(reps, || {
        for &(u, v) in &pairs {
            std::hint::black_box(pool.pair_count(u, v));
        }
    }) / pairs.len() as u128;
    let mut rows = vec![0u32; k * n];
    let batch_ns = median_ns(reps, || pool.counts_from_centers(&batch_centers, &mut rows));

    // Warm adaptive batched rows: labels are per-world and thus
    // width-independent once finalized; this checks the width seam adds
    // no overhead on the label path.
    let mut adaptive = BitParallelPool::<W>::new_adaptive(graph, SEED, 1);
    adaptive.ensure(samples);
    adaptive.counts_from_center(NodeId(0), &mut row);
    let warm_batch_ns = median_ns(reps, || adaptive.counts_from_centers(&batch_centers, &mut rows));

    WidthTimes { ensure_ns, depth_ns, row_ns, pair_ns, batch_ns, warm_batch_ns }
}

/// `block_width_sweep`: the same pool workloads at 64-, 256-, and 512-world
/// blocks, equality-gated across widths (identical worlds by construction,
/// so any divergence is a kernel bug).
fn measure_width_sweep(graph: &ugraph_graph::UncertainGraph, reps: usize) -> Vec<WidthRow> {
    let samples = 512usize;
    let mut gate = None;
    let w1 = measure_one_width::<1>(graph, reps, samples, &mut gate);
    let w4 = measure_one_width::<4>(graph, reps, samples, &mut gate);
    let w8 = measure_one_width::<8>(graph, reps, samples, &mut gate);
    println!("width equality gate passed: counts identical at 64/256/512-world blocks");
    vec![
        WidthRow {
            name: "ensure_512",
            w64_ns: w1.ensure_ns,
            w256_ns: w4.ensure_ns,
            w512_ns: w8.ensure_ns,
        },
        WidthRow {
            name: "depth4_counts_512",
            w64_ns: w1.depth_ns,
            w256_ns: w4.depth_ns,
            w512_ns: w8.depth_ns,
        },
        WidthRow {
            name: "mask_center_rows_512",
            w64_ns: w1.row_ns,
            w256_ns: w4.row_ns,
            w512_ns: w8.row_ns,
        },
        WidthRow {
            name: "mask_pair_counts_512",
            w64_ns: w1.pair_ns,
            w256_ns: w4.pair_ns,
            w512_ns: w8.pair_ns,
        },
        WidthRow {
            name: "batch_rows_16x512",
            w64_ns: w1.batch_ns,
            w256_ns: w4.batch_ns,
            w512_ns: w8.batch_ns,
        },
        WidthRow {
            name: "warm_batch_rows_16x512",
            w64_ns: w1.warm_batch_ns,
            w256_ns: w4.warm_batch_ns,
            w512_ns: w8.warm_batch_ns,
        },
    ]
}

fn write_width_json(
    graph: &ugraph_graph::UncertainGraph,
    name: &str,
    rows: &[WidthRow],
    smoke: bool,
) {
    let mut body = String::new();
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            body.push_str(",\n");
        }
        body.push_str(&format!(
            "    {{\"name\": \"{}\", \"w64_ns\": {}, \"w256_ns\": {}, \"w512_ns\": {}, \
             \"speedup_256\": {:.3}, \"speedup_512\": {:.3}}}",
            r.name,
            r.w64_ns,
            r.w256_ns,
            r.w512_ns,
            r.speedup_256(),
            r.speedup_512()
        ));
    }
    let json = format!(
        "{{\n  \"benchmark\": \"block_width_sweep\",\n  \"dataset\": \"{}\",\n  \
         \"nodes\": {},\n  \"edges\": {},\n  \"smoke\": {},\n  \"results\": [\n{}\n  ]\n}}\n",
        name,
        graph.num_nodes(),
        graph.num_edges(),
        smoke,
        body
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_width.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => eprintln!("\ncould not write {path}: {e}"),
    }
}

fn write_json(
    graph: &ugraph_graph::UncertainGraph,
    name: &str,
    results: &[Comparison],
    smoke: bool,
) {
    let mut rows = String::new();
    for (i, r) in results.iter().enumerate() {
        if i > 0 {
            rows.push_str(",\n");
        }
        rows.push_str(&format!(
            "    {{\"name\": \"{}\", \"scalar_ns\": {}, \"bitparallel_ns\": {}, \
             \"speedup\": {:.3}}}",
            r.name,
            r.scalar_ns,
            r.bitparallel_ns,
            r.speedup()
        ));
    }
    let json = format!(
        "{{\n  \"benchmark\": \"micro_worldengine\",\n  \"dataset\": \"{}\",\n  \
         \"nodes\": {},\n  \"edges\": {},\n  \"smoke\": {},\n  \"results\": [\n{}\n  ]\n}}\n",
        name,
        graph.num_nodes(),
        graph.num_edges(),
        smoke,
        rows
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_worldengine.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => eprintln!("\ncould not write {path}: {e}"),
    }
}

fn worldengine(c: &mut Criterion) {
    let d = DatasetSpec::Krogan.generate(1);
    let graph = d.graph;
    let n = graph.num_nodes();
    assert!(n >= 1000, "instance must have at least 1k nodes, got {n}");

    // Equality gates, including a non-multiple-of-64 size.
    equality_gate(&graph, 64);
    equality_gate(&graph, if smoke() { 100 } else { 250 });
    println!("equality gate passed: scalar and bit-parallel counts identical");

    // Machine-readable comparison.
    let reps = if smoke() { 3 } else { 9 };
    let results = measure_comparisons(&graph, reps);
    for r in &results {
        println!(
            "  {:<28} scalar {:>12} ns   bitparallel {:>12} ns   speedup {:>6.2}x",
            r.name,
            r.scalar_ns,
            r.bitparallel_ns,
            r.speedup()
        );
    }
    write_json(&graph, &d.name, &results, smoke());

    // Batched-row and guess-schedule-replay groups (equality gates inside).
    let batch = measure_batch_rows(&graph, reps);
    for r in &batch {
        println!(
            "  {:<28} scalar {:>12} ns   bitparallel {:>12} ns   speedup {:>6.2}x",
            r.name,
            r.scalar_ns,
            r.bitparallel_ns,
            r.speedup()
        );
    }
    let replay = measure_replay(&graph, smoke());
    for r in &replay {
        println!(
            "  replay/{:<21} per-row {:>11} ns   batched+cache {:>10} ns   speedup {:>6.2}x",
            r.engine,
            r.per_row_ns,
            r.cached_ns,
            r.speedup()
        );
    }
    write_oracle_json(&graph, &d.name, &batch, &replay, smoke());

    // The adaptive three-way group: scalar labels vs pure-mask vs
    // bit-parallel + lazy finalization (equality gates inside).
    let tris = measure_adaptive(&graph, reps);
    for t in &tris {
        println!(
            "  adaptive/{:<33} scalar {:>11} ns   mask {:>11} ns   adaptive {:>11} ns   vs \
             scalar {:>5.2}x   vs mask {:>5.2}x",
            t.name,
            t.scalar_ns,
            t.bitparallel_ns,
            t.adaptive_ns,
            t.vs_scalar(),
            t.vs_bitparallel()
        );
    }
    write_adaptive_json(&graph, &d.name, &tris, &replay, smoke());

    // Block-width sweep: the same kernels at 64/256/512 worlds per block
    // (equality gates inside).
    let widths = measure_width_sweep(&graph, reps);
    for r in &widths {
        println!(
            "  width/{:<24} w64 {:>12} ns   w256 {:>12} ns   w512 {:>12} ns   256 vs 64 \
             {:>5.2}x   512 vs 64 {:>5.2}x",
            r.name,
            r.w64_ns,
            r.w256_ns,
            r.w512_ns,
            r.speedup_256(),
            r.speedup_512()
        );
    }
    write_width_json(&graph, &d.name, &widths, smoke());

    // k-sweep through one session vs independent cold calls
    // (equality-gated inside).
    let (k_lo, k_hi, sweeps) = measure_k_sweep(&graph, smoke());
    for s in &sweeps {
        println!(
            "  k_sweep_session/{:<13} cold {:>12} ns   warm session {:>11} ns   speedup \
             {:>6.2}x   ({} hits, {} top-ups, {} fulls; {} vs {} worlds)",
            s.engine,
            s.cold_ns,
            s.warm_ns,
            s.speedup(),
            s.hits,
            s.topups,
            s.fulls,
            s.warm_worlds,
            s.cold_worlds
        );
    }
    write_session_json(&graph, &d.name, k_lo, k_hi, &sweeps, smoke());

    // Criterion groups for interactive exploration.
    const SEED: u64 = 41;
    let mut counts = vec![0u32; n];
    let mut group = c.benchmark_group("micro_worldengine");
    if smoke() {
        // 10 is the minimum real criterion accepts; keep the smoke config
        // valid for both the vendored subset and the real crate.
        group.sample_size(10);
        group.measurement_time(Duration::from_millis(40));
    }
    for (label, samples) in [("64", 64usize), ("256", 256)] {
        let mut scalar = ComponentPool::new(&graph, SEED, 1);
        scalar.ensure(samples);
        group.bench_function(BenchmarkId::new("center_counts/scalar", label), |b| {
            let mut center = 0u32;
            b.iter(|| {
                scalar.counts_from_center(NodeId(center % n as u32), &mut counts);
                center = center.wrapping_add(97);
                counts[0]
            })
        });
        let mut bit = BitParallelPool::<1>::new(&graph, SEED, 1);
        bit.ensure(samples);
        group.bench_function(BenchmarkId::new("center_counts/bitparallel", label), |b| {
            let mut center = 0u32;
            b.iter(|| {
                bit.counts_from_center(NodeId(center % n as u32), &mut counts);
                center = center.wrapping_add(97);
                counts[0]
            })
        });
    }
    {
        // Batched 16-center rows: the shape of one min-partial greedy step.
        let samples = 256;
        let k = 16usize;
        let centers: Vec<NodeId> =
            (0..k as u32).map(|i| NodeId(i * (n as u32 / k as u32))).collect();
        let mut rows = vec![0u32; k * n];
        let mut scalar = ComponentPool::new(&graph, SEED, 1);
        scalar.ensure(samples);
        group.bench_function(BenchmarkId::new("batch_rows/scalar", samples), |b| {
            b.iter(|| {
                scalar.counts_from_centers(&centers, &mut rows);
                rows[0]
            })
        });
        let mut bit = BitParallelPool::<1>::new(&graph, SEED, 1);
        bit.ensure(samples);
        group.bench_function(BenchmarkId::new("batch_rows/bitparallel", samples), |b| {
            b.iter(|| {
                bit.counts_from_centers(&centers, &mut rows);
                rows[0]
            })
        });
    }
    {
        // Warm adaptive center counts for interactive comparison with the
        // scalar/bitparallel `center_counts` entries above.
        let samples = 256;
        let mut adaptive = BitParallelPool::<1>::new_adaptive(&graph, SEED, 1);
        adaptive.ensure(samples);
        adaptive.counts_from_center(NodeId(0), &mut counts);
        group.bench_function(BenchmarkId::new("center_counts/adaptive", samples), |b| {
            let mut center = 0u32;
            b.iter(|| {
                adaptive.counts_from_center(NodeId(center % n as u32), &mut counts);
                center = center.wrapping_add(97);
                counts[0]
            })
        });
    }
    {
        let samples = 128;
        let mut sel = vec![0u32; n];
        let mut cov = vec![0u32; n];
        let mut scalar = WorldPool::new(&graph, SEED, 1);
        scalar.ensure(samples);
        group.bench_function(BenchmarkId::new("depth4_counts/scalar", samples), |b| {
            let mut center = 0u32;
            b.iter(|| {
                scalar.counts_within_depths(NodeId(center % n as u32), 2, 4, &mut sel, &mut cov);
                center = center.wrapping_add(97);
                cov[0]
            })
        });
        let mut bit = BitParallelPool::<1>::new(&graph, SEED, 1);
        bit.ensure(samples);
        group.bench_function(BenchmarkId::new("depth4_counts/bitparallel", samples), |b| {
            let mut center = 0u32;
            b.iter(|| {
                bit.counts_within_depths(NodeId(center % n as u32), 2, 4, &mut sel, &mut cov);
                center = center.wrapping_add(97);
                cov[0]
            })
        });
    }
    group.finish();

    // Dedicated criterion group for the session k-sweep. Each iteration is
    // a whole sweep, so the sample size stays small in every mode; the
    // JSON above covers the full acceptance range.
    let mut sweep_group = c.benchmark_group("k_sweep_session");
    sweep_group.sample_size(10);
    if smoke() {
        sweep_group.measurement_time(Duration::from_millis(40));
    }
    let cfg = ClusterConfig::default().with_seed(23).with_threads(1);
    sweep_group.bench_function("cold_calls/k2_4", |b| {
        b.iter(|| (2..=4).map(|k| mcp(&graph, k, &cfg).expect("cold mcp").guesses).sum::<usize>())
    });
    sweep_group.bench_function("warm_session/k2_4", |b| {
        b.iter(|| {
            let mut session = UgraphSession::new(&graph, cfg.clone()).expect("session");
            (2..=4)
                .map(|k| session.solve(ClusterRequest::mcp(k)).expect("warm mcp").guesses)
                .sum::<usize>()
        })
    });
    sweep_group.finish();

    // Interactive width exploration: batched rows per block width (the
    // sweep JSON above covers the full scenario set).
    let mut width_group = c.benchmark_group("block_width_sweep");
    if smoke() {
        width_group.sample_size(10);
        width_group.measurement_time(Duration::from_millis(40));
    }
    macro_rules! width_bench {
        ($w:literal, $label:expr) => {{
            let samples = 512;
            let k = 16usize;
            let centers: Vec<NodeId> =
                (0..k as u32).map(|i| NodeId(i * (n as u32 / k as u32))).collect();
            let mut rows = vec![0u32; k * n];
            let mut pool = BitParallelPool::<$w>::new(&graph, SEED, 1);
            pool.ensure(samples);
            width_group.bench_function(BenchmarkId::new("batch_rows", $label), |b| {
                b.iter(|| {
                    pool.counts_from_centers(&centers, &mut rows);
                    rows[0]
                })
            });
        }};
    }
    width_bench!(1, "64");
    width_bench!(4, "256");
    width_bench!(8, "512");
    width_group.finish();
}

criterion_group!(benches, worldengine);
criterion_main!(benches);
