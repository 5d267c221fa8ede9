//! Pure-mask vs. adaptive `WorldEngine` backends on the Krogan-like PPI
//! instance — the microbenchmark behind the backend seam.
//!
//! Before any timing, an **equality gate** asserts that both backends, at
//! every block width, return identical center, pair and depth counts for
//! the same master seed; a benchmark comparing backends that disagree
//! would be meaningless.
//!
//! Besides the criterion groups, the bench emits machine-readable results
//! (median ns per operation and adaptive-over-pure-mask speedups) to
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
use ugraph_graph::{NodeId, UncertainGraph};
use ugraph_sampling::{BitParallelPool, McOracle, Oracle, WorldEngine};

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

/// Center rows, pair counts and depth-limited rows of a sample of centers
/// on one pool, concatenated.
fn fingerprint<const W: usize>(
    graph: &UncertainGraph,
    samples: usize,
    adaptive: bool,
) -> Vec<usize> {
    const SEED: u64 = 41;
    let n = graph.num_nodes();
    let mut pool = BitParallelPool::<W>::new(graph, SEED, 1).with_finalization(adaptive);
    pool.ensure(samples);
    let (mut row, mut sel, mut cov) = (vec![0u32; n], vec![0u32; n], vec![0u32; n]);
    let mut fp = Vec::new();
    for center in (0..n as u32).step_by(211) {
        pool.counts_from_center(NodeId(center), &mut row);
        fp.extend(row.iter().map(|&c| c as usize));
        fp.push(pool.pair_count(NodeId(0), NodeId(center)));
    }
    for center in (0..n as u32).step_by(419) {
        pool.counts_within_depths(NodeId(center), 2, 4, &mut sel, &mut cov);
        fp.extend(sel.iter().chain(&cov).map(|&c| c as usize));
    }
    fp
}

/// Asserts the pure-mask and adaptive pools produce identical counts on
/// `graph` at every block width.
fn equality_gate(graph: &UncertainGraph, samples: usize) {
    let want = fingerprint::<1>(graph, samples, false);
    for adaptive in [false, true] {
        let mode = if adaptive { "adaptive" } else { "pure-mask" };
        if adaptive {
            assert!(fingerprint::<1>(graph, samples, true) == want, "{mode} width 64 disagrees");
        }
        assert!(fingerprint::<4>(graph, samples, adaptive) == want, "{mode} width 256 disagrees");
        assert!(fingerprint::<8>(graph, samples, adaptive) == want, "{mode} width 512 disagrees");
    }
}

/// One timed scenario on the pure-mask and the adaptive pool.
struct Comparison {
    name: &'static str,
    bitparallel_ns: u128,
    adaptive_ns: u128,
}

impl Comparison {
    /// Adaptive speedup over the pure-mask backend.
    fn speedup(&self) -> f64 {
        self.bitparallel_ns as f64 / (self.adaptive_ns as f64).max(1.0)
    }

    /// One JSON object of the report.
    fn json(&self) -> String {
        format!(
            "    {{\"name\": \"{}\", \"bitparallel_ns\": {}, \"adaptive_ns\": {}, \
             \"adaptive_vs_bitparallel\": {:.3}}}",
            self.name,
            self.bitparallel_ns,
            self.adaptive_ns,
            self.speedup()
        )
    }

    fn print(&self, group: &str) {
        println!(
            "  {group}/{:<33} mask {:>11} ns   adaptive {:>11} ns   speedup {:>5.2}x",
            self.name,
            self.bitparallel_ns,
            self.adaptive_ns,
            self.speedup()
        );
    }
}

/// The width-64 pure-mask and adaptive pools of `samples` worlds.
fn both_pools(
    graph: &UncertainGraph,
    samples: usize,
) -> (BitParallelPool<'_, 1>, BitParallelPool<'_, 1>) {
    const SEED: u64 = 41;
    let mut mask = BitParallelPool::<1>::new(graph, SEED, 1);
    let mut adaptive = BitParallelPool::<1>::new_adaptive(graph, SEED, 1);
    mask.ensure(samples);
    adaptive.ensure(samples);
    (mask, adaptive)
}

/// Replays the pre-batching oracle access pattern: every candidate row is
/// one full per-center pool sweep, with the row cache disabled.
/// `min-partial` run against this wrapper performs exactly the work the
/// query layer did before the batched/cached row layer existed.
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
    // identical_rows() stays false, so both rows are materialized per
    // candidate, as the pre-batching code path did.
    fn center_probs_batch(
        &mut self,
        centers: &[NodeId],
        select: &mut [f64],
        cover: &mut [f64],
    ) -> Result<(), ugraph_sampling::SamplingError> {
        let n = self.num_nodes();
        for (j, &c) in centers.iter().enumerate() {
            let rows = j * n..(j + 1) * n;
            let select = if select.is_empty() { &mut [][..] } else { &mut select[rows.clone()] };
            self.0.center_probs(c, select, &mut cover[rows])?;
        }
        Ok(())
    }
    fn pair_prob(&mut self, u: NodeId, v: NodeId) -> Result<f64, ugraph_sampling::SamplingError> {
        self.0.pair_prob(u, v)
    }
}

/// One pool's guess-schedule replay measurement (pure-mask or adaptive).
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
fn measure_comparisons(graph: &UncertainGraph, reps: usize) -> Vec<Comparison> {
    const SEED: u64 = 41;
    let n = graph.num_nodes();
    let mut results = Vec::new();
    let centers: Vec<u32> = (0..n as u32).step_by(n / 16).collect();

    // Depth-limited counts (d = 4) per query at 128 samples — the §3.4
    // workload, a mask traversal per block on both backends.
    {
        let (mut mask, mut adaptive) = both_pools(graph, 128);
        let mut sel = vec![0u32; n];
        let mut cov = vec![0u32; n];
        let mut time = |pool: &mut BitParallelPool<'_, 1>| {
            median_ns(reps, || {
                for &c in &centers {
                    pool.counts_within_depths(NodeId(c), 2, 4, &mut sel, &mut cov);
                }
            }) / centers.len() as u128
        };
        let bitparallel_ns = time(&mut mask);
        let adaptive_ns = time(&mut adaptive);
        results.push(Comparison { name: "depth4_counts_128", bitparallel_ns, adaptive_ns });
    }

    // End-to-end center-query rounds: generate the pool and answer 16
    // center queries — the shape of one min-partial guess (α = 1,
    // k ≈ 16), i.e. what the drivers actually pay per threshold. The
    // adaptive pool pays its label finalization inside the round.
    for &(name, samples) in &[("center_queries_64", 64usize), ("center_queries_256", 256)] {
        let round = |adaptive: bool| {
            median_ns(reps, || {
                let pool = BitParallelPool::<1>::new(graph, SEED, 1);
                let mut pool = pool.with_finalization(adaptive);
                pool.ensure(samples);
                let mut counts = vec![0u32; n];
                for &c in &centers {
                    pool.counts_from_center(NodeId(c), &mut counts);
                }
            })
        };
        results.push(Comparison { name, bitparallel_ns: round(false), adaptive_ns: round(true) });
    }

    results
}

/// `batch_rows`: multi-center batched count rows on both backends, the
/// adaptive pool warm (blocks finalized). Batching amortizes the mask-BFS
/// memory traffic over all centers per traversal, which is the workload
/// `min-partial`'s candidate evaluation actually presents.
fn measure_batch_rows(graph: &UncertainGraph, reps: usize) -> Vec<Comparison> {
    let n = graph.num_nodes();
    let k = 16usize;
    let centers: Vec<NodeId> = (0..k as u32).map(|i| NodeId(i * (n as u32 / k as u32))).collect();
    let mut results = Vec::new();
    for &(name, samples) in &[("batch_rows_16x64", 64usize), ("batch_rows_16x256", 256)] {
        let (mut mask, mut adaptive) = both_pools(graph, samples);
        let mut row = vec![0u32; n];
        adaptive.counts_from_center(centers[0], &mut row);
        // Equality gate: batched rows identical across backends and to the
        // sequential per-center rows.
        let mut a = vec![0u32; k * n];
        let mut b = vec![0u32; k * n];
        mask.counts_from_centers(&centers, &mut a);
        adaptive.counts_from_centers(&centers, &mut b);
        assert_eq!(a, b, "backends disagree on batched rows ({samples} samples)");
        for (j, &c) in centers.iter().enumerate() {
            mask.counts_from_center(c, &mut row);
            assert_eq!(&a[j * n..(j + 1) * n], &row[..], "batch differs from sequential");
        }
        results.push(Comparison {
            name,
            bitparallel_ns: median_ns(reps, || mask.counts_from_centers(&centers, &mut a)),
            adaptive_ns: median_ns(reps, || adaptive.counts_from_centers(&centers, &mut b)),
        });
    }
    results
}

/// `unlimited_query_adaptive`: the query shape the adaptive engine exists
/// for — unlimited-depth counts — measured warm (row, pair and batch
/// queries over finalized blocks), equality-gated against the pure-mask
/// pool.
fn measure_adaptive(graph: &UncertainGraph, reps: usize) -> Vec<Comparison> {
    const SEED: u64 = 41;
    let n = graph.num_nodes();
    let samples = 256usize;
    let centers: Vec<u32> = (0..n as u32).step_by(n / 16).collect();
    let mut out = Vec::new();

    // Warm query-only unlimited counts. The adaptive pool is warmed by one
    // row query (finalizing every block); timing then measures pure label
    // scans against pure mask traversals. Equality-gated on every row and
    // pair it is timed on.
    {
        let (mut mask, mut adaptive) = both_pools(graph, samples);
        let (mut a, mut b) = (vec![0u32; n], vec![0u32; n]);
        adaptive.counts_from_center(NodeId(0), &mut b);
        assert!(
            adaptive.engine_stats().finalized_blocks > 0,
            "warm adaptive pool did not finalize"
        );
        let pairs: Vec<(NodeId, NodeId)> =
            centers.iter().map(|&c| (NodeId(c), NodeId((c + 7) % n as u32))).collect();
        for (&c, &(u, v)) in centers.iter().zip(&pairs) {
            mask.counts_from_center(NodeId(c), &mut a);
            adaptive.counts_from_center(NodeId(c), &mut b);
            assert_eq!(a, b, "adaptive disagrees with pure-mask at center {c}");
            assert_eq!(mask.pair_count(u, v), adaptive.pair_count(u, v), "pair ({u}, {v})");
        }
        let mut rows = |pool: &mut BitParallelPool<'_, 1>| {
            median_ns(reps, || {
                for &c in &centers {
                    pool.counts_from_center(NodeId(c), &mut a);
                }
            }) / centers.len() as u128
        };
        let (bitparallel_ns, adaptive_ns) = (rows(&mut mask), rows(&mut adaptive));
        out.push(Comparison {
            name: "warm_center_counts_query_only_256",
            bitparallel_ns,
            adaptive_ns,
        });

        // Warm pair queries (objective evaluation's shape) on the same
        // already-finalized pool.
        let pair_ns = |pool: &mut BitParallelPool<'_, 1>| {
            median_ns(reps, || {
                for &(u, v) in &pairs {
                    std::hint::black_box(pool.pair_count(u, v));
                }
            }) / pairs.len() as u128
        };
        let (bitparallel_ns, adaptive_ns) = (pair_ns(&mut mask), pair_ns(&mut adaptive));
        out.push(Comparison { name: "warm_pair_counts_256", bitparallel_ns, adaptive_ns });

        // Warm batched rows (one min-partial greedy step).
        let k = 16usize;
        let batch_centers: Vec<NodeId> =
            (0..k as u32).map(|i| NodeId(i * (n as u32 / k as u32))).collect();
        let mut rows = vec![0u32; k * n];
        let mut batch = |pool: &mut BitParallelPool<'_, 1>| {
            median_ns(reps, || pool.counts_from_centers(&batch_centers, &mut rows))
        };
        let (bitparallel_ns, adaptive_ns) = (batch(&mut mask), batch(&mut adaptive));
        out.push(Comparison { name: "warm_batch_rows_16x256", bitparallel_ns, adaptive_ns });
    }

    // Pool generation: finalization is lazy, so adaptive generation must
    // stay within noise of the pure-mask backend.
    let ensure = |adaptive: bool| {
        median_ns(reps, || {
            let pool = BitParallelPool::<1>::new(graph, SEED, 1);
            pool.with_finalization(adaptive).ensure(samples);
        })
    };
    out.push(Comparison {
        name: "ensure_256",
        bitparallel_ns: ensure(false),
        adaptive_ns: ensure(true),
    });
    out
}

fn write_adaptive_json(
    graph: &UncertainGraph,
    name: &str,
    results: &[Comparison],
    replay: &[Replay],
    smoke: bool,
) {
    let rows = results.iter().map(Comparison::json).collect::<Vec<_>>().join(",\n");
    let replays = replay_json(replay);
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
    write_report("BENCH_adaptive.json", &json);
}

/// The guess-schedule replay rows of a JSON report.
fn replay_json(replay: &[Replay]) -> String {
    let rows = replay.iter().map(|r| {
        format!(
            "    {{\"engine\": \"{}\", \"per_row_ns\": {}, \"cached_ns\": {}, \
             \"speedup\": {:.3}}}",
            r.engine,
            r.per_row_ns,
            r.cached_ns,
            r.speedup()
        )
    });
    rows.collect::<Vec<_>>().join(",\n")
}

/// Writes a JSON report to the repository root.
fn write_report(file: &str, json: &str) {
    let path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
    match std::fs::write(&path, json) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => eprintln!("\ncould not write {path}: {e}"),
    }
}

/// `guess_schedule_replay`: one full ACP guessing schedule (the paper's
/// Theorem-4 invocation, `α = n`, whose candidate sets overlap heavily
/// across iterations and guesses) end to end — the pre-PR per-row access
/// pattern vs batched rows + the incremental row cache.
fn measure_replay(graph: &UncertainGraph, smoke: bool) -> Vec<Replay> {
    let (k, p_l, reps) = if smoke { (2, 0.8, 1) } else { (4, 0.3, 2) };
    let cfg = ClusterConfig::default()
        .with_seed(17)
        .with_acp_invocation(AcpInvocation::Theory)
        .with_p_l(p_l)
        .with_threads(1);
    let oracle = |adaptive: bool| {
        let pool = BitParallelPool::<4>::new(graph, 99, 1).with_finalization(adaptive);
        McOracle::from_engine(Box::new(pool), cfg.schedule, cfg.epsilon)
    };
    let run_cached = |adaptive: bool| -> (AcpResult, u128) {
        let t = Instant::now();
        let mut oracle = oracle(adaptive);
        let r = acp_with_oracle(&mut oracle, k, &cfg).expect("acp (cached)");
        (r, t.elapsed().as_nanos())
    };
    let run_per_row = |adaptive: bool| -> (AcpResult, u128) {
        let t = Instant::now();
        let mut oracle = PerRowOracle(oracle(adaptive).with_row_cache(false));
        let r = acp_with_oracle(&mut oracle, k, &cfg).expect("acp (per-row)");
        (r, t.elapsed().as_nanos())
    };
    let mut out = Vec::new();
    let mut reference: Option<AcpResult> = None;
    for (name, adaptive) in [("bitparallel", false), ("adaptive", true)] {
        let mut cached_ns = u128::MAX;
        let mut per_row_ns = u128::MAX;
        for _ in 0..reps {
            let (cached, t_cached) = run_cached(adaptive);
            let (plain, t_plain) = run_per_row(adaptive);
            // Equality gate: the batched + cached schedule must reproduce
            // the pre-PR results bit for bit.
            assert_eq!(
                cached.clustering, plain.clustering,
                "{} replay: cached clustering differs",
                name
            );
            assert_eq!(
                cached.assign_probs, plain.assign_probs,
                "{} replay: cached assignment probabilities differ",
                name
            );
            assert_eq!(cached.guesses, plain.guesses);
            assert!(cached.row_cache.hits > 0, "{} replay exercised no cache hits", name);
            // Cross-engine gate: every backend replays the identical
            // schedule (count-identity through the whole driver).
            match &reference {
                None => reference = Some(cached),
                Some(r) => {
                    assert_eq!(r.clustering, cached.clustering, "{} diverges", name);
                    assert_eq!(r.assign_probs, cached.assign_probs, "{} diverges", name);
                }
            }
            cached_ns = cached_ns.min(t_cached);
            per_row_ns = per_row_ns.min(t_plain);
        }
        out.push(Replay { engine: name, per_row_ns, cached_ns });
    }
    out
}

/// The k-sweep measurement: `k_lo..=k_hi` MCP requests served
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
fn measure_k_sweep(graph: &UncertainGraph, smoke: bool) -> (usize, usize, Vec<Sweep>) {
    let (k_lo, k_hi) = if smoke { (2usize, 4usize) } else { (2usize, 10usize) };
    let reps = if smoke { 1 } else { 3 };
    let cfg = ClusterConfig::default().with_seed(23).with_threads(1);
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
            assert_eq!(w.clustering, c.clustering, "k-sweep diverges");
            assert_eq!(w.assign_probs, c.assign_probs, "k-sweep probs diverge");
            assert_eq!((w.guesses, w.samples_used), (c.guesses, c.samples_used));
        }
        let stats = session.stats();
        assert!(stats.row_cache.hits + stats.row_cache.topups > 0, "warm sweep reused no rows");
        cold_worlds = cold.iter().map(|r| r.samples_used).sum();
        warm_stats = Some(stats);
    }
    let stats = warm_stats.expect("at least one rep");
    let sweep = Sweep {
        engine: "adaptive",
        cold_ns: best_cold,
        warm_ns: best_warm,
        cold_worlds,
        warm_worlds: stats.worlds_held,
        hits: stats.row_cache.hits,
        topups: stats.row_cache.topups,
        fulls: stats.row_cache.fulls,
    };
    (k_lo, k_hi, vec![sweep])
}

fn write_session_json(
    graph: &UncertainGraph,
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
    write_report("BENCH_session.json", &json);
}

fn write_oracle_json(
    graph: &UncertainGraph,
    name: &str,
    batch: &[Comparison],
    replay: &[Replay],
    smoke: bool,
) {
    let rows = batch.iter().map(Comparison::json).collect::<Vec<_>>().join(",\n");
    let replays = replay_json(replay);
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
    write_report("BENCH_oracle.json", &json);
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
    graph: &UncertainGraph,
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
fn measure_width_sweep(graph: &UncertainGraph, reps: usize) -> Vec<WidthRow> {
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

fn write_width_json(graph: &UncertainGraph, name: &str, rows: &[WidthRow], smoke: bool) {
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
    write_report("BENCH_width.json", &json);
}

fn write_json(graph: &UncertainGraph, name: &str, results: &[Comparison], smoke: bool) {
    let rows = results.iter().map(Comparison::json).collect::<Vec<_>>().join(",\n");
    let json = format!(
        "{{\n  \"benchmark\": \"micro_worldengine\",\n  \"dataset\": \"{}\",\n  \
         \"nodes\": {},\n  \"edges\": {},\n  \"smoke\": {},\n  \"results\": [\n{}\n  ]\n}}\n",
        name,
        graph.num_nodes(),
        graph.num_edges(),
        smoke,
        rows
    );
    write_report("BENCH_worldengine.json", &json);
}

fn worldengine(c: &mut Criterion) {
    let d = DatasetSpec::Krogan.generate(1);
    let graph = d.graph;
    let n = graph.num_nodes();
    assert!(n >= 1000, "instance must have at least 1k nodes, got {n}");

    // Equality gates, including a non-multiple-of-64 size.
    equality_gate(&graph, 64);
    equality_gate(&graph, if smoke() { 100 } else { 250 });
    println!("equality gate passed: pure-mask and adaptive counts identical at every width");

    // Machine-readable comparison.
    let reps = if smoke() { 3 } else { 9 };
    let results = measure_comparisons(&graph, reps);
    results.iter().for_each(|r| r.print("engine"));
    write_json(&graph, &d.name, &results, smoke());

    // Batched-row and guess-schedule-replay groups (equality gates inside).
    let batch = measure_batch_rows(&graph, reps);
    batch.iter().for_each(|r| r.print("oracle"));
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

    // The adaptive group: pure-mask vs bit-parallel + lazy finalization
    // (equality gates inside).
    let adaptive = measure_adaptive(&graph, reps);
    adaptive.iter().for_each(|r| r.print("adaptive"));
    write_adaptive_json(&graph, &d.name, &adaptive, &replay, smoke());

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
        let (mut mask, mut adaptive) = both_pools(&graph, samples);
        adaptive.counts_from_center(NodeId(0), &mut counts);
        for (name, pool) in [("bitparallel", &mut mask), ("adaptive", &mut adaptive)] {
            group.bench_function(BenchmarkId::new(format!("center_counts/{name}"), label), |b| {
                let mut center = 0u32;
                b.iter(|| {
                    pool.counts_from_center(NodeId(center % n as u32), &mut counts);
                    center = center.wrapping_add(97);
                    counts[0]
                })
            });
        }
    }
    {
        // Batched 16-center rows: the shape of one min-partial greedy step.
        let samples = 256;
        let k = 16usize;
        let centers: Vec<NodeId> =
            (0..k as u32).map(|i| NodeId(i * (n as u32 / k as u32))).collect();
        let mut rows = vec![0u32; k * n];
        let (mut mask, mut adaptive) = both_pools(&graph, samples);
        adaptive.counts_from_center(NodeId(0), &mut counts);
        for (name, pool) in [("bitparallel", &mut mask), ("adaptive", &mut adaptive)] {
            group.bench_function(BenchmarkId::new(format!("batch_rows/{name}"), samples), |b| {
                b.iter(|| {
                    pool.counts_from_centers(&centers, &mut rows);
                    rows[0]
                })
            });
        }
    }
    {
        let samples = 128;
        let mut sel = vec![0u32; n];
        let mut cov = vec![0u32; n];
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
