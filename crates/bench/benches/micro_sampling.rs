//! Micro-benchmarks of the Monte-Carlo sampling layer — the inner loop of
//! every algorithm in the paper (§4): world sampling, AVPR's connected-pair
//! counts on labelled and pure-mask pools, center-count queries,
//! depth-limited BFS counts, and the serial-vs-parallel comparison of the
//! rayon sampling path. The `avpr` group asserts that both pools count the
//! same pairs, and `parallel_oracle` that serial and parallel estimates
//! agree, before timing.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ugraph_datasets::DatasetSpec;
use ugraph_graph::{Bitset, NodeId};
use ugraph_metrics::avpr;
use ugraph_sampling::{
    BitParallelPool, McOracle, Oracle, SampleSchedule, WorldEngine, WorldSampler,
};

fn sampling(c: &mut Criterion) {
    let d = DatasetSpec::Krogan.generate(1);
    let graph = d.graph;
    let n = graph.num_nodes();
    let m = graph.num_edges();

    let mut group = c.benchmark_group("micro_sampling");
    group.throughput(Throughput::Elements(m as u64));

    // Raw world sampling: one Bernoulli draw per edge.
    group.bench_function("sample_world_bitset", |b| {
        let sampler = WorldSampler::new(&graph, 7);
        let mut world = Bitset::with_len(m);
        let mut i = 0u64;
        b.iter(|| {
            sampler.sample_into(i, &mut world).unwrap();
            i += 1;
            world.count_ones()
        })
    });

    group.finish();

    // AVPR of a 64-cluster GMM clustering over a 512-world pool (the size
    // of a session's evaluation pool): the labelled pool counts connected
    // pairs from its two blocks' labels, the pure-mask pool labels every
    // world on its own. Both must return the same values before timing.
    let clustering = ugraph_baselines::gmm(&graph, 64, 5).expect("gmm clustering");
    let mut labelled = BitParallelPool::<4>::new_adaptive(&graph, 7, 0);
    let mut pure_mask = BitParallelPool::<4>::new(&graph, 7, 0);
    labelled.ensure(512);
    pure_mask.ensure(512);
    let want = avpr(&mut pure_mask, &clustering);
    assert_eq!(avpr(&mut labelled, &clustering), want, "labelled and pure-mask AVPR differ");
    let mut group = c.benchmark_group("avpr");
    group.throughput(Throughput::Elements(512));
    for (name, pool) in [("labelled", &mut labelled), ("pure_mask", &mut pure_mask)] {
        group.bench_function(name, |b| b.iter(|| avpr(pool, &clustering)));
    }
    group.finish();

    // Center-count queries against pools of growing size (the dominant
    // cost inside min-partial).
    let mut group = c.benchmark_group("counts_from_center");
    for r in [64usize, 256, 1024] {
        let mut pool = BitParallelPool::<4>::new_adaptive(&graph, 3, 0);
        pool.ensure(r);
        let mut counts = vec![0u32; n];
        group.throughput(Throughput::Elements(r as u64));
        group.bench_function(BenchmarkId::from_parameter(r), |b| {
            let mut center = 0u32;
            b.iter(|| {
                pool.counts_from_center(NodeId(center % n as u32), &mut counts);
                center += 1;
                counts[0]
            })
        });
    }
    group.finish();

    // Depth-limited counts (Table 2's workhorse).
    let mut group = c.benchmark_group("depth_counts");
    let mut pool = BitParallelPool::<4>::new_adaptive(&graph, 3, 0);
    pool.ensure(128);
    for depth in [2u32, 4, 8] {
        let mut sel = vec![0u32; n];
        let mut cov = vec![0u32; n];
        let pool = &mut pool;
        group.bench_function(BenchmarkId::from_parameter(depth), |b| {
            let mut center = 0u32;
            b.iter(|| {
                pool.counts_within_depths(
                    NodeId(center % n as u32),
                    depth,
                    depth,
                    &mut sel,
                    &mut cov,
                );
                center += 1;
                cov[0]
            })
        });
    }
    group.finish();
}

/// Serial (1 thread) vs rayon-parallel (all cores) sampling on a ≥1k-node
/// instance, after asserting both configurations produce **identical**
/// oracle estimates for the same master seed.
fn parallel_oracle(c: &mut Criterion) {
    let d = DatasetSpec::Krogan.generate(1);
    let graph = d.graph;
    let n = graph.num_nodes();
    assert!(n >= 1000, "instance must have at least 1k nodes, got {n}");

    // Reproducibility gate: the benchmark is meaningless if the parallel
    // path computed something different.
    const SEED: u64 = 7;
    const SAMPLES: usize = 256;
    let adaptive_oracle = |threads: usize| {
        let pool = BitParallelPool::<4>::new_adaptive(&graph, SEED, threads);
        McOracle::from_engine(Box::new(pool), SampleSchedule::Fixed(SAMPLES), 0.1)
    };
    let mut serial_oracle = adaptive_oracle(1);
    let mut parallel_oracle = adaptive_oracle(0);
    serial_oracle.prepare(0.5).unwrap();
    parallel_oracle.prepare(0.5).unwrap();
    let mut row_serial = (vec![0.0; n], vec![0.0; n]);
    let mut row_parallel = (vec![0.0; n], vec![0.0; n]);
    for center in (0..n as u32).step_by(97) {
        serial_oracle.center_probs(NodeId(center), &mut row_serial.0, &mut row_serial.1).unwrap();
        parallel_oracle
            .center_probs(NodeId(center), &mut row_parallel.0, &mut row_parallel.1)
            .unwrap();
        assert_eq!(
            row_serial, row_parallel,
            "serial and parallel oracle estimates diverged at center {center}"
        );
    }
    drop((serial_oracle, parallel_oracle));

    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    if cores == 1 {
        println!(
            "note: only 1 CPU visible — the serial and rayon rows below are \
             expected to tie; run on a multicore machine to see the speedup"
        );
    }

    let mut group = c.benchmark_group("parallel_oracle");
    group.sample_size(10);
    group.throughput(Throughput::Elements(SAMPLES as u64));
    for (name, threads) in [("serial", 1usize), ("rayon", 0)] {
        // Pool generation: draw SAMPLES worlds into mask blocks (the
        // dominant cost of oracle preparation).
        group.bench_with_input(BenchmarkId::new("ensure", name), &threads, |b, &t| {
            b.iter(|| {
                let mut pool = BitParallelPool::<4>::new_adaptive(&graph, SEED, t);
                pool.ensure(SAMPLES);
                pool.num_samples()
            })
        });
    }
    for (name, threads) in [("serial", 1usize), ("rayon", 0)] {
        // Estimation: center-count queries against a prepared pool.
        let mut pool = BitParallelPool::<4>::new_adaptive(&graph, SEED, threads);
        pool.ensure(SAMPLES);
        let mut counts = vec![0u32; n];
        group.bench_function(BenchmarkId::new("counts_from_center", name), |b| {
            let mut center = 0u32;
            b.iter(|| {
                pool.counts_from_center(NodeId(center % n as u32), &mut counts);
                center += 1;
                counts[0]
            })
        });
    }
    group.finish();
}

criterion_group!(benches, sampling, parallel_oracle);
criterion_main!(benches);
