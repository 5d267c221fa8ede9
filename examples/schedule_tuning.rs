//! Exploring the time/quality trade-offs the paper discusses in §5:
//! the guessing parameter γ, the candidate-set size α, and the sampling
//! schedule (theory Eq. 9 vs the practical 50-sample progressive start).
//!
//! Run with: `cargo run --release --example schedule_tuning`

use std::time::Instant;

use ugraph::prelude::*;

fn main() {
    let dataset = DatasetSpec::Gavin.generate(5);
    let graph = &dataset.graph;
    let k = 50;
    println!(
        "{}: {} nodes, {} edges, k = {k}\n",
        dataset.name,
        graph.num_nodes(),
        graph.num_edges()
    );
    let mut pool = BitParallelPool::<4>::new_adaptive(graph, 12345, 0);
    pool.ensure(1000);

    // ── γ: guess-schedule resolution ───────────────────────────────────
    println!("γ sweep (mcp): smaller γ = finer threshold grid = more work");
    println!("{:<8} {:>8} {:>9} {:>9} {:>10}", "gamma", "guesses", "p_min", "final q", "time");
    for gamma in [0.05, 0.1, 0.2, 0.5] {
        let cfg = ClusterConfig::default().with_gamma(gamma).with_seed(1);
        let t = Instant::now();
        let r = mcp(graph, k, &cfg).expect("mcp");
        let el = t.elapsed();
        let q = clustering_quality(&mut pool, &r.clustering);
        println!("{:<8} {:>8} {:>9.3} {:>9.4} {:>10.2?}", gamma, r.guesses, q.p_min, r.final_q, el);
    }

    // ── α: candidate-set size in min-partial ───────────────────────────
    // The row-cache columns show why larger α stays affordable: repeated
    // guesses re-request overlapping candidate rows, which the oracle
    // serves from cached counts (hits) or incremental top-ups instead of
    // full pool sweeps.
    println!("\nα sweep (acp): larger α lowers variance at extra cost (§5)");
    println!(
        "{:<8} {:>9} {:>10} {:>7} {:>8} {:>7}",
        "alpha", "p_avg", "time", "hits", "top-ups", "fulls"
    );
    for alpha in [1usize, 4, 16, 64] {
        let cfg = ClusterConfig::default().with_alpha(alpha).with_seed(1);
        let t = Instant::now();
        let r = acp(graph, k, &cfg).expect("acp");
        let el = t.elapsed();
        let q = clustering_quality(&mut pool, &r.clustering);
        let c = r.row_cache;
        println!(
            "{:<8} {:>9.3} {:>10.2?} {:>7} {:>8} {:>7}",
            alpha, q.p_avg, el, c.hits, c.topups, c.fulls
        );
    }

    // ── Sampling schedule ──────────────────────────────────────────────
    println!("\nschedule sweep (mcp): fixed vs practical progressive");
    println!("{:<22} {:>9} {:>9} {:>10}", "schedule", "samples", "p_min", "time");
    let schedules: Vec<(&str, SampleSchedule)> = vec![
        ("Fixed(50)", SampleSchedule::Fixed(50)),
        ("Fixed(500)", SampleSchedule::Fixed(500)),
        ("Practical(50..2048)", SampleSchedule::practical()),
    ];
    for (name, schedule) in schedules {
        let cfg = ClusterConfig::default().with_schedule(schedule).with_seed(1);
        let t = Instant::now();
        let r = mcp(graph, k, &cfg).expect("mcp");
        let el = t.elapsed();
        let q = clustering_quality(&mut pool, &r.clustering);
        println!("{:<22} {:>9} {:>9.3} {:>10.2?}", name, r.samples_used, q.p_min, el);
    }

    println!(
        "\nPaper defaults (γ = 0.1, α = 1, progressive from 50 samples) sit at the \
         knee of all three curves — §5's stated configuration."
    );
}
