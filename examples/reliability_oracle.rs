//! Two-terminal reliability estimation: exact enumeration versus
//! progressive Monte-Carlo sampling (paper §2 and §4).
//!
//! Demonstrates (a) the estimator of Eq. 3 converging to the exact
//! connection probability, (b) the (ε, δ) sample bound of Eq. 4, and
//! (c) the multiplicative triangle inequality of Theorem 1 — the property
//! that makes metric clustering machinery applicable to uncertain graphs.
//!
//! Run with: `cargo run --release --example reliability_oracle`

use ugraph::prelude::*;
use ugraph::sampling::bounds;

fn main() {
    // A small "bowtie" network: two triangles sharing a weak bridge.
    let mut b = GraphBuilder::new(6);
    for (u, v, p) in [
        (0u32, 1u32, 0.8),
        (1, 2, 0.7),
        (0, 2, 0.6),
        (3, 4, 0.9),
        (4, 5, 0.5),
        (3, 5, 0.4),
        (2, 3, 0.3), // bridge
    ] {
        b.add_edge(u, v, p).unwrap();
    }
    let g = b.build().unwrap();

    // ── Exact oracle (2^7 = 128 possible worlds) ───────────────────────
    let exact = ExactOracle::new(&g).unwrap();
    println!("exact connection probabilities:");
    for (u, v) in [(0u32, 1u32), (0, 2), (0, 3), (0, 5)] {
        println!("  Pr({u} ~ {v}) = {:.6}", exact.pair_probability(NodeId(u), NodeId(v)));
    }

    // ── Monte-Carlo convergence ────────────────────────────────────────
    println!("\nMonte-Carlo estimate of Pr(0 ~ 5) vs sample count:");
    let truth = exact.pair_probability(NodeId(0), NodeId(5));
    let mut pool = BitParallelPool::<4>::new_adaptive(&g, 42, 0);
    for r in [50usize, 200, 1000, 5000, 20000] {
        pool.ensure(r);
        let est = pool.pair_estimate(NodeId(0), NodeId(5));
        println!(
            "  r = {r:>6}:  {est:.4}   (exact {truth:.4}, abs err {:.4})",
            (est - truth).abs()
        );
    }

    // ── Eq. 4: samples needed for an (ε, δ)-approximation ──────────────
    println!("\nEq. 4 sample bounds (ε = 0.1, δ = 0.01):");
    for p in [0.5, 0.1, 0.01] {
        println!("  p = {p:<5}: r ≥ {}", bounds::eq4_samples(0.1, 0.01, p));
    }
    println!("  (cost explodes as p → 0 — why the algorithms avoid estimating tiny probabilities)");

    // ── Theorem 1: multiplicative triangle inequality ──────────────────
    println!("\nTheorem 1 spot check — Pr(u~z) ≥ Pr(u~v)·Pr(v~z):");
    let mut worst: (f64, (u32, u32, u32)) = (f64::INFINITY, (0, 0, 0));
    for u in 0..6u32 {
        for v in 0..6u32 {
            for z in 0..6u32 {
                let lhs = exact.pair_probability(NodeId(u), NodeId(z));
                let rhs = exact.pair_probability(NodeId(u), NodeId(v))
                    * exact.pair_probability(NodeId(v), NodeId(z));
                let slack = lhs - rhs;
                assert!(slack >= -1e-12, "triangle inequality violated");
                if slack < worst.0 {
                    worst = (slack, (u, v, z));
                }
            }
        }
    }
    let (slack, (u, v, z)) = worst;
    println!("  holds for all 216 triplets; tightest at ({u},{v},{z}) with slack {slack:.2e}");

    // ── Depth-limited probabilities (paper §3.4) ───────────────────────
    println!("\ndepth-limited Pr(0 ~d~ 5):");
    for d in 1..=5u32 {
        let od = ExactOracle::with_depth(&g, d).unwrap();
        println!("  d = {d}: {:.6}", od.pair_probability(NodeId(0), NodeId(5)));
    }
    println!("  (monotone in d, reaching the unlimited value {truth:.6})");
}
