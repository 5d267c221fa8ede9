//! Figure 4's scaling axis under memory budgets: MCP on growing
//! `LargeSparse` Erdős–Rényi instances (geometric skip sampling makes the
//! inputs cheap to build at any size), each size solved through one
//! [`UgraphSession`] with an unbounded ledger and again under shrinking
//! byte budgets: 1/2, 1/8 and 1/32 of a fixed reference footprint per
//! size ([`REFERENCE_BYTES`]), so the budgets in bytes stay the same when
//! a change shrinks what the unbounded session holds, and cells stay
//! comparable across recorded results. A budget that cannot keep the
//! component labels makes the pools sweep edge masks instead; one below
//! the masks forces shard eviction and regeneration.
//!
//! Before any timing, an **equality gate** asserts that every budgeted
//! run reproduces the unbounded clustering, assignment probabilities,
//! guess trace, and sample count bit for bit, and that the budgeted
//! session never held more bytes than its limit — a memory bound that
//! changed answers would be meaningless. A **storage gate** asserts that
//! each bound changed what the session kept: it evicted and regenerated
//! shards, or labelled fewer lanes than the unbounded session.
//!
//! Besides the criterion group, the bench emits machine-readable results
//! (wall ns, bytes held, lanes labelled, shards evicted/regenerated per
//! cell) to
//! `BENCH_scaling.json` in the repository root, so the budget/time
//! trade-off accumulates across PRs. Set `BENCH_SMOKE=1` for a fast CI
//! smoke run (equality gates on, small sizes); it writes
//! `BENCH_scaling.smoke.json` instead, leaving the committed full-tier
//! results alone.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ugraph_cluster::{ClusterConfig, ClusterRequest, SolveResult, UgraphSession};
use ugraph_datasets::DatasetSpec;

fn smoke() -> bool {
    std::env::var("BENCH_SMOKE").is_ok_and(|v| v != "0")
}

const SEED: u64 = 31;

/// `(requested nodes, bytes)`: the unbounded session's `bytes_held` after
/// the k grid at each size, as recorded when the budgets were fixed to
/// these constants (compact labels, seed 31, one thread). Budgets divide
/// these, not each run's own footprint.
const REFERENCE_BYTES: [(usize, usize); 4] =
    [(1_000, 220_484), (3_000, 824_796), (10_000, 15_208_128), (30_000, 48_178_500)];

/// The reference footprint of a requested graph size.
fn reference_bytes(nodes: usize) -> usize {
    REFERENCE_BYTES
        .iter()
        .find_map(|&(n, bytes)| (n == nodes).then_some(bytes))
        .unwrap_or_else(|| panic!("no reference footprint for {nodes} nodes"))
}

/// One (graph size, budget) cell of the sweep.
struct Cell {
    nodes: usize,
    edges: usize,
    /// Byte limit; `None` is the unbounded baseline.
    budget: Option<usize>,
    wall_ns: u128,
    bytes_held: usize,
    /// World lanes the session's pools labelled.
    finalized_lanes: usize,
    shards_evicted: u64,
    shards_regenerated: u64,
}

/// Solves the k grid through one session under `budget`, returning the
/// results and the filled-in cell.
fn run_cell(
    graph: &ugraph_graph::UncertainGraph,
    ks: &[usize],
    budget: Option<usize>,
) -> (Vec<SolveResult>, Cell) {
    let mut cfg = ClusterConfig::default().with_seed(SEED).with_threads(1);
    if let Some(bytes) = budget {
        cfg = cfg.with_memory_budget(bytes);
    }
    let t = Instant::now();
    let mut session = UgraphSession::new(graph, cfg).expect("session");
    let results: Vec<SolveResult> =
        ks.iter().map(|&k| session.solve(ClusterRequest::mcp(k)).expect("mcp")).collect();
    let wall_ns = t.elapsed().as_nanos();
    let stats = session.stats();
    let cell = Cell {
        nodes: graph.num_nodes(),
        edges: graph.num_edges(),
        budget,
        wall_ns,
        bytes_held: stats.bytes_held,
        finalized_lanes: stats.engine.finalized_lanes,
        shards_evicted: stats.shards_evicted,
        shards_regenerated: stats.shards_regenerated,
    };
    (results, cell)
}

/// Sweeps one graph size: unbounded baseline, then budgets at 1/2, 1/8 and
/// 1/32 of the size's `reference` footprint, equality- and storage-gated
/// against the baseline.
fn sweep_size(graph: &ugraph_graph::UncertainGraph, ks: &[usize], reference: usize) -> Vec<Cell> {
    let (baseline, base_cell) = run_cell(graph, ks, None);
    assert_eq!(base_cell.shards_evicted, 0, "unbounded session must never evict");
    let full_bytes = base_cell.bytes_held;
    let base_cell_lanes = base_cell.finalized_lanes;
    assert!(full_bytes > 0, "baseline session held no bytes");

    let mut cells = vec![base_cell];
    for divisor in [2usize, 8, 32] {
        let limit = (reference / divisor).max(1);
        let (got, cell) = run_cell(graph, ks, Some(limit));
        // Equality gate: a memory bound must not change any answer.
        for (b, g) in got.iter().zip(&baseline) {
            assert_eq!(g.clustering, b.clustering, "budget {limit} diverges (n = {})", cell.nodes);
            assert_eq!(g.assign_probs, b.assign_probs, "budget {limit}: probs diverge");
            assert_eq!((g.guesses, g.samples_used), (b.guesses, b.samples_used));
        }
        assert!(
            cell.bytes_held <= limit,
            "budget {limit} overshot: {} bytes held (n = {})",
            cell.bytes_held,
            cell.nodes
        );
        // Storage gate: below the reference footprint the bound must have
        // changed what the session kept — shards evicted and brought back,
        // or labels left unbuilt. At 1/32 the masks alone overflow.
        let evicted = cell.shards_evicted > 0 && cell.shards_regenerated > 0;
        let fewer_labels = cell.finalized_lanes < base_cell_lanes;
        assert!(
            evicted || fewer_labels,
            "budget {limit} changed no storage (unbounded {full_bytes} B, n = {})",
            cell.nodes
        );
        if divisor == 32 {
            assert!(cell.shards_evicted > 0, "budget {limit} evicted nothing (n = {})", cell.nodes);
            assert!(cell.shards_regenerated > 0, "evicted shards were never regenerated");
        }
        cells.push(cell);
    }
    cells
}

fn write_scaling_json(cells: &[Cell], ks: &[usize], smoke: bool) {
    let mut rows = String::new();
    for (i, c) in cells.iter().enumerate() {
        if i > 0 {
            rows.push_str(",\n");
        }
        let budget = c.budget.map_or("null".to_string(), |b| b.to_string());
        rows.push_str(&format!(
            "    {{\"nodes\": {}, \"edges\": {}, \"budget_bytes\": {}, \"wall_ns\": {}, \
             \"bytes_held\": {}, \"finalized_lanes\": {}, \"shards_evicted\": {}, \
             \"shards_regenerated\": {}}}",
            c.nodes,
            c.edges,
            budget,
            c.wall_ns,
            c.bytes_held,
            c.finalized_lanes,
            c.shards_evicted,
            c.shards_regenerated
        ));
    }
    let k_list: Vec<String> = ks.iter().map(|k| k.to_string()).collect();
    let json = format!(
        "{{\n  \"benchmark\": \"fig4_scaling\",\n  \"dataset\": \"LargeSparse\",\n  \
         \"smoke\": {},\n  \"k_grid\": [{}],\n  \"cells\": [\n{}\n  ]\n}}\n",
        smoke,
        k_list.join(", "),
        rows
    );
    let path = if smoke {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scaling.smoke.json")
    } else {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scaling.json")
    };
    match std::fs::write(path, &json) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => eprintln!("\ncould not write {path}: {e}"),
    }
}

fn fig4(c: &mut Criterion) {
    let smoke = smoke();
    // Full-tier sizes keep the budgeted cells minutes-scale: regeneration
    // overhead grows with shard bytes, so 10⁵-node instances (which the
    // generator handles fine — see `er_skip_sampling_scales_to_sparse_
    // instances`) would push a single 1/8-budget cell past practical
    // bench time.
    let sizes: &[usize] = if smoke { &[1_000, 3_000] } else { &[10_000, 30_000] };
    let ks: &[usize] = if smoke { &[2, 4] } else { &[2, 4, 8] };

    let mut cells = Vec::new();
    for &nodes in sizes {
        let d = DatasetSpec::LargeSparse { nodes }.generate(SEED);
        println!(
            "LargeSparse({nodes}): LCC {} nodes / {} edges",
            d.graph.num_nodes(),
            d.graph.num_edges()
        );
        cells.extend(sweep_size(&d.graph, ks, reference_bytes(nodes)));
    }
    write_scaling_json(&cells, ks, smoke);

    // Criterion timings on the smallest size: the unbounded session vs the
    // tightest (1/8) budget — the regeneration overhead the bound costs.
    let d = DatasetSpec::LargeSparse { nodes: sizes[0] }.generate(SEED);
    let mut group = c.benchmark_group("fig4_scaling");
    group.sample_size(10);
    for budget in [None, Some(reference_bytes(sizes[0]) / 8)] {
        let label = budget.map_or("unbounded".to_string(), |b| format!("{b}B"));
        group.bench_with_input(
            BenchmarkId::new("mcp_session", format!("n{}_{label}", sizes[0])),
            &budget,
            |b, &budget| b.iter(|| run_cell(&d.graph, ks, budget).1.wall_ns),
        );
    }
    group.finish();
}

criterion_group!(benches, fig4);
criterion_main!(benches);
