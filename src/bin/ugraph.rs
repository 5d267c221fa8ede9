//! `ugraph` — command-line front end to the library.
//!
//! ```text
//! ugraph generate --dataset <collins|gavin|krogan|dblp|large-sparse>
//!                 [--scale X] [--nodes N] [--seed N]
//!                 --output graph.txt [--ground-truth gt.txt]
//! ugraph stats    --input graph.txt
//! ugraph cluster  --input graph.txt --algo <mcp|acp|gmm|mcl|kpt> [--k N]
//!                 [--depth D] [--inflation I] [--seed N] [--output out.tsv]
//!                 [--engine <bitparallel|adaptive>]
//!                 [--memory-budget B] [--timeout T] [--best-effort]
//! ugraph sweep    --input graph.txt --algo <mcp|acp> --k-min A --k-max B
//!                 [--depth D] [--seed N] [--samples N]
//!                 [--engine <bitparallel|adaptive>]
//!                 [--memory-budget B] [--timeout T] [--best-effort]
//! ugraph evaluate --input graph.txt --clustering out.tsv [--samples N]
//!                 [--ground-truth gt.txt] [--seed N]
//!                 [--memory-budget B] [--timeout T]
//! ugraph knn      --input graph.txt --source U [--k N] [--depth D] [--samples N]
//! ugraph serve    [--listen HOST:PORT] --dataset <names>|--input graph.txt
//!                 [--graph NAME] [--workers N] [--seed N]
//!                 [--memory-budget B] [--session-budget B]
//!                 [--request-timeout T] [--idle-evict T] [--io-timeout T]
//! ugraph client   <cluster|stats> [--connect HOST:PORT] [--graph NAME]
//!                 [--algo mcp|acp] [--k N] [--depth D] [--timeout T]
//!                 [--retries N] [--connect-pool N]
//!                 [--engine <bitparallel|adaptive>]
//!                 [--output out.tsv]
//! ```
//!
//! `cluster` (for MCP/ACP), `sweep`, and `evaluate` all run through one
//! [`UgraphSession`] per invocation: `sweep` serves every `k` from the
//! same grow-only world pool and row caches, and `evaluate` reuses the
//! session's evaluation pool instead of building its own.
//!
//! Formats: graphs are `u v p` edge lists (with an optional `# nodes: N`
//! header); clusterings are TSV lines `node<TAB>cluster<TAB>center`;
//! ground truth is one complex per line as space-separated node ids.

use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::process::ExitCode;
use std::sync::Arc;

use ugraph::baselines::{gmm, kpt, mcl, KptConfig, MclConfig};
use ugraph::cluster::{
    ClusterConfig, ClusterRequest, Clustering, Objective, SolveResult, UgraphSession,
};
use ugraph::datasets::DatasetSpec;
use ugraph::graph::{io as gio, GraphStats, NodeId, UncertainGraph};
use ugraph::metrics::{avpr, confusion, session_quality};
use ugraph::sampling::{reliability_knn, reliability_knn_within, BitParallelPool, WorldEngine};
use ugraph::sampling::{BlockWidth, EngineKind};
use ugraph::server::{
    ClientPool, ClusterCall, RetryError, RetryPolicy, RetryReport, Server, ServerConfig, WireDepth,
    PROTOCOL_VERSION,
};

/// Where `serve` listens and `client` connects when no address is given.
const DEFAULT_ADDR: &str = "127.0.0.1:7878";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    // `client` takes an action word before its flags.
    let (client_action, flag_args): (Option<&String>, &[String]) = if command == "client" {
        match rest.split_first() {
            Some((action, r)) if !action.starts_with("--") => (Some(action), r),
            _ => {
                eprintln!("error: client expects an action (cluster or stats)\n\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    } else {
        (None, rest)
    };
    let opts = match Options::parse(flag_args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match command.as_str() {
        "generate" => cmd_generate(&opts),
        "stats" => cmd_stats(&opts),
        "cluster" => cmd_cluster(&opts),
        "sweep" => cmd_sweep(&opts),
        "evaluate" => cmd_evaluate(&opts),
        "knn" => cmd_knn(&opts),
        "serve" => cmd_serve(&opts),
        "client" => match client_action {
            Some(action) => cmd_client(action, &opts),
            None => Err("client expects an action (cluster or stats)".into()),
        },
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => Err(format!("unknown command '{other}'")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage: ugraph <command> [flags]

commands:
  generate  --dataset <collins|gavin|krogan|dblp|large-sparse>
            [--scale X] [--nodes N] [--seed N]
            --output graph.txt [--ground-truth gt.txt]
  stats     --input graph.txt
  cluster   --input graph.txt --algo <mcp|acp|gmm|mcl|kpt> [--k N]
            [--depth D] [--inflation I] [--seed N] [--output out.tsv]
            [--engine <bitparallel|adaptive>]
            [--memory-budget B] [--timeout T] [--best-effort]
  sweep     --input graph.txt --algo <mcp|acp> --k-min A --k-max B
            [--depth D] [--seed N] [--samples N]
            [--engine <bitparallel|adaptive>]
            [--memory-budget B] [--timeout T] [--best-effort]
  evaluate  --input graph.txt --clustering out.tsv [--samples N]
            [--ground-truth gt.txt] [--seed N]
            [--memory-budget B] [--timeout T]
  knn       --input graph.txt --source U [--k N] [--depth D] [--samples N]
  serve     [--listen HOST:PORT] --dataset <names>|--input graph.txt
            [--graph NAME] [--workers N] [--seed N]
            [--memory-budget B] [--session-budget B]
            [--request-timeout T] [--idle-evict T] [--io-timeout T]
  client    <cluster|stats> [--connect HOST:PORT] [--graph NAME]
            [--algo mcp|acp] [--k N] [--depth D] [--timeout T]
            [--retries N] [--connect-pool N]
            [--engine <bitparallel|adaptive>]
            [--output out.tsv]

`--engine` picks the Monte-Carlo backend of the solver paths (default:
adaptive — bit-parallel blocks with lazy component-label finalization;
`scalar` is accepted as an alias of `adaptive`). Every backend returns
identical results for a fixed seed. It is accepted everywhere but only
affects `cluster` and `sweep` — `evaluate` and `knn` always measure on an
adaptive pool of 256-world blocks.

`--samples` (default 512) must be at least 1.

`--memory-budget` caps the bytes held by the session's sampled worlds and
cached rows (e.g. 512M, 2G; binary suffixes K/M/G). Under pressure,
least-recently-used pool shards are evicted and regenerated on demand;
results are bit-identical to an unbounded run. `--nodes` sizes the
large-sparse generated dataset (default 100000).

`--timeout` sets a wall-clock deadline per solve (e.g. 30s, 5m, 1h,
250ms; a bare number means seconds). A solve that trips the deadline
stops at the next block boundary and reports how far it got. By default
the command exits nonzero; with `--best-effort` a solver that already
holds a full clustering returns it instead, flagged as interrupted.

`serve` keeps graphs and solver sessions resident behind a TCP socket
(default 127.0.0.1:7878) speaking a small versioned binary protocol (see
PROTOCOL.md). `--dataset` takes a comma-separated list of generated
datasets to load; `--input` loads an edge list under `--graph`'s name (or
the file stem). `--memory-budget` is the *global* ceiling across all
sessions — idle sessions are evicted (and later regenerated,
bit-identically) to fit it; `--session-budget` adds a per-session cap;
`--request-timeout` bounds each solve server-side; `--idle-evict` frees
sessions idle longer than the given age; `--io-timeout` cuts connections
that stall mid-frame (idle connections between frames park freely;
default 10s, tallied as `peer stalls` in `client stats`). Ctrl-C drains
in-flight solves cooperatively before exiting. `client cluster`/`client
stats` are the matching command-line clients; when exactly one graph is
loaded, `--graph` may be omitted.

`client` rides over transient failures: `--retries N` (default 2) allows
N retries after the first attempt under exponential backoff with seeded
jitter, min-composed with `--timeout` so a retry never sleeps past the
request deadline; `--connect-pool N` (default 1) keeps up to N parked
connections, each health-checked with a protocol ping before reuse and
transparently re-dialed when the server restarts. Reconnects are logged
to stderr; retrying is safe because solves are idempotent — a re-issued
request answers bit-identically.";

/// Parsed flag set (strings resolved lazily per command).
#[derive(Default, Debug)]
struct Options {
    input: Option<String>,
    output: Option<String>,
    clustering: Option<String>,
    ground_truth: Option<String>,
    dataset: Option<String>,
    algo: Option<String>,
    k: Option<usize>,
    k_min: Option<usize>,
    k_max: Option<usize>,
    depth: Option<u32>,
    inflation: Option<f64>,
    scale: Option<f64>,
    seed: u64,
    samples: usize,
    source: Option<u32>,
    engine: EngineKind,
    memory_budget: Option<usize>,
    nodes: Option<usize>,
    timeout: Option<std::time::Duration>,
    best_effort: bool,
    listen: Option<String>,
    connect: Option<String>,
    graph: Option<String>,
    workers: Option<usize>,
    session_budget: Option<usize>,
    request_timeout: Option<std::time::Duration>,
    idle_evict: Option<std::time::Duration>,
    io_timeout: Option<std::time::Duration>,
    retries: Option<u32>,
    connect_pool: Option<usize>,
}

impl Options {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut o = Options { seed: 1, samples: 512, ..Default::default() };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut take =
                || it.next().cloned().ok_or_else(|| format!("flag {flag} expects a value"));
            match flag.as_str() {
                "--input" => o.input = Some(take()?),
                "--output" => o.output = Some(take()?),
                "--clustering" => o.clustering = Some(take()?),
                "--ground-truth" => o.ground_truth = Some(take()?),
                "--dataset" => o.dataset = Some(take()?),
                "--algo" => o.algo = Some(take()?),
                "--k" => o.k = Some(parse_num(&take()?, flag)?),
                "--k-min" => o.k_min = Some(parse_num(&take()?, flag)?),
                "--k-max" => o.k_max = Some(parse_num(&take()?, flag)?),
                "--depth" => o.depth = Some(parse_num(&take()?, flag)?),
                "--inflation" => o.inflation = Some(parse_num(&take()?, flag)?),
                "--scale" => o.scale = Some(parse_num(&take()?, flag)?),
                "--seed" => o.seed = parse_num(&take()?, flag)?,
                "--samples" => {
                    o.samples = parse_num(&take()?, flag)?;
                    if o.samples == 0 {
                        return Err(format!("flag {flag}: expected at least 1 sample, got '0'"));
                    }
                }
                "--source" => o.source = Some(parse_num(&take()?, flag)?),
                "--engine" => {
                    let v = take()?;
                    o.engine = EngineKind::from_name(&v).ok_or(format!(
                        "flag --engine: expected bitparallel or adaptive, got '{v}'"
                    ))?;
                }
                "--memory-budget" => o.memory_budget = Some(parse_bytes(&take()?, flag)?),
                "--nodes" => o.nodes = Some(parse_num(&take()?, flag)?),
                "--timeout" => o.timeout = Some(parse_duration(&take()?, flag)?),
                "--best-effort" => o.best_effort = true,
                "--listen" => o.listen = Some(take()?),
                "--connect" => o.connect = Some(take()?),
                "--graph" => o.graph = Some(take()?),
                "--workers" => o.workers = Some(parse_num(&take()?, flag)?),
                "--session-budget" => o.session_budget = Some(parse_bytes(&take()?, flag)?),
                "--request-timeout" => o.request_timeout = Some(parse_duration(&take()?, flag)?),
                "--idle-evict" => o.idle_evict = Some(parse_duration(&take()?, flag)?),
                "--io-timeout" => o.io_timeout = Some(parse_duration(&take()?, flag)?),
                "--retries" => o.retries = Some(parse_num(&take()?, flag)?),
                "--connect-pool" => o.connect_pool = Some(parse_num(&take()?, flag)?),
                other => return Err(format!("unknown flag '{other}'")),
            }
        }
        Ok(o)
    }

    fn require_input(&self) -> Result<UncertainGraph, String> {
        let path = self.input.as_ref().ok_or("--input is required")?;
        ugraph::sampling::faults::hit(ugraph::sampling::FaultSite::DatasetIo)
            .map_err(|e| format!("cannot read {path}: {e}"))?;
        let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
        gio::read_edge_list(BufReader::new(file)).map_err(|e| e.to_string())
    }
}

fn parse_num<T: std::str::FromStr>(v: &str, flag: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("flag {flag}: invalid value '{v}'"))
}

/// [`ugraph::util::parse_bytes`] with the offending flag prepended.
fn parse_bytes(v: &str, flag: &str) -> Result<usize, String> {
    ugraph::util::parse_bytes(v).map_err(|e| format!("flag {flag}: {e}"))
}

/// [`ugraph::util::parse_duration`] with the offending flag prepended.
fn parse_duration(v: &str, flag: &str) -> Result<std::time::Duration, String> {
    ugraph::util::parse_duration(v).map_err(|e| format!("flag {flag}: {e}"))
}

// ───────────────────────── commands ─────────────────────────

/// Resolves a dataset name (as `generate` and `serve` accept it) to its
/// generator spec, sized by the usual flags.
fn dataset_spec(name: &str, o: &Options) -> Result<DatasetSpec, String> {
    Ok(match name {
        "collins" => DatasetSpec::Collins,
        "gavin" => DatasetSpec::Gavin,
        "krogan" => DatasetSpec::Krogan,
        "dblp" => DatasetSpec::Dblp { scale: o.scale.unwrap_or(0.01) },
        "large-sparse" => DatasetSpec::LargeSparse { nodes: o.nodes.unwrap_or(100_000) },
        other => return Err(format!("unknown dataset '{other}'")),
    })
}

fn cmd_generate(o: &Options) -> Result<(), String> {
    let name = o.dataset.as_deref().ok_or("--dataset is required")?;
    let spec = dataset_spec(name, o)?;
    let d = spec.generate(o.seed);
    let out_path = o.output.as_ref().ok_or("--output is required")?;
    let out = File::create(out_path).map_err(|e| format!("cannot create {out_path}: {e}"))?;
    gio::write_edge_list(&d.graph, out).map_err(|e| e.to_string())?;
    eprintln!("wrote {}: {} nodes, {} edges", out_path, d.graph.num_nodes(), d.graph.num_edges());
    if let Some(gt_path) = &o.ground_truth {
        let gt = d.ground_truth.ok_or("dataset has no ground truth (dblp, large-sparse)")?;
        let mut w = BufWriter::new(
            File::create(gt_path).map_err(|e| format!("cannot create {gt_path}: {e}"))?,
        );
        for complex in &gt {
            let ids: Vec<String> = complex.iter().map(|n| n.to_string()).collect();
            writeln!(w, "{}", ids.join(" ")).map_err(|e| e.to_string())?;
        }
        eprintln!("wrote {gt_path}: {} complexes", gt.len());
    }
    Ok(())
}

fn cmd_stats(o: &Options) -> Result<(), String> {
    let g = o.require_input()?;
    let s = GraphStats::compute(&g);
    println!("{s}");
    println!("prob histogram (10 bins over (0,1]): {:?}", GraphStats::prob_histogram(&g, 10));
    let lcc = ugraph::graph::largest_connected_component(&g);
    println!(
        "largest connected component: {} nodes, {} edges",
        lcc.graph.num_nodes(),
        lcc.graph.num_edges()
    );
    Ok(())
}

/// Builds the typed session request for the CLI's `(algo, k, depth)`
/// triple (MCP/ACP only).
fn build_request(algo: &str, k: usize, depth: Option<u32>) -> Result<ClusterRequest, String> {
    match (algo, depth) {
        ("mcp", None) => Ok(ClusterRequest::mcp(k)),
        ("mcp", Some(d)) => Ok(ClusterRequest::mcp_depth(k, d)),
        ("acp", None) => Ok(ClusterRequest::acp(k)),
        ("acp", Some(d)) => Ok(ClusterRequest::acp_depth(k, d)),
        (other, _) => Err(format!("expected mcp or acp, got '{other}'")),
    }
}

/// The CLI's solver/evaluation configuration: seed + engine, plus the
/// optional memory budget (shared by every pool of the session).
fn session_config(o: &Options) -> ClusterConfig {
    let mut cfg = ClusterConfig::default().with_seed(o.seed).with_engine(o.engine);
    if let Some(bytes) = o.memory_budget {
        cfg = cfg.with_memory_budget(bytes);
    }
    if let Some(t) = o.timeout {
        cfg = cfg.with_timeout(t);
    }
    if o.best_effort {
        cfg = cfg.with_degrade(ugraph::cluster::DegradeMode::BestEffort);
    }
    cfg
}

fn cmd_cluster(o: &Options) -> Result<(), String> {
    let g = o.require_input()?;
    let algo = o.algo.as_deref().ok_or("--algo is required")?;
    let cfg = session_config(o);
    let need_k = || o.k.ok_or(format!("--k is required for {algo}"));
    let clustering: Clustering = match (algo, o.depth) {
        ("mcp" | "acp", depth) => {
            let mut session = UgraphSession::new(&g, cfg).map_err(|e| e.to_string())?;
            let request = build_request(algo, need_k()?, depth)?;
            let r = session.solve(request).map_err(|e| e.to_string())?;
            summarize_solve(&r);
            eprintln!("session: {}", session.stats());
            r.clustering
        }
        ("gmm", _) => gmm(&g, need_k()?, o.seed).map_err(|e| e.to_string())?,
        ("mcl", _) => mcl(&g, &MclConfig::with_inflation(o.inflation.unwrap_or(2.0))).clustering,
        ("kpt", _) => kpt(&g, &KptConfig { edge_threshold: 0.5, seed: o.seed }),
        (other, _) => return Err(format!("unknown algorithm '{other}'")),
    };
    eprintln!(
        "{algo}: {} clusters, {} of {} nodes covered",
        clustering.num_clusters(),
        clustering.covered_count(),
        clustering.num_nodes()
    );
    match &o.output {
        Some(path) => {
            let f = File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
            write_clustering(&clustering, f)?;
            eprintln!("wrote {path}");
        }
        None => write_clustering(&clustering, std::io::stdout())?,
    }
    Ok(())
}

/// Prints one request's schedule summary (guesses, samples, objective,
/// row-cache service).
fn summarize_solve(r: &SolveResult) {
    let c = r.row_cache;
    let objective = match r.request.objective() {
        ugraph::cluster::Objective::MinProb => "p_min",
        ugraph::cluster::Objective::AvgProb => "p_avg",
    };
    let e = r.engine;
    eprintln!(
        "{}: {} guesses over {} samples (q = {:.4}, {objective} est {:.4}) in {:.2?}; row cache: \
         {} hits, {} top-ups, {} full recomputes; finalized {} block(s), {} label-served \
         block-queries",
        r.request,
        r.guesses,
        r.samples_used,
        r.final_q,
        r.objective_estimate,
        r.elapsed,
        c.hits,
        c.topups,
        c.fulls,
        e.finalized_blocks,
        e.label_queries
    );
    if let Some(report) = &r.interrupt {
        eprintln!("warning: best-effort result — {report}");
    }
}

fn cmd_sweep(o: &Options) -> Result<(), String> {
    let g = o.require_input()?;
    let algo = o.algo.as_deref().ok_or("--algo is required")?;
    let k_min = o.k_min.ok_or("--k-min is required")?;
    let k_max = o.k_max.ok_or("--k-max is required")?;
    if k_min < 1 || k_max < k_min {
        return Err(format!("need 1 ≤ k-min ≤ k-max, got {k_min}..{k_max}"));
    }
    let cfg = session_config(o);
    let mut session =
        UgraphSession::new(&g, cfg).map_err(|e| e.to_string())?.with_eval_samples(o.samples);
    println!(
        "{:<4} {:>10} {:>8} {:>8} {:>8} {:>8} {:>6} {:>8} {:>7} {:>6} {:>6} {:>10} {:>6} {:>6} \
         {:>10}",
        "k",
        "objective",
        "guesses",
        "samples",
        "p_min",
        "p_avg",
        "hits",
        "top-ups",
        "fulls",
        "fblk",
        "lblq",
        "bytes",
        "evict",
        "regen",
        "time"
    );
    for k in k_min..=k_max {
        let request = build_request(algo, k, o.depth)?;
        match session.solve(request) {
            Ok(r) => {
                // Measure under the same path semantics as the objective.
                let q = match o.depth {
                    None => session.evaluate(&r.clustering),
                    Some(d) => session.evaluate_depth(&r.clustering, d),
                };
                let c = r.row_cache;
                let e = r.engine;
                // This request's slice of the shared memory ledger.
                let stats = session.stats();
                let m = stats.per_request.last().expect("solve just pushed a record").memory;
                println!(
                    "{:<4} {:>10.4} {:>8} {:>8} {:>8.4} {:>8.4} {:>6} {:>8} {:>7} {:>6} {:>6} \
                     {:>10} {:>6} {:>6} {:>10.2?}",
                    k,
                    r.objective_estimate,
                    r.guesses,
                    r.samples_used,
                    q.p_min,
                    q.p_avg,
                    c.hits,
                    c.topups,
                    c.fulls,
                    e.finalized_blocks,
                    e.label_queries,
                    m.bytes_held,
                    m.shards_evicted,
                    m.shards_regenerated,
                    r.elapsed
                );
                if let Some(report) = &r.interrupt {
                    eprintln!("warning: k = {k} is a best-effort result — {report}");
                }
            }
            // An interruption applies to the whole sweep: stop and exit
            // nonzero. Per-k failures (e.g. no full clustering) keep the
            // old print-and-continue behavior.
            Err(e) if e.interrupt_report().is_some() => return Err(format!("k = {k}: {e}")),
            Err(e) => println!("{k:<4} failed: {e}"),
        }
    }
    eprintln!("session: {}", session.stats());
    Ok(())
}

fn cmd_evaluate(o: &Options) -> Result<(), String> {
    let g = o.require_input()?;
    let path = o.clustering.as_ref().ok_or("--clustering is required")?;
    let f = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let clustering = read_clustering(BufReader::new(f), g.num_nodes())?;
    // One session pool serves both quality and AVPR (grow-only, seeded
    // independently of the solver pools). `--engine` is accepted but moot
    // here: evaluation runs on the session's adaptive eval pool, and no
    // solver request is issued.
    let mut session = UgraphSession::new(&g, session_config(o))
        .map_err(|e| e.to_string())?
        .with_eval_samples(o.samples);
    let q = session_quality(&mut session, &clustering);
    let a = avpr(session.eval_pool(), &clustering);
    println!("k          {}", clustering.num_clusters());
    println!("covered    {}/{}", clustering.covered_count(), clustering.num_nodes());
    println!("p_min      {:.4}", q.p_min);
    println!("p_avg      {:.4}", q.p_avg);
    println!("inner-AVPR {:.4}", a.inner);
    println!("outer-AVPR {:.4}", a.outer);
    if let Some(gt_path) = &o.ground_truth {
        let f = File::open(gt_path).map_err(|e| format!("cannot open {gt_path}: {e}"))?;
        let complexes = read_ground_truth(BufReader::new(f), g.num_nodes())?;
        let m = confusion(&clustering, &complexes);
        println!("TPR        {:.4}", m.tpr());
        println!("FPR        {:.4}", m.fpr());
        println!("precision  {:.4}", m.precision());
        println!("F1         {:.4}", m.f1());
    }
    eprintln!("session: {}", session.stats());
    Ok(())
}

fn cmd_knn(o: &Options) -> Result<(), String> {
    let g = o.require_input()?;
    let source = o.source.ok_or("--source is required")?;
    if source as usize >= g.num_nodes() {
        return Err(format!("source {source} out of range (n = {})", g.num_nodes()));
    }
    let k = o.k.unwrap_or(10);
    let mut pool = BitParallelPool::<4>::new_adaptive(&g, o.seed, 0);
    pool.ensure(o.samples);
    let results = match o.depth {
        None => reliability_knn(&mut pool, NodeId(source), k),
        Some(d) => reliability_knn_within(&mut pool, NodeId(source), k, d),
    };
    for (node, p) in results {
        println!("{node}\t{p:.4}");
    }
    Ok(())
}

// ───────────────────────── serve mode ─────────────────────────

fn cmd_serve(o: &Options) -> Result<(), String> {
    let mut graphs: Vec<(String, Arc<UncertainGraph>)> = Vec::new();
    if let Some(list) = &o.dataset {
        for name in list.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            let d = dataset_spec(name, o)?.generate(o.seed);
            eprintln!(
                "loaded {name}: {} nodes, {} edges",
                d.graph.num_nodes(),
                d.graph.num_edges()
            );
            graphs.push((name.to_string(), Arc::new(d.graph)));
        }
    }
    if let Some(path) = &o.input {
        let g = o.require_input()?;
        let name = o.graph.clone().unwrap_or_else(|| {
            std::path::Path::new(path)
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_else(|| "graph".into())
        });
        eprintln!("loaded {name}: {} nodes, {} edges (from {path})", g.num_nodes(), g.num_edges());
        graphs.push((name, Arc::new(g)));
    }
    if graphs.is_empty() {
        return Err("serve needs --dataset <names> and/or --input graph.txt".into());
    }

    let base = ClusterConfig::default().with_seed(o.seed);
    let config = ServerConfig {
        workers: o.workers.unwrap_or(4).max(1),
        request_timeout: o.request_timeout,
        global_budget: o.memory_budget,
        session_budget: o.session_budget,
        idle_evict: o.idle_evict,
        // Flag omitted: keep the config's stall default rather than
        // turning the hardening off.
        io_timeout: o.io_timeout.or(ServerConfig::default().io_timeout),
    };
    let listen = o.listen.as_deref().unwrap_or(DEFAULT_ADDR);
    let server =
        Server::bind(listen, graphs, base, config).map_err(|e| format!("cannot serve: {e}"))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;

    // Ctrl-C / SIGTERM: the handler only flips a flag; this watcher turns
    // it into a cooperative shutdown (in-flight solves are drained and
    // answered with their interrupt report, not dropped).
    let handle = server.shutdown_handle();
    signals::install();
    std::thread::spawn(move || loop {
        if signals::interrupted() {
            eprintln!("ugraph serve: interrupt received, draining in-flight requests");
            handle.trigger();
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    });

    eprintln!("ugraph serve: listening on {addr} (protocol v{PROTOCOL_VERSION}), Ctrl-C to stop");
    server.run().map_err(|e| e.to_string())?;
    eprintln!("ugraph serve: drained and stopped");
    Ok(())
}

fn cmd_client(action: &str, o: &Options) -> Result<(), String> {
    let addr = o.connect.as_deref().unwrap_or(DEFAULT_ADDR);
    // Seed the retry jitter from the solve seed so a logged schedule is
    // reproducible with the same invocation.
    let policy =
        RetryPolicy { jitter_seed: o.seed, ..RetryPolicy::with_retries(o.retries.unwrap_or(2)) };
    let mut pool = ClientPool::new(addr, o.connect_pool.unwrap_or(1), policy);
    let result = match action {
        "cluster" => client_cluster(&mut pool, o),
        "stats" => client_stats(&mut pool, o),
        other => Err(format!("unknown client action '{other}' (expected cluster or stats)")),
    };
    if pool.reconnects() > 0 {
        eprintln!(
            "ugraph client: rode over {} reconnect(s) ({} dial(s) to {addr})",
            pool.reconnects(),
            pool.dials()
        );
    }
    result
}

/// Renders a server error frame for the terminal.
fn describe_error(e: &ugraph::server::ErrorFrame) -> String {
    let mut s = format!("server error ({:?}): {}", e.code, e.message);
    if let Some(report) = e.interrupt.as_ref().and_then(|i| i.to_report().ok()) {
        s.push_str(&format!(" [{report}]"));
    }
    s
}

/// Renders an exhausted (or terminal) retry loop for the terminal: the
/// final failure, plus the attempt count when there was more than one.
fn describe_failure(report: &RetryReport) -> String {
    let last = match &report.last_error {
        RetryError::Server(frame) => describe_error(frame),
        RetryError::Protocol(e) => e.to_string(),
    };
    if report.attempts > 1 {
        format!(
            "{last} (gave up after {} attempts, {:.0?} total backoff)",
            report.attempts, report.backoff_slept
        )
    } else {
        last
    }
}

fn client_cluster(pool: &mut ClientPool, o: &Options) -> Result<(), String> {
    let graph = match &o.graph {
        Some(name) => name.clone(),
        // No --graph: ask the server what it has; unambiguous iff there
        // is exactly one graph loaded.
        None => {
            let stats = pool.stats(None).map_err(|e| describe_failure(&e))?;
            match stats.graphs.as_slice() {
                [only] => only.clone(),
                [] => return Err("server has no graphs loaded".into()),
                many => {
                    return Err(format!(
                        "server has several graphs loaded ({}); pass --graph",
                        many.join(", ")
                    ))
                }
            }
        }
    };
    let algo = o.algo.as_deref().unwrap_or("mcp");
    let objective = match algo {
        "mcp" => Objective::MinProb,
        "acp" => Objective::AvgProb,
        other => return Err(format!("expected mcp or acp, got '{other}'")),
    };
    let k = o.k.ok_or("--k is required")?;
    let call = ClusterCall {
        graph: graph.clone(),
        engine: o.engine,
        width: BlockWidth::W256,
        objective,
        k: u32::try_from(k).map_err(|_| format!("--k {k} is out of range"))?,
        depth: o.depth.map_or(WireDepth::Unlimited, WireDepth::Uniform),
        deadline_micros: o.timeout.map(|t| t.as_micros() as u64),
    };
    let solve = pool.cluster(&call).map_err(|e| describe_failure(&e))?;
    let clustering = solve.clustering().map_err(|e| e.to_string())?;
    eprintln!(
        "{algo} k={k} on '{graph}': objective est {:.4} (q = {:.4}), {} guesses over {} samples, \
         server time {:.2?}",
        solve.objective_estimate,
        solve.final_q,
        solve.guesses,
        solve.samples_used,
        std::time::Duration::from_micros(solve.elapsed_micros),
    );
    if let Some(report) = solve.interrupt.as_ref().and_then(|i| i.to_report().ok()) {
        eprintln!("warning: best-effort result — {report}");
    }
    match &o.output {
        Some(path) => {
            let f = File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
            write_clustering(&clustering, f)?;
            eprintln!("wrote {path}");
        }
        None => write_clustering(&clustering, std::io::stdout())?,
    }
    Ok(())
}

fn client_stats(pool: &mut ClientPool, o: &Options) -> Result<(), String> {
    let s = pool.stats(o.graph.as_deref()).map_err(|e| describe_failure(&e))?;
    println!("graphs               {}", s.graphs.join(", "));
    println!("connections          {}", s.connections);
    println!("cluster requests     {}", s.cluster_requests);
    println!("stats requests       {}", s.stats_requests);
    println!("protocol errors      {}", s.protocol_errors);
    println!("admission rejections {}", s.admission_rejections);
    println!("deadline rejections  {}", s.deadline_rejections);
    println!("cancellations        {}", s.cancelled_rejections);
    println!("solve errors         {}", s.solve_errors);
    println!("peer stalls          {}", s.peer_stalled);
    println!("sessions evicted     {}", s.sessions_evicted);
    match s.bytes_limit {
        Some(limit) => println!("memory               {} / {} bytes", s.bytes_held, limit),
        None => println!("memory               {} bytes (unbounded)", s.bytes_held),
    }
    for session in &s.sessions {
        println!(
            "session graph={} engine={} in_flight={}",
            session.graph, session.engine, session.in_flight
        );
        if !session.kv.is_empty() {
            println!("  {}", session.kv);
        }
    }
    Ok(())
}

/// SIGINT/SIGTERM without any external crate: a minimal `signal(2)`
/// binding whose handler only stores one atomic flag (async-signal-safe);
/// everything else happens on ordinary threads. This FFI lives in the
/// binary — every library crate keeps `#![forbid(unsafe_code)]`.
mod signals {
    use std::sync::atomic::{AtomicBool, Ordering};

    static INTERRUPTED: AtomicBool = AtomicBool::new(false);

    /// Whether SIGINT/SIGTERM has arrived since [`install`].
    pub fn interrupted() -> bool {
        INTERRUPTED.load(Ordering::SeqCst)
    }

    #[cfg(unix)]
    extern "C" fn on_signal(_signum: i32) {
        INTERRUPTED.store(true, Ordering::SeqCst);
    }

    /// Installs the flag-setting handler for SIGINT and SIGTERM.
    #[cfg(unix)]
    pub fn install() {
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }

    /// No signal wiring off unix; Ctrl-C simply kills the process.
    #[cfg(not(unix))]
    pub fn install() {}
}

// ───────────────────────── formats ─────────────────────────

fn write_clustering<W: Write>(c: &Clustering, w: W) -> Result<(), String> {
    let mut out = BufWriter::new(w);
    writeln!(out, "# node\tcluster\tcenter").map_err(|e| e.to_string())?;
    for u in 0..c.num_nodes() {
        let u = NodeId::from_index(u);
        match c.cluster_of(u) {
            Some(cl) => writeln!(out, "{u}\t{cl}\t{}", c.center(cl)),
            None => writeln!(out, "{u}\t-\t-"),
        }
        .map_err(|e| e.to_string())?;
    }
    out.flush().map_err(|e| e.to_string())
}

fn read_clustering<R: BufRead>(r: R, n: usize) -> Result<Clustering, String> {
    let mut assignment: Vec<Option<u32>> = vec![None; n];
    let mut center_of_cluster: Vec<Option<NodeId>> = Vec::new();
    for (lineno, line) in r.lines().enumerate() {
        let line = line.map_err(|e| e.to_string())?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.len() != 3 {
            return Err(format!("line {}: expected 'node cluster center'", lineno + 1));
        }
        if fields[1] == "-" {
            continue; // outlier
        }
        let node: u32 = parse_num(fields[0], "node")?;
        let cluster: usize = parse_num(fields[1], "cluster")?;
        let center: u32 = parse_num(fields[2], "center")?;
        if node as usize >= n {
            return Err(format!("line {}: node {node} out of range", lineno + 1));
        }
        if center_of_cluster.len() <= cluster {
            center_of_cluster.resize(cluster + 1, None);
        }
        match center_of_cluster[cluster] {
            None => center_of_cluster[cluster] = Some(NodeId(center)),
            Some(c) if c == NodeId(center) => {}
            Some(c) => {
                return Err(format!(
                    "line {}: cluster {cluster} has two centers ({c} and {center})",
                    lineno + 1
                ))
            }
        }
        assignment[node as usize] = Some(cluster as u32);
    }
    let centers: Result<Vec<NodeId>, String> = center_of_cluster
        .into_iter()
        .enumerate()
        .map(|(i, c)| c.ok_or(format!("cluster {i} never appeared")))
        .collect();
    Ok(Clustering::new(centers?, assignment))
}

fn read_ground_truth<R: BufRead>(r: R, n: usize) -> Result<Vec<Vec<NodeId>>, String> {
    let mut complexes = Vec::new();
    for (lineno, line) in r.lines().enumerate() {
        let line = line.map_err(|e| e.to_string())?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut members = Vec::new();
        for tok in line.split_whitespace() {
            let id: u32 = parse_num(tok, "complex member")?;
            if id as usize >= n {
                return Err(format!("line {}: node {id} out of range", lineno + 1));
            }
            members.push(NodeId(id));
        }
        if members.len() >= 2 {
            complexes.push(members);
        }
    }
    Ok(complexes)
}
