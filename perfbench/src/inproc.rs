//! The in-process workloads `ppi-sweep`, `table2-depth` and `budget-large`.
//!
//! Each is a fixed list of requests over fresh sessions — a **pass**. An
//! untraced pass serves every request through `UgraphSession::solve`; a
//! traced pass replays the same requests through
//! `mcp_with_oracle`/`acp_with_oracle`, mirroring the session (one oracle
//! per request shape, built over the pool type and seed stream the session
//! would use and charging `session.ledger()`), with the oracle and its pool
//! inside the timing wrappers of [`crate::trace`]. Evaluation always runs on
//! the session's own `evaluate`/`evaluate_depth` and `eval_pool`.
//!
//! Ops are timed in CPU time of the thread that runs them (see
//! [`crate::cpu`]); their wall latency is printed as a note.

use std::path::Path;
use std::time::Instant;

use ugraph_bench::paper::{COLLINS, GAVIN, KROGAN, TABLE2};
use ugraph_cluster::{
    acp_with_oracle, mcp_with_oracle, AcpInvocation, ClusterConfig, ClusterRequest, Clustering,
    Objective, UgraphSession,
};
use ugraph_datasets::DatasetSpec;
use ugraph_graph::{NodeId, UncertainGraph};
use ugraph_metrics::avpr;
use ugraph_sampling::rng::mix_seed;
use ugraph_sampling::{
    BitParallelPool, BlockWidth, DepthMcOracle, EngineKind, EngineStats, McOracle, MemoryBudget,
    MemoryStats, Oracle, RowCacheStats, RunBudget, RunState,
};

use crate::cpu;
use crate::metrics::{EndToEnd, PerLayer};
use crate::report::{median, mib, ratio, rss_peak_mib, Digest, Latency, Outcome, Stream};
use crate::trace::{
    self, maybe_span, span, Layer, TimedEngine, TimedOracle, Totals, Trace, Tracer,
};

/// Dataset seed of the PPI-like graphs: the experiment harness's default.
pub const PPI_GRAPH_SEED: u64 = 1;

/// Dataset seed of `budget-large`'s graph: the `LargeSparse(10 000)`
/// instance of the Figure 4 scaling bench.
pub const BUDGET_GRAPH_SEED: u64 = 31;

/// `budget-large`'s ledger limit: near half of the 120 MiB unbounded ledger
/// peak of the same request sequence.
pub const BUDGET_BYTES: usize = 60 << 20;

/// Evaluation worlds of `table2-depth`. Depth evaluation runs one BFS per
/// center and world on the scalar pool; at the default 512 worlds it costs
/// ~80 s per pass at k = 547, ten times the solves the workload measures.
pub const TABLE2_EVAL_SAMPLES: usize = 16;

/// How an op evaluates its clustering.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Eval {
    /// `evaluate`.
    Quality,
    /// `evaluate`, then `avpr` on `eval_pool()`.
    QualityAvpr,
    /// `evaluate_depth` at the request's depth.
    Depth,
}

/// One request of a pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Op {
    objective: Objective,
    k: usize,
    depth: Option<u32>,
}

impl Op {
    fn request(&self) -> ClusterRequest {
        match (self.objective, self.depth) {
            (Objective::MinProb, None) => ClusterRequest::mcp(self.k),
            (Objective::MinProb, Some(d)) => ClusterRequest::mcp_depth(self.k, d),
            (Objective::AvgProb, None) => ClusterRequest::acp(self.k),
            (Objective::AvgProb, Some(d)) => ClusterRequest::acp_depth(self.k, d),
        }
    }

    /// `(d_select, d_cover)` exactly as `UgraphSession` resolves the
    /// request; `None` is unlimited path length.
    fn depths(&self, config: &ClusterConfig) -> Option<(u32, u32)> {
        let d = self.depth?;
        let d_select = match (self.objective, config.acp_invocation) {
            (Objective::AvgProb, AcpInvocation::Theory) => (d / 3).max(1),
            _ => d,
        };
        Some((d_select.min(d), d))
    }
}

/// One fresh session of a pass and the requests it serves.
#[derive(Clone, Debug)]
struct SessionPlan {
    graph: usize,
    budget: Option<usize>,
    eval_samples: Option<usize>,
    eval: Eval,
    ops: Vec<Op>,
}

/// An in-process workload: the datasets it generates and the sessions of
/// one pass.
#[derive(Clone, Debug)]
pub struct Plan {
    datasets: Vec<(DatasetSpec, u64)>,
    sessions: Vec<SessionPlan>,
}

fn sweep(ks: &[usize], depth: Option<u32>) -> Vec<Op> {
    [Objective::MinProb, Objective::AvgProb]
        .into_iter()
        .flat_map(|objective| ks.iter().map(move |&k| Op { objective, k, depth }))
        .collect()
}

// The graphs are fixed instances and the run seed orders requests that do
// not share solver state (sessions; oracles of different shapes; ACP after
// the MCP sweep). Graph and solver seeds change how many worlds MCP needs:
// `p_min` is a minimum over thousands of nodes, and whether it clears the
// guess at q = 0.2 flips a request between 251 and 2 048 worlds, so a
// seeded graph would change the work of a pass by up to 2.5×. Reordering
// independent requests keeps the work of a pass fixed.
impl Plan {
    /// Figures 1–3: Collins-, Gavin- and Krogan-like graphs, one cold
    /// unbounded session each (in seeded order), MCP then ACP at the
    /// paper's three k values.
    pub fn ppi_sweep(seed: u64) -> Plan {
        let sets = [
            (DatasetSpec::Collins, COLLINS.ks),
            (DatasetSpec::Gavin, GAVIN.ks),
            (DatasetSpec::Krogan, KROGAN.ks),
        ];
        let mut sessions: Vec<SessionPlan> = sets
            .iter()
            .enumerate()
            .map(|(graph, (_, ks))| SessionPlan {
                graph,
                budget: None,
                eval_samples: None,
                eval: Eval::QualityAvpr,
                ops: sweep(ks, None),
            })
            .collect();
        Stream::new(seed).shuffle(&mut sessions);
        Plan {
            datasets: sets.iter().map(|(spec, _)| (spec.clone(), PPI_GRAPH_SEED)).collect(),
            sessions,
        }
    }

    /// Table 2: one Krogan-like session, k = 547, MCP and ACP at depths
    /// 2, 3, 4, 6 and 8 in seeded order (each shape has its own oracle).
    pub fn table2_depth(seed: u64) -> Plan {
        let mut ops: Vec<Op> = [Objective::MinProb, Objective::AvgProb]
            .into_iter()
            .flat_map(|objective| {
                TABLE2.depths.into_iter().map(move |d| Op {
                    objective,
                    k: TABLE2.k,
                    depth: Some(d),
                })
            })
            .collect();
        Stream::new(seed).shuffle(&mut ops);
        Plan {
            datasets: vec![(DatasetSpec::Krogan, PPI_GRAPH_SEED)],
            sessions: vec![SessionPlan {
                graph: 0,
                budget: None,
                eval_samples: Some(TABLE2_EVAL_SAMPLES),
                eval: Eval::Depth,
                ops,
            }],
        }
    }

    /// Figure 4's size axis under a budget: `LargeSparse(10 000)`, MCP for
    /// k = 2..8, then ACP for k = 2..8 in seeded order, in one session.
    pub fn budget_large(seed: u64) -> Plan {
        let mut ops = sweep(&[2, 3, 4, 5, 6, 7, 8], None);
        Stream::new(seed).shuffle(&mut ops[7..]);
        Plan {
            datasets: vec![(DatasetSpec::LargeSparse { nodes: 10_000 }, BUDGET_GRAPH_SEED)],
            sessions: vec![SessionPlan {
                graph: 0,
                budget: Some(BUDGET_BYTES),
                eval_samples: None,
                eval: Eval::Quality,
                ops,
            }],
        }
    }

    fn generate(&self) -> Vec<UncertainGraph> {
        self.datasets.iter().map(|(spec, seed)| spec.generate(*seed).graph).collect()
    }

    fn ops_per_pass(&self) -> usize {
        self.sessions.iter().map(|s| s.ops.len()).sum()
    }
}

/// The per-request counters `UgraphSession` keeps in its `RequestRecord`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Counters {
    guesses: usize,
    samples_used: usize,
    row_cache: RowCacheStats,
    engine: EngineStats,
    memory: MemoryStats,
}

/// A solver answer, whichever path produced it.
struct Answer {
    clustering: Clustering,
    assign_probs: Vec<f64>,
    objective: f64,
    final_q: f64,
    interrupted: bool,
}

impl Answer {
    /// [`check_clustering`] for this op.
    fn check(&self, op: &Op) -> Result<(), String> {
        check_clustering(&self.clustering, op.objective, op.k, self.interrupted)
    }

    fn digest(&self, d: &mut Digest) {
        let c = &self.clustering;
        for center in c.centers() {
            d.u64(u64::from(center.0));
        }
        for u in 0..c.num_nodes() {
            d.u64(c.cluster_of(NodeId::from_index(u)).map_or(u64::MAX, |i| i as u64));
        }
        for &p in &self.assign_probs {
            d.f64(p);
        }
        d.f64(self.objective);
        d.f64(self.final_q);
    }
}

/// The check every answer passes, served or in process: a valid clustering
/// with `k` clusters, full for MCP, from a solve that ran to completion.
pub fn check_clustering(
    clustering: &Clustering,
    objective: Objective,
    k: usize,
    interrupted: bool,
) -> Result<(), String> {
    clustering.validate()?;
    if clustering.num_clusters() != k {
        return Err(format!("{} clusters, asked for {k}", clustering.num_clusters()));
    }
    if objective == Objective::MinProb && !clustering.is_full() {
        return Err("MCP clustering is not full".into());
    }
    if interrupted {
        return Err("solve was interrupted".into());
    }
    Ok(())
}

/// What one op left behind.
#[derive(Clone, Debug)]
struct OpRecord {
    label: String,
    /// Digest of the answer and its evaluation.
    answer: u64,
    counters: Counters,
    /// Wall time of solve, check and evaluation.
    latency_s: f64,
    /// CPU time of the same, on the one thread that ran it.
    cpu_s: f64,
    ledger_after: usize,
    /// Failed checks.
    errors: Vec<String>,
}

/// One pass: its ops, wall time and relabelling totals (traced only).
#[derive(Clone, Debug, Default)]
struct Pass {
    ops: Vec<OpRecord>,
    wall_s: f64,
    /// Lanes finalized and worlds held by the unlimited-depth solver pools
    /// at the end of each session.
    lanes: usize,
    worlds: usize,
}

/// The session's solver path, replayed from outside through timing
/// wrappers.
struct Mirror<'g> {
    graph: &'g UncertainGraph,
    config: ClusterConfig,
    ledger: MemoryBudget,
    tracer: Tracer,
    oracles: Vec<ShapeOracle<'g>>,
}

/// An oracle and the request shape it serves: objective and depths.
type ShapeOracle<'g> = (Objective, Option<(u32, u32)>, TimedOracle<'g>);

/// The session's private seed tags (`crates/core/src/session.rs`): copied,
/// not imported, so the traced run's fidelity check is what proves them.
fn seed_tag(objective: Objective, depth_limited: bool) -> u64 {
    match (objective, depth_limited) {
        (Objective::MinProb, false) => 0x4d43_5031,
        (Objective::MinProb, true) => 0x4d43_5044,
        (Objective::AvgProb, false) => 0x4143_5031,
        (Objective::AvgProb, true) => 0x4143_5044,
    }
}

impl<'g> Mirror<'g> {
    fn new(session: &UgraphSession<'g>, tracer: Tracer) -> Self {
        let config = session.config().clone();
        // The mirror builds only the default backend and budget; the
        // benchmark never configures others.
        assert!(
            config.engine == EngineKind::Adaptive
                && config.block_width == BlockWidth::W256
                && !config.shared_pool
                && config.timeout.is_none()
                && config.cancel_token.is_none(),
            "the traced replay mirrors the default session configuration only"
        );
        Mirror {
            graph: session.graph(),
            config,
            ledger: session.ledger().clone(),
            tracer,
            oracles: Vec::new(),
        }
    }

    fn oracle(
        &self,
        objective: Objective,
        depths: Option<(u32, u32)>,
    ) -> Result<TimedOracle<'g>, String> {
        let cfg = &self.config;
        let seed = mix_seed(cfg.seed, seed_tag(objective, depths.is_some()));
        let pool = BitParallelPool::<4>::new_adaptive(self.graph, seed, cfg.threads);
        let engine = Box::new(TimedEngine::new(pool, self.tracer.clone()));
        let inner: Box<dyn Oracle + 'g> = match depths {
            None => Box::new(
                McOracle::from_engine(engine, cfg.schedule, cfg.epsilon)
                    .with_row_cache(cfg.row_cache)
                    .with_memory_budget(self.ledger.clone()),
            ),
            Some((d_select, d_cover)) => Box::new(
                DepthMcOracle::from_engine(engine, cfg.schedule, cfg.epsilon, d_select, d_cover)
                    .map_err(|e| e.to_string())?
                    .with_row_cache(cfg.row_cache)
                    .with_memory_budget(self.ledger.clone()),
            ),
        };
        Ok(TimedOracle::new(inner, self.tracer.clone()))
    }

    /// `UgraphSession::solve`, step for step.
    fn solve(&mut self, op: &Op) -> Result<(Answer, Counters), String> {
        let depths = op.depths(&self.config);
        let idx = match self.oracles.iter().position(|(o, d, _)| *o == op.objective && *d == depths)
        {
            Some(i) => i,
            None => {
                let oracle = self.oracle(op.objective, depths)?;
                self.oracles.push((op.objective, depths, oracle));
                self.oracles.len() - 1
            }
        };
        let run = RunState::new(RunBudget::unlimited());
        let mem_before = self.ledger.stats();
        let oracle = &mut self.oracles[idx].2;
        let cache_before = oracle.cache_stats();
        let engine_before = oracle.engine_stats();
        oracle.begin_request();
        oracle.set_run_state(run);
        let cfg = &self.config;
        let (answer, guesses, samples_used, row_cache, engine) =
            span(&self.tracer, Layer::Driver, 0, || match op.objective {
                Objective::MinProb => mcp_with_oracle(oracle, op.k, cfg).map(|r| {
                    let a = Answer {
                        clustering: r.clustering,
                        assign_probs: r.assign_probs,
                        objective: r.min_prob_estimate,
                        final_q: r.final_q,
                        interrupted: r.interrupt.is_some(),
                    };
                    (a, r.guesses, r.samples_used, r.row_cache, r.engine)
                }),
                Objective::AvgProb => acp_with_oracle(oracle, op.k, cfg).map(|r| {
                    let a = Answer {
                        clustering: r.clustering,
                        assign_probs: r.assign_probs,
                        objective: r.avg_prob_estimate,
                        final_q: r.final_q,
                        interrupted: r.interrupt.is_some(),
                    };
                    (a, r.guesses, r.samples_used, r.row_cache, r.engine)
                }),
            })
            .map_err(|e| e.to_string())?;
        let counters = Counters {
            guesses,
            samples_used,
            row_cache: row_cache.since(cache_before),
            engine: engine.since(engine_before),
            memory: self.ledger.stats().since(&mem_before),
        };
        Ok((answer, counters))
    }

    /// Lanes finalized and worlds held by the unlimited-depth pools.
    fn relabelling(&self) -> (usize, usize) {
        self.oracles
            .iter()
            .filter(|(_, depths, _)| depths.is_none())
            .fold((0, 0), |(l, w), (_, _, o)| {
                (l + o.engine_stats().finalized_lanes, w + o.pool_samples())
            })
    }
}

fn solve_untraced(session: &mut UgraphSession<'_>, op: &Op) -> Result<(Answer, Counters), String> {
    let mem_before = session.ledger().stats();
    let r = session.solve(op.request()).map_err(|e| e.to_string())?;
    let counters = Counters {
        guesses: r.guesses,
        samples_used: r.samples_used,
        row_cache: r.row_cache,
        engine: r.engine,
        memory: session.ledger().stats().since(&mem_before),
    };
    let answer = Answer {
        clustering: r.clustering,
        assign_probs: r.assign_probs,
        objective: r.objective_estimate,
        final_q: r.final_q,
        interrupted: r.interrupt.is_some(),
    };
    Ok((answer, counters))
}

fn evaluate(
    session: &mut UgraphSession<'_>,
    eval: Eval,
    op: &Op,
    clustering: &Clustering,
    tracer: Option<&Tracer>,
    d: &mut Digest,
) {
    let quality = maybe_span(tracer, Layer::Evaluate, || match (eval, op.depth) {
        (Eval::Depth, Some(depth)) => session.evaluate_depth(clustering, depth),
        _ => session.evaluate(clustering),
    });
    d.f64(quality.p_min);
    d.f64(quality.p_avg);
    d.u64(quality.samples as u64);
    if eval == Eval::QualityAvpr {
        let a = maybe_span(tracer, Layer::Avpr, || avpr(session.eval_pool(), clustering));
        d.f64(a.inner);
        d.f64(a.outer);
    }
}

/// Runs one pass over fresh sessions: untraced through
/// `UgraphSession::solve`, traced through the [`Mirror`].
fn run_pass(plan: &Plan, graphs: &[UncertainGraph], tracer: Option<&Tracer>) -> Pass {
    let t0 = Instant::now();
    let mut pass = Pass::default();
    for sp in &plan.sessions {
        let mut config = crate::solver_config();
        if let Some(bytes) = sp.budget {
            config = config.with_memory_budget(bytes);
        }
        let mut session = UgraphSession::new(&graphs[sp.graph], config)
            .expect("the default configuration is valid");
        if let Some(samples) = sp.eval_samples {
            session.set_eval_samples(samples);
        }
        let mut mirror = tracer.map(|t| Mirror::new(&session, t.clone()));
        for op in &sp.ops {
            let op_span = tracer.map(|t| t.borrow_mut().begin_op());
            let start = Instant::now();
            let cpu_start = cpu::thread_s();
            let solved = match mirror.as_mut() {
                Some(m) => m.solve(op),
                None => solve_untraced(&mut session, op),
            };
            let mut d = Digest::default();
            let mut errors = Vec::new();
            let mut counters = Counters::default();
            match solved {
                Ok((answer, c)) => {
                    counters = c;
                    if let Err(why) = answer.check(op) {
                        errors.push(why);
                    }
                    answer.digest(&mut d);
                    evaluate(&mut session, sp.eval, op, &answer.clustering, tracer, &mut d);
                }
                Err(why) => errors.push(why),
            }
            let cpu_s = cpu::thread_s() - cpu_start;
            let latency_s = start.elapsed().as_secs_f64();
            if let (Some(t), Some(id)) = (tracer, op_span) {
                t.borrow_mut().exit(id, 0);
            }
            pass.ops.push(OpRecord {
                label: op.request().to_string(),
                answer: d.value(),
                counters,
                latency_s,
                cpu_s,
                ledger_after: session.ledger().bytes_held(),
                errors,
            });
        }
        if let Some(m) = &mirror {
            let (lanes, worlds) = m.relabelling();
            pass.lanes += lanes;
            pass.worlds += worlds;
        }
    }
    pass.wall_s = t0.elapsed().as_secs_f64();
    pass
}

/// In-process set-up is timed in bursts of at least this long: one before
/// the first pass and one after every pass, so that its median covers the
/// host's state over the whole run, as the ops' medians do. Timed in one
/// burst, its median moved by a third between runs.
const SETUP_BURST_S: f64 = 0.2;

/// Untraced passes until another would overrun `budget_s` (at least one),
/// each followed by a set-up burst that appends to `setup_times`.
fn run_passes(
    plan: &Plan,
    graphs: &[UncertainGraph],
    budget_s: f64,
    setup_times: &mut Vec<f64>,
) -> Vec<Pass> {
    let t0 = Instant::now();
    let mut passes = Vec::new();
    loop {
        passes.push(run_pass(plan, graphs, None));
        setup_burst(|| plan.generate(), SETUP_BURST_S, setup_times);
        let elapsed = t0.elapsed().as_secs_f64();
        if elapsed + elapsed / passes.len() as f64 > budget_s {
            return passes;
        }
    }
}

/// Generates the datasets repeatedly, at least 3 times and for at least
/// `secs`, appends the CPU time of each generation to `times`, and returns
/// the last graphs.
pub fn setup_burst(
    generate: impl Fn() -> Vec<UncertainGraph>,
    secs: f64,
    times: &mut Vec<f64>,
) -> Vec<UncertainGraph> {
    let (t0, first) = (Instant::now(), times.len());
    loop {
        let start = cpu::thread_s();
        let graphs = generate();
        times.push(cpu::thread_s() - start);
        if times.len() - first >= 3 && t0.elapsed().as_secs_f64() >= secs {
            return graphs;
        }
    }
}

/// Checks every op of `passes`: its own checks, and equality of answer and
/// counters with the first pass (fresh sessions make passes repeat exactly).
fn check_passes(passes: &[Pass], out: &mut Outcome) {
    let first = &passes[0].ops;
    for (p, pass) in passes.iter().enumerate() {
        for (op, base) in pass.ops.iter().zip(first) {
            let mut errors = op.errors.clone();
            if p > 0 && (op.answer != base.answer || op.counters != base.counters) {
                errors.push(format!("pass {p} differs from pass 0"));
            }
            out.check(&op.label, if errors.is_empty() { Ok(()) } else { Err(errors.join("; ")) });
        }
    }
}

/// A pass's time in `field`, rebuilt from each op's median over the passes:
/// a pass slowed by interference then moves no op's median as long as most
/// passes are clean.
fn median_pass(passes: &[Pass], field: fn(&OpRecord) -> f64) -> f64 {
    (0..passes[0].ops.len())
        .map(|i| median(&passes.iter().map(|p| field(&p.ops[i])).collect::<Vec<_>>()))
        .sum()
}

/// Digest of a pass's answers, in request order.
fn pass_digest(pass: &Pass) -> u64 {
    let mut d = Digest::default();
    for op in &pass.ops {
        d.u64(op.answer);
    }
    d.value()
}

/// Runs an in-process workload for `seconds` and reports its end-to-end
/// metrics, or with `traced`, its per-layer metrics.
pub fn run(
    name: &str,
    plan: &Plan,
    seconds: f64,
    traced: bool,
    expected_digest: Option<u64>,
    out: &mut Outcome,
) {
    let mut setup_times = Vec::new();
    let graphs = setup_burst(|| plan.generate(), SETUP_BURST_S, &mut setup_times);
    let budget_s = if traced { seconds / 2.0 } else { seconds };
    let passes = run_passes(plan, &graphs, budget_s, &mut setup_times);
    let generate_s = median(&setup_times);
    check_passes(&passes, out);
    let digest = pass_digest(&passes[0]);
    let walls: Vec<String> = passes.iter().map(|p| format!("{:.2}", p.wall_s)).collect();
    let cpus: Vec<String> = passes
        .iter()
        .map(|p| format!("{:.2}", p.ops.iter().map(|o| o.cpu_s).sum::<f64>()))
        .collect();
    out.notes.push(format!(
        "{name}: {} pass(es) of {} ops taking [{}] s wall, [{}] s CPU in ops, answer digest \
         {digest:#018x}",
        passes.len(),
        plan.ops_per_pass(),
        walls.join(", "),
        cpus.join(", ")
    ));
    if let Some(expected) = expected_digest {
        out.check(
            "answer digest for the default seed",
            if digest == expected {
                Ok(())
            } else {
                Err(format!("{digest:#018x}, recorded {expected:#018x}"))
            },
        );
    }
    let ops: Vec<&OpRecord> = passes.iter().flat_map(|p| &p.ops).collect();
    if !traced {
        let latency = Latency::of(&ops.iter().map(|o| o.latency_s * 1e3).collect::<Vec<_>>());
        out.notes.push(format!(
            "wall: {:.3} ops/s from per-op medians; latency p50 {:.3} ms, p95 {:.3} ms over {} \
             ops ({} beyond p95{})",
            plan.ops_per_pass() as f64 / median_pass(&passes, |o| o.latency_s),
            latency.p50,
            latency.p95,
            latency.n,
            latency.beyond_p95,
            if latency.tail_supported() {
                ""
            } else {
                "; below 10, so p95 is the heaviest op shapes, not a tail estimate"
            }
        ));
        out.metrics = EndToEnd {
            setup_s: generate_s,
            cpu_ms_per_op: median_pass(&passes, |o| o.cpu_s) * 1e3 / plan.ops_per_pass() as f64,
            ledger_peak_mb: mib(ops.iter().map(|o| o.ledger_after).max().unwrap_or(0)),
            rss_peak_mb: rss_peak_mib(),
        }
        .metrics();
        return;
    }

    // Traced replay of the same passes, checked op by op against the
    // untraced answers and counters.
    let tracer = Trace::new();
    let traced_passes: Vec<Pass> =
        passes.iter().map(|_| run_pass(plan, &graphs, Some(&tracer))).collect();
    for (u, t) in passes.iter().flat_map(|p| &p.ops).zip(traced_passes.iter().flat_map(|p| &p.ops))
    {
        let same = u.answer == t.answer && u.counters == t.counters;
        out.check(
            &format!("traced {}", t.label),
            if !t.errors.is_empty() {
                Err(t.errors.join("; "))
            } else if same {
                Ok(())
            } else {
                Err(format!(
                    "traced answer or counters differ: {:?} vs {:?}",
                    t.counters, u.counters
                ))
            },
        );
    }
    let cpu_of = |ps: &[Pass]| ps.iter().flat_map(|p| &p.ops).map(|o| o.cpu_s).sum::<f64>();
    let (untraced_cpu, traced_cpu) = (cpu_of(&passes), cpu_of(&traced_passes));
    let t = tracer.borrow();
    let spans = t.spans();
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("traces").join(format!("{name}.tsv"));
    match trace::write_spans(&path, spans) {
        Ok(()) => out.notes.push(format!("{} spans written to {}", spans.len(), path.display())),
        Err(e) => out.notes.push(format!("spans not written: {e}")),
    }
    out.metrics = per_layer(
        &traced_passes,
        &Totals::of(spans),
        generate_s,
        (traced_cpu - untraced_cpu) / untraced_cpu,
    )
    .metrics();
}

fn per_layer(passes: &[Pass], totals: &Totals, generate_s: f64, overhead: f64) -> PerLayer {
    let ops: Vec<&OpRecord> = passes.iter().flat_map(|p| &p.ops).collect();
    let n = ops.len() as f64;
    let sum =
        |f: &dyn Fn(&Counters) -> usize| ops.iter().map(|o| f(&o.counters)).sum::<usize>() as f64;
    let per_op = |v: f64| v / n;
    let calls = |l: Layer| totals.calls[l as usize] as f64;
    let work = |l: Layer| totals.work[l as usize] as f64;
    let rows_served = sum(&|c| c.row_cache.rows_served());
    PerLayer {
        generate_s,
        ensure_s: per_op(totals.secs(Layer::EngineEnsure)),
        worlds_generated: per_op(work(Layer::EngineEnsure)),
        count_s: per_op(totals.secs(Layer::EngineCount)),
        count_calls: per_op(calls(Layer::EngineCount)),
        rows_counted: per_op(work(Layer::EngineCount)),
        pair_s: per_op(totals.secs(Layer::EnginePair)),
        pair_calls: per_op(calls(Layer::EnginePair)),
        label_queries: per_op(sum(&|c| c.engine.label_queries)),
        mask_queries: per_op(sum(&|c| c.engine.mask_queries)),
        finalized_lanes: per_op(sum(&|c| c.engine.finalized_lanes)),
        relabel_ratio: ratio(
            passes.iter().map(|p| p.lanes).sum::<usize>() as f64,
            passes.iter().map(|p| p.worlds).sum::<usize>() as f64,
        ),
        shards_evicted: per_op(sum(&|c| c.memory.shards_evicted as usize)),
        shards_regenerated: per_op(sum(&|c| c.memory.shards_regenerated as usize)),
        peak_bytes: ops.iter().map(|o| o.ledger_after).max().unwrap_or(0) as f64,
        prepare_s: per_op(totals.secs(Layer::OraclePrepare)),
        prepare_calls: per_op(calls(Layer::OraclePrepare)),
        rows_s: per_op(totals.secs(Layer::OracleRows)),
        rows_requested: per_op(work(Layer::OracleRows)),
        oracle_self_s: per_op(totals.own_secs(&[
            Layer::OraclePrepare,
            Layer::OracleRows,
            Layer::OraclePair,
        ])),
        cache_hit_ratio: ratio(sum(&|c| c.row_cache.hits), rows_served),
        cache_fulls: per_op(sum(&|c| c.row_cache.fulls)),
        driver_self_s: per_op(totals.own_secs(&[Layer::Driver])),
        guesses: per_op(sum(&|c| c.guesses)),
        samples_used: per_op(sum(&|c| c.samples_used)),
        evaluate_s: per_op(totals.secs(Layer::Evaluate)),
        avpr_s: per_op(totals.secs(Layer::Avpr)),
        trace_overhead_frac: overhead,
        ..PerLayer::default()
    }
}
