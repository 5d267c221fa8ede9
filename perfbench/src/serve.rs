//! The served workload `serve-mixed`: an in-process `Server` over the
//! Collins- and Krogan-like graphs, driven by an open loop of seeded
//! Poisson arrivals from client threads that each own a 1-slot
//! `ClientPool`.
//!
//! Latency runs from each request's due time to its decoded answer, so a
//! stall also charges the requests queued behind it. Every answer is checked
//! against an in-process `UgraphSession` solve of the same request, run
//! after the timed phase.
//!
//! The end-to-end cost is the CPU time of the whole process (clients,
//! protocol, workers and sessions) per call, which the host's other tenants
//! do not move (see [`crate::cpu`]). Wall latency depends on how fast the
//! host wakes each of the threads a call passes through, so it is printed
//! as a note and reported per layer by traced runs.

use std::path::Path;
use std::sync::{Arc, Barrier, OnceLock};
use std::thread;
use std::time::{Duration, Instant};

use ugraph_cluster::{Objective, UgraphSession};
use ugraph_datasets::DatasetSpec;
use ugraph_graph::UncertainGraph;
use ugraph_sampling::rng::mix_seed;
use ugraph_sampling::{BlockWidth, EngineKind};
use ugraph_server::protocol::encode_response;
use ugraph_server::{
    ClientPool, ClusterCall, Response, RetryPolicy, Server, ServerConfig, SessionRegistry,
    WireDepth, WireSolve,
};

use crate::cpu;
use crate::inproc::{check_clustering, setup_burst, PPI_GRAPH_SEED};
use crate::metrics::{EndToEnd, PerLayer};
use crate::report::{median, mib, ratio, rss_peak_mib, Digest, Latency, Outcome, Stream};
use crate::trace::{write_spans, Layer, Span};

/// Offered load in requests per second across all clients: a tenth of the
/// ~120 calls/s that 2 clients sustain closed-loop against this code on a
/// 2-core x86-64 container. At half that rate, queueing on the
/// shared machine moved the median latency 3× between runs; at a fifth,
/// queueing coincidences moved the p95 by 40%.
pub const RATE_PER_S: f64 = 12.0;

/// Server worker threads, capped by the cores available.
const WORKERS: usize = 2;

/// Client threads, one connection each, capped by the workers: a worker
/// serves one connection until it closes, so an extra connection would wait
/// indefinitely.
const CLIENTS: usize = 2;
const _: () = assert!(CLIENTS <= WORKERS);

/// Graphs served, by catalog name.
const GRAPHS: [&str; 2] = ["collins", "krogan"];

/// The served graphs: fixed instances, as in process (see
/// [`PPI_GRAPH_SEED`]); the run seed draws the schedule.
fn generate() -> Vec<UncertainGraph> {
    [DatasetSpec::Collins, DatasetSpec::Krogan]
        .iter()
        .map(|spec| spec.generate(PPI_GRAPH_SEED).graph)
        .collect()
}

/// The request mix: both graphs × {mcp, acp} × k ∈ 2..=40, graph-major.
fn requests() -> Vec<ClusterCall> {
    let mut calls = Vec::new();
    for graph in GRAPHS {
        for objective in [Objective::MinProb, Objective::AvgProb] {
            for k in 2..=40 {
                calls.push(ClusterCall {
                    graph: graph.to_string(),
                    engine: EngineKind::Adaptive,
                    width: BlockWidth::W256,
                    objective,
                    k,
                    depth: WireDepth::Unlimited,
                    deadline_micros: None,
                });
            }
        }
    }
    calls
}

/// One scheduled request of a client.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Arrival {
    /// Offset from the start of the timed phase, in seconds.
    pub due_s: f64,
    /// Index into the request mix.
    pub request: usize,
}

/// The open-loop schedule, one arrival list per client. The mix is sent
/// whole `round(rate · seconds / kinds)` times (at least once) in a seeded
/// order, dealt round-robin to the clients, so every seed offers the same
/// requests and the same load. Each client's arrivals sit at sorted uniform
/// offsets in `[0, seconds)`: a Poisson process conditioned on its count.
pub fn schedule(
    seed: u64,
    clients: usize,
    rate: f64,
    seconds: f64,
    kinds: usize,
) -> Vec<Vec<Arrival>> {
    let rounds = ((rate * seconds / kinds as f64).round() as usize).max(1);
    let mut requests: Vec<usize> = (0..rounds).flat_map(|_| 0..kinds).collect();
    Stream::new(mix_seed(seed, 0)).shuffle(&mut requests);
    (0..clients)
        .map(|c| {
            let mine: Vec<usize> = requests.iter().skip(c).step_by(clients).copied().collect();
            let mut times = Stream::new(mix_seed(seed, 1 + c as u64));
            let mut due: Vec<f64> = mine.iter().map(|_| times.unit() * seconds).collect();
            due.sort_by(f64::total_cmp);
            due.into_iter().zip(mine).map(|(due_s, request)| Arrival { due_s, request }).collect()
        })
        .collect()
}

/// Digest of a served or reference answer: clustering, probabilities,
/// estimates and the guess trace, which do not depend on session history.
fn answer_digest(w: &WireSolve) -> u64 {
    let mut d = Digest::default();
    for &c in &w.centers {
        d.u64(u64::from(c));
    }
    for &a in &w.assignment {
        d.u64(u64::from(a));
    }
    for &p in &w.assign_probs {
        d.f64(p);
    }
    d.f64(w.objective_estimate);
    d.f64(w.final_q);
    d.u64(w.guesses);
    d.u64(w.samples_used);
    d.value()
}

/// A served answer that passed its structural checks.
#[derive(Clone, Debug)]
struct Served {
    answer: u64,
    solve_s: f64,
    response_bytes: usize,
    row_cache: [u64; 3],
    engine: [u64; 4],
    guesses: u64,
    samples_used: u64,
}

fn served(call: &ClusterCall, w: &WireSolve, measure_bytes: bool) -> Result<Served, String> {
    let clustering = w.clustering().map_err(|e| e.to_string())?;
    check_clustering(&clustering, call.objective, call.k as usize, w.interrupt.is_some())?;
    let response_bytes =
        if measure_bytes { encode_response(&Response::Cluster(w.clone())).len() } else { 0 };
    Ok(Served {
        answer: answer_digest(w),
        solve_s: w.elapsed_micros as f64 * 1e-6,
        response_bytes,
        row_cache: w.row_cache,
        engine: w.engine,
        guesses: w.guesses,
        samples_used: w.samples_used,
    })
}

/// One call as the client saw it. Times are seconds from the phase start.
#[derive(Clone, Debug)]
struct Call {
    request: usize,
    due_s: f64,
    sent_s: f64,
    done_s: f64,
    result: Result<Served, String>,
    ledger_after: usize,
}

/// What one client thread did.
#[derive(Debug, Default)]
struct ClientLog {
    warm: Vec<Call>,
    phases: Vec<Vec<Call>>,
    dials: u64,
    reconnects: u64,
}

struct Shared<'a> {
    addr: String,
    calls: &'a [ClusterCall],
    registry: Arc<SessionRegistry>,
    barrier: Barrier,
    starts: Vec<OnceLock<Instant>>,
    /// Whether phase `p` measures response sizes (the traced phase).
    measure_bytes: Vec<bool>,
}

fn issue(
    pool: &mut ClientPool,
    shared: &Shared<'_>,
    request: usize,
    measure_bytes: bool,
) -> Result<Served, String> {
    let call = &shared.calls[request];
    let wire = pool.cluster(call).map_err(|e| e.to_string())?;
    served(call, &wire, measure_bytes)
}

/// Warms this client's share of the mix, then runs each phase's schedule
/// open loop from a start instant shared by all clients.
fn client(shared: &Shared<'_>, warm: &[usize], schedules: &[Vec<Arrival>]) -> ClientLog {
    let mut pool = ClientPool::new(shared.addr.clone(), 1, RetryPolicy::default());
    let mut log = ClientLog::default();
    let t_warm = Instant::now();
    for &request in warm {
        let sent_s = t_warm.elapsed().as_secs_f64();
        let result = issue(&mut pool, shared, request, false);
        let done_s = t_warm.elapsed().as_secs_f64();
        let ledger_after = shared.registry.global_stats().bytes_held;
        log.warm.push(Call { request, due_s: sent_s, sent_s, done_s, result, ledger_after });
    }
    for (p, arrivals) in schedules.iter().enumerate() {
        shared.barrier.wait();
        let t0 = *shared.starts[p].get_or_init(Instant::now);
        let mut calls = Vec::with_capacity(arrivals.len());
        for a in arrivals {
            let due = t0 + Duration::from_secs_f64(a.due_s);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                thread::sleep(wait);
            }
            let sent_s = t0.elapsed().as_secs_f64();
            let result = issue(&mut pool, shared, a.request, shared.measure_bytes[p]);
            let done_s = t0.elapsed().as_secs_f64();
            let ledger_after = shared.registry.global_stats().bytes_held;
            calls.push(Call {
                request: a.request,
                due_s: a.due_s,
                sent_s,
                done_s,
                result,
                ledger_after,
            });
        }
        log.phases.push(calls);
    }
    log.dials = pool.dials();
    log.reconnects = pool.reconnects();
    log
}

/// In-process reference answers for every request, one session per graph.
fn references(graphs: &[Arc<UncertainGraph>], calls: &[ClusterCall]) -> Vec<Result<u64, String>> {
    let per_graph: Vec<Vec<(usize, Result<u64, String>)>> = thread::scope(|s| {
        let handles: Vec<_> = GRAPHS
            .iter()
            .zip(graphs)
            .map(|(name, graph)| {
                s.spawn(move || {
                    let mut session = UgraphSession::new(graph, crate::solver_config())
                        .expect("the default configuration is valid");
                    calls
                        .iter()
                        .enumerate()
                        .filter(|(_, c)| c.graph == *name)
                        .map(|(i, c)| {
                            let r = session.solve(c.to_request()).map_err(|e| e.to_string());
                            (i, r.map(|r| answer_digest(&WireSolve::from_result(&r))))
                        })
                        .collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("reference thread panicked")).collect()
    });
    let mut out: Vec<Result<u64, String>> = vec![Err("no reference".into()); calls.len()];
    for (i, r) in per_graph.into_iter().flatten() {
        out[i] = r;
    }
    out
}

/// Runs `serve-mixed` for `seconds` and reports its end-to-end metrics, or
/// with `traced`, its per-layer metrics. A traced run plays the same
/// schedule twice, half the time each: once plainly, once recording spans
/// and response sizes.
pub fn run(seed: u64, seconds: f64, traced: bool, expected_digest: Option<u64>, out: &mut Outcome) {
    let calls = requests();
    let mut setup_times = Vec::new();
    let graphs = setup_burst(generate, 1.0, &mut setup_times);
    let generate_s = median(&setup_times);
    let graphs: Vec<Arc<UncertainGraph>> = graphs.into_iter().map(Arc::new).collect();
    let cpu_setup = cpu::process_s();
    let workers = WORKERS.min(thread::available_parallelism().map_or(1, |n| n.get()));
    let clients = CLIENTS.min(workers);
    let catalog = GRAPHS.iter().map(|n| n.to_string()).zip(graphs.iter().cloned()).collect();
    let config = ServerConfig { workers, ..ServerConfig::default() };
    let server = Server::bind("127.0.0.1:0", catalog, crate::solver_config(), config)
        .and_then(Server::start)
        .expect("bind and start a loopback server");
    let phase_s = if traced { seconds / 2.0 } else { seconds };
    let phases = if traced { 2 } else { 1 };
    let schedules = schedule(seed, clients, RATE_PER_S, phase_s, calls.len());
    let shared = Shared {
        addr: server.addr().to_string(),
        calls: &calls,
        registry: Arc::clone(server.registry()),
        barrier: Barrier::new(clients + 1),
        starts: (0..phases).map(|_| OnceLock::new()).collect(),
        measure_bytes: (0..phases).map(|p| traced && p == 1).collect(),
    };
    // Graph g's requests warm on client g mod clients, so the sessions warm
    // in parallel.
    let warm: Vec<Vec<usize>> = (0..clients)
        .map(|c| {
            (0..calls.len())
                .filter(|&i| {
                    GRAPHS.iter().position(|g| *g == calls[i].graph).map(|g| g % clients) == Some(c)
                })
                .collect()
        })
        .collect();
    let (mut setup_s, mut cpu_start) = (0.0, 0.0);
    let logs: Vec<ClientLog> = thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (shared, warm, arrivals) = (&shared, &warm[c], &schedules[c]);
                s.spawn(move || client(shared, warm, &vec![arrivals.clone(); phases]))
            })
            .collect();
        for p in 0..phases {
            shared.barrier.wait();
            shared.starts[p].get_or_init(Instant::now);
            if p == 0 {
                cpu_start = cpu::process_s();
                setup_s = generate_s + (cpu_start - cpu_setup);
            }
        }
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let phases_cpu_s = cpu::process_s() - cpu_start;
    let mut stats_pool = ClientPool::new(shared.addr.clone(), 1, RetryPolicy::default());
    let server_stats = stats_pool.stats(None);
    drop(stats_pool);
    if let Err(e) = server.stop() {
        out.notes.push(format!("server stop: {e}"));
    }

    let refs = references(&graphs, &calls);
    let mut digest = Digest::default();
    for r in &refs {
        digest.u64(*r.as_ref().unwrap_or(&0));
    }
    let digest = digest.value();
    out.notes.push(format!(
        "serve-mixed: {} requests in the mix, reference digest {digest:#018x}",
        calls.len()
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
    let check = |call: &Call| -> Result<(), String> {
        let got = call.result.as_ref().map_err(Clone::clone)?;
        let want = refs[call.request].as_ref().map_err(|e| format!("reference failed: {e}"))?;
        if got.answer == *want {
            Ok(())
        } else {
            Err("served answer differs from the in-process solve".into())
        }
    };
    for log in &logs {
        for call in log.warm.iter().chain(log.phases.iter().flatten()) {
            out.check(
                &format!(
                    "served {:?} k={} on {}",
                    calls[call.request].objective, calls[call.request].k, calls[call.request].graph
                ),
                check(call),
            );
        }
    }

    let phase = |p: usize| -> Vec<&Call> { logs.iter().flat_map(|l| &l.phases[p]).collect() };
    let ledger_peak = logs
        .iter()
        .flat_map(|l| l.warm.iter().chain(l.phases.iter().flatten()))
        .map(|c| c.ledger_after)
        .max()
        .unwrap_or(0);
    let lag = Latency::of(
        &phase(phases - 1).iter().map(|c| (c.sent_s - c.due_s) * 1e3).collect::<Vec<_>>(),
    );
    out.notes.push(format!("generator lag p95 {:.3} ms", lag.p95));
    if !traced {
        let timed = phase(0);
        let ok: Vec<&&Call> = timed.iter().filter(|c| c.result.is_ok()).collect();
        let latency =
            Latency::of(&ok.iter().map(|c| (c.done_s - c.due_s) * 1e3).collect::<Vec<_>>());
        let wall_s = timed.iter().map(|c| c.done_s).fold(phase_s, f64::max);
        out.notes.push(format!(
            "wall: {:.3} calls/s; latency p50 {:.3} ms, p95 {:.3} ms over {} calls ({} beyond \
             p95{})",
            ok.len() as f64 / wall_s,
            latency.p50,
            latency.p95,
            latency.n,
            latency.beyond_p95,
            if latency.tail_supported() { "" } else { "; fewer than 10" }
        ));
        out.metrics = EndToEnd {
            setup_s,
            cpu_ms_per_op: phases_cpu_s * 1e3 / ok.len() as f64,
            ledger_peak_mb: mib(ledger_peak),
            rss_peak_mb: rss_peak_mib(),
        }
        .metrics();
        return;
    }

    let (plain, spanned) = (phase(0), phase(1));
    let busy = |calls: &[&Call]| calls.iter().map(|c| c.done_s - c.sent_s).sum::<f64>();
    let ok: Vec<&Served> = spanned.iter().filter_map(|c| c.result.as_ref().ok()).collect();
    let n = ok.len() as f64;
    let sum = |f: &dyn Fn(&Served) -> u64| ok.iter().map(|s| f(s)).sum::<u64>() as f64;
    let solve = Latency::of(&ok.iter().map(|s| s.solve_s * 1e3).collect::<Vec<_>>());
    // Both phases: one alone leaves fewer than 10 calls beyond the p95.
    let call = Latency::of(
        &plain
            .iter()
            .chain(&spanned)
            .filter(|c| c.result.is_ok())
            .map(|c| (c.done_s - c.due_s) * 1e3)
            .collect::<Vec<_>>(),
    );
    let overhead = Latency::of(
        &spanned
            .iter()
            .filter_map(|c| c.result.as_ref().ok().map(|s| (c.done_s - c.sent_s - s.solve_s) * 1e3))
            .collect::<Vec<_>>(),
    );
    out.notes.push(format!(
        "server solve over {} calls ({} beyond p95); client call over {} ({} beyond p95)",
        solve.n, solve.beyond_p95, call.n, call.beyond_p95
    ));
    let spans = call_spans(&spanned);
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("traces").join("serve-mixed.tsv");
    match write_spans(&path, &spans) {
        Ok(()) => out.notes.push(format!("{} spans written to {}", spans.len(), path.display())),
        Err(e) => out.notes.push(format!("spans not written: {e}")),
    }
    let (evicted, rejected) = match &server_stats {
        Ok(s) => (s.sessions_evicted as f64, s.admission_rejections as f64),
        Err(e) => {
            out.check("server stats", Err(e.to_string()));
            (0.0, 0.0)
        }
    };
    let hits = sum(&|s| s.row_cache[0]);
    let rows = sum(&|s| s.row_cache.iter().sum());
    out.metrics = PerLayer {
        generate_s,
        label_queries: sum(&|s| s.engine[2]) / n,
        mask_queries: sum(&|s| s.engine[3]) / n,
        finalized_lanes: sum(&|s| s.engine[1]) / n,
        peak_bytes: ledger_peak as f64,
        cache_hit_ratio: ratio(hits, rows),
        cache_fulls: sum(&|s| s.row_cache[2]) / n,
        guesses: sum(&|s| s.guesses) / n,
        samples_used: sum(&|s| s.samples_used) / n,
        solve_p50_ms: solve.p50,
        solve_p95_ms: solve.p95,
        overhead_p50_ms: overhead.p50,
        overhead_p95_ms: overhead.p95,
        response_bytes: sum(&|s| s.response_bytes as u64) / n,
        sessions_evicted: evicted,
        admission_rejections: rejected,
        dials: logs.iter().map(|l| l.dials).sum::<u64>() as f64,
        reconnects: logs.iter().map(|l| l.reconnects).sum::<u64>() as f64,
        call_p50_ms: call.p50,
        call_p95_ms: call.p95,
        generator_lag_p95_ms: lag.p95,
        trace_overhead_frac: (busy(&spanned) - busy(&plain)) / busy(&plain),
        ..PerLayer::default()
    }
    .metrics();
}

/// Client spans of the traced phase, each with its server solve as the
/// child (placed at the end of the call, sized by `elapsed_micros`).
fn call_spans(calls: &[&Call]) -> Vec<Span> {
    let ns = |s: f64| (s * 1e9) as u64;
    let mut spans = Vec::new();
    for (i, c) in calls.iter().enumerate() {
        let op = i as u32 + 1;
        let (start, end) = (ns(c.sent_s), ns(c.done_s));
        spans.push(Span { layer: Layer::Call, op, parent: None, start, end, work: 0 });
        if let Ok(s) = &c.result {
            let parent = Some(spans.len() - 1);
            let solve_start = end.saturating_sub(ns(s.solve_s)).max(start);
            spans.push(Span {
                layer: Layer::ServerSolve,
                op,
                parent,
                start: solve_start,
                end,
                work: 0,
            });
        }
    }
    spans
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_pure_function_of_the_seed() {
        let a = schedule(7, 2, 24.0, 25.0, 156);
        assert_eq!(a, schedule(7, 2, 24.0, 25.0, 156));
        assert_ne!(a, schedule(8, 2, 24.0, 25.0, 156));
        // 24/s for 25 s is 3.85 rounds of the mix: 4 rounds, 624 requests.
        assert_eq!(a.iter().map(Vec::len).sum::<usize>(), 624);
        let mut counts = vec![0; 156];
        for arrival in a.iter().flatten() {
            counts[arrival.request] += 1;
        }
        assert!(counts.iter().all(|&c| c == 4), "every kind is sent equally often");
        for client in &a {
            assert_eq!(client.len(), 312);
            assert!(client.windows(2).all(|w| w[0].due_s <= w[1].due_s));
            assert!(client.iter().all(|x| (0.0..25.0).contains(&x.due_s)));
        }
        assert_eq!(schedule(7, 1, 1.0, 1.0, 156)[0].len(), 156, "the mix is sent at least once");
    }

    #[test]
    fn request_mix_covers_both_graphs_objectives_and_ks() {
        let calls = requests();
        assert_eq!(calls.len(), 2 * 2 * 39);
        assert_eq!(calls.iter().filter(|c| c.graph == "krogan").count(), 78);
        assert_eq!(calls.iter().map(|c| c.k).min(), Some(2));
        assert_eq!(calls.iter().map(|c| c.k).max(), Some(40));
    }
}
