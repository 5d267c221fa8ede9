//! Loopback integration suite: a real [`Server`] on `127.0.0.1:0`, real
//! [`Client`]s, and the library as the reference — every served answer
//! must be **bit-identical** to a local [`UgraphSession`] replaying the
//! same request sequence.

use std::sync::Arc;
use std::time::Duration;

use ugraph_cluster::{ClusterConfig, ClusterRequest, SolveResult, UgraphSession};
use ugraph_graph::{GraphBuilder, UncertainGraph};
use ugraph_sampling::{BlockWidth, EngineKind, Interrupt};
use ugraph_server::protocol::encode_request;
use ugraph_server::{
    Client, ClusterCall, ErrorCode, ProtocolError, Request, Response, RunningServer, Server,
    ServerConfig, WireDepth, WireSolve,
};

const SEED: u64 = 7;

fn two_communities() -> Arc<UncertainGraph> {
    let mut b = GraphBuilder::new(6);
    for (u, v) in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)] {
        b.add_edge(u, v, 0.9).unwrap();
    }
    b.add_edge(2, 3, 0.2).unwrap();
    Arc::new(b.build().unwrap())
}

/// A graph big enough that one solve spans many cancellation checkpoints.
fn chunky_ring() -> Arc<UncertainGraph> {
    let n = 600;
    let mut b = GraphBuilder::new(n);
    for u in 0..n as u32 {
        b.add_edge(u, (u + 1) % n as u32, 0.7).unwrap();
        b.add_edge(u, (u + 7) % n as u32, 0.4).unwrap();
    }
    Arc::new(b.build().unwrap())
}

fn base_config() -> ClusterConfig {
    ClusterConfig::default().with_seed(SEED)
}

/// A local reference session with the config the registry gives the
/// server's session for the graph, so counters must line up too.
fn local_session(g: &Arc<UncertainGraph>) -> UgraphSession<'_> {
    UgraphSession::new(g, base_config()).unwrap()
}

fn start(graphs: Vec<(String, Arc<UncertainGraph>)>, config: ServerConfig) -> RunningServer {
    Server::bind("127.0.0.1:0", graphs, base_config(), config).unwrap().start().unwrap()
}

fn call(graph: &str, k: u32) -> ClusterCall {
    ClusterCall {
        graph: graph.into(),
        engine: EngineKind::Adaptive,
        width: BlockWidth::W256,
        objective: ugraph_cluster::Objective::MinProb,
        k,
        depth: WireDepth::Unlimited,
        deadline_micros: None,
    }
}

/// Bit-identity between a wire answer and a local solver result —
/// everything except the server-side clock must match exactly, floats
/// compared as bit patterns.
fn assert_matches_local(wire: &WireSolve, local: &SolveResult) {
    let mut expected = WireSolve::from_result(local);
    expected.elapsed_micros = wire.elapsed_micros;
    assert_eq!(wire, &expected);
    assert_eq!(
        wire.objective_estimate.to_bits(),
        local.objective_estimate.to_bits(),
        "objective estimate must survive the wire bit-identically"
    );
    assert_eq!(wire.clustering().unwrap(), local.clustering);
}

/// [`assert_matches_local`] without the row-cache and engine counters,
/// which a memory budget shapes.
fn assert_same_answer(wire: &WireSolve, local: &SolveResult) {
    let expected = WireSolve {
        row_cache: wire.row_cache,
        engine: wire.engine,
        elapsed_micros: wire.elapsed_micros,
        ..WireSolve::from_result(local)
    };
    assert_eq!(wire, &expected);
}

#[test]
fn served_answers_are_bit_identical_to_local_replay_for_every_engine() {
    let g = two_communities();
    let server = start(vec![("g".into(), Arc::clone(&g))], ServerConfig::default());

    // Every engine name decodes to the one engine, so one sequence on the
    // graph's one session covers them all. Local reference: one session, a
    // fixed request sequence.
    let mut local = local_session(&g);
    let reference: Vec<SolveResult> = [
        ClusterRequest::mcp(2),
        ClusterRequest::acp(2),
        ClusterRequest::mcp(3),
        ClusterRequest::mcp_depth(2, 3),
    ]
    .into_iter()
    .map(|r| local.solve(r).unwrap())
    .collect();

    // The same sequence over the wire.
    let mut client = Client::connect(server.addr()).unwrap();
    let calls = [
        call("g", 2),
        ClusterCall { objective: ugraph_cluster::Objective::AvgProb, ..call("g", 2) },
        call("g", 3),
        ClusterCall { depth: WireDepth::Uniform(3), ..call("g", 2) },
    ];
    for (call, local_result) in calls.iter().zip(&reference) {
        let wire = client.cluster(call).unwrap().unwrap();
        assert_matches_local(&wire, local_result);
    }
}

#[test]
fn every_v2_width_string_joins_one_session_with_identical_answers() {
    let g = two_communities();
    let server = start(vec![("g".into(), Arc::clone(&g))], ServerConfig::default());
    let mut client = Client::connect(server.addr()).unwrap();
    let mut local = local_session(&g);

    // Raw frames that differ only in the width string: the server accepts
    // each, ignores it, and serves all three on one session.
    let frame = encode_request(&Request::Cluster(call("g", 2)));
    let stock = [&3u32.to_le_bytes()[..], b"256"].concat();
    let at = frame.windows(stock.len()).position(|w| w == stock).unwrap();
    for width in ["64", "256", "512"] {
        let mut raw = frame[..at].to_vec();
        raw.extend_from_slice(&(width.len() as u32).to_le_bytes());
        raw.extend_from_slice(width.as_bytes());
        raw.extend_from_slice(&frame[at + stock.len()..]);
        let len = (raw.len() - 4) as u32;
        raw[..4].copy_from_slice(&len.to_le_bytes());
        client.send_raw(&raw).unwrap();
        let Response::Cluster(wire) = client.read_response().unwrap() else {
            panic!("width {width}: expected a cluster answer");
        };
        assert_matches_local(&wire, &local.solve(ClusterRequest::mcp(2)).unwrap());
    }

    let stats = client.stats(None).unwrap().unwrap();
    assert_eq!(stats.sessions.len(), 1, "the width is not part of the session key");
    assert_eq!(stats.sessions[0].width, "256");
}

#[test]
fn concurrent_clients_run_in_parallel_across_sessions_and_stay_bit_identical() {
    let names = ["g0", "g1", "g2"];
    let graphs: Vec<(String, Arc<UncertainGraph>)> =
        names.iter().map(|n| (n.to_string(), two_communities())).collect();
    let server = start(graphs, ServerConfig { workers: 3, ..ServerConfig::default() });
    let addr = server.addr();

    // Local reference for the per-graph sequence.
    let g = two_communities();
    let mut local = local_session(&g);
    let reference: Vec<SolveResult> = [ClusterRequest::mcp(2), ClusterRequest::mcp(3)]
        .into_iter()
        .map(|r| local.solve(r).unwrap())
        .collect();
    let reference = Arc::new(reference);

    let threads: Vec<_> = names
        .into_iter()
        .map(|name| {
            let reference = Arc::clone(&reference);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for (k, local_result) in [(2u32, &reference[0]), (3, &reference[1])] {
                    let wire = client.cluster(&call(name, k)).unwrap().unwrap();
                    assert_matches_local(&wire, local_result);
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }

    let mut client = Client::connect(addr).unwrap();
    let stats = client.stats(None).unwrap().unwrap();
    assert_eq!(stats.cluster_requests, 6);
    assert_eq!(stats.connections, 4);
    assert_eq!(stats.graphs, ["g0", "g1", "g2"]);
    assert_eq!(stats.sessions.len(), 3, "one session per graph");
}

#[test]
fn ping_pong_echoes_the_nonce_without_touching_sessions_or_traffic_stats() {
    let server = start(vec![("g".into(), two_communities())], ServerConfig::default());
    let mut client = Client::connect(server.addr()).unwrap();

    for nonce in [0u64, 1, 0xDEAD_BEEF_CAFE_F00D, u64::MAX] {
        client.ping(nonce).unwrap();
    }

    // Health checks spawn no session and skew no traffic counter.
    let stats = client.stats(None).unwrap().unwrap();
    assert_eq!(stats.cluster_requests, 0);
    assert_eq!(stats.stats_requests, 1);
    assert_eq!(stats.peer_stalled, 0, "nobody stalled in this test");
    assert!(stats.sessions.is_empty(), "pings must not open sessions");
    assert_eq!(server.registry().num_sessions(), 0);
}

#[test]
fn deadline_exceeded_is_typed_and_the_session_survives() {
    let g = two_communities();
    let server = start(vec![("g".into(), Arc::clone(&g))], ServerConfig::default());
    let mut client = Client::connect(server.addr()).unwrap();

    // A deterministically-expired deadline: the first checkpoint trips.
    let doomed = ClusterCall { deadline_micros: Some(0), ..call("g", 2) };
    let err = client.cluster(&doomed).unwrap().unwrap_err();
    assert_eq!(err.code, ErrorCode::DeadlineExceeded);
    let report = err.interrupt.expect("deadline errors carry a report").to_report().unwrap();
    assert_eq!(report.kind, Interrupt::DeadlineExceeded);

    // Local reference experiences the same failed solve first — the
    // session (and its pools) must march in lockstep with the server's.
    let mut local = local_session(&g);
    let local_err = local.solve(ClusterRequest::mcp(2).with_deadline(Duration::ZERO)).unwrap_err();
    assert!(local_err.interrupt_report().is_some());
    let local_ok = local.solve(ClusterRequest::mcp(2)).unwrap();

    // Same connection, same session: no poison, bit-identical recovery.
    let wire = client.cluster(&call("g", 2)).unwrap().unwrap();
    assert_matches_local(&wire, &local_ok);

    let stats = client.stats(None).unwrap().unwrap();
    assert_eq!(stats.deadline_rejections, 1);
}

#[test]
fn tight_global_budget_serves_both_graphs_by_evicting_the_idle_session() {
    // One session's edge masks alone (224 B) do not fit.
    let limit = 160;
    let graphs = vec![("a".into(), two_communities()), ("b".into(), two_communities())];
    let server =
        start(graphs, ServerConfig { global_budget: Some(limit), ..ServerConfig::default() });
    let mut client = Client::connect(server.addr()).unwrap();

    // Reference: an unbudgeted local session.
    let g = two_communities();
    let mut local = local_session(&g);
    let reference = local.solve(ClusterRequest::mcp(2)).unwrap();

    let a1 = client.cluster(&call("a", 2)).unwrap().unwrap();
    let b1 = client.cluster(&call("b", 2)).unwrap().unwrap();
    let a2 = client.cluster(&call("a", 2)).unwrap().unwrap();

    // Eviction and regeneration are invisible in the answers…
    assert_same_answer(&a1, &reference);
    assert_same_answer(&b1, &reference);
    assert_eq!(a1, WireSolve { elapsed_micros: a1.elapsed_micros, ..a2.clone() });

    // …but visible in the ledger.
    let stats = client.stats(None).unwrap().unwrap();
    assert!(stats.sessions_evicted >= 1, "tight budget must evict: {stats:?}");
    assert!(stats.bytes_held <= limit as u64, "at rest the ceiling holds: {stats:?}");
    assert_eq!(stats.bytes_limit, Some(limit as u64));
    assert_eq!(stats.admission_rejections, 0, "idle eviction must make room");
}

#[test]
fn stats_kv_lines_are_machine_readable_over_the_wire() {
    let server = start(vec![("g".into(), two_communities())], ServerConfig::default());
    let mut client = Client::connect(server.addr()).unwrap();
    client.cluster(&call("g", 2)).unwrap().unwrap();

    let stats = client.stats(Some("g")).unwrap().unwrap();
    assert_eq!(stats.sessions.len(), 1);
    let kv = &stats.sessions[0].kv;
    assert!(!kv.contains('\n'));
    for token in kv.split_whitespace() {
        let (key, value) = token.split_once('=').expect("key=value tokens");
        assert!(!key.is_empty());
        value.parse::<u64>().unwrap_or_else(|_| panic!("{key} has non-integer value {value}"));
    }
    assert!(kv.contains("requests=1"), "{kv}");
}

#[test]
fn shutdown_drains_in_flight_solves_and_refuses_new_work() {
    let server = start(
        vec![("big".into(), chunky_ring())],
        ServerConfig { workers: 2, ..ServerConfig::default() },
    );
    let addr = server.addr();
    let shutdown = server.shutdown_handle();

    let solver = std::thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        client.cluster(&call("big", 3)).unwrap()
    });
    // Let the solve get going, then pull the plug mid-flight.
    std::thread::sleep(Duration::from_millis(30));
    shutdown.trigger();

    // Drain, don't drop: the client still receives a frame — either the
    // finished result (the solve won the race) or a typed cancellation
    // carrying the interrupt report.
    match solver.join().unwrap() {
        Ok(solve) => assert!(solve.num_nodes == 600),
        Err(e) => {
            assert_eq!(e.code, ErrorCode::Cancelled);
            let report = e.interrupt.expect("cancellations carry a report");
            assert_eq!(report.to_report().unwrap().kind, Interrupt::Cancelled);
        }
    }
    server.stop().unwrap();
}

#[test]
fn idle_evict_frees_sessions_by_age() {
    let server = start(
        vec![("g".into(), two_communities())],
        ServerConfig { idle_evict: Some(Duration::from_millis(50)), ..ServerConfig::default() },
    );
    let mut client = Client::connect(server.addr()).unwrap();
    client.cluster(&call("g", 2)).unwrap().unwrap();

    // The accept loop sweeps every ~25 ms; after the idle age passes the
    // session must be gone (and the answer after respawn identical).
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let stats = client.stats(None).unwrap().unwrap();
        if stats.sessions_evicted >= 1 && stats.sessions.is_empty() {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "idle session never evicted: {stats:?}");
        std::thread::sleep(Duration::from_millis(20));
    }
    let again = client.cluster(&call("g", 2)).unwrap().unwrap();
    let g = two_communities();
    let mut local = local_session(&g);
    assert_matches_local(&again, &local.solve(ClusterRequest::mcp(2)).unwrap());
}

/// Two graphs under one name would leave one of them unreachable, so
/// binding rejects the repeated name instead of serving.
#[test]
fn repeated_graph_names_are_rejected_at_bind() {
    let g = two_communities();
    let graphs = vec![
        ("a".into(), Arc::clone(&g)),
        ("b".into(), Arc::clone(&g)),
        ("a".into(), chunky_ring()),
    ];
    match Server::bind("127.0.0.1:0", graphs, base_config(), ServerConfig::default()) {
        Ok(_) => panic!("a repeated graph name must be rejected"),
        Err(ProtocolError::Io(e)) => {
            assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput, "{e}");
            assert!(e.to_string().contains("`a`"), "the error must name the graph: {e}");
        }
        Err(other) => panic!("expected an InvalidInput error, got {other}"),
    }
}
