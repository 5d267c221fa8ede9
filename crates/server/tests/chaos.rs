//! Network chaos suite: a loopback fault-injecting proxy between a real
//! [`ClientPool`] and a real [`Server`] drops and truncates traffic at
//! chosen byte offsets, and failpoints stall frames mid-write — and
//! under every schedule the retried answers must be **bit-identical** to
//! a fault-free local [`UgraphSession`] replay, with no worker leaked
//! and the memory ledger balanced.
//!
//! The proxy is deliberately dumb: per accepted connection it pops one
//! [`ConnFault`] from a deterministic queue (empty queue = transparent
//! relay) and enforces it as a byte budget on one direction of the
//! relay, severing the whole connection when the budget runs out. Every
//! failure mode the pool must survive — refused dials, torn requests,
//! truncated responses — is a budget placement.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use ugraph_cluster::{ClusterConfig, ClusterRequest, SolveResult, UgraphSession};
use ugraph_graph::{GraphBuilder, UncertainGraph};
use ugraph_sampling::{BlockWidth, EngineKind};
use ugraph_server::protocol::{MAGIC, PROTOCOL_VERSION, STALL_PAUSE};
use ugraph_server::{
    Client, ClientPool, ClusterCall, RetryPolicy, RunningServer, Server, ServerConfig, WireDepth,
    WireSolve,
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

fn base_config() -> ClusterConfig {
    ClusterConfig::default().with_seed(SEED)
}

fn start(config: ServerConfig) -> RunningServer {
    Server::bind("127.0.0.1:0", vec![("g".into(), two_communities())], base_config(), config)
        .unwrap()
        .start()
        .unwrap()
}

fn call(k: u32) -> ClusterCall {
    ClusterCall {
        graph: "g".into(),
        engine: EngineKind::Adaptive,
        width: BlockWidth::W256,
        objective: ugraph_cluster::Objective::MinProb,
        k,
        depth: WireDepth::Unlimited,
        deadline_micros: None,
    }
}

/// A fault-free local replay with the session shape the server pins.
fn local_reference(requests: &[ClusterRequest]) -> Vec<SolveResult> {
    let g = two_communities();
    let mut session = UgraphSession::new(&g, base_config()).unwrap();
    requests.iter().map(|r| session.solve(r.clone()).unwrap()).collect()
}

/// Bit-identity on the **answer** (clustering, probabilities, objective,
/// sample counts), with per-request telemetry normalized: the server's
/// clock differs by nature, and the row-cache and block-label counters
/// depend on cache and label warmth — which a retry legitimately changes,
/// since a solve whose response was severed still warmed the server's
/// cache and labelled its blocks before being recomputed.
fn assert_matches_local(wire: &WireSolve, local: &SolveResult) {
    let mut expected = WireSolve::from_result(local);
    expected.elapsed_micros = wire.elapsed_micros;
    expected.row_cache = wire.row_cache;
    expected.engine = wire.engine;
    assert_eq!(wire, &expected);
    assert_eq!(wire.objective_estimate.to_bits(), local.objective_estimate.to_bits());
}

/// A fast, deterministic retry policy for loopback tests.
fn test_policy(retries: u32) -> RetryPolicy {
    RetryPolicy {
        base_backoff: Duration::from_millis(2),
        max_backoff: Duration::from_millis(10),
        jitter_seed: SEED,
        budget: Some(Duration::from_secs(5)),
        ..RetryPolicy::with_retries(retries)
    }
}

/// What to do to the next accepted proxy connection.
#[derive(Clone, Copy, Debug)]
enum ConnFault {
    /// Forward at most `n` client→server bytes, then sever both ways.
    /// Small `n` kills the handshake (a refused dial from the pool's
    /// point of view); `n` past the hello tears the request mid-frame.
    DropRequestAfter(usize),
    /// Forward at most `n` server→client bytes, then sever — a truncated
    /// (or entirely dropped) response: the server did the work, the
    /// client never saw the answer, and the retry must recompute it
    /// bit-identically.
    DropResponseAfter(usize),
}

/// The loopback chaos proxy — see the [module docs](self).
struct ChaosProxy {
    addr: SocketAddr,
    plans: Arc<Mutex<VecDeque<ConnFault>>>,
    stop: Arc<AtomicBool>,
    accept: Option<thread::JoinHandle<()>>,
}

impl ChaosProxy {
    fn start(upstream: SocketAddr) -> ChaosProxy {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap();
        let plans: Arc<Mutex<VecDeque<ConnFault>>> = Arc::default();
        let stop = Arc::new(AtomicBool::new(false));
        let accept = {
            let plans = Arc::clone(&plans);
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    match listener.accept() {
                        Ok((down, _)) => {
                            let fault = plans.lock().unwrap().pop_front();
                            match TcpStream::connect(upstream) {
                                Ok(up) => relay(down, up, fault),
                                Err(_) => drop(down),
                            }
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            thread::sleep(Duration::from_millis(5));
                        }
                        Err(_) => {}
                    }
                }
            })
        };
        ChaosProxy { addr, plans, stop, accept: Some(accept) }
    }

    /// Queues `fault` for the next accepted connection (FIFO; unqueued
    /// connections relay transparently).
    fn schedule(&self, fault: ConnFault) {
        self.plans.lock().unwrap().push_back(fault);
    }

    fn scheduled_all_consumed(&self) -> bool {
        self.plans.lock().unwrap().is_empty()
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

/// Spawns the two pump threads of one relayed connection. The threads
/// are detached on purpose: they exit when either endpoint closes (or a
/// budget severs the pair), so joining them would add nothing but a way
/// to deadlock the accept loop behind a parked connection.
fn relay(down: TcpStream, up: TcpStream, fault: Option<ConnFault>) {
    let (req_budget, resp_budget) = match fault {
        None => (usize::MAX, usize::MAX),
        Some(ConnFault::DropRequestAfter(n)) => (n, usize::MAX),
        Some(ConnFault::DropResponseAfter(n)) => (usize::MAX, n),
    };
    let (down2, up2) = match (down.try_clone(), up.try_clone()) {
        (Ok(d), Ok(u)) => (d, u),
        _ => return,
    };
    thread::spawn(move || pump(down, up, req_budget));
    thread::spawn(move || pump(up2, down2, resp_budget));
}

/// Forwards bytes until EOF, error, or the budget runs out — then severs
/// both sockets so neither side can wait on a half-dead pipe.
fn pump(mut from: TcpStream, mut to: TcpStream, mut budget: usize) {
    let mut buf = [0u8; 4096];
    loop {
        let n = match from.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        let allow = n.min(budget);
        if to.write_all(&buf[..allow]).is_err() {
            break;
        }
        budget -= allow;
        if allow < n || budget == 0 {
            break;
        }
    }
    let _ = from.shutdown(Shutdown::Both);
    let _ = to.shutdown(Shutdown::Both);
}

#[test]
fn pooled_client_rides_over_every_fault_schedule_bit_identically() {
    let server = start(ServerConfig { workers: 2, ..ServerConfig::default() });
    let proxy = ChaosProxy::start(server.addr());
    let mut pool = ClientPool::new(proxy.addr.to_string(), 2, test_policy(5));

    let reference = local_reference(&[
        ClusterRequest::mcp(2),
        ClusterRequest::mcp(3),
        ClusterRequest::acp(2),
        ClusterRequest::mcp(2),
    ]);
    let calls = [
        call(2),
        call(3),
        ClusterCall { objective: ugraph_cluster::Objective::AvgProb, ..call(2) },
        call(2),
    ];

    // One fault schedule per call. Faults fire on fresh proxy dials, so
    // the two-fault pile-up goes first, while both pool slots are still
    // empty (afterwards one slot holds a healthy parked connection that
    // serves every second attempt without dialing). Every failed attempt
    // consumes one queued fault, so within 5 retries the pool always
    // reaches a transparent connection.
    let schedules: [&[ConnFault]; 4] = [
        // Two dead dials in a row: severed mid-hello, then at byte zero.
        &[ConnFault::DropRequestAfter(3), ConnFault::DropRequestAfter(0)],
        // A torn request: the hello passes, the frame dies mid-write.
        &[ConnFault::DropRequestAfter(10)],
        // A truncated response: the server did the work, the client saw
        // two bytes of it.
        &[ConnFault::DropResponseAfter(8)],
        // The connection dies right after the handshake echo.
        &[ConnFault::DropResponseAfter(6)],
    ];

    for ((wire_call, local), schedule) in calls.iter().zip(&reference).zip(schedules) {
        for &fault in schedule {
            proxy.schedule(fault);
        }
        let wire = pool.cluster(wire_call).unwrap_or_else(|report| {
            panic!("pool must ride over {schedule:?}: {report}");
        });
        assert_matches_local(&wire, local);
        assert!(proxy.scheduled_all_consumed(), "every scheduled fault must have fired");
    }
    assert!(
        pool.reconnects() >= 2,
        "post-handshake faults force reconnects: {}",
        pool.reconnects()
    );
    assert!(pool.dials() >= 6, "every faulted attempt re-dials: {}", pool.dials());

    // No worker leaked: both workers still answer, concurrently, on
    // direct connections — a leaked (pinned) worker would park one of
    // these threads forever.
    let addr = server.addr();
    let local = local_reference(&[ClusterRequest::mcp(2)]).remove(0);
    let checks: Vec<_> = (0..2)
        .map(|_| {
            let local = local.clone();
            thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let wire = client.cluster(&call(2)).unwrap().unwrap();
                assert_matches_local(&wire, &local);
            })
        })
        .collect();
    for check in checks {
        check.join().unwrap();
    }

    // Ledger balance: with every session idle and evicted, the global
    // ledger must return to zero — no fault path leaked a charge.
    server.registry().evict_idle_for(Duration::ZERO);
    let stats = server.registry().global_stats();
    assert_eq!(stats.bytes_held, 0, "ledger must balance after chaos: {stats:?}");
}

#[test]
fn mid_frame_stall_is_cut_tallied_and_the_worker_survives() {
    use ugraph_sampling::{faults, FaultPlan, FaultSite};

    let io_timeout = Duration::from_millis(100);
    assert!(io_timeout < STALL_PAUSE, "the stall must outlast the server's deadline");
    // One worker on purpose: if the stalled peer pinned it, the recovery
    // request below would hang forever.
    let server =
        start(ServerConfig { workers: 1, io_timeout: Some(io_timeout), ..ServerConfig::default() });

    let mut stalled = Client::connect(server.addr()).unwrap();
    {
        let _guard = faults::install(FaultPlan::new().fail_at(FaultSite::WireStall, 1));
        // The failpoint writes half the request frame, sleeps STALL_PAUSE,
        // then finishes; the server's mid-frame stall clock trips first
        // and cuts the connection, so the call cannot complete.
        let result = stalled.cluster(&call(2));
        assert!(result.is_err(), "a stalled request must fail, got {result:?}");
        assert_eq!(faults::hits(FaultSite::WireStall), 1, "the stall failpoint must fire");
    }
    drop(stalled);

    // The worker is free again and the stall was tallied as its own
    // typed counter — not lumped in with protocol errors.
    let mut client = Client::connect(server.addr()).unwrap();
    let local = local_reference(&[ClusterRequest::mcp(2)]).remove(0);
    let wire = client.cluster(&call(2)).unwrap().unwrap();
    assert_matches_local(&wire, &local);
    let stats = client.stats(None).unwrap().unwrap();
    assert_eq!(stats.peer_stalled, 1, "{stats:?}");
}

#[test]
fn half_a_header_is_cut_but_idle_connections_park_freely() {
    let io_timeout = Duration::from_millis(100);
    let server =
        start(ServerConfig { workers: 2, io_timeout: Some(io_timeout), ..ServerConfig::default() });

    // Slow loris: a valid hello, then two bytes of a frame header and
    // silence. The stall clock starts at the first mid-frame byte and
    // the server hangs up within the IO deadline.
    let mut loris = TcpStream::connect(server.addr()).unwrap();
    let mut hello = Vec::from(MAGIC);
    hello.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
    loris.write_all(&hello).unwrap();
    let mut echo = [0u8; 6];
    loris.read_exact(&mut echo).unwrap();
    loris.write_all(&[0xFF, 0x00]).unwrap();
    loris.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut sink = [0u8; 16];
    match loris.read(&mut sink) {
        Ok(0) | Err(_) => {} // cut, or reset — either way the worker is free
        Ok(n) => panic!("expected the stalled connection to be cut, got {n} bytes"),
    }

    // An *idle* connection — no partial frame on the wire — may park far
    // past the IO deadline and still be served: the deadline measures
    // mid-frame silence, not keep-alive idleness.
    let mut idle = Client::connect(server.addr()).unwrap();
    std::thread::sleep(io_timeout * 4);
    let local = local_reference(&[ClusterRequest::mcp(2)]).remove(0);
    let wire = idle.cluster(&call(2)).unwrap().unwrap();
    assert_matches_local(&wire, &local);

    let stats = idle.stats(None).unwrap().unwrap();
    assert_eq!(stats.peer_stalled, 1, "{stats:?}");
}

#[test]
fn pool_rides_over_a_full_server_restart_bit_identically() {
    let g = two_communities();
    let server1 = Server::bind(
        "127.0.0.1:0",
        vec![("g".into(), Arc::clone(&g))],
        base_config(),
        ServerConfig::default(),
    )
    .unwrap()
    .start()
    .unwrap();
    let addr = server1.addr();

    // One slot, so the retry after the restart must notice the dead
    // parked connection (failed Ping health check) and re-dial it.
    let mut pool = ClientPool::new(addr.to_string(), 1, test_policy(5));
    let before = pool.cluster(&call(2)).unwrap();
    assert_eq!(pool.reconnects(), 0);

    server1.stop().unwrap();
    let server2 = Server::bind(addr, vec![("g".into(), g)], base_config(), ServerConfig::default())
        .unwrap()
        .start()
        .unwrap();

    // Same pool, same call: the health check fails, the pool re-dials,
    // and the fresh server (same seed) answers bit-identically.
    let after = pool.cluster(&call(2)).unwrap();
    assert!(pool.reconnects() >= 1, "the dead connection must be detected");
    assert_eq!(before, WireSolve { elapsed_micros: before.elapsed_micros, ..after.clone() });
    let local = local_reference(&[ClusterRequest::mcp(2)]).remove(0);
    assert_matches_local(&after, &local);
    drop(server2);
}
