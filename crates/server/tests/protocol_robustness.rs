//! Protocol robustness: hostile and damaged input must always produce a
//! typed error — never a panic, never a leaked worker. The suite drives a
//! real single-worker server with forged frames, wrong-version
//! handshakes, and torn writes, then fuzzes the pure codecs with
//! proptest.

use std::sync::Arc;
use std::time::Duration;

use ugraph_cluster::ClusterConfig;
use ugraph_graph::{GraphBuilder, UncertainGraph};
use ugraph_sampling::{BlockWidth, EngineKind};
use ugraph_server::protocol::{
    decode_request, decode_response, encode_request, KIND_CLUSTER, MAX_FRAME_LEN,
};
use ugraph_server::{
    Client, ClusterCall, ErrorCode, ProtocolError, Request, Response, RunningServer, Server,
    ServerConfig, WireDepth,
};

fn small_graph() -> Arc<UncertainGraph> {
    let mut b = GraphBuilder::new(6);
    for (u, v) in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)] {
        b.add_edge(u, v, 0.9).unwrap();
    }
    b.add_edge(2, 3, 0.2).unwrap();
    Arc::new(b.build().unwrap())
}

/// One worker on purpose: if any hostile connection hung or leaked its
/// handler, every later request in the test would block forever.
fn start_single_worker() -> RunningServer {
    Server::bind(
        "127.0.0.1:0",
        vec![("g".into(), small_graph())],
        ClusterConfig::default().with_seed(7),
        ServerConfig { workers: 1, ..ServerConfig::default() },
    )
    .unwrap()
    .start()
    .unwrap()
}

fn good_call() -> ClusterCall {
    ClusterCall {
        graph: "g".into(),
        engine: EngineKind::BitParallel,
        width: BlockWidth::W256,
        objective: ugraph_cluster::Objective::MinProb,
        k: 2,
        depth: WireDepth::Unlimited,
        deadline_micros: None,
    }
}

/// A syntactically valid cluster frame to mutilate.
fn valid_frame() -> Vec<u8> {
    encode_request(&Request::Cluster(good_call()))
}

/// Patches the length header after payload surgery so the server reads
/// exactly the bytes we forged.
fn with_fixed_len(mut frame: Vec<u8>) -> Vec<u8> {
    let len = (frame.len() - 4) as u32;
    frame[..4].copy_from_slice(&len.to_le_bytes());
    frame
}

fn expect_error_then_close(server: &RunningServer, frame: &[u8], code: ErrorCode) {
    let mut client = Client::connect(server.addr()).unwrap();
    client.send_raw(frame).unwrap();
    match client.read_response().unwrap() {
        Response::Error(e) => assert_eq!(e.code, code, "{}", e.message),
        other => panic!("expected error frame, got {other:?}"),
    }
    // The server answered, then dropped the desynchronized connection.
    let after = client.read_response();
    assert!(
        matches!(after, Err(ProtocolError::Io(_))),
        "connection must be closed after a protocol error, got {after:?}"
    );
}

#[test]
fn wrong_version_handshake_is_refused_with_the_servers_version() {
    let server = start_single_worker();

    let err = Client::connect_with_version(server.addr(), 99).unwrap_err();
    match err {
        ProtocolError::VersionMismatch { ours, theirs } => {
            assert_eq!(ours, 99);
            assert_eq!(theirs, ugraph_server::PROTOCOL_VERSION, "server announces what it speaks");
        }
        other => panic!("expected VersionMismatch, got {other:?}"),
    }

    // The refusal is per-connection: a speaker of the right version is
    // served immediately afterwards.
    let mut client = Client::connect(server.addr()).unwrap();
    assert!(client.cluster(&good_call()).unwrap().is_ok());
}

#[test]
fn forged_frames_get_typed_errors_and_never_kill_the_server() {
    let server = start_single_worker();

    // Unknown frame kind.
    expect_error_then_close(
        &server,
        &with_fixed_len(vec![0, 0, 0, 0, 0x55]),
        ErrorCode::UnknownKind,
    );

    // Truncated payload (header patched, so the damage is in the body).
    let mut truncated = valid_frame();
    truncated.truncate(truncated.len() - 3);
    expect_error_then_close(&server, &with_fixed_len(truncated), ErrorCode::Malformed);

    // Trailing garbage after a complete payload.
    let mut trailing = valid_frame();
    trailing.push(0xAB);
    expect_error_then_close(&server, &with_fixed_len(trailing), ErrorCode::Malformed);

    // A header announcing more than MAX_FRAME_LEN: rejected before any
    // payload byte is read or allocated.
    expect_error_then_close(&server, &(MAX_FRAME_LEN + 1).to_le_bytes(), ErrorCode::Oversized);

    // A zero-length frame.
    expect_error_then_close(&server, &0u32.to_le_bytes(), ErrorCode::Oversized);

    // A bogus engine name inside an otherwise well-formed frame.
    let bogus = encode_request(&Request::Cluster(good_call()));
    let needle = b"bitparallel";
    let at = bogus.windows(needle.len()).position(|w| w == needle).unwrap();
    let mut wrong_engine = bogus.clone();
    wrong_engine[at..at + needle.len()].copy_from_slice(b"quantumwide");
    expect_error_then_close(&server, &wrong_engine, ErrorCode::Malformed);

    // After six hostile connections the single worker still answers, and
    // the damage is tallied.
    let mut client = Client::connect(server.addr()).unwrap();
    assert!(client.cluster(&good_call()).unwrap().is_ok());
    let stats = client.stats(None).unwrap().unwrap();
    assert_eq!(stats.protocol_errors, 6);
    assert_eq!(stats.cluster_requests, 1);
}

#[test]
fn unknown_graph_is_a_typed_refusal_on_a_healthy_connection() {
    let server = start_single_worker();
    let mut client = Client::connect(server.addr()).unwrap();

    let err =
        client.cluster(&ClusterCall { graph: "nope".into(), ..good_call() }).unwrap().unwrap_err();
    assert_eq!(err.code, ErrorCode::UnknownGraph);

    // Unlike a malformed frame, a well-formed refusal keeps the
    // connection usable.
    assert!(client.cluster(&good_call()).unwrap().is_ok());
    let stats = client.stats(None).unwrap().unwrap();
    assert_eq!(stats.admission_rejections, 1);
    assert_eq!(stats.protocol_errors, 0);
}

#[cfg(feature = "fault-injection")]
#[test]
fn torn_client_write_leaves_the_server_serving() {
    use ugraph_sampling::{faults, FaultPlan, FaultSite};

    let server = start_single_worker();

    // Fault plans are thread-local: the failpoint fires on THIS thread's
    // next wire write — the client side — while server workers write
    // unimpeded.
    let mut doomed = Client::connect(server.addr()).unwrap();
    {
        let _guard = faults::install(FaultPlan::new().fail_at(FaultSite::WireWrite, 1));
        let err = doomed.cluster(&good_call()).unwrap_err();
        assert!(matches!(err, ProtocolError::Fault(_)), "got {err:?}");
    }
    // Half a frame is on the wire; closing the connection leaves the
    // server mid-frame, which it must score as a protocol error — not
    // crash, not hang its only worker.
    drop(doomed);

    let mut client = Client::connect(server.addr()).unwrap();
    assert!(client.cluster(&good_call()).unwrap().is_ok());
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        // The worker notices the dead connection on its next read tick.
        let stats = client.stats(None).unwrap().unwrap();
        if stats.protocol_errors >= 1 {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "torn frame never tallied: {stats:?}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[cfg(feature = "fault-injection")]
#[test]
fn dropped_client_read_is_typed_and_the_stream_survives() {
    use ugraph_sampling::{faults, FaultPlan, FaultSite};

    let server = start_single_worker();
    let mut client = Client::connect(server.addr()).unwrap();

    let _guard = faults::install(FaultPlan::new().fail_at(FaultSite::WireRead, 1));
    client.send_raw(&valid_frame()).unwrap();
    let err = client.read_response().unwrap_err();
    assert!(matches!(err, ProtocolError::Fault(_)), "got {err:?}");
    assert_eq!(faults::hits(FaultSite::WireRead), 1, "the read failpoint must be reached");

    // The failpoint fires before a byte is consumed, so the response is
    // still queued intact: the symmetric half of the WireWrite contract
    // (a failed read never desynchronizes the stream).
    match client.read_response().unwrap() {
        Response::Cluster(_) => {}
        other => panic!("expected the queued cluster answer, got {other:?}"),
    }
    assert_eq!(faults::hits(FaultSite::WireRead), 2);
}

#[cfg(feature = "fault-injection")]
#[test]
fn refused_dial_is_typed_and_the_next_dial_succeeds() {
    use ugraph_sampling::{faults, FaultPlan, FaultSite};

    let server = start_single_worker();

    let _guard = faults::install(FaultPlan::new().fail_at(FaultSite::Connect, 1));
    let err = Client::connect(server.addr()).unwrap_err();
    assert!(matches!(err, ProtocolError::Fault(_)), "got {err:?}");
    assert_eq!(faults::hits(FaultSite::Connect), 1, "the dial failpoint must be reached");

    // Connect refusal is transient by definition — the immediate redial
    // works, which is exactly why the retry policy classes it retryable.
    let mut client = Client::connect(server.addr()).unwrap();
    assert_eq!(faults::hits(FaultSite::Connect), 2);
    assert!(client.cluster(&good_call()).unwrap().is_ok());
}

mod fuzz {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Arbitrary bytes through the request decoder: typed error or
        /// valid request, never a panic, never an absurd allocation.
        #[test]
        fn request_decoder_never_panics(kind in 0u8..=255, payload in proptest::collection::vec(0u8..=255, 0..256)) {
            let _ = decode_request(kind, &payload);
        }

        /// Arbitrary bytes through the response decoder.
        #[test]
        fn response_decoder_never_panics(kind in 0u8..=255, payload in proptest::collection::vec(0u8..=255, 0..256)) {
            let _ = decode_response(kind, &payload);
        }

        /// Every strict prefix of a valid frame is rejected with a typed
        /// error (no partial decode is ever accepted).
        #[test]
        fn truncations_of_a_valid_frame_never_decode(cut in 0usize..100) {
            let frame = valid_frame();
            let payload = &frame[5..];
            prop_assume!(cut < payload.len());
            prop_assert!(decode_request(KIND_CLUSTER, &payload[..cut]).is_err());
        }

        /// Single-byte corruption anywhere in the payload either still
        /// decodes (the byte was free) or fails typed — never panics.
        #[test]
        fn bitflips_never_panic(pos in 0usize..100, flip in 1u8..=255) {
            let frame = valid_frame();
            let mut payload = frame[5..].to_vec();
            prop_assume!(pos < payload.len());
            payload[pos] ^= flip;
            let _ = decode_request(KIND_CLUSTER, &payload);
        }
    }
}
