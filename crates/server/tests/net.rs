//! Network front-end gates: the TCP serving boundary must not change what
//! is served, and nothing a client sends may destabilise the server.
//!
//! 1. Remote answers over the frame protocol are bit-identical to
//!    in-process classed `submit` for the full 42-query input set across
//!    every tenant class, and the per-tenant ledger accounts for both.
//! 2. Concurrent remote clients (N threads × tenant classes) stay
//!    bit-identical and the ledger balances across replicas.
//! 3. Hostile openings — bad magic, alien version, oversize length claims,
//!    undecodable bodies, truncation — are answered with typed error
//!    frames or a clean close; the listener survives and keeps serving.
//! 4. A seeded random-bytes fuzz loop at the socket layer: no handler
//!    panics, every connection terminates.
//! 5. `GET /metrics` on the same socket serves Prometheus text carrying
//!    both replica and `net.` series; other paths 404.
//! 6. Shutdown drains cleanly while a connection is parked mid-stream.
//! 7. A request naming both a tenant class and a deadline means the same
//!    thing remotely as in-process (regression: the wire dispatch used to
//!    drop the deadline whenever a class was named).

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use sirius::error::{ClusterError, SiriusError};
use sirius::pipeline::{Sirius, SiriusConfig, SiriusResponse};
use sirius::prepare_input_set;
use sirius_server::{
    read_frame, ClusterConfig, Frame, FrameRead, NetClient, NetClientError, NetConfig, NetServer,
    Request, RoutePolicy, ServerConfig, SiriusCluster, TenantClass, WireFault, MAX_FRAME_BODY,
};

static SIRIUS: OnceLock<Arc<Sirius>> = OnceLock::new();

fn shared_sirius() -> Arc<Sirius> {
    Arc::clone(SIRIUS.get_or_init(|| Arc::new(Sirius::build(SiriusConfig::default()))))
}

const CLASSES: [&str; 3] = ["premium", "standard", "best_effort"];

/// Tenant classes with hour-scale SLOs: admission never sheds, so the
/// bit-identity gates exercise the full pipeline for every query.
fn lenient_classes() -> Vec<TenantClass> {
    let slo = Duration::from_secs(3600);
    vec![
        TenantClass::new("premium", slo, 3),
        TenantClass::new("standard", slo, 2),
        TenantClass::new("best_effort", slo, 1),
    ]
}

fn start_net(replicas: u32) -> NetServer {
    let sirius = shared_sirius();
    let cluster = SiriusCluster::start(
        &sirius,
        ClusterConfig::new(replicas)
            .with_route(RoutePolicy::RoundRobin)
            .with_server(ServerConfig::default().with_tenant_classes(lenient_classes())),
    )
    .expect("cluster starts");
    NetServer::serve(cluster, "127.0.0.1:0", NetConfig::default()).expect("listener binds")
}

/// The payload fields of a response — everything except timing, which
/// legitimately differs between runs of the same query.
fn payload(r: &SiriusResponse) -> (String, sirius::pipeline::SiriusOutcome, Option<String>) {
    (
        r.recognized.clone(),
        r.outcome.clone(),
        r.matched_venue.clone(),
    )
}

/// Sums `tenant.{class}.{counter}` across every replica of the cluster.
fn tenant_total(net: &NetServer, class: &str, counter: &str) -> u64 {
    let snap = net.cluster().metrics_snapshot();
    net.cluster()
        .merged_counter(&snap, &format!("tenant.{class}.{counter}"))
}

/// `net.frames_out`, given a bounded moment to reach `expected`: a handler
/// counts a frame after writing it, so the client can hold its answer a
/// beat before the counter lands.
fn settled_frames_out(net: &NetServer, expected: u64) -> Option<u64> {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let seen = net.cluster().metrics_snapshot().counter("net.frames_out");
        if seen == Some(expected) || std::time::Instant::now() >= deadline {
            return seen;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn remote_answers_are_bit_identical_to_in_process_across_tenant_classes() {
    let net = start_net(2);
    let prepared = prepare_input_set(&shared_sirius(), 777);
    assert_eq!(prepared.len(), 42, "the full input set");
    let mut client = NetClient::connect(net.local_addr()).expect("client connects");

    for (i, p) in prepared.iter().enumerate() {
        let class = CLASSES[i % CLASSES.len()];
        let remote = client
            .submit(&p.input(), class, None)
            .expect("remote classed query served");
        let local = net
            .cluster()
            .submit(Request::from(p.input()).with_class(class))
            .expect("in-process admit")
            .wait()
            .expect("in-process query served");
        assert_eq!(
            payload(&remote),
            payload(&local),
            "remote answer must be bit-identical to in-process classed submit (query {i})"
        );
    }

    // Both the remote and the in-process pass went through the same classed
    // admission, so each class's ledger holds exactly two passes' worth.
    for (c, class) in CLASSES.iter().enumerate() {
        let queries = (c..prepared.len()).step_by(CLASSES.len()).count() as u64;
        let expected = 2 * queries; // one remote + one in-process pass
        assert_eq!(
            tenant_total(&net, class, "accepted"),
            expected,
            "class {class} accepted ledger"
        );
        assert_eq!(
            tenant_total(&net, class, "completed"),
            expected,
            "class {class} completed ledger"
        );
        assert_eq!(tenant_total(&net, class, "failed"), 0);
    }

    let snap = net.cluster().metrics_snapshot();
    assert_eq!(snap.counter("net.frames_in"), Some(42));
    assert_eq!(settled_frames_out(&net, 42), Some(42));
    assert_eq!(snap.counter("net.errors_protocol"), Some(0));
    assert_eq!(snap.counter("net.handler_panics"), Some(0));
    assert!(snap.counter("net.bytes_in").unwrap() > 0);
    assert!(snap.counter("net.bytes_out").unwrap() > 0);
    net.shutdown();
}

#[test]
fn concurrent_remote_clients_stay_bit_identical_and_balance_the_ledger() {
    let net = start_net(2);
    let prepared = prepare_input_set(&shared_sirius(), 4242);

    // Class-less in-process baseline (leaves the tenant ledger untouched).
    let expected: Vec<_> = prepared
        .iter()
        .map(|p| {
            let r = net
                .cluster()
                .submit(p.input())
                .expect("baseline admit")
                .wait()
                .expect("baseline served");
            payload(&r)
        })
        .collect();

    // Six clients, two per class; thread t serves every query i with
    // i ≡ t (mod 3), so each class sees each congruence class twice.
    const THREADS: usize = 6;
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let net = &net;
            let prepared = &prepared;
            let expected = &expected;
            scope.spawn(move || {
                let mut client = NetClient::connect(net.local_addr()).expect("client connects");
                for (i, p) in prepared.iter().enumerate() {
                    if i % CLASSES.len() != t % CLASSES.len() {
                        continue;
                    }
                    let remote = client
                        .submit(&p.input(), CLASSES[t % CLASSES.len()], None)
                        .expect("concurrent remote query served");
                    assert_eq!(
                        payload(&remote),
                        expected[i],
                        "thread {t} query {i}: remote answer diverged from in-process"
                    );
                }
            });
        }
    });

    for (c, class) in CLASSES.iter().enumerate() {
        let queries = (c..prepared.len()).step_by(CLASSES.len()).count() as u64;
        let expected_accepted = 2 * queries; // two threads per class
        assert_eq!(
            tenant_total(&net, class, "accepted"),
            expected_accepted,
            "class {class} accepted ledger balances across replicas"
        );
        assert_eq!(
            tenant_total(&net, class, "completed"),
            expected_accepted,
            "class {class} completed ledger"
        );
        assert_eq!(tenant_total(&net, class, "failed"), 0);
    }

    let snap = net.cluster().metrics_snapshot();
    let remote_queries = 2 * prepared.len() as u64; // 6 threads × 14 queries
    assert_eq!(snap.counter("net.frames_in"), Some(remote_queries));
    assert_eq!(
        settled_frames_out(&net, remote_queries),
        Some(remote_queries)
    );
    assert_eq!(snap.counter("net.handler_panics"), Some(0));
    assert_eq!(snap.counter("net.connections_opened"), Some(THREADS as u64));
    net.shutdown();
}

/// Reads one frame off a raw hostile connection with a client-side timeout
/// so a wedged server fails the test instead of hanging it.
fn read_reply(stream: &mut TcpStream) -> FrameRead {
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("set timeout");
    read_frame(stream)
}

fn expect_protocol_error(reply: FrameRead, what: &str) -> String {
    match reply {
        FrameRead::Frame(Frame::Error(WireFault::Protocol { message })) => message,
        other => panic!("{what}: expected a typed protocol-error frame, got {other:?}"),
    }
}

#[test]
fn hostile_frames_get_typed_errors_and_the_listener_survives() {
    let net = start_net(1);
    let addr = net.local_addr();

    // Bad magic (one exact header's worth): answered with a typed error
    // frame, then closed.
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(b"JUNK\x01\x01\x00\x00\x00\x00").unwrap();
    s.shutdown(Shutdown::Write).unwrap();
    let msg = expect_protocol_error(read_reply(&mut s), "bad magic");
    assert!(msg.contains("magic"), "{msg}");
    assert!(matches!(read_reply(&mut s), FrameRead::Closed));

    // Alien protocol version.
    let mut s = TcpStream::connect(addr).unwrap();
    let mut header = Vec::from(*b"SIRF");
    header.push(99); // version
    header.push(0x01); // Submit
    header.extend_from_slice(&0u32.to_le_bytes());
    s.write_all(&header).unwrap();
    let msg = expect_protocol_error(read_reply(&mut s), "bad version");
    assert!(msg.contains("version"), "{msg}");

    // Oversize length claim: rejected before any allocation.
    let mut s = TcpStream::connect(addr).unwrap();
    let mut header = Vec::from(*b"SIRF");
    header.push(1);
    header.push(0x01);
    header.extend_from_slice(&(MAX_FRAME_BODY + 1).to_le_bytes());
    s.write_all(&header).unwrap();
    let msg = expect_protocol_error(read_reply(&mut s), "oversize claim");
    assert!(msg.contains("exceeds") && msg.contains("limit"), "{msg}");

    // Valid header, undecodable body.
    let mut s = TcpStream::connect(addr).unwrap();
    let mut frame = Vec::from(*b"SIRF");
    frame.push(1);
    frame.push(0x01);
    frame.extend_from_slice(&16u32.to_le_bytes());
    frame.extend_from_slice(&[0xFF; 16]);
    s.write_all(&frame).unwrap();
    expect_protocol_error(read_reply(&mut s), "garbage body");

    // Truncated body then half-close: the server must close cleanly, not
    // hang waiting for the missing bytes.
    let mut s = TcpStream::connect(addr).unwrap();
    let mut frame = Vec::from(*b"SIRF");
    frame.push(1);
    frame.push(0x01);
    frame.extend_from_slice(&100u32.to_le_bytes());
    frame.extend_from_slice(&[0u8; 10]);
    s.write_all(&frame).unwrap();
    s.shutdown(Shutdown::Write).unwrap();
    assert!(matches!(read_reply(&mut s), FrameRead::Closed));

    // An unknown tenant class travels back as the lossless typed error.
    let prepared = prepare_input_set(&shared_sirius(), 11);
    let mut client = NetClient::connect(addr).unwrap();
    match client.submit(&prepared[0].input(), "platinum", None) {
        Err(NetClientError::Fault(WireFault::Cluster(ClusterError::Replica {
            replica,
            source: SiriusError::UnknownTenantClass { class },
        }))) => {
            assert_eq!(replica, 0);
            assert_eq!(class, "platinum");
        }
        other => panic!("expected the typed UnknownTenantClass fault, got {other:?}"),
    }

    // After all that abuse the listener still serves real queries.
    let served = client
        .submit(&prepared[0].input(), "premium", None)
        .expect("server survives hostile peers");
    let local = net
        .cluster()
        .submit(Request::from(prepared[0].input()).with_class("premium"))
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(payload(&served), payload(&local));

    let snap = net.cluster().metrics_snapshot();
    assert_eq!(snap.counter("net.handler_panics"), Some(0));
    assert!(snap.counter("net.errors_protocol").unwrap() >= 4);
    net.shutdown();
}

/// SplitMix64 — deterministic seeds for the fuzz loop.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[test]
fn socket_fuzz_random_bytes_never_kill_the_server() {
    let net = start_net(1);
    let addr = net.local_addr();
    let mut rng = Mix(0x5EED_F00D);

    for case in 0..48 {
        let mut bytes = Vec::new();
        if case % 2 == 0 {
            // Half the cases open with a plausible header so the body
            // decoders — not just the header validator — get exercised.
            bytes.extend_from_slice(b"SIRF");
            bytes.push(1);
            bytes.push((rng.next() % 4) as u8);
            bytes.extend_from_slice(&((rng.next() % 256) as u32).to_le_bytes());
        }
        let len = (rng.next() % 300) as usize;
        bytes.extend((0..len).map(|_| (rng.next() & 0xFF) as u8));

        let mut s = TcpStream::connect(addr).expect("fuzz connect");
        s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        let _ = s.write_all(&bytes);
        let _ = s.shutdown(Shutdown::Write);
        // The connection must terminate: an answer, an error frame, a
        // close, or a reset (the server closing with unread hostile bytes
        // pending sends RST) — never a hang; the client-side timeout turns
        // a hang into a test failure.
        let mut sink = Vec::new();
        match s.read_to_end(&mut sink) {
            Ok(_) => {}
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
            Err(e) => panic!("fuzz case {case}: connection hung or failed oddly: {e}"),
        }
    }

    // The server took 48 hostile connections without a single handler
    // panic, and still serves.
    let prepared = prepare_input_set(&shared_sirius(), 99);
    let mut client = NetClient::connect(addr).unwrap();
    client
        .submit(&prepared[0].input(), "standard", None)
        .expect("server serves after the fuzz barrage");
    let snap = net.cluster().metrics_snapshot();
    assert_eq!(snap.counter("net.handler_panics"), Some(0));
    assert_eq!(snap.counter("net.connections_opened"), Some(49));
    // The client observes a close a beat before the handler's bookkeeping
    // lands, so give the counters a bounded moment to settle.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let closed = net
            .cluster()
            .metrics_snapshot()
            .counter("net.connections_closed")
            .unwrap();
        if closed == 48 {
            break; // every fuzz handler exited; only the live client remains
        }
        assert!(
            std::time::Instant::now() < deadline,
            "fuzz handlers never finished closing: {closed}/48"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    net.shutdown();
}

#[test]
fn metrics_scrape_serves_prometheus_on_the_same_socket() {
    let net = start_net(2);
    let addr = net.local_addr();

    // Put one query through so replica series carry data.
    let prepared = prepare_input_set(&shared_sirius(), 3);
    let mut client = NetClient::connect(addr).unwrap();
    client
        .submit(&prepared[0].input(), "premium", None)
        .expect("query served");

    let (status, body) = sirius_server::http_get(addr, "/metrics").expect("scrape");
    assert_eq!(status, 200);
    assert!(
        body.contains("# TYPE"),
        "Prometheus exposition format expected:\n{body}"
    );
    assert!(body.contains("replica0_"), "replica series exported");
    assert!(body.contains("replica1_"), "every replica exported");
    assert!(
        body.contains("net_connections_opened"),
        "front-end series exported"
    );
    assert!(body.contains("net_frames_in"), "frame counters exported");

    let (status, _) = sirius_server::http_get(addr, "/somewhere").expect("scrape");
    assert_eq!(status, 404);

    let snap = net.cluster().metrics_snapshot();
    assert_eq!(
        snap.counter("net.http_scrapes"),
        Some(1),
        "404s don't count"
    );
    net.shutdown();
}

#[test]
fn shutdown_drains_cleanly_with_a_parked_connection() {
    let net = start_net(1);
    let prepared = prepare_input_set(&shared_sirius(), 8);
    let mut client = NetClient::connect(net.local_addr()).expect("client connects");
    client
        .submit(&prepared[0].input(), "premium", None)
        .expect("query served before shutdown");

    // The connection stays open, its handler parked in a blocking read.
    // Shutdown must unblock it, join every thread and drain the cluster —
    // if it wedges, the test harness times out.
    net.shutdown();

    if let Ok(r) = client.submit(&prepared[0].input(), "premium", None) {
        panic!("server answered after shutdown: {:?}", r.outcome);
    }
}

#[test]
fn a_classed_deadline_survives_the_wire() {
    let net = start_net(1);
    let prepared = prepare_input_set(&shared_sirius(), 1729);
    let input = prepared[0].input();
    let mut client = NetClient::connect(net.local_addr()).expect("client connects");
    // Seed the replica's estimator; idle, it reads the same on every call.
    net.cluster().replicas()[0]
        .metrics()
        .asr
        .service_meter
        .record_duration(Duration::from_millis(300));
    let expected = net.cluster().expected_sojourn();

    // Tighter than the (hour-scale) class budget: the remote shed is the
    // in-process shed, reporting the request's own deadline.
    let tight = Duration::from_millis(50);
    let remote = match client.submit(&input, "premium", Some(tight)) {
        Err(NetClientError::Fault(WireFault::Cluster(e))) => e,
        other => panic!("the tight deadline must be shed remotely, got {other:?}"),
    };
    let local = net
        .cluster()
        .submit(
            Request::from(input.clone())
                .with_class("premium")
                .with_deadline(tight),
        )
        .expect_err("and in-process");
    assert_eq!(remote, local);
    assert_eq!(
        local,
        ClusterError::Replica {
            replica: 0,
            source: SiriusError::DeadlineUnmeetable {
                expected,
                deadline: tight,
                retry_after: expected - tight,
            },
        }
    );
    assert_eq!(tenant_total(&net, "premium", "shed_deadline"), 2);

    // Looser than the class SLO: served, exactly as classed-only.
    let loose = Duration::from_secs(2 * 3600);
    let remote = client
        .submit(&input, "premium", Some(loose))
        .expect("a loose deadline is served");
    let classed_only = client
        .submit(&input, "premium", None)
        .expect("classed-only served");
    assert_eq!(payload(&remote), payload(&classed_only));
    assert_eq!(tenant_total(&net, "premium", "completed"), 2);
    net.shutdown();
}
