//! Cluster front-end gates.
//!
//! 1. The sharded N-replica cluster must answer **bit-identically** to the
//!    serial monolithic `Sirius::process`, for the full 42-query input set,
//!    at every swept replica count × routing policy — routing and sharding
//!    are pure performance decisions, never semantic ones.
//! 2. Two server runtimes registered into one shared registry under
//!    distinct prefixes must never alias each other's metrics.
//! 3. The cluster's merged observability (counters summed, histograms
//!    merged at bucket granularity) must account for every query exactly
//!    once.

use std::sync::{Arc, OnceLock};

use sirius::error::{ClusterError, SiriusError};
use sirius::pipeline::{Sirius, SiriusConfig, SiriusInput, SiriusOutcome, SiriusResponse};
use sirius::prepare_input_set;
use sirius_server::{
    ClusterConfig, Request, RoutePolicy, ServerConfig, ServerMetrics, SiriusCluster, SiriusServer,
};

static SIRIUS: OnceLock<Arc<Sirius>> = OnceLock::new();

/// Building Sirius trains every model (seconds); share one instance across
/// the whole test binary.
fn shared_sirius() -> Arc<Sirius> {
    Arc::clone(SIRIUS.get_or_init(|| Arc::new(Sirius::build(SiriusConfig::default()))))
}

/// The fields that must match bit-for-bit (timing is wall-clock and always
/// differs between runs).
fn payload(r: &SiriusResponse) -> (String, SiriusOutcome, Option<String>) {
    (
        r.recognized.clone(),
        r.outcome.clone(),
        r.matched_venue.clone(),
    )
}

#[test]
fn cluster_outputs_identical_to_serial_for_every_size_and_policy() {
    let sirius = shared_sirius();
    let prepared = prepare_input_set(&sirius, 4242);
    assert_eq!(prepared.len(), 42, "the full input set");
    let serial: Vec<_> = prepared
        .iter()
        .map(|p| sirius.process(&p.input()))
        .collect();

    for replicas in [1u32, 2, 4] {
        for route in RoutePolicy::ALL {
            let cluster = SiriusCluster::start(
                &sirius,
                ClusterConfig::new(replicas)
                    .with_route(route)
                    .with_server(ServerConfig::default().with_queue_depth(64)),
            )
            .expect("cluster start");
            assert_eq!(cluster.len(), replicas as usize);
            for (p, expect) in prepared.iter().zip(&serial) {
                let got = cluster
                    .process_sync(p.input())
                    .unwrap_or_else(|e| panic!("{} failed: {e}", p.spec.text));
                assert_eq!(
                    payload(&got),
                    payload(expect),
                    "{} diverged at N={replicas} route={route}",
                    p.spec.text
                );
            }
            // Every query accounted exactly once across the replicas.
            let snapshot = cluster.metrics_snapshot();
            assert_eq!(cluster.merged_counter(&snapshot, "completed"), 42);
            assert_eq!(cluster.merged_counter(&snapshot, "failed"), 0);
            let sojourn = cluster.merged_histogram(&snapshot, "sojourn_ns");
            assert_eq!(sojourn.count, 42);
            cluster.shutdown();
        }
    }
}

#[test]
fn round_robin_spreads_queries_across_all_replicas() {
    let sirius = shared_sirius();
    let prepared = prepare_input_set(&sirius, 4242);
    let cluster = SiriusCluster::start(
        &sirius,
        ClusterConfig::new(4).with_server(ServerConfig::default().with_queue_depth(64)),
    )
    .expect("cluster start");
    let mut served = vec![0usize; cluster.len()];
    for p in prepared.iter().take(12) {
        let ticket = cluster.submit(p.input()).expect("submit");
        served[ticket.replica()] += 1;
        ticket.wait().expect("wait");
    }
    assert_eq!(served, vec![3, 3, 3, 3], "12 round-robin submits over 4");
    cluster.shutdown();
}

#[test]
fn consistent_hash_routes_identical_inputs_to_one_replica() {
    let sirius = shared_sirius();
    let prepared = prepare_input_set(&sirius, 4242);
    let cluster = SiriusCluster::start(
        &sirius,
        ClusterConfig::new(4)
            .with_route(RoutePolicy::ConsistentHash)
            .with_server(ServerConfig::default().with_queue_depth(64)),
    )
    .expect("cluster start");
    let mut hit = vec![false; cluster.len()];
    for p in &prepared {
        let input = p.input();
        let first = cluster.route(&input);
        // Routing is stateless for hashing: the same input re-routes to the
        // same replica, every time.
        assert_eq!(cluster.route(&input), first, "{}", p.spec.text);
        hit[first] = true;
    }
    assert!(
        hit.iter().filter(|&&h| h).count() >= 2,
        "42 distinct inputs should spread over several replicas: {hit:?}"
    );
    cluster.shutdown();
}

#[test]
fn cluster_deadline_admission_sheds_with_replica_context() {
    let sirius = shared_sirius();
    let prepared = prepare_input_set(&sirius, 4242);
    let cluster = SiriusCluster::start(
        &sirius,
        ClusterConfig::new(2)
            .with_route(RoutePolicy::LeastSojourn)
            .with_server(ServerConfig::default().with_queue_depth(64)),
    )
    .expect("cluster start");
    // Warm the service meters so the sojourn estimate is non-zero.
    for p in prepared.iter().take(4) {
        cluster.process_sync(p.input()).expect("warmup");
    }
    assert!(cluster.expected_sojourn() > std::time::Duration::ZERO);
    // An impossible deadline is shed up front by the routed replica, typed
    // with which replica made the call.
    let err = cluster
        .submit(
            Request::from(prepared[0].input()).with_deadline(std::time::Duration::from_nanos(1)),
        )
        .expect_err("1ns deadline cannot be meetable on a warmed runtime");
    match err {
        ClusterError::Replica { replica, source } => {
            assert!(replica < cluster.len());
            assert!(
                matches!(source, SiriusError::DeadlineUnmeetable { .. }),
                "{source:?}"
            );
        }
        other => panic!("expected a replica-scoped shed, got {other:?}"),
    }
    // A generous deadline is admitted and served.
    let ok = cluster
        .submit(
            Request::from(prepared[0].input()).with_deadline(std::time::Duration::from_secs(600)),
        )
        .expect("generous deadline admits")
        .wait()
        .expect("serves");
    assert!(!ok.recognized.is_empty());
    cluster.shutdown();
}

#[test]
fn zero_replica_cluster_is_a_typed_error() {
    let sirius = shared_sirius();
    assert_eq!(
        SiriusCluster::start(&sirius, ClusterConfig::new(0)).unwrap_err(),
        ClusterError::NoReplicas
    );
}

#[test]
fn two_servers_in_one_registry_do_not_alias_metrics() {
    // Regression for the single-registry world: two full runtimes wired
    // into one registry under distinct prefixes keep disjoint metrics —
    // queue gauges included — and their snapshots never bleed into each
    // other.
    let sirius = shared_sirius();
    let prepared = prepare_input_set(&sirius, 4242);
    let registry = sirius_obs::Registry::new();
    let a = SiriusServer::start_with(
        Arc::clone(&sirius),
        ServerConfig::default(),
        Arc::new(sirius_obs::NoopRecorder),
        ServerMetrics::in_registry(registry.clone(), "replica0."),
    );
    let b = SiriusServer::start_with(
        Arc::clone(&sirius),
        ServerConfig::default(),
        Arc::new(sirius_obs::NoopRecorder),
        ServerMetrics::in_registry(registry.clone(), "replica1."),
    );
    // 3 queries through a, 1 through b.
    for p in prepared.iter().take(3) {
        a.process_sync(p.input()).expect("a serves");
    }
    b.process_sync(prepared[3].input()).expect("b serves");

    let snap_a = a.metrics_snapshot();
    let snap_b = b.metrics_snapshot();
    for snap in [&snap_a, &snap_b] {
        assert_eq!(snap.counter("replica0.completed"), Some(3));
        assert_eq!(snap.counter("replica1.completed"), Some(1));
        assert_eq!(
            snap.histogram("replica0.sojourn_ns").map(|h| h.count),
            Some(3)
        );
        assert_eq!(
            snap.histogram("replica1.sojourn_ns").map(|h| h.count),
            Some(1)
        );
        // Gauges are registered per prefix too (capacity is config, not
        // traffic, so both exist independently).
        assert_eq!(snap.gauge("replica0.asr.queue_capacity"), Some(16));
        assert_eq!(snap.gauge("replica1.asr.queue_capacity"), Some(16));
        // The unprefixed single-server names must not appear at all.
        assert_eq!(snap.counter("completed"), None);
        assert!(snap.gauge("asr.queue_depth").is_none());
    }
    a.shutdown();
    b.shutdown();
}

#[test]
fn empty_input_still_routes_and_serves() {
    // Degenerate input (short silence) exercises the hash key on tiny
    // audio and the merge path on an empty-ish transcript.
    let sirius = shared_sirius();
    let cluster = SiriusCluster::start(
        &sirius,
        ClusterConfig::new(2).with_route(RoutePolicy::ConsistentHash),
    )
    .expect("cluster start");
    let input = SiriusInput {
        audio: vec![0.0; 1600],
        image: None,
    };
    let serial = sirius.process(&input);
    let got = cluster.process_sync(input).expect("serves silence");
    assert_eq!(payload(&got), payload(&serial));
    cluster.shutdown();
}
