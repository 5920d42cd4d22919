//! Multi-tenant QoS gates: result-cache bit-identity and weighted
//! admission.
//!
//! 1. With caching on, the warm pass over the full 42-query input set is
//!    answered entirely from the cache — and every answer is bit-identical
//!    to the cold pass (single server and N ∈ {2, 4} clusters).
//! 2. A cache-disabled server and a force-warm cache-enabled server return
//!    identical answers: the cache can never change *what* is served, only
//!    how fast.
//! 3. Weighted admission sheds best-effort traffic while premium traffic
//!    with the same SLO is still admitted, the shed's `retry_after` hint
//!    reflects the class's *weighted* budget (regression for the per-class
//!    drain-rate fix), and the per-class counters export.
//! 4. `invalidate_result_caches` makes every prior entry unreachable: the
//!    next pass misses (counting `stale` on collision) yet still serves
//!    bit-identical answers.

use std::sync::{Arc, OnceLock};
use std::time::Duration;

use sirius::error::SiriusError;
use sirius::pipeline::{Sirius, SiriusConfig, SiriusResponse};
use sirius::prepare_input_set;
use sirius_server::{
    CachePolicy, ClusterConfig, Request, RoutePolicy, ServerConfig, SiriusCluster, SiriusServer,
    TenantClass,
};

static SIRIUS: OnceLock<Arc<Sirius>> = OnceLock::new();

fn shared_sirius() -> Arc<Sirius> {
    Arc::clone(SIRIUS.get_or_init(|| Arc::new(Sirius::build(SiriusConfig::default()))))
}

/// The payload fields of a response — everything except timing, which
/// legitimately differs between a served and a cached answer.
fn payload(r: &SiriusResponse) -> (String, sirius::pipeline::SiriusOutcome, Option<String>) {
    (
        r.recognized.clone(),
        r.outcome.clone(),
        r.matched_venue.clone(),
    )
}

fn cached_config() -> ServerConfig {
    ServerConfig::default().with_cache_policy(CachePolicy::enabled())
}

#[test]
fn warm_pass_is_all_hits_and_bit_identical_on_a_single_server() {
    let sirius = shared_sirius();
    let prepared = prepare_input_set(&sirius, 90210);
    assert_eq!(prepared.len(), 42, "the full input set");
    let server = SiriusServer::start(Arc::clone(&sirius), cached_config());

    let cold: Vec<_> = prepared
        .iter()
        .map(|p| server.process_sync(p.input()).expect("cold query served"))
        .collect();
    let caches = server.caches().expect("cache policy enabled");
    let (cold_hits, cold_lookups) = caches.totals();
    assert_eq!(cold_hits, 0, "a cold cache cannot hit");
    assert_eq!(cold_lookups, 42, "every admitted query consults the cache");

    let warm: Vec<_> = prepared
        .iter()
        .map(|p| server.process_sync(p.input()).expect("warm query served"))
        .collect();
    let (hits, lookups) = caches.totals();
    assert_eq!(hits, 42, "the warm pass is answered entirely from cache");
    assert_eq!(lookups, 84);

    for (c, w) in cold.iter().zip(&warm) {
        assert_eq!(
            payload(c),
            payload(w),
            "cached answer must be bit-identical"
        );
    }
    // A cache hit skips Classify/IMM/QA entirely: its timing records zero
    // classify time, and the stage service histograms only ever saw the
    // cold pass.
    let snap = server.metrics_snapshot();
    assert_eq!(
        snap.counter("cache.qa.hit").unwrap() + snap.counter("cache.imm.hit").unwrap(),
        42
    );
    assert_eq!(
        snap.histogram("classify.service_ns").unwrap().count,
        42,
        "warm-pass hits never reach the classify stage"
    );
    server.shutdown();
}

#[test]
fn cache_disabled_and_force_warm_servers_agree_exactly() {
    let sirius = shared_sirius();
    let prepared = prepare_input_set(&sirius, 555);

    let plain = SiriusServer::start(Arc::clone(&sirius), ServerConfig::default());
    assert!(plain.caches().is_none(), "caching is opt-in");
    let cached = SiriusServer::start(Arc::clone(&sirius), cached_config());
    // Force the cache warm, then serve every query again out of it.
    for p in prepared.iter() {
        cached
            .process_sync(p.input())
            .expect("warming query served");
    }
    for p in prepared.iter() {
        let uncached = plain.process_sync(p.input()).expect("plain server serves");
        let hit = cached
            .process_sync(p.input())
            .expect("cached server serves");
        assert_eq!(payload(&uncached), payload(&hit));
    }
    let (hits, _) = cached.caches().unwrap().totals();
    assert_eq!(hits, 42, "the second pass was served from cache");
    plain.shutdown();
    cached.shutdown();
}

#[test]
fn cluster_warm_passes_are_bit_identical_and_hash_affinity_concentrates_hits() {
    let sirius = shared_sirius();
    let prepared = prepare_input_set(&sirius, 31337);

    for replicas in [2u32, 4] {
        let cluster = SiriusCluster::start(
            &sirius,
            ClusterConfig::new(replicas)
                .with_route(RoutePolicy::ConsistentHash)
                .with_server(cached_config()),
        )
        .expect("cluster starts");

        let cold: Vec<_> = prepared
            .iter()
            .map(|p| cluster.process_sync(p.input()).expect("cold query served"))
            .collect();
        let warm: Vec<_> = prepared
            .iter()
            .map(|p| cluster.process_sync(p.input()).expect("warm query served"))
            .collect();
        for (c, w) in cold.iter().zip(&warm) {
            assert_eq!(
                payload(c),
                payload(w),
                "N={replicas}: cached answer must be bit-identical"
            );
        }
        // Consistent-hash affinity pins each query to one replica, so the
        // warm pass finds every entry exactly where the cold pass filled it.
        let snap = cluster.metrics_snapshot();
        let (hits, lookups) = cluster.cache_totals(&snap);
        assert_eq!(
            hits, 42,
            "N={replicas}: warm pass is all hits under hash affinity"
        );
        assert_eq!(lookups, 84, "N={replicas}");
        cluster.shutdown();
    }
}

#[test]
fn invalidation_makes_the_whole_cache_unreachable_without_changing_answers() {
    let sirius = shared_sirius();
    let prepared = prepare_input_set(&sirius, 2026);
    let server = SiriusServer::start(Arc::clone(&sirius), cached_config());

    let cold: Vec<_> = prepared
        .iter()
        .map(|p| server.process_sync(p.input()).expect("cold query served"))
        .collect();
    server.invalidate_result_caches();

    let after: Vec<_> = prepared
        .iter()
        .map(|p| {
            server
                .process_sync(p.input())
                .expect("post-invalidation query served")
        })
        .collect();
    let (hits, lookups) = server.caches().unwrap().totals();
    assert_eq!(hits, 0, "no pre-invalidation entry may be served");
    assert_eq!(lookups, 84);
    for (c, a) in cold.iter().zip(&after) {
        assert_eq!(payload(c), payload(a), "re-served answers stay identical");
    }
    // And the invalidated generation is gone for good: a third pass hits
    // on the *re-filled* entries only.
    for p in prepared.iter() {
        server
            .process_sync(p.input())
            .expect("re-warm query served");
    }
    let (hits, _) = server.caches().unwrap().totals();
    assert_eq!(hits, 42);
    server.shutdown();
}

fn tenant_config() -> ServerConfig {
    ServerConfig::default()
        .with_cache_policy(CachePolicy::enabled())
        .with_tenant_classes(vec![
            TenantClass::new("premium", 0, Duration::from_millis(400), 4),
            TenantClass::new("best_effort", 2, Duration::from_millis(400), 1),
        ])
}

#[test]
fn weighted_admission_sheds_best_effort_before_premium() {
    let sirius = shared_sirius();
    let prepared = prepare_input_set(&sirius, 424242);
    let server = SiriusServer::start(Arc::clone(&sirius), tenant_config());

    // Seed the estimator deterministically: a 300 ms ASR mean puts the
    // expected sojourn between best-effort's weighted budget
    // (400 ms × 1/4 = 100 ms) and premium's (400 ms × 4/4 = 400 ms).
    server
        .metrics()
        .asr
        .service_meter
        .record_duration(Duration::from_millis(300));
    let expected = server.expected_sojourn();
    assert!(
        expected > Duration::from_millis(100) && expected <= Duration::from_millis(400),
        "estimator seed must split the two budgets, got {expected:?}"
    );

    let premium = server
        .submit(Request::from(prepared[0].input()).with_class("premium"))
        .expect("premium is admitted at full weight");
    match server.submit(Request::from(prepared[1].input()).with_class("best_effort")) {
        Err(SiriusError::DeadlineUnmeetable {
            expected,
            deadline,
            retry_after,
        }) => {
            assert_eq!(deadline, Duration::from_millis(400), "the class SLO");
            // Regression: the hint drains to the *weighted* budget, not the
            // raw SLO. expected ≤ deadline here, so the old
            // `expected − deadline` hint would have been zero.
            assert_eq!(retry_after, expected - Duration::from_millis(100));
            assert!(retry_after > Duration::ZERO);
        }
        Err(other) => panic!("best-effort must be shed by weighted admission, got {other:?}"),
        Ok(_) => panic!("best-effort must be shed by weighted admission, got an admit"),
    }
    premium.wait().expect("premium query completes");

    let snap = server.metrics_snapshot();
    assert_eq!(snap.counter("tenant.premium.accepted"), Some(1));
    assert_eq!(snap.counter("tenant.premium.completed"), Some(1));
    assert_eq!(snap.counter("tenant.premium.shed_deadline"), Some(0));
    assert_eq!(snap.gauge("tenant.premium.in_flight"), Some(0));
    assert_eq!(
        snap.histogram("tenant.premium.sojourn_ns").unwrap().count,
        1
    );
    assert_eq!(snap.counter("tenant.best_effort.accepted"), Some(0));
    assert_eq!(snap.counter("tenant.best_effort.shed_deadline"), Some(1));
    assert_eq!(snap.counter("admission.shed_deadline"), Some(1));
    server.shutdown();
}

#[test]
fn classed_cache_hits_are_attributed_to_their_tenant() {
    let sirius = shared_sirius();
    let prepared = prepare_input_set(&sirius, 808);
    let server = SiriusServer::start(Arc::clone(&sirius), tenant_config());

    let input = prepared[0].input();
    let cold = server
        .submit(Request::from(input.clone()).with_class("premium"))
        .expect("cold query admitted")
        .wait()
        .expect("cold query served");
    let warm = server
        .submit(Request::from(input).with_class("best_effort"))
        .expect("warm query admitted on a cold estimator")
        .wait()
        .expect("warm query served");
    assert_eq!(payload(&cold), payload(&warm));

    let snap = server.metrics_snapshot();
    assert_eq!(snap.counter("tenant.premium.cache_hit"), Some(0));
    assert_eq!(snap.counter("tenant.best_effort.cache_hit"), Some(1));
    assert_eq!(snap.counter("tenant.best_effort.completed"), Some(1));
    server.shutdown();
}

#[test]
fn unknown_tenant_class_is_a_typed_error() {
    let sirius = shared_sirius();
    let prepared = prepare_input_set(&sirius, 99);
    let server = SiriusServer::start(Arc::clone(&sirius), tenant_config());
    match server.submit(Request::from(prepared[0].input()).with_class("platinum")) {
        Err(SiriusError::UnknownTenantClass { class }) => assert_eq!(class, "platinum"),
        Err(other) => panic!("expected UnknownTenantClass, got {other:?}"),
        Ok(_) => panic!("expected UnknownTenantClass, got an admit"),
    }
    server.shutdown();
}

#[test]
fn cluster_routes_classed_traffic_with_per_replica_accounting() {
    let sirius = shared_sirius();
    let prepared = prepare_input_set(&sirius, 1234);
    let cluster = SiriusCluster::start(
        &sirius,
        ClusterConfig::new(2)
            .with_route(RoutePolicy::ConsistentHash)
            .with_server(tenant_config()),
    )
    .expect("cluster starts");

    for p in prepared.iter().take(8) {
        cluster
            .submit(Request::from(p.input()).with_class("premium"))
            .expect("premium admitted on idle cluster")
            .wait()
            .expect("query served");
    }
    let snap = cluster.metrics_snapshot();
    let accepted = cluster.merged_counter(&snap, "tenant.premium.accepted");
    let completed = cluster.merged_counter(&snap, "tenant.premium.completed");
    assert_eq!(accepted, 8);
    assert_eq!(completed, 8);
    cluster.shutdown();
}
