//! Telemetry gates for the staged runtime.
//!
//! 1. Per-stage histograms must account for every admitted query: counts
//!    line up with the routing (actions exit at classify; only questions
//!    reach IMM/QA), and the per-stage `queue_wait + service` time
//!    reconciles with the end-to-end sojourn histogram.
//! 2. Admission counters must mirror the typed submit results.
//! 3. A caller-supplied `Recorder` must see every span of every query.
//! 4. Snapshots must export queue gauges and render to JSON/Prometheus.
//! 5. Queue gauges must be refreshed at snapshot time, not left at their
//!    last-probed values.
//! 6. The admission ledger must balance even when deadlines expire jobs:
//!    accepted = completed + failed, with the sojourn histograms and
//!    per-stage expiry counters splitting the two sides exactly.
//! 7. Refactor guards: the exported metric names are a golden list, and
//!    every query leaves exactly the spans its route implies under each
//!    ASR variant — so a renamed metric or a dropped/doubled span fails
//!    here instead of silently emptying a `BENCHMARK.json` per-layer row.

use std::sync::{Arc, OnceLock};
use std::time::Duration;

use sirius::error::SiriusError;
use sirius::pipeline::{Sirius, SiriusConfig, SiriusOutcome};
use sirius::prepare_input_set;
use sirius::taxonomy::QueryKind;
use sirius_obs::{CollectingRecorder, SpanKind};
use sirius_server::{
    BatchPolicy, CachePolicy, Request, ServerConfig, ServerMetrics, SiriusServer, StreamPolicy,
    TenantClass,
};
use sirius_speech::asr::AcousticModelKind;

static SIRIUS: OnceLock<Arc<Sirius>> = OnceLock::new();

fn shared_sirius() -> Arc<Sirius> {
    Arc::clone(SIRIUS.get_or_init(|| Arc::new(Sirius::build(SiriusConfig::default()))))
}

#[test]
fn per_stage_histograms_account_for_every_query() {
    let sirius = shared_sirius();
    let prepared = prepare_input_set(&sirius, 4242);
    let server = SiriusServer::start(Arc::clone(&sirius), ServerConfig::default());

    let mut actions = 0u64;
    for p in prepared.iter() {
        let response = server.process_sync(p.input()).expect("query served");
        if matches!(response.outcome, SiriusOutcome::Action(_)) {
            actions += 1;
        }
    }
    let total = prepared.len() as u64;
    let questions = total - actions;
    assert!(actions > 0 && questions > 0, "input set mixes both kinds");

    let snap = server.metrics_snapshot();
    assert_eq!(snap.counter("admission.accepted"), Some(total));
    assert_eq!(snap.counter("admission.shed"), Some(0));
    assert_eq!(snap.counter("completed"), Some(total));
    assert_eq!(snap.counter("failed"), Some(0));

    // Stage counts mirror the routing topology.
    for stage in ["asr", "classify"] {
        for kind in ["queue_wait_ns", "service_ns"] {
            let h = snap.histogram(&format!("{stage}.{kind}")).unwrap();
            assert_eq!(h.count, total, "{stage}.{kind}");
        }
        assert_eq!(snap.counter(&format!("{stage}.panics")), Some(0));
    }
    for stage in ["imm", "qa"] {
        let h = snap.histogram(&format!("{stage}.service_ns")).unwrap();
        assert_eq!(h.count, questions, "{stage} sees only questions");
    }

    // Reconciliation: summed per-stage wait + service never exceeds the
    // summed sojourn (both are exact sums, not bucketed), and the
    // unattributed remainder (routing hand-offs) is a small fraction.
    let sojourn = snap.histogram("sojourn_ns").unwrap();
    assert_eq!(sojourn.count, total);
    let attributed: u64 = ["asr", "classify", "imm", "qa"]
        .iter()
        .flat_map(|s| {
            [
                snap.histogram(&format!("{s}.queue_wait_ns")).unwrap().sum,
                snap.histogram(&format!("{s}.service_ns")).unwrap().sum,
            ]
        })
        .sum();
    assert!(
        attributed <= sojourn.sum,
        "stage time {attributed} must not exceed sojourn {}",
        sojourn.sum
    );
    assert!(
        attributed * 2 >= sojourn.sum,
        "stage time {attributed} should dominate sojourn {}",
        sojourn.sum
    );

    // Bucketed percentiles are ordered and bounded by the exact extremes.
    let (p50, p95, p99) = (
        sojourn.percentile(50.0),
        sojourn.percentile(95.0),
        sojourn.percentile(99.0),
    );
    assert!(sojourn.min <= p50 && p50 <= p95 && p95 <= p99 && p99 <= sojourn.max);

    server.shutdown();
}

#[test]
fn admission_counters_mirror_shedding() {
    let sirius = shared_sirius();
    let prepared = prepare_input_set(&sirius, 31415);
    let server = SiriusServer::start(
        Arc::clone(&sirius),
        ServerConfig::default().with_queue_depth(1),
    );
    let mut tickets = Vec::new();
    let mut shed = 0u64;
    for p in prepared.iter() {
        match server.submit(p.input()) {
            Ok(t) => tickets.push(t),
            Err(SiriusError::Overloaded { .. }) => shed += 1,
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    assert!(shed > 0, "depth-1 queue must shed under a burst");
    let accepted = tickets.len() as u64;
    for t in tickets {
        t.wait().expect("accepted queries complete");
    }
    let snap = server.metrics_snapshot();
    assert_eq!(snap.counter("admission.accepted"), Some(accepted));
    assert_eq!(snap.counter("admission.shed"), Some(shed));
    assert_eq!(snap.counter("completed"), Some(accepted));
    server.shutdown();
}

#[test]
fn recorder_sees_every_span_of_every_query() {
    let sirius = shared_sirius();
    let prepared = prepare_input_set(&sirius, 777);
    let recorder = Arc::new(CollectingRecorder::new());
    let server = SiriusServer::start_with(
        Arc::clone(&sirius),
        ServerConfig::default(),
        Arc::<CollectingRecorder>::clone(&recorder),
        ServerMetrics::new(),
    );
    let n = 6;
    for p in prepared.iter().take(n) {
        server.process_sync(p.input()).expect("query served");
    }
    server.shutdown();

    let events = recorder.events();
    let count = |stage: &str, kind: SpanKind| {
        events
            .iter()
            .filter(|(s, k, _)| *s == stage && *k == kind)
            .count()
    };
    // Every query passes ASR and classify, with both spans attributed.
    assert_eq!(count("asr", SpanKind::QueueWait), n);
    assert_eq!(count("asr", SpanKind::Service), n);
    assert_eq!(count("classify", SpanKind::Service), n);
    // Exactly one terminal total span per query, successful or not.
    assert_eq!(count("total", SpanKind::Total), n);
    // Questions flow through IMM and QA in lockstep.
    assert_eq!(
        count("imm", SpanKind::Service),
        count("qa", SpanKind::Service)
    );
    assert!(recorder.total_for("asr", SpanKind::Service) > std::time::Duration::ZERO);
}

/// A query that fails (here: expires in queue) must still leave exactly one
/// terminal `total` span, or recorder-side ledgers undercount — the span
/// used to be recorded only on success.
#[test]
fn failed_queries_still_record_a_terminal_total_span() {
    let sirius = shared_sirius();
    let prepared = prepare_input_set(&sirius, 555);
    let recorder = Arc::new(CollectingRecorder::new());
    let server = SiriusServer::start_with(
        Arc::clone(&sirius),
        ServerConfig::default(),
        Arc::<CollectingRecorder>::clone(&recorder),
        ServerMetrics::new(),
    );

    // On a cold server the sojourn estimator reads zero, so a nanosecond
    // deadline is admitted — and then expires in the ASR queue before any
    // worker can serve it.
    let ticket = server
        .submit(Request::from(prepared[0].input()).with_deadline(Duration::from_nanos(1)))
        .expect("cold estimator admits everything");
    let err = ticket.wait().expect_err("deadline must expire in queue");
    assert!(matches!(err, SiriusError::DeadlineUnmeetable { .. }));
    server.shutdown();

    let events = recorder.events();
    let count = |stage: &str, kind: SpanKind| {
        events
            .iter()
            .filter(|(s, k, _)| *s == stage && *k == kind)
            .count()
    };
    assert_eq!(
        count("total", SpanKind::Total),
        1,
        "failed query leaves its terminal span"
    );
    assert_eq!(count("asr", SpanKind::Service), 0, "no stage served it");
}

#[test]
fn queue_gauges_are_refreshed_at_snapshot_time() {
    let sirius = shared_sirius();
    let prepared = prepare_input_set(&sirius, 2718);
    let server = SiriusServer::start(Arc::clone(&sirius), ServerConfig::default());

    // Pile up a burst, then snapshot while the queue drains. The gauge must
    // reflect the depth at snapshot time: bracket the snapshot with two
    // live reads — the queue only drains, so the exported value has to land
    // between them. A stale gauge (stuck at its value from some earlier
    // probe, e.g. 0 from startup while `before` is large) fails this.
    let mut tickets = Vec::new();
    for _ in 0..3 {
        for p in prepared.iter() {
            if let Ok(t) = server.submit(p.input()) {
                tickets.push(t);
            }
        }
    }
    let before = server.admission_queue_len() as u64;
    let snap = server.metrics_snapshot();
    let after = server.admission_queue_len() as u64;
    let exported = snap.gauge("asr.queue_depth").expect("gauge exported");
    assert!(
        (after..=before).contains(&exported),
        "snapshot gauge {exported} must lie between live reads {after}..={before}"
    );

    for t in tickets {
        t.wait().expect("accepted queries complete");
    }
    // Fully drained and idle: a fresh snapshot must say so everywhere.
    let snap = server.metrics_snapshot();
    for stage in sirius_server::STAGES {
        assert_eq!(
            snap.gauge(&format!("{stage}.queue_depth")),
            Some(0),
            "{stage}"
        );
        assert_eq!(
            snap.gauge(&format!("{stage}.in_flight")),
            Some(0),
            "{stage}"
        );
    }
    server.shutdown();
}

#[test]
fn admission_ledger_balances_with_expiring_deadlines() {
    let sirius = shared_sirius();
    let prepared = prepare_input_set(&sirius, 99);
    let server = SiriusServer::start(Arc::clone(&sirius), ServerConfig::default());

    // Warm the estimator so tight deadlines are exercised both ways.
    for p in prepared.iter().take(4) {
        server.process_sync(p.input()).expect("query served");
    }

    // A mix of unbounded submits and deadlines barely above the current
    // estimate: some of the latter are admitted and then expire in queue,
    // some complete, some are shed — whichever way each one lands, the
    // ledger below must balance.
    let mut tickets = Vec::new();
    let mut shed = 0u64;
    for _ in 0..3 {
        for p in prepared.iter() {
            let slo = server.expected_sojourn() + Duration::from_micros(200);
            match server.submit(Request::from(p.input()).with_deadline(slo)) {
                Ok(t) => tickets.push(t),
                Err(SiriusError::DeadlineUnmeetable { .. }) => shed += 1,
                Err(SiriusError::Overloaded { .. }) => shed += 1,
                Err(other) => panic!("unexpected error: {other}"),
            }
            if let Ok(t) = server.submit(p.input()) {
                tickets.push(t);
            }
        }
    }
    let mut completed = 0u64;
    let mut expired = 0u64;
    for t in tickets {
        match t.wait() {
            Ok(_) => completed += 1,
            Err(SiriusError::DeadlineUnmeetable { .. }) => expired += 1,
            Err(other) => panic!("unexpected ticket error: {other}"),
        }
    }
    assert!(shed + expired > 0, "tight SLOs must reject some work");

    let snap = server.metrics_snapshot();
    let accepted = snap.counter("admission.accepted").unwrap();
    assert_eq!(
        accepted,
        snap.counter("completed").unwrap() + snap.counter("failed").unwrap(),
        "every accepted query must be accounted for"
    );
    assert_eq!(snap.counter("completed"), Some(completed + 4));
    assert_eq!(snap.counter("failed"), Some(expired));
    assert_eq!(snap.histogram("sojourn_ns").unwrap().count, completed + 4);
    assert_eq!(snap.histogram("sojourn_failed_ns").unwrap().count, expired);
    let stage_expired: u64 = sirius_server::STAGES
        .iter()
        .map(|s| snap.counter(&format!("{s}.expired")).unwrap())
        .sum();
    assert_eq!(
        stage_expired, expired,
        "each expiry happens at exactly one stage"
    );
    // Every accepted query either received ASR service or expired there.
    assert_eq!(
        snap.histogram("asr.service_ns").unwrap().count + snap.counter("asr.expired").unwrap(),
        accepted
    );
    server.shutdown();
}

#[test]
fn snapshot_exports_queue_gauges_and_renders() {
    let sirius = shared_sirius();
    let server = SiriusServer::start(
        Arc::clone(&sirius),
        ServerConfig::default().with_queue_depth(7),
    );
    let snap = server.metrics_snapshot();
    for stage in sirius_server::STAGES {
        assert_eq!(
            snap.gauge(&format!("{stage}.queue_capacity")),
            Some(7),
            "{stage}"
        );
        assert_eq!(snap.gauge(&format!("{stage}.queue_depth")), Some(0), "idle");
    }
    let json = snap.to_json();
    assert!(json.contains("\"sojourn_ns\""));
    assert!(json.contains("\"asr.queue_capacity\": 7"));
    let prom = snap.to_prometheus();
    assert!(prom.contains("# TYPE asr_service_ns summary"));
    assert!(prom.contains("asr_queue_capacity 7"));
    server.shutdown();
}

/// Every metric name a fully-featured server exports, sorted. A rename or
/// a dropped registration must be a deliberate edit of this list (and of
/// whatever `BENCHMARK.json` per-layer row reads the metric).
const GOLDEN_METRIC_NAMES: &[&str] = &[
    "admission.accepted",
    "admission.rejected_shutdown",
    "admission.shed",
    "admission.shed_deadline",
    "asr.batch_flush_full",
    "asr.batch_flush_timeout",
    "asr.batch_size",
    "asr.commit_latency_ns",
    "asr.expired",
    "asr.in_flight",
    "asr.panics",
    "asr.partials_emitted",
    "asr.queue_capacity",
    "asr.queue_depth",
    "asr.queue_wait_ns",
    "asr.service_ewma_ns",
    "asr.service_ns",
    "asr.spec_dispatched",
    "asr.spec_hit",
    "asr.spec_miss",
    "cache.imm.entries",
    "cache.imm.eviction",
    "cache.imm.hit",
    "cache.imm.insert",
    "cache.imm.miss",
    "cache.imm.stale",
    "cache.qa.entries",
    "cache.qa.eviction",
    "cache.qa.hit",
    "cache.qa.insert",
    "cache.qa.miss",
    "cache.qa.stale",
    "classify.expired",
    "classify.in_flight",
    "classify.panics",
    "classify.queue_capacity",
    "classify.queue_depth",
    "classify.queue_wait_ns",
    "classify.service_ewma_ns",
    "classify.service_ns",
    "completed",
    "e2e.first_partial_ns",
    "failed",
    "imm.expired",
    "imm.in_flight",
    "imm.panics",
    "imm.queue_capacity",
    "imm.queue_depth",
    "imm.queue_wait_ns",
    "imm.service_ewma_ns",
    "imm.service_ns",
    "qa.expired",
    "qa.in_flight",
    "qa.panics",
    "qa.queue_capacity",
    "qa.queue_depth",
    "qa.queue_wait_ns",
    "qa.service_ewma_ns",
    "qa.service_ns",
    "sojourn_failed_ns",
    "sojourn_ns",
    "tenant.best_effort.accepted",
    "tenant.best_effort.cache_hit",
    "tenant.best_effort.completed",
    "tenant.best_effort.failed",
    "tenant.best_effort.in_flight",
    "tenant.best_effort.shed_deadline",
    "tenant.best_effort.sojourn_ns",
    "tenant.premium.accepted",
    "tenant.premium.cache_hit",
    "tenant.premium.completed",
    "tenant.premium.failed",
    "tenant.premium.in_flight",
    "tenant.premium.shed_deadline",
    "tenant.premium.sojourn_ns",
];

#[test]
fn exported_metric_names_are_golden() {
    let config = ServerConfig::default()
        .with_tenant_classes(vec![
            TenantClass::new("premium", 1, Duration::from_secs(60), 2),
            TenantClass::new("best_effort", 0, Duration::from_secs(60), 1),
        ])
        .with_cache_policy(CachePolicy::enabled())
        .with_batch_policy(BatchPolicy::new(4, Duration::from_millis(1)))
        .with_stream_policy(StreamPolicy::new(Duration::from_millis(160)).with_speculation());
    let server = SiriusServer::start(shared_sirius(), config);
    let snap = server.metrics_snapshot();
    server.shutdown();

    let mut names: Vec<&str> = snap
        .counters
        .iter()
        .map(|(n, _)| n)
        .chain(snap.gauges.iter().map(|(n, _)| n))
        .chain(snap.histograms.iter().map(|(n, _)| n))
        .chain(snap.meters.iter().map(|(n, _)| n))
        .map(String::as_str)
        .collect();
    names.sort_unstable();
    assert_eq!(names, GOLDEN_METRIC_NAMES);
}

/// The sorted span multiset of a query served by exactly `stages`: one
/// queue-wait and one service span per stage, plus the terminal total.
fn spans_through(stages: &[&'static str]) -> Vec<(&'static str, &'static str)> {
    let mut spans: Vec<_> = stages
        .iter()
        .flat_map(|s| [(*s, "queue_wait"), (*s, "service")])
        .collect();
    spans.push(("total", "total"));
    spans.sort_unstable();
    spans
}

#[test]
fn every_query_leaves_exactly_the_spans_of_its_route() {
    let sirius = shared_sirius();
    let prepared = prepare_input_set(&sirius, 1618);
    let cached = || ServerConfig::default().with_cache_policy(CachePolicy::enabled());
    let streaming = StreamPolicy::new(Duration::from_millis(160));
    let mut batched_dnn = cached().with_batch_policy(BatchPolicy::new(4, Duration::from_millis(1)));
    batched_dnn.acoustic = AcousticModelKind::Dnn;
    let modes = [
        ("plain", cached()),
        ("batched-dnn", batched_dnn),
        ("streaming", cached().with_stream_policy(streaming)),
        (
            "streaming+speculation",
            cached().with_stream_policy(streaming.with_speculation()),
        ),
    ];

    for (mode, config) in modes {
        let recorder = Arc::new(CollectingRecorder::new());
        let server = SiriusServer::start_with(
            Arc::clone(&sirius),
            config,
            Arc::<CollectingRecorder>::clone(&recorder),
            ServerMetrics::new(),
        );
        // Runs one query and returns its result, the spans it left (sorted)
        // and whether a speculation confirmed it. The terminal span is
        // recorded before the ticket completes, so once `wait` returns the
        // recorder holds every span of the query.
        let run = |input, deadline: Option<Duration>| {
            let before = recorder.events().len();
            let hits_before = server.metrics().stream.spec_hit.get();
            let request = Request {
                input,
                class: None,
                deadline,
            };
            let result = server.submit(request).expect("idle server admits").wait();
            let mut spans: Vec<_> = recorder.events()[before..]
                .iter()
                .map(|(stage, kind, _)| (*stage, kind.label()))
                .collect();
            spans.sort_unstable();
            let confirmed = server.metrics().stream.spec_hit.get() > hits_before;
            (result, spans, confirmed)
        };

        // Expired: the cold estimator admits a 1 ns deadline, which has
        // passed by the time the ASR worker dequeues the job — a queue
        // wait, no service, one terminal span.
        let (result, spans, _) = run(prepared[0].input(), Some(Duration::from_nanos(1)));
        assert!(
            matches!(result, Err(SiriusError::DeadlineUnmeetable { .. })),
            "{mode}"
        );
        assert_eq!(spans, [("asr", "queue_wait"), ("total", "total")], "{mode}");

        for kind in QueryKind::ALL {
            let query = prepared
                .iter()
                .find(|p| p.spec.kind == kind)
                .expect("the input set has every kind");
            let (result, spans, confirmed) = run(query.input(), None);
            let response = result.expect("query served");
            let expected = match response.outcome {
                // A confirmed speculation completes at the ASR worker.
                _ if confirmed => spans_through(&["asr"]),
                SiriusOutcome::Action(_) => spans_through(&["asr", "classify"]),
                SiriusOutcome::Answer(_) => spans_through(&["asr", "classify", "imm", "qa"]),
            };
            assert_eq!(spans, expected, "{mode} {kind:?}");

            // The repeat is a cache hit at ASR commit (or a confirmed
            // speculation): either way it never reaches another queue.
            let (result, spans, _) = run(query.input(), None);
            assert_eq!(result.expect("repeat served").outcome, response.outcome);
            assert_eq!(spans, spans_through(&["asr"]), "{mode} {kind:?} repeat");
        }
        let (hits, _) = server.caches().expect("cache enabled").totals();
        if !mode.ends_with("speculation") {
            assert_eq!(hits, 3, "{mode}: every repeat was a cache hit");
        }
        server.shutdown();
    }
}
