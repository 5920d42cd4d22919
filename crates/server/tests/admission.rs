//! Deadline-aware admission gates for the staged runtime.
//!
//! 1. A job that expires while queued is dropped at dequeue — its ticket
//!    completes with the typed [`SiriusError::DeadlineUnmeetable`] error and
//!    no stage spends service time on it.
//! 2. A deadline-aware shed at admission carries a sane `retry_after` hint
//!    derived from the backlog the estimator saw.
//! 3. With an effectively infinite SLO the deadline-aware policy degrades
//!    exactly to shed-on-full: only `Overloaded` rejections, no expiries
//!    (and the near-`Duration::MAX` deadline arithmetic does not panic).
//! 4. A request naming both a tenant class and a deadline is governed by
//!    the tighter of the two: a deadline under the class budget gates
//!    admission and is the deadline reported; a looser one changes nothing
//!    about classed admission.

use std::sync::{Arc, OnceLock};
use std::time::Duration;

use sirius::error::SiriusError;
use sirius::pipeline::{Sirius, SiriusConfig};
use sirius::prepare_input_set;
use sirius_server::{Request, ServerConfig, SiriusServer, TenantClass, STAGES};

static SIRIUS: OnceLock<Arc<Sirius>> = OnceLock::new();

fn shared_sirius() -> Arc<Sirius> {
    Arc::clone(SIRIUS.get_or_init(|| Arc::new(Sirius::build(SiriusConfig::default()))))
}

#[test]
fn expired_jobs_complete_with_the_typed_error_and_consume_no_service() {
    let sirius = shared_sirius();
    let prepared = prepare_input_set(&sirius, 4242);
    let server = SiriusServer::start(Arc::clone(&sirius), ServerConfig::default());

    // The fresh runtime's meters are cold, so the estimator reads zero and
    // a zero deadline is admitted — and has already passed by the time the
    // ASR worker dequeues the job.
    assert_eq!(server.expected_sojourn(), Duration::ZERO, "cold estimator");
    let ticket = server
        .submit(Request::from(prepared[0].input()).with_deadline(Duration::ZERO))
        .expect("cold estimator admits a zero deadline");
    match ticket.wait() {
        Err(SiriusError::DeadlineUnmeetable {
            expected,
            deadline,
            retry_after,
        }) => {
            assert_eq!(deadline, Duration::ZERO);
            assert!(expected > Duration::ZERO, "the job did spend time queued");
            assert_eq!(retry_after, expected, "lateness over a zero deadline");
        }
        other => panic!("expired job must complete with DeadlineUnmeetable, got {other:?}"),
    }

    let snap = server.metrics_snapshot();
    assert_eq!(snap.counter("asr.expired"), Some(1));
    assert_eq!(
        snap.histogram("asr.service_ns").unwrap().count,
        0,
        "no stage service time is ever spent on an expired job"
    );
    assert_eq!(snap.histogram("asr.queue_wait_ns").unwrap().count, 1);
    assert_eq!(snap.counter("admission.accepted"), Some(1));
    assert_eq!(snap.counter("completed"), Some(0));
    assert_eq!(snap.counter("failed"), Some(1));
    assert_eq!(snap.histogram("sojourn_failed_ns").unwrap().count, 1);
    server.shutdown();
}

#[test]
fn deadline_shed_at_admission_carries_a_sane_retry_hint() {
    let sirius = shared_sirius();
    let prepared = prepare_input_set(&sirius, 777);
    let server = SiriusServer::start(Arc::clone(&sirius), ServerConfig::default());

    // Warm the per-stage service meters with real traffic.
    let warmup = 6;
    for p in prepared.iter().take(warmup) {
        server.process_sync(p.input()).expect("query served");
    }
    let expected_now = server.expected_sojourn();
    assert!(
        expected_now > Duration::ZERO,
        "warm meters must make the estimator non-trivial"
    );

    let tiny = Duration::from_nanos(1);
    match server.submit(Request::from(prepared[0].input()).with_deadline(tiny)) {
        Err(SiriusError::DeadlineUnmeetable {
            expected,
            deadline,
            retry_after,
        }) => {
            assert_eq!(deadline, tiny);
            assert!(expected > deadline);
            assert_eq!(retry_after, expected - deadline, "drain-rate hint");
            assert!(retry_after > Duration::ZERO && retry_after <= expected);
        }
        Err(other) => panic!("a 1ns deadline must be shed on a warm runtime, got {other}"),
        Ok(_) => panic!("a 1ns deadline must be shed on a warm runtime, got an admit"),
    }

    let snap = server.metrics_snapshot();
    assert_eq!(snap.counter("admission.shed_deadline"), Some(1));
    assert_eq!(snap.counter("admission.accepted"), Some(warmup as u64));
    assert_eq!(snap.counter("admission.shed"), Some(0));
    // The estimator's inputs are all exported: EWMA meters fed by the warm
    // traffic, and in-flight gauges back to zero on an idle runtime.
    assert!(snap.meter("asr.service_ewma_ns").unwrap().mean > 0.0);
    for stage in STAGES {
        assert_eq!(
            snap.gauge(&format!("{stage}.in_flight")),
            Some(0),
            "{stage}"
        );
    }
    server.shutdown();
}

#[test]
fn infinite_slo_degrades_to_shed_on_full() {
    let sirius = shared_sirius();
    let prepared = prepare_input_set(&sirius, 31415);

    // Same depth-1 topology as the shed-on-full burst gate in
    // `concurrency.rs`; the only change is the submit entry point.
    let server = SiriusServer::start(
        Arc::clone(&sirius),
        ServerConfig::default().with_queue_depth(1),
    );
    let mut accepted = Vec::new();
    let mut shed = 0u64;
    for _ in 0..3 {
        for p in prepared.iter() {
            match server.submit(Request::from(p.input()).with_deadline(Duration::MAX)) {
                Ok(ticket) => accepted.push(ticket),
                Err(SiriusError::Overloaded { stage }) => {
                    assert_eq!(stage, "asr", "shedding happens at admission");
                    shed += 1;
                }
                Err(other) => {
                    panic!("an infinite SLO must only ever shed on a full queue: {other}")
                }
            }
        }
    }
    assert!(shed > 0, "depth-1 queues must shed under a burst");
    assert!(!accepted.is_empty(), "an idle server must accept work");
    for ticket in accepted {
        ticket
            .wait()
            .expect("no admitted query expires under an infinite SLO");
    }
    let snap = server.metrics_snapshot();
    assert_eq!(snap.counter("admission.shed_deadline"), Some(0));
    assert_eq!(snap.counter("admission.shed"), Some(shed));
    for stage in STAGES {
        assert_eq!(
            snap.counter(&format!("{stage}.expired")),
            Some(0),
            "{stage}"
        );
    }
    server.shutdown();
}

#[test]
fn a_classed_request_with_a_deadline_is_held_to_the_tighter_of_the_two() {
    let sirius = shared_sirius();
    let prepared = prepare_input_set(&sirius, 1729);
    let slo = Duration::from_millis(400);
    let server = SiriusServer::start(
        Arc::clone(&sirius),
        ServerConfig::default().with_tenant_classes(vec![
            TenantClass::new("premium", 1, slo, 4),
            TenantClass::new("best_effort", 0, slo, 1),
        ]),
    );
    // Seed the estimator between best-effort's weighted budget (400 ms × 1/4
    // = 100 ms) and premium's (400 ms); idle, it reads the same every call.
    server
        .metrics()
        .asr
        .service_meter
        .record_duration(Duration::from_millis(300));
    let expected = server.expected_sojourn();
    assert!(expected > Duration::from_millis(100) && expected <= slo);
    let shed = |request: Request| match server.submit(request) {
        Err(SiriusError::DeadlineUnmeetable {
            expected: seen,
            deadline,
            retry_after,
        }) => {
            assert_eq!(seen, expected, "idle estimator");
            (deadline, retry_after)
        }
        Err(other) => panic!("expected a deadline shed, got {other}"),
        Ok(_) => panic!("expected a deadline shed, got an admit"),
    };

    // Tighter than the class budget: premium alone would admit (budget
    // 400 ms), but the request's own 50 ms deadline gates admission and is
    // the deadline the shed reports.
    let tight = Duration::from_millis(50);
    let premium = || Request::from(prepared[0].input()).with_class("premium");
    assert_eq!(
        shed(premium().with_deadline(tight)),
        (tight, expected - tight)
    );

    // Looser than the class SLO: exactly classed-only admission, hint pinned
    // to the weighted budget.
    let loose = Duration::from_secs(10);
    let best_effort = || Request::from(prepared[1].input()).with_class("best_effort");
    let classed_only = shed(best_effort());
    assert_eq!(classed_only, (slo, expected - Duration::from_millis(100)));
    assert_eq!(shed(best_effort().with_deadline(loose)), classed_only);
    server
        .submit(premium().with_deadline(loose))
        .expect("premium admits under a loose deadline, as it does without one")
        .wait()
        .expect("and completes");

    let snap = server.metrics_snapshot();
    assert_eq!(snap.counter("admission.shed_deadline"), Some(3));
    assert_eq!(snap.counter("tenant.premium.shed_deadline"), Some(1));
    assert_eq!(snap.counter("tenant.best_effort.shed_deadline"), Some(2));
    assert_eq!(snap.counter("tenant.premium.completed"), Some(1));
    server.shutdown();
}
