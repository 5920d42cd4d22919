//! Response-shape gate for every served path.
//!
//! The other server gates compare only `(recognized, outcome,
//! matched_venue)`. This one also checks what the served response says
//! about the walk the query took, against the serial pipeline:
//!
//! 1. **Whole-utterance queues** and **streaming with speculation** (where
//!    a confirmed speculation ends the query at the ASR step with the
//!    speculation's data) must report QA and IMM timing exactly where the
//!    serial response does, a non-zero classify time, and the same matched
//!    venue.
//! 2. **A result-cache hit** skips classify, IMM and QA: its documented
//!    shape is no QA or IMM timing and zero classify time, with the cached
//!    matched venue.

use std::sync::Arc;
use std::time::Duration;

use sirius::pipeline::{Sirius, SiriusConfig, SiriusResponse};
use sirius::prepare_input_set;
use sirius_server::{CachePolicy, ServerConfig, SiriusServer, StreamPolicy, Ticket};
use sirius_speech::asr::AcousticModelKind;

/// `(qa timed, imm timed, classify timed, matched venue)`.
type Shape = (bool, bool, bool, Option<String>);

fn shape(r: &SiriusResponse) -> Shape {
    (
        r.timing.qa.is_some(),
        r.timing.imm.is_some(),
        r.timing.classify > Duration::ZERO,
        r.matched_venue.clone(),
    )
}

fn serve_all(server: &SiriusServer, inputs: &[sirius::pipeline::SiriusInput]) -> Vec<Shape> {
    let tickets: Vec<Ticket> = inputs
        .iter()
        .map(|input| server.submit(input.clone()).expect("deep queue admits all"))
        .collect();
    tickets
        .into_iter()
        .map(|t| shape(&t.wait().expect("query served")))
        .collect()
}

#[test]
fn every_served_path_returns_the_serial_response_shape() {
    let sirius = Arc::new(Sirius::build(SiriusConfig::default()));
    let inputs: Vec<_> = prepare_input_set(&sirius, 4242)
        .iter()
        .map(|p| p.input())
        .collect();
    let serial: Vec<Shape> = inputs
        .iter()
        .map(|input| shape(&sirius.process_with(input, AcousticModelKind::Gmm)))
        .collect();
    assert!(serial.iter().any(|s| s.0), "the set has questions");
    assert!(serial.iter().any(|s| !s.0), "the set has actions");
    assert!(serial.iter().any(|s| s.1), "the set has images");

    let queues = ServerConfig::with_workers(2).with_queue_depth(inputs.len());
    let streaming = queues
        .clone()
        .with_stream_policy(StreamPolicy::new(Duration::from_millis(100)).with_speculation());
    for (path, config) in [("queues", queues), ("streaming", streaming)] {
        let server = SiriusServer::start(Arc::clone(&sirius), config);
        for (i, served) in serve_all(&server, &inputs).into_iter().enumerate() {
            let (qa, imm, _, venue) = serial[i].clone();
            assert_eq!(served, (qa, imm, true, venue), "{path}: query {i}");
        }
        if path == "streaming" {
            let hits = server.metrics_snapshot().counter("asr.spec_hit").unwrap();
            assert!(hits > 0, "no query took the confirmed-speculation path");
        }
        server.shutdown();
    }

    let cached = SiriusServer::start(
        Arc::clone(&sirius),
        ServerConfig::default()
            .with_queue_depth(inputs.len())
            .with_cache_policy(CachePolicy::enabled()),
    );
    let first = serve_all(&cached, &inputs);
    let second = serve_all(&cached, &inputs);
    let (hits, _) = cached.caches().expect("cache enabled").totals();
    assert_eq!(hits, inputs.len() as u64, "the second pass is all hits");
    for (i, (cold, warm)) in first.into_iter().zip(second).enumerate() {
        let (qa, imm, _, venue) = serial[i].clone();
        assert_eq!(cold, (qa, imm, true, venue.clone()), "cold pass: query {i}");
        assert_eq!(warm, (false, false, false, venue), "cache hit: query {i}");
    }
    cached.shutdown();
}
