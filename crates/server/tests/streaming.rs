//! Equivalence and telemetry gates for the streaming ASR serving path.
//!
//! 1. **Bit-identity**: the streaming server's answers — with and without
//!    speculative downstream pipelining, for both acoustic models, with
//!    and without cross-query batching — must match the serial pipeline's
//!    query for query. The streaming recognizer's final hypothesis equals
//!    batch recognition by construction, and speculative payloads are only
//!    reused when they ran on exactly the final hypothesis, so no
//!    combination may move a single bit.
//! 2. **Degenerate audio**: empty and non-finite audio must produce the
//!    serial pipeline's exact response (the streaming stage falls back to
//!    the batch ASR stage), never a typed streaming error the serial path
//!    would not surface.
//! 3. **Pacing**: paced ingestion holds each query until its audio has
//!    arrived and still answers with the serial pipeline's bits.
//! 4. **Telemetry**: a streaming run emits partial-commit counters and
//!    latency histograms, and they reach the Prometheus export.

use std::sync::{Arc, OnceLock};
use std::time::Duration;

use sirius::pipeline::{Sirius, SiriusConfig, SiriusInput, SiriusResponse};
use sirius::prepare_input_set;
use sirius_server::{BatchPolicy, ServerConfig, SiriusServer, StreamPolicy, Ticket};
use sirius_speech::asr::AcousticModelKind;

static SIRIUS: OnceLock<Arc<Sirius>> = OnceLock::new();

fn shared_sirius() -> Arc<Sirius> {
    Arc::clone(SIRIUS.get_or_init(|| Arc::new(Sirius::build(SiriusConfig::default()))))
}

/// Everything the client can observe about an answer (timings excluded —
/// wall-clock is allowed to differ, the bits are not).
fn payload(r: &SiriusResponse) -> (String, String, Option<String>) {
    (
        r.recognized.clone(),
        format!("{:?}", r.outcome),
        r.matched_venue.clone(),
    )
}

/// The streaming server must answer the full 42-query input set with
/// exactly the serial pipeline's bits: GMM with speculation on and off,
/// and DNN with the batch collector underneath the streaming recognizer.
#[test]
fn streaming_serving_is_bit_identical_to_serial() {
    let sirius = shared_sirius();
    let prepared = prepare_input_set(&sirius, 4242);

    let cases: [(AcousticModelKind, bool, BatchPolicy, usize); 4] = [
        (AcousticModelKind::Gmm, false, BatchPolicy::default(), 1600),
        (AcousticModelKind::Gmm, true, BatchPolicy::default(), 1600),
        (AcousticModelKind::Gmm, true, BatchPolicy::default(), 320),
        (
            AcousticModelKind::Dnn,
            true,
            BatchPolicy::new(4, Duration::from_millis(1)),
            1600,
        ),
    ];
    for (kind, speculate, batch, chunk_samples) in cases {
        let serial: Vec<_> = prepared
            .iter()
            .map(|p| payload(&sirius.process_with(&p.input(), kind)))
            .collect();
        let mut stream = StreamPolicy::new(Duration::from_nanos(
            (chunk_samples as u64 * 1_000_000_000) / 16_000,
        ));
        if speculate {
            stream = stream.with_speculation();
        }
        let mut config = ServerConfig::with_workers(4)
            .with_queue_depth(prepared.len().max(16))
            .with_batch_policy(batch)
            .with_stream_policy(stream);
        config.acoustic = kind;
        let server = SiriusServer::start(Arc::clone(&sirius), config);

        let tickets: Vec<Ticket> = prepared
            .iter()
            .map(|p| server.submit(p.input()).expect("deep queue admits all"))
            .collect();
        for (i, t) in tickets.into_iter().enumerate() {
            let response = t.wait().expect("query served");
            assert_eq!(
                payload(&response),
                serial[i],
                "query {i} diverged ({kind}, speculate={speculate}, chunk={chunk_samples})"
            );
        }

        let snap = server.metrics_snapshot();
        assert!(
            snap.counter("asr.partials_emitted").unwrap() > 0,
            "streaming run emitted no partials ({kind})"
        );
        if speculate {
            let dispatched = snap.counter("asr.spec_dispatched").unwrap();
            let hits = snap.counter("asr.spec_hit").unwrap();
            let misses = snap.counter("asr.spec_miss").unwrap();
            assert!(dispatched > 0, "speculation never dispatched ({kind})");
            assert!(
                hits + misses <= prepared.len() as u64,
                "at most one reconcile per query"
            );
            // GMM beams converge through trailing silence, so most
            // hypotheses commit in full mid-stream and confirm; the DNN
            // beam keeps more alternatives alive to the last frame, so
            // its reconciles are expected to miss.
            if kind == AcousticModelKind::Gmm {
                assert!(
                    hits > 0,
                    "no speculation ever confirmed despite full mid-stream \
                     commits ({kind})"
                );
            }
        } else {
            assert_eq!(snap.counter("asr.spec_dispatched"), Some(0));
        }
        server.shutdown();
    }
}

/// Paced ingestion (`StreamPolicy::pacing`): chunks are held back to their
/// arrival offsets, so no query can finish before `pacing × its audio
/// duration` has passed since admission — and the answers are still the
/// serial pipeline's bits.
#[test]
fn paced_streaming_waits_for_arrival_and_stays_bit_identical() {
    const PACING: f64 = 0.25;
    let sirius = shared_sirius();
    let prepared = prepare_input_set(&sirius, 777);
    let inputs: Vec<SiriusInput> = prepared.iter().take(4).map(|p| p.input()).collect();
    let config = ServerConfig::with_workers(inputs.len()).with_stream_policy(
        StreamPolicy::new(Duration::from_millis(100))
            .with_pacing(PACING)
            .with_speculation(),
    );
    let server = SiriusServer::start(Arc::clone(&sirius), config);
    let tickets: Vec<Ticket> = inputs
        .iter()
        .map(|input| server.submit(input.clone()).expect("idle server admits"))
        .collect();
    for (input, ticket) in inputs.iter().zip(tickets) {
        let response = ticket.wait().expect("paced query served");
        let serial = sirius.process_with(input, AcousticModelKind::Gmm);
        assert_eq!(payload(&response), payload(&serial));
        let arrival = Duration::from_secs_f64(PACING * input.audio.len() as f64 / 16_000.0);
        assert!(
            response.timing.total >= arrival,
            "answered in {:?}, before its audio finished arriving at {arrival:?}",
            response.timing.total
        );
    }
    server.shutdown();
}

/// Degenerate audio — empty, or containing NaN — must produce exactly the
/// serial pipeline's response through the streaming server.
#[test]
fn degenerate_audio_matches_serial_pipeline() {
    let sirius = shared_sirius();
    let mut nan_audio = vec![0.0f32; 16_000];
    nan_audio[8_000] = f32::NAN;
    let inputs = [
        SiriusInput {
            audio: Vec::new(),
            image: None,
        },
        SiriusInput {
            audio: nan_audio,
            image: None,
        },
        SiriusInput {
            audio: vec![0.0; 100],
            image: None,
        },
    ];
    let config = ServerConfig::with_workers(1)
        .with_stream_policy(StreamPolicy::new(Duration::from_millis(100)).with_speculation());
    let server = SiriusServer::start(Arc::clone(&sirius), config);
    for input in inputs {
        let serial = sirius.process_with(&input, AcousticModelKind::Gmm);
        let served = server
            .process_sync(input)
            .expect("degenerate audio is served, not errored");
        assert_eq!(payload(&served), payload(&serial));
    }
    server.shutdown();
}

/// Streaming telemetry reaches the snapshot and the Prometheus export.
#[test]
fn streaming_metrics_are_exported() {
    let sirius = shared_sirius();
    let prepared = prepare_input_set(&sirius, 99);
    let config = ServerConfig::with_workers(2)
        .with_queue_depth(64)
        .with_stream_policy(StreamPolicy::new(Duration::from_millis(100)).with_speculation());
    let server = SiriusServer::start(Arc::clone(&sirius), config);
    for p in prepared.iter().take(8) {
        server.process_sync(p.input()).expect("served");
    }
    let snap = server.metrics_snapshot();
    assert!(snap.counter("asr.partials_emitted").unwrap() > 0);
    let commits = snap.histogram("asr.commit_latency_ns").unwrap();
    assert_eq!(
        commits.count,
        snap.counter("asr.partials_emitted").unwrap(),
        "every emitted partial records one commit latency"
    );
    let first = snap.histogram("e2e.first_partial_ns").unwrap();
    assert!(
        first.count > 0 && first.count <= 8,
        "one first-partial per query at most"
    );
    let prom = snap.to_prometheus();
    for name in [
        "asr_partials_emitted",
        "asr_commit_latency_ns",
        "e2e_first_partial_ns",
        "asr_spec_dispatched",
        "asr_spec_hit",
        "asr_spec_miss",
    ] {
        assert!(prom.contains(name), "{name} missing from Prometheus export");
    }
    server.shutdown();
}
