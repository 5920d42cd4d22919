//! Equivalence and robustness gates for cross-query dynamic batching.
//!
//! 1. **Bit-identity**: the batched server's answers must match the serial
//!    pipeline's, query for query, at every tested `(max_batch, max_delay)`
//!    point — including `max_batch = 1`, which must degrade to the
//!    per-query path. The forward pass and emission conversion are
//!    row-independent, so coalescing several queries' frame blocks into
//!    one GEMM must not move a single bit.
//! 2. **Collector robustness**: a seeded multi-producer stress run through
//!    the bare collector must deliver every reply to its own sender with
//!    exactly its own rows — no loss, duplication, reordering or
//!    cross-wiring — while the flush census balances.

use std::sync::{Arc, OnceLock};
use std::time::Duration;

use sirius::pipeline::{Sirius, SiriusConfig, SiriusResponse};
use sirius::prepare_input_set;
use sirius_obs::Registry;
use sirius_server::{
    spawn_batch_collector, BatchObs, BatchPolicy, ServerConfig, SiriusServer, Ticket,
};
use sirius_speech::asr::AcousticModelKind;
use sirius_speech::WindowScorer;

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

/// The batched server must answer the full 42-query input set with exactly
/// the serial pipeline's bits at several policy points, with every query in
/// flight at once so cross-query batches actually form.
#[test]
fn batched_serving_is_bit_identical_to_serial() {
    let sirius = shared_sirius();
    let prepared = prepare_input_set(&sirius, 4242);
    let serial: Vec<_> = prepared
        .iter()
        .map(|p| payload(&sirius.process_with(&p.input(), AcousticModelKind::Dnn)))
        .collect();

    for (max_batch, delay_ms) in [(1u64, 2u64), (4, 1), (8, 4)] {
        let mut config = ServerConfig::with_workers(4)
            .with_queue_depth(prepared.len().max(16))
            .with_batch_policy(BatchPolicy::new(
                max_batch as usize,
                Duration::from_millis(delay_ms),
            ));
        config.acoustic = AcousticModelKind::Dnn;
        let server = SiriusServer::start(Arc::clone(&sirius), config);

        // Submit everything up front: the deep queue admits the whole set,
        // so the ASR pool stays saturated and the collector sees blocks
        // from several queries at once.
        let tickets: Vec<Ticket> = prepared
            .iter()
            .map(|p| server.submit(p.input()).expect("deep queue admits all"))
            .collect();
        for (i, t) in tickets.into_iter().enumerate() {
            let response = t.wait().expect("query served");
            assert_eq!(
                payload(&response),
                serial[i],
                "query {i} diverged at max_batch={max_batch} delay={delay_ms}ms"
            );
        }

        let snap = server.metrics_snapshot();
        let sizes = snap.histogram("asr.batch_size").unwrap();
        let flushes = snap.counter("asr.batch_flush_full").unwrap()
            + snap.counter("asr.batch_flush_timeout").unwrap();
        assert_eq!(sizes.count, flushes, "every flush records its size once");
        if max_batch == 1 {
            // No collector is spawned: the policy degrades to the
            // per-query path and the batch telemetry stays flat.
            assert_eq!(sizes.count, 0, "depth-1 policy must not batch");
        } else {
            assert!(sizes.count > 0, "collector saw no blocks");
            assert!(sizes.max <= max_batch, "flush exceeded max_batch");
        }
        server.shutdown();
    }
}

/// One DNN query on an otherwise idle batching server has no batch-mate to
/// wait for: its 13-odd blocks must each flush at once, not wait out
/// `max_delay` — here 10 s a block, against a 5 s budget for the query.
#[test]
fn a_lone_dnn_query_does_not_wait_out_max_delay() {
    let sirius = shared_sirius();
    let prepared = prepare_input_set(&sirius, 4242);
    let input = prepared[0].input();
    let serial = payload(&sirius.process_with(&input, AcousticModelKind::Dnn));

    let mut config = ServerConfig::with_workers(2)
        .with_batch_policy(BatchPolicy::new(4, Duration::from_secs(10)));
    config.acoustic = AcousticModelKind::Dnn;
    let server = SiriusServer::start(Arc::clone(&sirius), config);
    let begun = std::time::Instant::now();
    let response = server
        .submit(input)
        .expect("idle server admits")
        .wait()
        .expect("query served");
    let took = begun.elapsed();
    assert!(took < Duration::from_secs(5), "lone query took {took:?}");
    assert_eq!(payload(&response), serial);

    let snap = server.metrics_snapshot();
    assert!(snap.counter("asr.batch_flush_full").unwrap() > 0);
    assert_eq!(snap.counter("asr.batch_flush_timeout"), Some(0));
    server.shutdown();
}

/// Deterministic stand-in for the DNN scorer: width-1 rows, out = 3x + 7.
/// Any correct batching of rows reproduces it exactly per request.
struct AffineScorer;

impl WindowScorer for AffineScorer {
    fn score_windows(&self, x: &[f32], rows: usize) -> Vec<f32> {
        assert_eq!(x.len(), rows, "width-1 rows");
        x.iter().map(|v| 3.0 * v + 7.0).collect()
    }
}

/// Tiny seeded xorshift so the stress mix is reproducible without pulling
/// a dev-dependency into the crate.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut s = self.0;
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        self.0 = s;
        s
    }
}

/// Seeded multi-producer stress: 8 threads × 200 blocks of varying row
/// counts race through one collector. Every reply must be the exact affine
/// image of its own request — any loss, duplication, reordering or
/// cross-wiring of scattered rows breaks the per-call assertion — and the
/// flush census must cover every block exactly once.
#[test]
fn collector_stress_no_loss_duplication_or_cross_wiring() {
    const PRODUCERS: u64 = 8;
    const CALLS: u64 = 200;

    let registry = Registry::new();
    let obs = BatchObs::register(&registry, "asr");
    let policy = BatchPolicy::new(5, Duration::from_millis(1));
    let (handle, collector) =
        spawn_batch_collector(Arc::new(AffineScorer), policy, obs, PRODUCERS as usize);

    let threads: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let handle = handle.clone();
            std::thread::spawn(move || {
                let mut rng = XorShift(0x5EED_0000 + p + 1);
                let mut blocks = 0u64;
                for i in 0..CALLS {
                    let rows = 1 + (rng.next() % 4) as usize;
                    let block: Vec<f32> = (0..rows)
                        .map(|r| (p * 1_000_000 + i * 100 + r as u64) as f32)
                        .collect();
                    let out = handle.score_windows(&block, rows);
                    let want: Vec<f32> = block.iter().map(|v| 3.0 * v + 7.0).collect();
                    assert_eq!(out, want, "producer {p} call {i}");
                    blocks += 1;
                }
                blocks
            })
        })
        .collect();
    let total: u64 = threads
        .into_iter()
        .map(|t| t.join().expect("producer"))
        .sum();
    drop(handle);
    collector.join().expect("collector drains and exits");

    assert_eq!(total, PRODUCERS * CALLS);
    let snap = registry.snapshot();
    let sizes = snap.histogram("asr.batch_size").unwrap();
    assert_eq!(sizes.sum, total, "every block flushed exactly once");
    assert!(sizes.max <= 5, "flush exceeded max_batch");
    let flushes = snap.counter("asr.batch_flush_full").unwrap()
        + snap.counter("asr.batch_flush_timeout").unwrap();
    assert_eq!(sizes.count, flushes, "flush census balances");
    assert!(
        sizes.max > 1,
        "8 racing producers never coalesced a batch — collector is serializing"
    );
}
