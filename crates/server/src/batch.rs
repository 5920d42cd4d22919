//! Cross-query dynamic batching for the ASR stage.
//!
//! The ~3x GEMM win from `Dnn::forward_batch_into` (BENCH_kernels) stops at
//! query boundaries: each ASR worker scores one query's 16-frame blocks per
//! forward pass, so under load the server runs many small GEMMs instead of
//! few large ones. This module adds the serving trick production inference
//! systems use (IBM's Deep Learning Service, wav2letter++'s throughput
//! regime): a **batch collector** thread in front of the ASR pool that
//! coalesces DNN frame blocks from *multiple in-flight queries* into one
//! GEMM call.
//!
//! ```text
//!  ASR worker 1 ─┐ score_windows(blockₐ)
//!  ASR worker 2 ─┼──▶ [batch queue] ─▶ collector ─▶ one GEMM over
//!  ASR worker 3 ─┘      (gather until      │        [blockₐ; blockᵦ; …]
//!                        max_batch or      └─▶ scatter rows back to the
//!                        max_delay)            per-query reply slots
//! ```
//!
//! **Policy.** [`BatchPolicy`]`{ max_batch, max_delay }`: the collector
//! flushes as soon as `max_batch` blocks are gathered (a *full* flush) or
//! the oldest gathered block has waited `max_delay` (a *timeout* flush),
//! whichever comes first. `max_batch = 1` degrades to today's per-query
//! path: the runtime does not even spawn a collector.
//!
//! **Bit-identity.** Both the forward pass and the emission conversion are
//! strictly row-independent (see `sirius_speech::WindowScorer`), so
//! concatenating several queries' windows into one GEMM and scattering the
//! output rows back yields, per query, exactly the bits the query would
//! have produced alone. The equivalence gate (`tests/batching.rs`) checks
//! this end-to-end against the serial pipeline.
//!
//! **Liveness.** The collector is a dedicated thread that never calls back
//! into the worker pool, and workers block only on their own reply slot.
//! The collector exits when every [`BatchHandle`] (held by the ASR workers
//! via their stage handler) is dropped — it drains the queue, answering every
//! outstanding request, before exiting, so no worker is left waiting. A
//! send that races collector teardown falls back to scoring locally, which
//! is bit-identical anyway.
//!
//! Expired jobs compose with deadline-aware admission for free: the worker
//! pool drops them at dequeue, *before* the stage handler runs, so an
//! abandoned query never occupies a slot in a batch.

use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use sirius::pipeline::Sirius;
use sirius_par::queue::{bounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use sirius_speech::WindowScorer;

use crate::metrics::BatchObs;

/// Governs the ASR batch collector: flush when `max_batch` blocks are
/// gathered or the oldest has waited `max_delay`, whichever comes first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Most frame blocks coalesced into one GEMM. At 1 (the default) the
    /// runtime spawns no collector and serves exactly the per-query path.
    pub max_batch: usize,
    /// Longest the oldest gathered block may wait for batch-mates before a
    /// partial flush. Latency the policy is willing to trade for
    /// throughput; irrelevant when `max_batch` is 1.
    pub max_delay: std::time::Duration,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        Self {
            max_batch: 1,
            max_delay: std::time::Duration::from_millis(2),
        }
    }
}

impl BatchPolicy {
    /// A policy coalescing up to `max_batch` blocks within `max_delay`.
    pub fn new(max_batch: usize, max_delay: std::time::Duration) -> Self {
        Self {
            max_batch,
            max_delay,
        }
    }

    /// Whether this policy calls for a collector at all.
    pub fn is_batching(&self) -> bool {
        self.max_batch > 1
    }
}

/// One worker's scoring request: a block of stacked context windows and the
/// slot its emission rows come back through.
struct ScoreRequest {
    x: Vec<f32>,
    rows: usize,
    reply: Arc<ReplySlot>,
}

struct ReplySlot {
    slot: Mutex<Option<Vec<f32>>>,
    ready: Condvar,
}

impl ReplySlot {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            slot: Mutex::new(None),
            ready: Condvar::new(),
        })
    }

    fn fulfill(&self, out: Vec<f32>) {
        let mut slot = self.slot.lock().expect("reply lock");
        *slot = Some(out);
        self.ready.notify_all();
    }

    fn wait(&self) -> Vec<f32> {
        let mut slot = self.slot.lock().expect("reply lock");
        loop {
            if let Some(out) = slot.take() {
                return out;
            }
            slot = self.ready.wait(slot).expect("reply lock");
        }
    }
}

/// The worker-side end of the batch collector: a [`WindowScorer`] that
/// ships each block to the collector and blocks until the scattered rows
/// come back. Cheap to clone; every ASR worker scores through one.
#[derive(Clone)]
pub struct BatchHandle {
    tx: Sender<ScoreRequest>,
    /// Local scorer used if a send races collector teardown — bit-identical
    /// to the batched path, so the fallback is invisible in the output.
    fallback: Arc<dyn WindowScorer>,
}

impl WindowScorer for BatchHandle {
    fn score_windows(&self, x: &[f32], rows: usize) -> Vec<f32> {
        let reply = ReplySlot::new();
        let req = ScoreRequest {
            x: x.to_vec(),
            rows,
            reply: Arc::clone(&reply),
        };
        if self.tx.send(req).is_err() {
            return self.fallback.score_windows(x, rows);
        }
        reply.wait()
    }
}

impl std::fmt::Debug for BatchHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchHandle")
            .field("queued", &self.tx.len())
            .finish_non_exhaustive()
    }
}

/// Spawns the collector thread and returns the worker-side [`BatchHandle`].
///
/// The collector gathers blocks per `policy`, scores each batch with one
/// `scorer.score_windows` call, scatters the rows back, and records every
/// flush into `obs` (`asr.batch_size` histogram, full/timeout flush
/// counters). It exits — after draining and answering every queued request
/// — once all handle clones are dropped. `workers` sizes the request queue
/// so a full worker pool can have one block in flight each without
/// blocking the enqueue.
pub fn spawn_batch_collector(
    scorer: Arc<dyn WindowScorer>,
    policy: BatchPolicy,
    obs: Arc<BatchObs>,
    workers: usize,
) -> (BatchHandle, JoinHandle<()>) {
    let depth = policy.max_batch.max(workers).max(1);
    let (tx, rx) = bounded::<ScoreRequest>(depth);
    let handle = BatchHandle {
        tx,
        fallback: Arc::clone(&scorer),
    };
    let collector = std::thread::Builder::new()
        .name("sirius-asr-batch".into())
        .spawn(move || collector_loop(scorer.as_ref(), policy, &obs, &rx))
        .expect("spawn batch collector");
    (handle, collector)
}

fn collector_loop(
    scorer: &dyn WindowScorer,
    policy: BatchPolicy,
    obs: &BatchObs,
    rx: &Receiver<ScoreRequest>,
) {
    let max_batch = policy.max_batch.max(1);
    while let Some(first) = rx.recv() {
        let mut batch = vec![first];
        if max_batch > 1 {
            // The delay clock starts at the *oldest* gathered block. An
            // unrepresentable deadline (near-MAX delay) means "wait for a
            // full batch or close".
            let deadline = Instant::now().checked_add(policy.max_delay);
            while batch.len() < max_batch {
                // Drain whatever is already queued before sleeping.
                match rx.try_recv() {
                    Ok(req) => {
                        batch.push(req);
                        continue;
                    }
                    Err(TryRecvError::Disconnected) => break,
                    Err(TryRecvError::Empty) => {}
                }
                match deadline {
                    Some(deadline) => {
                        let now = Instant::now();
                        if now >= deadline {
                            break;
                        }
                        match rx.recv_timeout(deadline - now) {
                            Ok(req) => batch.push(req),
                            Err(RecvTimeoutError::Timeout | RecvTimeoutError::Disconnected) => {
                                break
                            }
                        }
                    }
                    None => match rx.recv() {
                        Some(req) => batch.push(req),
                        None => break,
                    },
                }
            }
        }
        flush(scorer, obs, max_batch, batch);
    }
}

/// Scores one gathered batch with a single `score_windows` call and
/// scatters the emission rows back to each request's reply slot, in gather
/// order — row independence makes every scattered slice bit-identical to
/// scoring that request alone.
fn flush(scorer: &dyn WindowScorer, obs: &BatchObs, max_batch: usize, batch: Vec<ScoreRequest>) {
    obs.size.record(batch.len() as u64);
    if batch.len() >= max_batch {
        obs.flush_full.inc();
    } else {
        obs.flush_timeout.inc();
    }
    if batch.len() == 1 {
        // Nothing to coalesce; skip the concatenation copy.
        let req = batch.into_iter().next().expect("one request");
        req.reply.fulfill(scorer.score_windows(&req.x, req.rows));
        return;
    }
    let total_rows: usize = batch.iter().map(|r| r.rows).sum();
    let mut x = Vec::with_capacity(batch.iter().map(|r| r.x.len()).sum());
    for req in &batch {
        x.extend_from_slice(&req.x);
    }
    let out = scorer.score_windows(&x, total_rows);
    let out_width = out.len().checked_div(total_rows).unwrap_or(0);
    let mut offset = 0;
    for req in batch {
        let take = req.rows * out_width;
        req.reply.fulfill(out[offset..offset + take].to_vec());
        offset += take;
    }
}

/// [`WindowScorer`] view over a shared assistant's DNN scorer, the
/// collector's backing model (and the handle's teardown fallback).
pub struct SiriusWindowScorer(Arc<Sirius>);

impl SiriusWindowScorer {
    /// Wraps the assistant's trained DNN acoustic scorer.
    pub fn new(sirius: Arc<Sirius>) -> Self {
        Self(sirius)
    }
}

impl WindowScorer for SiriusWindowScorer {
    fn score_windows(&self, x: &[f32], rows: usize) -> Vec<f32> {
        self.0.asr().dnn_scorer().score_windows(x, rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    use sirius_obs::Registry;

    /// Deterministic scorer: each 2-wide input row `[a, b]` maps to the
    /// 3-wide output row `[a, b, a + b]` — a pure per-row function, so any
    /// batching of rows must reproduce it exactly.
    struct RowFn {
        calls: AtomicUsize,
        rows_seen: AtomicUsize,
    }

    impl RowFn {
        fn new() -> Arc<Self> {
            Arc::new(Self {
                calls: AtomicUsize::new(0),
                rows_seen: AtomicUsize::new(0),
            })
        }
    }

    impl WindowScorer for RowFn {
        fn score_windows(&self, x: &[f32], rows: usize) -> Vec<f32> {
            self.calls.fetch_add(1, Ordering::Relaxed);
            self.rows_seen.fetch_add(rows, Ordering::Relaxed);
            assert_eq!(x.len(), rows * 2, "row width");
            let mut out = Vec::with_capacity(rows * 3);
            for r in 0..rows {
                let (a, b) = (x[r * 2], x[r * 2 + 1]);
                out.extend_from_slice(&[a, b, a + b]);
            }
            out
        }
    }

    fn expected(block: &[f32]) -> Vec<f32> {
        RowFn::new().score_windows(block, block.len() / 2)
    }

    fn obs() -> (Registry, Arc<BatchObs>) {
        let registry = Registry::new();
        let obs = BatchObs::register(&registry, "asr");
        (registry, obs)
    }

    #[test]
    fn default_policy_does_not_batch() {
        let policy = BatchPolicy::default();
        assert_eq!(policy.max_batch, 1);
        assert!(!policy.is_batching());
        assert!(BatchPolicy::new(8, Duration::from_millis(1)).is_batching());
    }

    #[test]
    fn single_requests_round_trip_through_the_collector() {
        let scorer = RowFn::new();
        let (registry, obs) = obs();
        let policy = BatchPolicy::new(1, Duration::from_millis(1));
        let (handle, collector) =
            spawn_batch_collector(Arc::<RowFn>::clone(&scorer) as _, policy, obs, 2);
        let block = [1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0];
        let out = handle.score_windows(&block, 3);
        assert_eq!(out, expected(&block));
        drop(handle);
        collector.join().expect("collector exits");
        let snap = registry.snapshot();
        let sizes = snap.histogram("asr.batch_size").unwrap();
        assert_eq!(sizes.count, 1);
        assert_eq!(sizes.max, 1);
        assert_eq!(snap.counter("asr.batch_flush_full"), Some(1));
        assert_eq!(snap.counter("asr.batch_flush_timeout"), Some(0));
    }

    #[test]
    fn concurrent_blocks_are_coalesced_and_scattered_exactly() {
        let scorer = RowFn::new();
        let (registry, obs) = obs();
        // Generous delay: with 4 senders gated on a barrier the collector
        // should usually see a full batch, and *must* see correct rows.
        let policy = BatchPolicy::new(4, Duration::from_millis(200));
        let (handle, collector) =
            spawn_batch_collector(Arc::<RowFn>::clone(&scorer) as _, policy, obs, 4);
        let barrier = Arc::new(std::sync::Barrier::new(4));
        let senders: Vec<_> = (0..4u32)
            .map(|p| {
                let handle = handle.clone();
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    let base = p as f32 * 100.0;
                    let block = [base, base + 1.0, base + 2.0, base + 3.0];
                    barrier.wait();
                    let out = handle.score_windows(&block, 2);
                    assert_eq!(out, expected(&block), "producer {p}");
                })
            })
            .collect();
        for s in senders {
            s.join().expect("sender");
        }
        drop(handle);
        collector.join().expect("collector exits");
        assert_eq!(scorer.rows_seen.load(Ordering::Relaxed), 8, "no row lost");
        let snap = registry.snapshot();
        let sizes = snap.histogram("asr.batch_size").unwrap();
        assert_eq!(sizes.sum, 4, "each block flushed exactly once");
        let flushes = snap.counter("asr.batch_flush_full").unwrap()
            + snap.counter("asr.batch_flush_timeout").unwrap();
        assert_eq!(flushes, sizes.count);
    }

    #[test]
    fn timeout_flushes_a_partial_batch() {
        let scorer = RowFn::new();
        let (registry, obs) = obs();
        // max_batch 8 but only one request in flight: only the delay can
        // flush it.
        let policy = BatchPolicy::new(8, Duration::from_millis(5));
        let (handle, collector) =
            spawn_batch_collector(Arc::<RowFn>::clone(&scorer) as _, policy, obs, 1);
        let block = [9.0f32, 11.0];
        let begun = Instant::now();
        let out = handle.score_windows(&block, 1);
        assert!(begun.elapsed() >= Duration::from_millis(5), "waited out");
        assert_eq!(out, expected(&block));
        drop(handle);
        collector.join().expect("collector exits");
        let snap = registry.snapshot();
        assert_eq!(snap.counter("asr.batch_flush_full"), Some(0));
        assert_eq!(snap.counter("asr.batch_flush_timeout"), Some(1));
    }

    #[test]
    fn send_failure_falls_back_to_local_scoring() {
        // A handle whose collector is gone (receiver dropped) must still
        // answer — locally, through the fallback scorer.
        let scorer = RowFn::new();
        let (tx, rx) = bounded::<ScoreRequest>(1);
        drop(rx);
        let handle = BatchHandle {
            tx,
            fallback: Arc::<RowFn>::clone(&scorer) as _,
        };
        let block = [2.0f32, 3.0];
        let out = handle.score_windows(&block, 1);
        assert_eq!(out, expected(&block));
        assert_eq!(scorer.calls.load(Ordering::Relaxed), 1, "scored locally");
    }
}
