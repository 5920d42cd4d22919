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
//!  ASR worker 1 ─┐ session.score_windows(blockₐ)
//!  ASR worker 2 ─┼──▶ [batch queue] ─▶ collector ─▶ one GEMM over
//!  ASR worker 3 ─┘      (gather until every │       [blockₐ; blockᵦ; …]
//!                        live session has   └─▶ scatter rows back to the
//!                        a block in, or         per-query reply slots
//!                        max_batch, or
//!                        max_delay)
//! ```
//!
//! **Sessions.** A decode blocks on each of its blocks, so it has at most
//! one in flight: a batch can never hold more blocks than there are decodes
//! in progress. Each DNN decode therefore scores through a
//! [`BatchSession`] opened for its span ([`BatchHandle::session`]), and the
//! collector counts the live ones.
//!
//! **Policy.** [`BatchPolicy`]`{ max_batch, max_delay }`: the collector
//! flushes as soon as it holds `min(max_batch, live sessions)` blocks (a
//! *full* flush — nobody is left who could add to the batch) or the oldest
//! gathered block has waited `max_delay` (a *timeout* flush), whichever
//! comes first. So `max_delay` only bounds the wait for a session that is
//! mid-search; a lone decode never waits. `max_batch = 1` degrades to the
//! per-query path: the runtime does not even spawn a collector.
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
//! The collector exits when every [`BatchHandle`] (held by the ASR pool's
//! step) is dropped — it drains the queue, answering every
//! outstanding request, before exiting, so no worker is left waiting. A
//! session that ends (its decode finished, or unwound) tells the collector
//! on drop, so a batch is never held for a decode that is gone. A
//! send that races collector teardown falls back to scoring locally, which
//! is bit-identical anyway.
//!
//! Expired jobs compose with deadline-aware admission for free: the worker
//! pool drops them at dequeue, *before* the stage step runs, so an
//! abandoned query never occupies a slot in a batch.

use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use sirius::pipeline::Sirius;
use sirius_speech::WindowScorer;

use crate::metrics::BatchObs;
use crate::queue::{bounded, Receiver, RecvTimeoutError, Sender};

/// Governs the ASR batch collector: flush when `max_batch` blocks — or one
/// from every decode in progress, if that is fewer — are gathered, or the
/// oldest has waited `max_delay`, whichever comes first.
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

/// What travels to the collector: blocks to score, and the opening and
/// closing of the sessions they belong to. One FIFO carries all three, so
/// the collector's session count is never behind the blocks it holds.
enum Msg {
    Open,
    Close,
    Score(ScoreRequest),
}

/// The worker-side end of the batch collector. Cheap to clone; every ASR
/// worker holds one and opens a [`BatchSession`] per DNN decode.
#[derive(Clone)]
pub struct BatchHandle {
    tx: Sender<Msg>,
    /// Local scorer used if a send races collector teardown — bit-identical
    /// to the batched path, so the fallback is invisible in the output.
    fallback: Arc<dyn WindowScorer>,
}

impl BatchHandle {
    /// Opens a scoring session: the [`WindowScorer`] one decode scores all
    /// its blocks through. Hold it for exactly the span of the decode — the
    /// collector waits (up to `max_delay`) for a block from every open
    /// session before it flushes a partial batch.
    pub fn session(&self) -> BatchSession<'_> {
        // If the collector is gone the session is not counted anywhere and
        // its blocks score locally.
        let _ = self.tx.send(Msg::Open);
        BatchSession { handle: self }
    }

    /// Scores one block through a session of its own.
    pub fn score_windows(&self, x: &[f32], rows: usize) -> Vec<f32> {
        self.session().score_windows(x, rows)
    }
}

impl std::fmt::Debug for BatchHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchHandle")
            .field("queued", &self.tx.len())
            .finish_non_exhaustive()
    }
}

/// One decode's connection to the collector: ships each block and blocks
/// until the scattered rows come back. Dropping it ends the session.
pub struct BatchSession<'a> {
    handle: &'a BatchHandle,
}

impl WindowScorer for BatchSession<'_> {
    fn score_windows(&self, x: &[f32], rows: usize) -> Vec<f32> {
        let reply = ReplySlot::new();
        let req = ScoreRequest {
            x: x.to_vec(),
            rows,
            reply: Arc::clone(&reply),
        };
        if self.handle.tx.send(Msg::Score(req)).is_err() {
            return self.handle.fallback.score_windows(x, rows);
        }
        reply.wait()
    }
}

impl Drop for BatchSession<'_> {
    fn drop(&mut self) {
        // A closed channel means there is no collector left to tell.
        let _ = self.handle.tx.send(Msg::Close);
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
    let (tx, rx) = bounded::<Msg>(depth);
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
    rx: &Receiver<Msg>,
) {
    let max_batch = policy.max_batch.max(1);
    let mut live = 0usize;
    let mut batch: Vec<ScoreRequest> = Vec::new();
    // When the oldest gathered block has waited `max_delay`. `None` with a
    // non-empty batch is an unrepresentable deadline (near-MAX delay):
    // wait for a full batch or close.
    let mut deadline: Option<Instant> = None;
    loop {
        // Every live session blocks on its one block, so a batch holding
        // `live` blocks is as large as it can get.
        if !batch.is_empty() && batch.len() >= max_batch.min(live.max(1)) {
            obs.flush_full.inc();
            flush(scorer, obs, std::mem::take(&mut batch));
        }
        let msg = match deadline.filter(|_| !batch.is_empty()) {
            None => rx.recv().ok_or(RecvTimeoutError::Disconnected),
            Some(deadline) => rx.recv_timeout(deadline.saturating_duration_since(Instant::now())),
        };
        match msg {
            Ok(Msg::Open) => live += 1,
            Ok(Msg::Close) => live = live.saturating_sub(1),
            Ok(Msg::Score(req)) => {
                if batch.is_empty() {
                    deadline = Instant::now().checked_add(policy.max_delay);
                }
                batch.push(req);
            }
            Err(closed_or_late) => {
                if !batch.is_empty() {
                    obs.flush_timeout.inc();
                    flush(scorer, obs, std::mem::take(&mut batch));
                }
                if closed_or_late == RecvTimeoutError::Disconnected {
                    return;
                }
            }
        }
    }
}

/// Scores one gathered batch with a single `score_windows` call and
/// scatters the emission rows back to each request's reply slot, in gather
/// order — row independence makes every scattered slice bit-identical to
/// scoring that request alone.
fn flush(scorer: &dyn WindowScorer, obs: &BatchObs, batch: Vec<ScoreRequest>) {
    obs.size.record(batch.len() as u64);
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

    /// The collector waits for a session that is open but mid-search — and
    /// only `max_delay` long.
    #[test]
    fn timeout_flushes_a_batch_another_session_never_joins() {
        let scorer = RowFn::new();
        let (registry, obs) = obs();
        let policy = BatchPolicy::new(8, Duration::from_millis(5));
        let (handle, collector) =
            spawn_batch_collector(Arc::<RowFn>::clone(&scorer) as _, policy, obs, 2);
        let searching = handle.session();
        let block = [9.0f32, 11.0];
        let begun = Instant::now();
        let out = handle.session().score_windows(&block, 1);
        assert!(begun.elapsed() >= Duration::from_millis(5), "waited out");
        assert_eq!(out, expected(&block));
        drop(searching);
        drop(handle);
        collector.join().expect("collector exits");
        let snap = registry.snapshot();
        assert_eq!(snap.counter("asr.batch_flush_full"), Some(0));
        assert_eq!(snap.counter("asr.batch_flush_timeout"), Some(1));
    }

    /// A lone decode has nobody to wait for: each of its blocks is a full
    /// batch of one however long `max_delay` is, and a session that ends
    /// releases a batch that was being held for it.
    #[test]
    fn a_batch_holding_every_live_session_flushes_at_once() {
        let scorer = RowFn::new();
        let (registry, obs) = obs();
        let policy = BatchPolicy::new(8, Duration::from_secs(30));
        let (handle, collector) =
            spawn_batch_collector(Arc::<RowFn>::clone(&scorer) as _, policy, obs, 2);
        let begun = Instant::now();
        let lone = handle.session();
        for i in 0..13 {
            let block = [i as f32, 1.0];
            assert_eq!(lone.score_windows(&block, 1), expected(&block));
        }
        drop(lone);
        // Two sessions: the first block is held for the second session,
        // and released when that session ends without sending.
        let leaving = handle.session();
        let (sent_tx, sent_rx) = std::sync::mpsc::channel();
        let waiter = {
            let handle = handle.clone();
            std::thread::spawn(move || {
                let session = handle.session();
                sent_tx.send(()).expect("test alive");
                session.score_windows(&[4.0, 5.0], 1)
            })
        };
        sent_rx.recv().expect("waiter opened its session");
        drop(leaving);
        assert_eq!(waiter.join().expect("waiter"), expected(&[4.0, 5.0]));
        assert!(
            begun.elapsed() < Duration::from_secs(10),
            "waited for nobody"
        );
        drop(handle);
        collector.join().expect("collector exits");
        let snap = registry.snapshot();
        assert_eq!(snap.counter("asr.batch_flush_full"), Some(14));
        assert_eq!(snap.counter("asr.batch_flush_timeout"), Some(0));
    }

    #[test]
    fn send_failure_falls_back_to_local_scoring() {
        // A handle whose collector is gone (receiver dropped) must still
        // answer — locally, through the fallback scorer.
        let scorer = RowFn::new();
        let (tx, rx) = bounded::<Msg>(1);
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
