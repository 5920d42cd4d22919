//! Streaming ASR serving with speculative downstream pipelining.
//!
//! The staged runtime's ASR workers normally see a whole utterance at once,
//! so a query's end-to-end latency is pinned at the **sum-of-stages floor**:
//! nothing downstream can start until the full decode finishes. This module
//! replays the utterance through [`sirius_speech::StreamingRecognizer`] in
//! paced chunks instead — modelling audio that *arrives over time* — and
//! exploits the recognizer's stable-prefix guarantee twice:
//!
//! 1. **Overlap**: the beam advances while later audio is still "arriving",
//!    so when the utterance ends only the clamped feature tail remains to
//!    decode. Measured from the end of audio arrival, ASR latency collapses
//!    from the full decode to the tail.
//! 2. **Speculation**: each time the committed prefix grows, the worker
//!    dispatches a detached copy of the query's data, holding the prefix
//!    as its recognized text, to a private speculation pool that runs the
//!    runtime's own classify, IMM and QA steps on it (the exact
//!    [`Sirius::try_process_with`] order). At utterance end the worker
//!    **reconciles**: if the latest speculation ran on exactly the final
//!    hypothesis, the ASR step adopts its data and ends the query there
//!    (`asr.spec_hit`); otherwise the query goes on through the ordinary
//!    classify queue (`asr.spec_miss`) and nothing downstream ever
//!    observes a wrong prefix.
//!
//! Both paths are bit-identical to the serial pipeline: whole-utterance
//! `recognize` is this same recognizer run once over the whole audio, so
//! the chunked run's final hypothesis equals it by construction, and the
//! steps past ASR are pure functions of the recognized text and the image,
//! so data a speculation computed on the (confirmed) final text equals
//! what the queues would compute.
//!
//! Degenerate audio — empty, or containing non-finite samples — is served
//! through the ordinary whole-utterance ASR stage instead of chunk by
//! chunk. `recognize` accepts any audio, while `push_chunk` and `finish`
//! guard the public streaming entry with typed errors the serial path would
//! never surface, so malformed inputs produce byte-for-byte the serial
//! pipeline's response.
//!
//! Streaming is one of the two ways the runtime's single ASR stage value
//! (`AsrStage`) drives the recognizer — whole utterance or chunk by chunk —
//! and either way the scorer is one [`Acoustic`] value built per query:
//! the configured model, with the batch collector as the DNN's remote
//! scorer when one exists. `AsrStage::step` is the ASR pool's step: it
//! recognizes, reconciles a speculation, and consults the result caches,
//! and the generic worker pool runs it through the same dequeue / expire /
//! `catch_unwind` / timing loop as every other step.
//!
//! [`Sirius::try_process_with`]: sirius::pipeline::Sirius::try_process_with

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sirius::error::SiriusError;
use sirius::pipeline::{Sirius, SiriusOutcome};
use sirius::stage::{AsrRequest, AsrResponse};
use sirius_speech::features::SAMPLE_RATE;
use sirius_speech::{Acoustic, AcousticModelKind, WindowScorer};

use crate::batch::{spawn_batch_collector, BatchHandle, SiriusWindowScorer};
use crate::metrics::{ServerMetrics, StreamObs};
use crate::qos::{CacheKey, ResultCaches};
use crate::queue::{bounded, Receiver, Sender};
use crate::runtime::{Ctx, Next, Query, ServerConfig, CLASSIFY};

/// Governs streaming ASR service: chunked ingestion pacing and speculative
/// downstream dispatch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamPolicy {
    /// Audio duration ingested per chunk. `Duration::ZERO` (the default)
    /// disables streaming entirely: the runtime serves the ordinary
    /// whole-utterance ASR stage.
    pub chunk: Duration,
    /// Arrival pacing as a fraction of real time: chunk `k` is pushed no
    /// earlier than `pacing × (audio seconds through k)` after admission.
    /// `0.0` replays chunks back-to-back (useful for equivalence tests);
    /// `1.0` models live microphone capture.
    pub pacing: f64,
    /// Whether committed prefixes are speculatively forwarded downstream.
    /// Off, streaming still overlaps decode with arrival but every query
    /// routes through the classify queue at the end.
    pub speculate: bool,
}

impl Default for StreamPolicy {
    fn default() -> Self {
        Self {
            chunk: Duration::ZERO,
            pacing: 0.0,
            speculate: false,
        }
    }
}

impl StreamPolicy {
    /// A streaming policy ingesting `chunk` of audio at a time.
    pub fn new(chunk: Duration) -> Self {
        Self {
            chunk,
            ..Self::default()
        }
    }

    /// Sets the arrival pacing factor.
    pub fn with_pacing(mut self, pacing: f64) -> Self {
        self.pacing = pacing;
        self
    }

    /// Enables speculative downstream dispatch on committed prefixes.
    pub fn with_speculation(mut self) -> Self {
        self.speculate = true;
        self
    }

    /// Whether this policy calls for the streaming ASR stage at all.
    pub fn is_streaming(&self) -> bool {
        self.chunk > Duration::ZERO
    }

    /// Samples per ingestion chunk (at least 1).
    pub fn chunk_samples(&self) -> usize {
        ((self.chunk.as_secs_f64() * SAMPLE_RATE as f64).round() as usize).max(1)
    }
}

/// One finished speculation: the query copy it walked and how that ended.
struct SpecResult {
    generation: u64,
    query: Query,
    outcome: Result<SiriusOutcome, SiriusError>,
}

struct SpecInner {
    /// Highest generation dispatched so far; later prefixes supersede
    /// earlier ones, so workers skip jobs whose generation is stale.
    generation: u64,
    /// Dispatched-but-unfinished jobs; reconcile waits for zero so no
    /// speculation thread still holds the query's image when the ticket
    /// completes.
    outstanding: usize,
    /// The latest-generation finished speculation (latest wins).
    deposit: Option<SpecResult>,
}

/// Per-query rendezvous between the ASR worker and the speculation pool.
struct SpecCell {
    inner: Mutex<SpecInner>,
    done: Condvar,
}

impl SpecCell {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            inner: Mutex::new(SpecInner {
                generation: 0,
                outstanding: 0,
                deposit: None,
            }),
            done: Condvar::new(),
        })
    }
}

/// One speculative unit of work: walk the steps past ASR on `query`, a
/// detached copy of the query's data holding a committed prefix.
struct SpecJob {
    cell: Arc<SpecCell>,
    generation: u64,
    query: Query,
}

/// Spawns the speculation pool: `workers` threads draining `rx`, walking
/// each job's query through the steps past ASR and depositing the
/// latest-generation result into the job's cell. Threads exit when every
/// sender is dropped (the ASR stage owns the sender, so the pool outlives
/// every query).
fn spawn_spec_pool(
    sirius: Arc<Sirius>,
    workers: usize,
    rx: Receiver<SpecJob>,
) -> Vec<JoinHandle<()>> {
    (0..workers.max(1))
        .map(|i| {
            let sirius = Arc::clone(&sirius);
            let rx = rx.clone();
            std::thread::Builder::new()
                .name(format!("sirius-asr-spec-{i}"))
                .spawn(move || {
                    while let Some(job) = rx.recv() {
                        let stale = {
                            let inner = job.cell.inner.lock().expect("spec lock");
                            job.generation < inner.generation
                        };
                        let mut query = job.query;
                        let outcome = (!stale).then(|| {
                            catch_unwind(AssertUnwindSafe(|| query.walk(&sirius, CLASSIFY)))
                                .unwrap_or(Err(SiriusError::StagePanicked { stage: "asr" }))
                        });
                        let mut inner = job.cell.inner.lock().expect("spec lock");
                        if let Some(outcome) = outcome {
                            let newer = inner
                                .deposit
                                .as_ref()
                                .is_none_or(|d| d.generation < job.generation);
                            if newer {
                                inner.deposit = Some(SpecResult {
                                    generation: job.generation,
                                    query,
                                    outcome,
                                });
                            }
                        }
                        inner.outstanding = inner.outstanding.saturating_sub(1);
                        job.cell.done.notify_all();
                    }
                })
                .expect("spawn spec worker")
        })
        .collect()
}

/// The runtime's one ASR stage, chosen once from [`ServerConfig`]:
/// whole-utterance recognition, or streaming ingestion with optional
/// speculation (`streaming`); either scores DNN queries through the batch
/// collector when there is one (`remote`).
pub(crate) struct AsrStage {
    sirius: Arc<Sirius>,
    acoustic: AcousticModelKind,
    /// The collector DNN queries score through, when batching is on.
    remote: Option<BatchHandle>,
    streaming: Option<Streaming>,
    /// The result caches consulted once the transcript is final.
    caches: Option<Arc<ResultCaches>>,
}

struct Streaming {
    policy: StreamPolicy,
    obs: Arc<StreamObs>,
    /// The speculation pool's queue, when speculation is on.
    spec_tx: Option<Sender<SpecJob>>,
}

impl AsrStage {
    /// Builds the stage `config` calls for and spawns its helper threads —
    /// the batch collector and the speculation pool. Both exit once the
    /// stage (held only by the ASR pool's step) is dropped, so the ASR
    /// pool exiting is what lets them drain and stop and their joins can
    /// never deadlock.
    pub(crate) fn start(
        sirius: &Arc<Sirius>,
        config: &ServerConfig,
        metrics: &ServerMetrics,
        caches: Option<Arc<ResultCaches>>,
    ) -> (Self, Vec<JoinHandle<()>>) {
        let asr_workers = config.asr.workers.max(1);
        let mut helpers = Vec::new();
        let remote = config.batch.is_batching().then(|| {
            let scorer: Arc<dyn WindowScorer> =
                Arc::new(SiriusWindowScorer::new(Arc::clone(sirius)));
            let (handle, collector) = spawn_batch_collector(
                scorer,
                config.batch,
                Arc::clone(&metrics.batch),
                asr_workers,
            );
            helpers.push(collector);
            handle
        });
        let streaming = config.stream.is_streaming().then(|| Streaming {
            policy: config.stream,
            obs: Arc::clone(&metrics.stream),
            // The spec pool's queue is sized so a full ASR pool can have
            // several prefixes in flight each; overflow degrades to a
            // dropped speculation, never to blocking the decode loop.
            spec_tx: config.stream.speculate.then(|| {
                let (tx, rx) = bounded(config.asr.queue_depth.max(asr_workers * 4));
                helpers.extend(spawn_spec_pool(Arc::clone(sirius), asr_workers, rx));
                tx
            }),
        });
        let stage = Self {
            sirius: Arc::clone(sirius),
            acoustic: config.acoustic,
            remote,
            streaming,
            caches,
        };
        (stage, helpers)
    }

    /// The ASR step: recognizes the query's audio, then ends the query
    /// with a confirmed speculation or a result-cache hit, or sends it on
    /// to classify. Expired jobs never get here — the pool drops them at
    /// dequeue — so an abandoned query never occupies a slot in a batch or
    /// a speculation.
    pub(crate) fn step(&self, ctx: &mut Ctx) -> Result<Next, SiriusError> {
        let audio = std::mem::take(&mut ctx.query.audio);
        // The one place "DNN and a collector exists → remote" is decided.
        // The session lives for this decode only: the collector holds a
        // partial batch for every open session, and a GMM decode (no GEMM
        // to batch) would never send it a block.
        let session = match (self.acoustic, &self.remote) {
            (AcousticModelKind::Dnn, Some(handle)) => Some(handle.session()),
            _ => None,
        };
        let remote = session.as_ref().map(|s| s as &dyn WindowScorer);
        let acoustic = Acoustic::new(self.acoustic, remote);
        let (asr, confirmed) = match &self.streaming {
            // Degenerate audio takes the whole-utterance stage, the same
            // recognizer run once without the streaming entry's checks, so
            // the response (including error behaviour) is byte-identical to
            // the serial pipeline's.
            Some(_) if audio.is_empty() || audio.iter().any(|s| !s.is_finite()) => {
                let req = AsrRequest {
                    audio,
                    acoustic: self.acoustic,
                };
                (self.sirius.stage_asr(req)?, None)
            }
            Some(streaming) => streaming.serve(&self.sirius, acoustic, ctx, &audio)?,
            None => (self.sirius.asr().recognize(&audio, acoustic).into(), None),
        };
        ctx.query.recognized = asr.recognized;
        ctx.query.timing.asr = asr.timing;
        let key = self
            .caches
            .as_ref()
            .map(|_| CacheKey::of(&ctx.query.recognized, ctx.query.image.as_ref()));
        // A confirmed speculation already ran every step past ASR: adopt
        // its data and end here, filling the cache so the next identical
        // query hits at ASR commit.
        if let Some((spec, outcome)) = confirmed {
            ctx.query = spec;
            ctx.query.timing.asr = asr.timing;
            ctx.cache_key = key;
            return Ok(Next::Done(outcome));
        }
        // The post-ASR-commit cache consult: a verified hit serves the
        // cached outcome with this query's own fresh ASR text/timing and
        // never touches Classify/IMM/QA. A miss stamps the key so
        // completion fills the cache.
        if let (Some(caches), Some(key)) = (&self.caches, key) {
            if let Some(cached) = caches.lookup(&key, &ctx.query.recognized) {
                if let Some(tenant) = &ctx.tenant {
                    tenant.cache_hit.inc();
                }
                ctx.query.matched_venue = cached.matched_venue;
                return Ok(Next::Done(cached.outcome));
            }
            ctx.cache_key = Some(key);
        }
        Ok(Next::Stage(CLASSIFY))
    }
}

/// Sleeps until `due` (absolute); `None` (unrepresentable) never arrives,
/// so it is treated as "already due".
fn wait_until(due: Option<Instant>) {
    if let Some(due) = due {
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
    }
}

impl Streaming {
    /// Recognizes one query's (finite, non-empty) audio through the
    /// streaming recognizer: paced chunk ingestion, partial-commit
    /// telemetry, speculative dispatch, and the final reconcile, which
    /// returns the confirmed speculation's query and outcome on a hit. See
    /// the module docs for the full story.
    fn serve(
        &self,
        sirius: &Sirius,
        acoustic: Acoustic<'_>,
        ctx: &Ctx,
        audio: &[f32],
    ) -> Result<(AsrResponse, Option<(Query, SiriusOutcome)>), SiriusError> {
        let mut rec = sirius.asr().streaming(acoustic);

        let spec = self.spec_tx.as_ref().map(|tx| (tx, SpecCell::new()));
        let chunk_samples = self.policy.chunk_samples();
        let mut last_committed = 0usize;
        let mut arrived = 0usize;
        for chunk in audio.chunks(chunk_samples) {
            arrived += chunk.len();
            if self.policy.pacing > 0.0 {
                let offset = self.policy.pacing * arrived as f64 / SAMPLE_RATE as f64;
                wait_until(ctx.started.checked_add(Duration::from_secs_f64(offset)));
            }
            let push_begun = Instant::now();
            // An error is unreachable (audio was pre-validated), but a typed
            // error must never panic a worker.
            let progress = rec.push_chunk(chunk)?;
            if progress.committed_words > last_committed {
                self.obs.partials_emitted.inc();
                self.obs
                    .commit_latency
                    .record_duration(push_begun.elapsed());
                if last_committed == 0 {
                    self.obs
                        .first_partial
                        .record_duration(ctx.started.elapsed());
                }
                if let Some((tx, cell)) = &spec {
                    let generation = {
                        let mut inner = cell.inner.lock().expect("spec lock");
                        inner.generation += 1;
                        inner.outstanding += 1;
                        inner.generation
                    };
                    let job = SpecJob {
                        cell: Arc::clone(cell),
                        generation,
                        query: Query {
                            recognized: rec.committed_text(),
                            image: ctx.query.image.clone(),
                            ..Query::default()
                        },
                    };
                    if tx.try_send(job).is_ok() {
                        self.obs.spec_dispatched.inc();
                    } else {
                        // Queue full (or closing): retract the reservation so
                        // reconcile does not wait for a job that never ran.
                        let mut inner = cell.inner.lock().expect("spec lock");
                        inner.outstanding = inner.outstanding.saturating_sub(1);
                        cell.done.notify_all();
                    }
                }
                last_committed = progress.committed_words;
            }
        }

        let asr = AsrResponse::from(rec.finish()?);
        let mut confirmed = None;

        // Reconcile: wait for every dispatched speculation (so none still
        // borrows the query), then reuse the deposit iff it ran on exactly
        // the final hypothesis and succeeded.
        if let Some((_, cell)) = spec {
            let deposit = {
                let mut inner = cell.inner.lock().expect("spec lock");
                while inner.outstanding > 0 {
                    inner = cell.done.wait(inner).expect("spec lock");
                }
                inner.deposit.take()
            };
            match deposit {
                Some(SpecResult {
                    query,
                    outcome: Ok(outcome),
                    ..
                }) if query.recognized == asr.recognized => {
                    self.obs.spec_hit.inc();
                    confirmed = Some((query, outcome));
                }
                Some(_) => self.obs.spec_miss.inc(),
                None if last_committed > 0 => self.obs.spec_miss.inc(),
                None => {}
            }
        }
        Ok((asr, confirmed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_is_not_streaming() {
        let policy = StreamPolicy::default();
        assert!(!policy.is_streaming());
        assert!(!policy.speculate);
        assert_eq!(policy.pacing, 0.0);
    }

    #[test]
    fn chunk_samples_converts_duration_to_samples() {
        let policy = StreamPolicy::new(Duration::from_millis(100));
        assert!(policy.is_streaming());
        assert_eq!(policy.chunk_samples(), SAMPLE_RATE / 10);
        // Sub-sample chunks clamp to one sample rather than zero.
        assert_eq!(
            StreamPolicy::new(Duration::from_nanos(1)).chunk_samples(),
            1
        );
    }

    #[test]
    fn policy_builders_compose() {
        let policy = StreamPolicy::new(Duration::from_millis(80))
            .with_pacing(0.25)
            .with_speculation();
        assert!(policy.is_streaming());
        assert!(policy.speculate);
        assert_eq!(policy.pacing, 0.25);
    }
}
