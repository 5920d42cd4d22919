//! The staged Sirius serving runtime.
//!
//! [`SiriusServer::start`] wires the four typed pipeline stages (ASR →
//! classify → IMM → QA) into per-stage worker pools connected by bounded
//! MPMC queues:
//!
//! ```text
//!  submit ─try_send─▶ [asr queue] ─▶ ASR pool ─send─▶ [classify queue]
//!        ─▶ classify pool ──Action──▶ ticket completed
//!                         └─Question─▶ [imm queue] ─▶ IMM pool
//!        ─send─▶ [qa queue] ─▶ QA pool ─▶ ticket completed
//! ```
//!
//! **Admission control**: [`SiriusServer::submit`] is the one door. A
//! [`Request`] is an input plus an optional tenant class and an optional
//! deadline, and one rule governs all of them: the job carries
//! `slo = min(class.slo, deadline)`, admission is gated on
//! `budget = min(class.slo × weight / max_weight, deadline)`, and the query
//! is shed with [`SiriusError::DeadlineUnmeetable`] — carrying a
//! drain-rate-derived retry hint — the moment the live end-to-end estimate
//! ([`SiriusServer::expected_sojourn`]: queue depths, in-flight counts and
//! per-stage EWMA service times) exceeds the budget. With neither class
//! nor deadline both are infinite, the estimate can never exceed them, and
//! what remains is the non-blocking `try_send` into the ASR queue, shedding
//! with [`SiriusError::Overloaded`] when it is full — overload surfaces as
//! a typed rejection the client can retry, instead of unbounded queueing.
//! Admitted deadlines ride along with the job; a worker dequeuing an
//! already-expired job drops it unserved (`{stage}.expired`), so no stage
//! service time is spent on an answer the client has abandoned.
//!
//! **Back-pressure**: interior hand-offs use blocking `send`, so a slow
//! downstream stage stalls its upstream pool rather than growing a queue
//! without bound. The stage graph is a forward-only chain whose final pool
//! never blocks, so progress is always guaranteed (no cycles, no deadlock).
//!
//! **Graceful shutdown**: dropping (or [`SiriusServer::shutdown`]ting) the
//! runtime closes the ASR queue; each pool drains its queue, exits, and by
//! dropping its sender closes the next queue in the chain. Every accepted
//! query completes before the workers are joined.
//!
//! **Observability**: every pool records per-stage queue-wait and
//! service-time histograms, panic counters and (at snapshot time)
//! queue-depth gauges into one [`ServerMetrics`] registry — all lock-free
//! on the hot path. [`SiriusServer::metrics_snapshot`] exports the lot;
//! [`SiriusServer::start_with`] additionally attributes every span of
//! every query to a caller-supplied [`Recorder`].
//!
//! **One loop, one completion**: every stage — including whichever ASR
//! variant the config selects (`stream::AsrStage`) — runs in the
//! generic [`spawn_stage_pool`] loop, and every query ends in
//! `Completion::finish`, the only place a response is assembled, a result
//! cache filled and a ticket completed.

use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sirius::error::SiriusError;
use sirius::pipeline::{Sirius, SiriusInput, SiriusOutcome, SiriusResponse, StageTiming};
use sirius::stage::{
    AsrRequest, ClassifyRequest, ClassifyResponse, ImmRequest, ImmResponse, QaRequest, QaResponse,
};
use sirius_obs::{Gauge, NoopRecorder, Recorder, Snapshot, SpanKind};
use sirius_par::queue::{bounded, SendError, Sender, TrySendError};
use sirius_speech::asr::{AcousticModelKind, AsrTiming};
use sirius_vision::image::GrayImage;

use crate::batch::BatchPolicy;
use crate::metrics::{ServerMetrics, STAGES};
use crate::pool::{spawn_stage_pool, Job};
use crate::qos::{
    CacheKey, CachePolicy, CachedAnswer, ResultCaches, TenantClass, TenantObs, TenantTable,
};
use crate::stream::{AsrServed, AsrStage, Downstream, StreamPolicy};

/// Sizing of one stage's pool and queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageConfig {
    /// Worker threads draining this stage's queue (clamped to at least 1).
    pub workers: usize,
    /// Bounded queue depth in front of the pool (clamped to at least 1).
    pub queue_depth: usize,
}

impl Default for StageConfig {
    fn default() -> Self {
        Self {
            workers: 1,
            queue_depth: 16,
        }
    }
}

/// Configuration of the staged runtime.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerConfig {
    /// ASR pool/queue sizing. Its queue is the admission-control queue.
    pub asr: StageConfig,
    /// Query-classifier pool/queue sizing (the stage is microseconds, one
    /// worker is plenty).
    pub classify: StageConfig,
    /// Image-matching pool/queue sizing.
    pub imm: StageConfig,
    /// Question-answering pool/queue sizing.
    pub qa: StageConfig,
    /// Acoustic model every query is scored with.
    pub acoustic: AcousticModelKind,
    /// Cross-query dynamic batching of ASR DNN block GEMMs. The default
    /// (`max_batch == 1`) spawns no collector and serves exactly the
    /// per-query path; see [`crate::batch`].
    pub batch: BatchPolicy,
    /// Streaming ASR ingestion and speculative downstream pipelining. The
    /// default (`chunk == 0`) serves whole utterances; see
    /// [`crate::stream`].
    pub stream: StreamPolicy,
    /// Tenant traffic classes a [`Request`] may name. Empty (the default)
    /// admits only class-less requests.
    pub tenants: Vec<TenantClass>,
    /// The post-ASR result caches. Disabled (the default), the serving
    /// path is exactly the uncached runtime; see [`crate::qos`].
    pub cache: CachePolicy,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            asr: StageConfig::default(),
            classify: StageConfig::default(),
            imm: StageConfig::default(),
            qa: StageConfig::default(),
            acoustic: AcousticModelKind::Gmm,
            batch: BatchPolicy::default(),
            stream: StreamPolicy::default(),
            tenants: Vec::new(),
            cache: CachePolicy::default(),
        }
    }
}

impl ServerConfig {
    /// `workers` threads on each heavy stage (ASR, IMM, QA); the classifier
    /// keeps a single worker.
    pub fn with_workers(workers: usize) -> Self {
        let mut cfg = Self::default();
        cfg.asr.workers = workers;
        cfg.imm.workers = workers;
        cfg.qa.workers = workers;
        cfg
    }

    /// Sets the ASR batch collector's policy. Only DNN-scored queries
    /// batch; with the default GMM acoustic model the policy is inert.
    pub fn with_batch_policy(mut self, batch: BatchPolicy) -> Self {
        self.batch = batch;
        self
    }

    /// Sets the streaming ASR policy. With the default (non-streaming)
    /// policy the runtime serves whole utterances exactly as before.
    pub fn with_stream_policy(mut self, stream: StreamPolicy) -> Self {
        self.stream = stream;
        self
    }

    /// Sets the tenant traffic classes requests may name.
    pub fn with_tenant_classes(mut self, tenants: Vec<TenantClass>) -> Self {
        self.tenants = tenants;
        self
    }

    /// Sets the result-cache policy.
    pub fn with_cache_policy(mut self, cache: CachePolicy) -> Self {
        self.cache = cache;
        self
    }

    /// Sets every stage's queue depth.
    pub fn with_queue_depth(mut self, depth: usize) -> Self {
        self.asr.queue_depth = depth;
        self.classify.queue_depth = depth;
        self.imm.queue_depth = depth;
        self.qa.queue_depth = depth;
        self
    }

    /// Total worker threads the runtime will spawn (the streaming
    /// speculation pool, when enabled, matches the ASR pool's size).
    pub fn total_workers(&self) -> usize {
        let spec = if self.stream.is_streaming() && self.stream.speculate {
            self.asr.workers.max(1)
        } else {
            0
        };
        self.asr.workers.max(1)
            + self.classify.workers.max(1)
            + self.imm.workers.max(1)
            + self.qa.workers.max(1)
            + spec
    }
}

/// One query as it enters the runtime: the input plus the two optional
/// terms of the admission rule (see [`SiriusServer::submit`]). A bare
/// [`SiriusInput`] converts into a class-less, deadline-free request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// The audio (and optional image) to serve.
    pub input: SiriusInput,
    /// The tenant class to admit under, from [`ServerConfig::tenants`].
    pub class: Option<String>,
    /// The caller's own completion deadline, measured from admission.
    pub deadline: Option<Duration>,
}

impl From<SiriusInput> for Request {
    fn from(input: SiriusInput) -> Self {
        Self {
            input,
            class: None,
            deadline: None,
        }
    }
}

impl Request {
    /// Admits the request under tenant class `class`.
    pub fn with_class(mut self, class: &str) -> Self {
        self.class = Some(class.to_owned());
        self
    }

    /// Requires completion within `deadline` of admission.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

pub(crate) struct TicketState {
    slot: Mutex<Option<Result<SiriusResponse, SiriusError>>>,
    done: Condvar,
}

/// Completion handle for one submitted query.
///
/// On success the response's `timing.total` is the **sojourn time** — queue
/// wait plus service across every stage, measured from admission — which is
/// exactly the quantity the M/M/1 model predicts.
pub struct Ticket {
    state: Arc<TicketState>,
    submitted: Instant,
}

impl Ticket {
    /// When the query was admitted.
    pub fn submitted_at(&self) -> Instant {
        self.submitted
    }

    /// Blocks until the query completes.
    pub fn wait(self) -> Result<SiriusResponse, SiriusError> {
        let mut slot = self.state.slot.lock().expect("ticket lock");
        loop {
            if let Some(result) = slot.take() {
                return result;
            }
            slot = self.state.done.wait(slot).expect("ticket lock");
        }
    }

    /// Blocks until the query completes or `timeout` elapses.
    ///
    /// On timeout the ticket is **kept** (unlike [`Ticket::wait`], which
    /// consumes it): the query is still in flight and the caller may wait
    /// again or poll with [`Ticket::try_take`].
    ///
    /// # Errors
    ///
    /// [`SiriusError::Timeout`] if no result arrived within `timeout`; any
    /// pipeline error the query itself completed with.
    pub fn wait_timeout(&self, timeout: Duration) -> Result<SiriusResponse, SiriusError> {
        // A near-`Duration::MAX` timeout overflows `Instant` arithmetic;
        // such a deadline can never be reached, so degrade to an untimed
        // wait instead of panicking.
        let deadline = Instant::now().checked_add(timeout);
        let mut slot = self.state.slot.lock().expect("ticket lock");
        loop {
            if let Some(result) = slot.take() {
                return result;
            }
            let Some(deadline) = deadline else {
                slot = self.state.done.wait(slot).expect("ticket lock");
                continue;
            };
            let now = Instant::now();
            if now >= deadline {
                return Err(SiriusError::Timeout { waited: timeout });
            }
            let (guard, _) = self
                .state
                .done
                .wait_timeout(slot, deadline - now)
                .expect("ticket lock");
            slot = guard;
        }
    }

    /// Non-blocking poll; `None` while the query is still in flight.
    pub fn try_take(&self) -> Option<Result<SiriusResponse, SiriusError>> {
        self.state.slot.lock().expect("ticket lock").take()
    }
}

fn complete(state: &Arc<TicketState>, result: Result<SiriusResponse, SiriusError>) {
    let mut slot = state.slot.lock().expect("ticket lock");
    *slot = Some(result);
    state.done.notify_all();
}

/// Per-query state carried alongside stage requests as they move through
/// the queues. Grows monotonically: each stage adds what the final response
/// assembly needs.
pub(crate) struct Ctx {
    ticket: Arc<TicketState>,
    pub(crate) started: Instant,
    /// Absolute completion deadline (admission instant + the request's
    /// SLO), `None` for an unrepresentably far (infinite) one.
    deadline: Option<Instant>,
    pub(crate) image: Option<GrayImage>,
    recognized: String,
    asr_timing: AsrTiming,
    /// What Classify/IMM/QA (or a cache hit, or a confirmed speculation)
    /// contributed; a stage the query never visits leaves its default.
    down: Downstream,
    /// The tenant class's telemetry when the request named one.
    tenant: Option<Arc<TenantObs>>,
    /// The result-cache key completion fills: stamped on a miss at the
    /// ASR-commit consult, and on a confirmed speculation (which bypasses
    /// the consult and the queues).
    cache_key: Option<CacheKey>,
}

/// The shared tail of every query: what any worker needs to end one.
struct Completion {
    metrics: Arc<ServerMetrics>,
    recorder: Arc<dyn Recorder>,
    caches: Option<Arc<ResultCaches>>,
}

impl Completion {
    /// The one place a query ends. Assembles the response from what the
    /// stages left on `ctx` (no QA/IMM timing for an action, zero classify
    /// time for a cache hit), fills the result cache when `ctx.cache_key`
    /// is set, and accounts for the outcome: successful queries record
    /// their sojourn, failed ones bump the failure counter and record
    /// theirs into `sojourn_failed_ns`, so `accepted = completed + failed +
    /// in flight` always balances — fleet-wide and per tenant.
    ///
    /// *Every* terminating query — successful, errored, or expired —
    /// records exactly one terminal `total` span when the recorder is
    /// enabled, so recorder-side ledgers never undercount failures.
    fn finish(&self, ctx: Ctx, result: Result<SiriusOutcome, SiriusError>) {
        let sojourn = ctx.started.elapsed();
        let result = result.map(|outcome| SiriusResponse {
            recognized: ctx.recognized,
            outcome,
            matched_venue: ctx.down.matched_venue,
            timing: StageTiming {
                asr: ctx.asr_timing,
                classify: ctx.down.classify,
                qa: ctx.down.qa_timing,
                imm: ctx.down.imm_timing,
                total: sojourn,
            },
        });
        if let (Some(caches), Some(key), Ok(response)) = (&self.caches, ctx.cache_key, &result) {
            caches.fill(key, CachedAnswer::of(response));
        }
        let tenant = ctx.tenant.as_deref();
        match &result {
            Ok(_) => {
                self.metrics.completed.inc();
                self.metrics.sojourn.record_duration(sojourn);
                if let Some(tenant) = tenant {
                    tenant.completed.inc();
                    tenant.sojourn.record_duration(sojourn);
                }
            }
            Err(_) => {
                self.metrics.failed.inc();
                self.metrics.sojourn_failed.record_duration(sojourn);
                if let Some(tenant) = tenant {
                    tenant.failed.inc();
                }
            }
        }
        if let Some(tenant) = tenant {
            tenant.in_flight.dec();
        }
        if self.recorder.enabled() {
            self.recorder.record("total", SpanKind::Total, sojourn);
        }
        complete(&ctx.ticket, result);
    }

    /// Ends a query that expired in a queue: it already missed its
    /// deadline, so the typed deadline error reports the time it actually
    /// spent (all of it queue wait — no stage served it) and a zero-backlog
    /// retry hint (the client's own abandoned job is gone; the next attempt
    /// faces admission control afresh).
    fn expire(&self, ctx: Ctx) {
        let expected = ctx.started.elapsed();
        let deadline = ctx
            .deadline
            .map_or(Duration::ZERO, |d| d.duration_since(ctx.started));
        self.finish(
            ctx,
            Err(SiriusError::DeadlineUnmeetable {
                expected,
                deadline,
                retry_after: expected.saturating_sub(deadline),
            }),
        );
    }

    /// Hands a query to the next stage's queue (blocking send =
    /// back-pressure), or ends it with `ShuttingDown` if that queue is gone.
    fn forward<Req>(&self, tx: &Sender<Job<Ctx, Req>>, ctx: Ctx, req: Req) {
        let deadline = ctx.deadline;
        if let Err(SendError(job)) = tx.send(Job::with_deadline(ctx, req, deadline)) {
            self.finish(job.ctx, Err(SiriusError::ShuttingDown));
        }
    }
}

/// A retained handle onto one stage's queue that refreshes its depth and
/// capacity gauges on demand. Holding it keeps a `Sender` clone alive, so
/// probes must be dropped before the workers are joined at shutdown —
/// otherwise the interior queues never close.
struct QueueProbe {
    depth: Gauge,
    capacity: Gauge,
    read: Box<dyn Fn() -> (usize, usize) + Send + Sync>,
}

impl QueueProbe {
    fn new<T: Send + 'static>(metrics: &ServerMetrics, stage: &str, tx: &Sender<T>) -> Self {
        let probe = Self {
            depth: metrics
                .registry()
                .gauge(&metrics.scoped(&format!("{stage}.queue_depth"))),
            capacity: metrics
                .registry()
                .gauge(&metrics.scoped(&format!("{stage}.queue_capacity"))),
            read: {
                let tx = tx.clone();
                Box::new(move || (tx.len(), tx.capacity()))
            },
        };
        probe.refresh();
        probe
    }

    fn refresh(&self) {
        let (depth, capacity) = (self.read)();
        self.depth.set(depth as u64);
        self.capacity.set(capacity as u64);
    }

    /// The queue's current depth, read live (not the gauge's last value).
    fn depth_now(&self) -> usize {
        (self.read)().0
    }
}

/// The staged Sirius serving runtime. See the module docs for the queueing
/// topology and policies.
pub struct SiriusServer {
    sirius: Arc<Sirius>,
    config: ServerConfig,
    metrics: Arc<ServerMetrics>,
    tenants: TenantTable,
    caches: Option<Arc<ResultCaches>>,
    submit_tx: Option<Sender<Job<Ctx, AsrRequest>>>,
    queue_probes: Vec<QueueProbe>,
    workers: Vec<JoinHandle<()>>,
}

impl SiriusServer {
    /// Starts worker pools for every stage over a shared trained assistant,
    /// with per-query span tracing disabled (metrics are always on — their
    /// hot path is a handful of relaxed atomics) and a registry of its own.
    pub fn start(sirius: Arc<Sirius>, config: ServerConfig) -> Self {
        Self::start_with(sirius, config, Arc::new(NoopRecorder), ServerMetrics::new())
    }

    /// The fully specified constructor. `recorder` receives every query's
    /// queue-wait/service spans per stage plus one terminal `total` span;
    /// `metrics` may live in a shared registry under a per-instance prefix
    /// ([`ServerMetrics::in_registry`]) — the cluster front-end's hook for
    /// exporting every replica side by side. The queue gauges inherit the
    /// metrics' prefix, so nothing aliases between replicas.
    pub fn start_with(
        sirius: Arc<Sirius>,
        config: ServerConfig,
        recorder: Arc<dyn Recorder>,
        metrics: Arc<ServerMetrics>,
    ) -> Self {
        let (asr_tx, asr_rx) = bounded::<Job<Ctx, AsrRequest>>(config.asr.queue_depth);
        let (cls_tx, cls_rx) = bounded::<Job<Ctx, ClassifyRequest>>(config.classify.queue_depth);
        let (imm_tx, imm_rx) = bounded::<Job<Ctx, ImmRequest>>(config.imm.queue_depth);
        let (qa_tx, qa_rx) = bounded::<Job<Ctx, QaRequest>>(config.qa.queue_depth);

        let tenants = TenantTable::build(&config.tenants, &metrics);
        let caches = config
            .cache
            .enabled
            .then(|| Arc::new(ResultCaches::register(config.cache, &metrics)));

        let queue_probes = vec![
            QueueProbe::new(&metrics, "asr", &asr_tx),
            QueueProbe::new(&metrics, "classify", &cls_tx),
            QueueProbe::new(&metrics, "imm", &imm_tx),
            QueueProbe::new(&metrics, "qa", &qa_tx),
        ];

        let done = Arc::new(Completion {
            metrics: Arc::clone(&metrics),
            recorder: Arc::clone(&recorder),
            caches: caches.clone(),
        });
        let expire = {
            let done = Arc::clone(&done);
            move |ctx: Ctx| done.expire(ctx)
        };
        let mut workers = Vec::with_capacity(config.total_workers());

        // QA pool: the chain's tail; completes tickets and never blocks.
        workers.extend(spawn_stage_pool(
            config.qa.workers,
            qa_rx,
            Arc::clone(&metrics.qa),
            Arc::clone(&recorder),
            {
                let sirius = Arc::clone(&sirius);
                move |_: &Ctx, req| sirius.stage_qa(req)
            },
            {
                let done = Arc::clone(&done);
                move |mut ctx: Ctx, result: Result<QaResponse, SiriusError>| {
                    let outcome = result.map(|qa| {
                        ctx.down.qa_timing = Some(qa.breakdown);
                        SiriusOutcome::Answer(qa.answer)
                    });
                    done.finish(ctx, outcome);
                }
            },
            expire.clone(),
        ));

        // IMM pool: match + rewrite, then forward to QA.
        workers.extend(spawn_stage_pool(
            config.imm.workers,
            imm_rx,
            Arc::clone(&metrics.imm),
            Arc::clone(&recorder),
            {
                let sirius = Arc::clone(&sirius);
                move |_: &Ctx, req| sirius.stage_imm(req)
            },
            {
                let done = Arc::clone(&done);
                move |mut ctx: Ctx, result: Result<ImmResponse, SiriusError>| match result {
                    Ok(imm) => {
                        ctx.down.imm_timing = imm.timing;
                        ctx.down.matched_venue = imm.matched_venue;
                        let req = QaRequest {
                            question: imm.question,
                        };
                        done.forward(&qa_tx, ctx, req);
                    }
                    Err(err) => done.finish(ctx, Err(err)),
                }
            },
            expire.clone(),
        ));

        // Classify pool: actions complete immediately; questions continue to
        // IMM (which passes through when there is no image).
        workers.extend(spawn_stage_pool(
            config.classify.workers,
            cls_rx,
            Arc::clone(&metrics.classify),
            Arc::clone(&recorder),
            {
                let sirius = Arc::clone(&sirius);
                move |_: &Ctx, req| sirius.stage_classify(req)
            },
            {
                let done = Arc::clone(&done);
                move |mut ctx: Ctx, result: Result<ClassifyResponse, SiriusError>| match result {
                    Ok(cls) => {
                        ctx.down.classify = cls.elapsed;
                        if let Some(action) = cls.action {
                            return done.finish(ctx, Ok(SiriusOutcome::Action(action)));
                        }
                        let req = ImmRequest {
                            question: ctx.recognized.clone(),
                            image: ctx.image.take(),
                        };
                        done.forward(&imm_tx, ctx, req);
                    }
                    Err(err) => done.finish(ctx, Err(err)),
                }
            },
            expire.clone(),
        ));

        // ASR pool: the chain's head, fed by `submit`. Whatever variant the
        // config selects, the stage is one value behind one handler, and its
        // helper threads (batch collector, speculation pool) are joined
        // with the workers.
        let (asr, helpers) = AsrStage::start(&sirius, &config, &metrics);
        workers.extend(helpers);
        workers.extend(spawn_stage_pool(
            config.asr.workers,
            asr_rx,
            Arc::clone(&metrics.asr),
            recorder,
            {
                let asr = Arc::new(asr);
                move |ctx: &Ctx, req| asr.serve(ctx, req)
            },
            move |mut ctx: Ctx, result: Result<AsrServed, SiriusError>| {
                let AsrServed { asr, confirmed } = match result {
                    Ok(served) => served,
                    Err(err) => return done.finish(ctx, Err(err)),
                };
                ctx.recognized = asr.recognized;
                ctx.asr_timing = asr.timing;
                let key = done
                    .caches
                    .as_ref()
                    .map(|_| CacheKey::of(&ctx.recognized, ctx.image.as_ref()));
                // A confirmed speculation already holds everything past ASR:
                // complete here, filling the cache so the next identical
                // query hits at ASR commit.
                if let Some((down, outcome)) = confirmed {
                    ctx.down = down;
                    ctx.cache_key = key;
                    return done.finish(ctx, Ok(outcome));
                }
                // The post-ASR-commit cache consult: a verified hit serves
                // the cached outcome with this query's own fresh ASR
                // text/timing and never touches Classify/IMM/QA. A miss
                // stamps the key on the context so completion fills the
                // cache.
                if let (Some(caches), Some(key)) = (&done.caches, key) {
                    if let Some(cached) = caches.lookup(&key, &ctx.recognized) {
                        if let Some(tenant) = &ctx.tenant {
                            tenant.cache_hit.inc();
                        }
                        ctx.down.matched_venue = cached.matched_venue;
                        return done.finish(ctx, Ok(cached.outcome));
                    }
                    ctx.cache_key = Some(key);
                }
                let req = ClassifyRequest {
                    recognized: ctx.recognized.clone(),
                };
                done.forward(&cls_tx, ctx, req);
            },
            expire,
        ));

        Self {
            sirius,
            config,
            metrics,
            tenants,
            caches,
            submit_tx: Some(asr_tx),
            queue_probes,
            workers,
        }
    }

    /// The shared assistant this runtime serves.
    pub fn sirius(&self) -> &Arc<Sirius> {
        &self.sirius
    }

    /// The configuration the runtime was started with.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// The runtime's metrics (live handles; see [`crate::metrics`] for the
    /// naming scheme).
    pub fn metrics(&self) -> &Arc<ServerMetrics> {
        &self.metrics
    }

    /// Refreshes the queue-depth/capacity gauges and exports every metric.
    pub fn metrics_snapshot(&self) -> Snapshot {
        for probe in &self.queue_probes {
            probe.refresh();
        }
        self.metrics.registry().snapshot()
    }

    /// Queries currently waiting in the admission (ASR) queue.
    pub fn admission_queue_len(&self) -> usize {
        self.submit_tx.as_ref().map_or(0, Sender::len)
    }

    /// Worker threads serving the stage at `STAGES` index `i`.
    fn stage_workers(&self, i: usize) -> usize {
        let stage = match i {
            0 => self.config.asr,
            1 => self.config.classify,
            2 => self.config.imm,
            _ => self.config.qa,
        };
        stage.workers.max(1)
    }

    /// The expected end-to-end sojourn of a query admitted *right now*:
    /// Σ over stages of `(queue depth + in-flight) / workers + 1` × the
    /// stage's recent mean service time (EWMA).
    ///
    /// Each stage term is the backlog a new arrival queues behind, spread
    /// over the stage's workers, plus its own service. Stages whose meter
    /// has not observed a job yet contribute nothing — a cold runtime
    /// admits everything and the estimate sharpens as the meters warm up.
    /// This is the deadline-aware admission policy's decision quantity; the
    /// paper's tail-latency target (Table 8) applied as a runtime check
    /// instead of an offline provisioning row.
    pub fn expected_sojourn(&self) -> Duration {
        let mut total_ns = 0.0f64;
        for (i, stage) in STAGES.iter().enumerate() {
            let obs = self.metrics.stage(stage).expect("known stage");
            let mean_ns = obs.service_meter.mean();
            if mean_ns <= 0.0 {
                continue;
            }
            let backlog = self.queue_probes[i].depth_now() + obs.in_flight.get() as usize;
            total_ns += mean_ns * (backlog as f64 / self.stage_workers(i) as f64 + 1.0);
        }
        Duration::from_nanos(total_ns as u64)
    }

    /// Admits a query — the runtime's only entry. One rule covers every
    /// kind of [`Request`]:
    ///
    /// ```text
    /// slo    = min(class.slo, deadline)                      stamped on the job
    /// budget = min(class.slo × weight / max_weight, deadline)    gates admission
    /// shed when expected_sojourn() > budget
    /// ```
    ///
    /// A missing term is infinite. So a bare input is never shed by the
    /// estimate and carries no deadline — plain shed-on-full; a deadline
    /// alone is gated on and carries exactly that deadline (an effectively
    /// infinite one such as `Duration::MAX` degrades to shed-on-full too);
    /// a class alone is weighted-fair admission, where low-weight classes
    /// shed first as the estimate grows and high-weight classes keep
    /// admitting up to their full SLO (see [`crate::qos`]); and with both
    /// the tighter of the two wins. Admitted jobs that expire in a queue
    /// anyway are dropped unserved, completing the ticket with the same
    /// typed error.
    ///
    /// # Errors
    ///
    /// [`SiriusError::UnknownTenantClass`] when the class is not in
    /// [`ServerConfig::tenants`];
    /// [`SiriusError::DeadlineUnmeetable`] when the expected sojourn exceeds
    /// the budget — `deadline` reports `slo`, and `retry_after` is
    /// `expected − budget`: how long the backlog must drain at the current
    /// service rate before *this* request's budget admits again (for a
    /// class below max weight, longer than the raw-SLO hint);
    /// [`SiriusError::Overloaded`] when the ASR queue is at capacity;
    /// [`SiriusError::ShuttingDown`] after shutdown began.
    pub fn submit(&self, request: impl Into<Request>) -> Result<Ticket, SiriusError> {
        let Request {
            input,
            class,
            deadline,
        } = request.into();
        let tenant = match class {
            Some(name) => Some(
                self.tenants
                    .lookup(&name)
                    .ok_or(SiriusError::UnknownTenantClass { class: name })?,
            ),
            None => None,
        };
        let deadline = deadline.unwrap_or(Duration::MAX);
        let (slo, budget) = tenant.map_or((deadline, deadline), |(class, _)| {
            (
                class.slo.min(deadline),
                self.tenants.budget(class).min(deadline),
            )
        });
        let expected = self.expected_sojourn();
        if expected > budget {
            self.metrics.shed_deadline.inc();
            if let Some((_, obs)) = tenant {
                obs.shed_deadline.inc();
            }
            return Err(SiriusError::DeadlineUnmeetable {
                expected,
                deadline: slo,
                retry_after: expected - budget,
            });
        }

        let tx = self.submit_tx.as_ref().ok_or(SiriusError::ShuttingDown)?;
        let started = Instant::now();
        // An SLO too far out to represent as an `Instant` can never pass;
        // carry it as "none" so workers skip the expiry check.
        let deadline = started.checked_add(slo);
        let state = Arc::new(TicketState {
            slot: Mutex::new(None),
            done: Condvar::new(),
        });
        let tenant = tenant.map(|(_, obs)| Arc::clone(obs));
        let ctx = Ctx {
            ticket: Arc::clone(&state),
            started,
            deadline,
            image: input.image,
            recognized: String::new(),
            asr_timing: AsrTiming::default(),
            down: Downstream::default(),
            tenant: tenant.clone(),
            cache_key: None,
        };
        let req = AsrRequest {
            audio: input.audio,
            acoustic: self.config.acoustic,
        };
        // Raised before the job can reach a worker: one that finished it
        // first would decrement a zero gauge (`dec` saturates) and leave
        // the late increment standing forever.
        if let Some(tenant) = &tenant {
            tenant.in_flight.inc();
        }
        let sent = tx.try_send(Job {
            ctx,
            req,
            enqueued: started,
            deadline,
        });
        // Unit tests can hold `submit` here until a worker has finished the
        // query: the interleaving the increment's placement guards against.
        #[cfg(test)]
        if sent.is_ok() && tests::HOLD_AFTER_SEND.with(std::cell::Cell::get) {
            let mut slot = state.slot.lock().expect("ticket lock");
            while slot.is_none() {
                slot = state.done.wait(slot).expect("ticket lock");
            }
        }
        if let (Err(_), Some(tenant)) = (&sent, &tenant) {
            tenant.in_flight.dec();
        }
        match sent {
            Ok(()) => {
                self.metrics.accepted.inc();
                if let Some(tenant) = &tenant {
                    tenant.accepted.inc();
                }
                Ok(Ticket {
                    state,
                    submitted: started,
                })
            }
            Err(TrySendError::Full(_)) => {
                self.metrics.shed.inc();
                Err(SiriusError::Overloaded { stage: "asr" })
            }
            Err(TrySendError::Disconnected(_)) => {
                self.metrics.rejected_shutdown.inc();
                Err(SiriusError::ShuttingDown)
            }
        }
    }

    /// The result caches, when [`ServerConfig::cache`] enabled them.
    pub fn caches(&self) -> Option<&Arc<ResultCaches>> {
        self.caches.as_ref()
    }

    /// Invalidates both result caches in O(1) (no-op when caching is off).
    /// Pre-bump entries can never be served again; they are lazily removed
    /// (counted `cache.{qa,imm}.stale`) as lookups touch them.
    pub fn invalidate_result_caches(&self) {
        if let Some(caches) = &self.caches {
            caches.invalidate_all();
        }
    }

    /// Submits and waits: the one-call synchronous client of the staged
    /// path. Output matches [`Sirius::process_with`] bit-for-bit (same
    /// stage methods, same order).
    pub fn process_sync(&self, request: impl Into<Request>) -> Result<SiriusResponse, SiriusError> {
        self.submit(request)?.wait()
    }

    /// Stops admitting, drains every accepted query, and joins all workers.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        // Closing the admission queue cascades: each pool drains, exits and
        // drops its sender to the next queue, closing that one in turn. The
        // queue probes hold sender clones on the interior queues, so they
        // must go first or the cascade never reaches the downstream pools.
        self.queue_probes.clear();
        drop(self.submit_tx.take());
        for worker in self.workers.drain(..) {
            worker.join().expect("stage worker never panics");
        }
    }
}

impl Drop for SiriusServer {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

impl std::fmt::Debug for SiriusServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SiriusServer")
            .field("config", &self.config)
            .field("workers", &self.workers.len())
            .field("accepting", &self.submit_tx.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use sirius::pipeline::SiriusConfig;

    use super::*;

    thread_local! {
        /// Makes `submit` on this thread wait, right after the job is
        /// queued, until a worker has completed it.
        pub(super) static HOLD_AFTER_SEND: Cell<bool> = const { Cell::new(false) };
    }

    /// Regression: `tenant.{class}.in_flight` is raised before the job can
    /// reach a worker. Raised after the send, a worker that finished the
    /// query first would decrement a zero gauge (`dec` saturates) and the
    /// late increment would stand forever.
    #[test]
    fn tenant_in_flight_balances_when_a_worker_finishes_before_submit_returns() {
        let sirius = Arc::new(Sirius::build(SiriusConfig::default()));
        let server = SiriusServer::start(
            sirius,
            ServerConfig::default().with_tenant_classes(vec![TenantClass::new(
                "premium",
                Duration::from_secs(60),
                1,
            )]),
        );
        HOLD_AFTER_SEND.with(|hold| hold.set(true));
        let empty = SiriusInput {
            audio: Vec::new(),
            image: None,
        };
        let served = server.process_sync(Request::from(empty).with_class("premium"));
        HOLD_AFTER_SEND.with(|hold| hold.set(false));
        served.expect("empty audio is served");
        let snap = server.metrics_snapshot();
        assert_eq!(snap.counter("tenant.premium.completed"), Some(1));
        assert_eq!(snap.gauge("tenant.premium.in_flight"), Some(0));
        server.shutdown();
    }

    fn fresh_ticket() -> (Arc<TicketState>, Ticket) {
        let state = Arc::new(TicketState {
            slot: Mutex::new(None),
            done: Condvar::new(),
        });
        let ticket = Ticket {
            state: Arc::clone(&state),
            submitted: Instant::now(),
        };
        (state, ticket)
    }

    #[test]
    fn wait_timeout_returns_typed_timeout_and_keeps_the_ticket() {
        let (state, ticket) = fresh_ticket();
        let waited = Duration::from_millis(10);
        assert_eq!(
            ticket.wait_timeout(waited),
            Err(SiriusError::Timeout { waited })
        );
        // The ticket survived the timeout; a late completion is observable.
        complete(&state, Err(SiriusError::ShuttingDown));
        assert_eq!(
            ticket.wait_timeout(Duration::from_secs(5)),
            Err(SiriusError::ShuttingDown)
        );
    }

    #[test]
    fn wait_timeout_near_duration_max_degrades_to_untimed_wait() {
        // Regression: `Instant::now() + Duration::MAX` panics on overflow;
        // an unrepresentable deadline must degrade to an untimed wait that
        // still observes the completion.
        for timeout in [Duration::MAX, Duration::MAX - Duration::from_nanos(1)] {
            let (state, ticket) = fresh_ticket();
            let completer = std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                complete(&state, Err(SiriusError::ShuttingDown));
            });
            assert_eq!(ticket.wait_timeout(timeout), Err(SiriusError::ShuttingDown));
            completer.join().unwrap();
        }
    }

    #[test]
    fn wait_timeout_wakes_on_completion_before_the_deadline() {
        let (state, ticket) = fresh_ticket();
        let completer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            complete(&state, Err(SiriusError::StagePanicked { stage: "qa" }));
        });
        let begun = Instant::now();
        assert_eq!(
            ticket.wait_timeout(Duration::from_secs(30)),
            Err(SiriusError::StagePanicked { stage: "qa" })
        );
        assert!(begun.elapsed() < Duration::from_secs(30));
        completer.join().unwrap();
    }
}
