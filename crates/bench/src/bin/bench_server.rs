//! Open-loop load harness for the staged serving runtime (`BENCH_server.json`).
//!
//! Turns the paper's Figure 17 from a formula into a measurement:
//!
//! 1. **Serial baseline** — the monolithic `Sirius::process` loop over the
//!    42-query input set gives the zero-load service time (and so the M/M/1
//!    service rate μ) plus the serial queries/sec floor.
//! 2. **Open-loop sweep** — a Poisson arrival process drives the staged
//!    runtime at ρ ∈ {0.2, 0.4, 0.6, 0.8}. All telemetry comes from the
//!    runtime's own `sirius-obs` registry snapshots: the sojourn histogram
//!    is lined up against the `Mm1` prediction, the per-stage
//!    queue-wait/service histograms against a per-stage tandem model
//!    (`sirius_dcsim::TandemComparison`), and both cross-checks of the
//!    telemetry itself are reported — per-stage time must reconcile with
//!    the end-to-end sojourn, and bucketed percentiles must agree with the
//!    exact nearest-rank values within one bucket width.
//! 3. **Admission-policy sweep** — shed-on-full vs deadline-aware admission
//!    head-to-head at ρ ∈ {0.8, 0.9, 1.1, 1.5} under an SLO of
//!    8 × the mean service time, with paired arrival processes. Reported
//!    per policy: goodput (SLO-met completions per second), shed and
//!    expired rates, and p99 sojourn; the shed-on-full shed rates are
//!    cross-checked against the closed-form M/M/1/K blocking probability
//!    (`sirius_dcsim::ShedComparison`), and admitted outputs are checked
//!    against the serial references.
//! 4. **Batching sweep** — the cross-query ASR batch collector's
//!    `(max_batch, max_delay)` grid at ρ ∈ {0.8, 1.1, 1.5} of the serial
//!    single-core DNN rate, with paired arrivals per load. Reported per
//!    point: throughput, p50/p99 sojourn and the achieved batch-size
//!    distribution; per load, the Pareto frontier over (throughput, p99).
//!    Every output is checked bit-for-bit against the serial DNN
//!    references.
//! 5. **Streaming sweep** — the streaming ASR stage (chunked ingestion at
//!    0.25× real-time pacing with speculative downstream pipelining) at
//!    chunk sizes {80, 160, 320} ms and ρ ∈ {0.2, 0.8, 1.1} of the
//!    measured streaming occupancy capacity. Reported per point:
//!    time-to-first-partial p50, from-submit p50/p99, and **from-end**
//!    p50/p99 — sojourn measured from the instant the last audio chunk was
//!    due — which must fall below the serial sum-of-stages floor at
//!    ρ ≤ 0.8 (the decode overlapped audio arrival, so only the tail and
//!    downstream remain). Outputs are checked bit-for-bit against the
//!    serial references.
//! 6. **Saturation** — closed-loop clients hammer the runtime with 1 and
//!    with `--workers` workers per heavy stage; staged outputs are checked
//!    against the serial references query-by-query.
//! 7. **Cluster sweep** — the sharded `SiriusCluster` front-end at
//!    N ∈ {1, 2, 4} replicas × every routing policy. A deep-overload
//!    round-robin probe first measures each replica count's capacity on
//!    this machine; the measured points then run open-loop at 1.25 × that
//!    capacity (deliberately past saturation, with queues deep enough
//!    never to shed, so the drain rate measures capacity and speedup-vs-N
//!    is real rather than arrival-bound). Arrivals alternate vision-heavy
//!    and voice-only queries; policies at one replica count share paired
//!    arrival seeds across several trials.
//!    A separate routing head-to-head then runs the widest cluster *below*
//!    saturation (where routing can still steer into slack) on a straggler
//!    mix — one slowest query planted among every three fastest-third
//!    queries, period-resonant with the replica count so round-robin lands
//!    every straggler on the same replica. Least-sojourn vs round-robin is
//!    gated at the highest routing load on pooled-and-median p99 within a
//!    single-core scheduler-noise bound.
//!    Every output is checked bit-for-bit against the serial references
//!    (sharding and routing must never change an answer), the merged
//!    cluster telemetry must account for every query exactly once, and the
//!    speedups are restated against the paper's Table 8 accelerated
//!    design via `sirius_dcsim::ClusterComparison`.
//!
//! Usage: `bench_server [--queries N] [--workers W] [--seed S]`
//! (defaults: 100 arrivals per load point, 4 workers). JSON on stdout;
//! progress on stderr.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use sirius::error::SiriusError;
use sirius::pipeline::{Sirius, SiriusConfig, SiriusInput, SiriusResponse};
use sirius::prepare_input_set;
use sirius::profile::LatencyStats;
use sirius_accel::PlatformKind;
use sirius_dcsim::{
    homogeneous_throughput_improvement, CacheComparison, CachePoint, ClusterComparison,
    ClusterPoint, MeasuredPoint, Mm1, QueueComparison, ShedComparison, ShedPoint, StageMeasurement,
    TandemComparison,
};
use sirius_obs::metrics::{bucket_bounds, bucket_index};
use sirius_obs::{HistogramSnapshot, Snapshot};
use sirius_server::{
    BatchPolicy, CachePolicy, ClusterConfig, NetClient, NetConfig, NetServer, Request, RoutePolicy,
    ServerConfig, SiriusCluster, SiriusServer, StreamPolicy, TenantClass, STAGES,
};
use sirius_speech::asr::AcousticModelKind;
use sirius_speech::features::SAMPLE_RATE;

const SWEEP_RHO: [f64; 4] = [0.2, 0.4, 0.6, 0.8];
/// Offered loads for the admission-policy head-to-head, straddling
/// saturation: deadline-aware admission should not matter much below
/// ρ ≈ 0.8 and must dominate above it.
const POLICY_RHO: [f64; 4] = [0.8, 0.9, 1.1, 1.5];
/// The policy sweep's SLO as a multiple of the zero-load mean service time
/// (a "responsive" bar in the spirit of the paper's latency targets).
const SLO_SERVICE_MULTIPLE: f64 = 8.0;
/// Queue depth of the policy-sweep servers; with the one in-service slot
/// this is the system capacity K of the M/M/1/K shed model.
const POLICY_QUEUE_DEPTH: usize = 16;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Sleep-then-spin to an absolute deadline: open-loop arrivals must not
/// drift with scheduler latency.
fn wait_until(deadline: Instant) {
    loop {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        let remaining = deadline - now;
        if remaining > Duration::from_micros(500) {
            std::thread::sleep(remaining - Duration::from_micros(200));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// The response fields that must match the serial reference bit-for-bit.
fn payload(r: &SiriusResponse) -> (String, String, Option<String>) {
    (
        r.recognized.clone(),
        format!("{:?}", r.outcome),
        r.matched_venue.clone(),
    )
}

struct OpenLoopPoint {
    rho: f64,
    lambda: f64,
    offered: usize,
    /// Registry snapshot taken after the last completion, before shutdown.
    snapshot: Snapshot,
    /// Wall-clock seconds from first arrival to last completion (the
    /// tandem model's measurement window).
    wall: f64,
    /// Exact per-query sojourns from the tickets, for cross-checking the
    /// bucketed histogram.
    exact: LatencyStats,
}

/// Drives the runtime open-loop at arrival rate `lambda` with exponential
/// interarrival gaps. All statistics come from the runtime's own metrics
/// snapshot; exact ticket sojourns are kept only to cross-check it.
fn open_loop(
    sirius: &Arc<Sirius>,
    inputs: &[SiriusInput],
    lambda: f64,
    rho: f64,
    arrivals: usize,
    seed: u64,
) -> OpenLoopPoint {
    // One worker per stage: the tandem-of-single-servers layout the paper's
    // per-service M/M/1 modeling assumes. Queues deep enough that the sweep
    // never sheds (shedding would censor the latency distribution).
    let server = SiriusServer::start(
        Arc::clone(sirius),
        ServerConfig::default().with_queue_depth(arrivals.max(16)),
    );
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut tickets = Vec::with_capacity(arrivals);
    let begun = Instant::now();
    let mut next = begun;
    for i in 0..arrivals {
        let gap = -(1.0 - rng.gen_range(0.0f64..1.0)).ln() / lambda;
        next += Duration::from_secs_f64(gap);
        wait_until(next);
        if let Ok(ticket) = server.submit(inputs[i % inputs.len()].clone()) {
            tickets.push(ticket);
        }
    }
    let sojourns: Vec<Duration> = tickets
        .into_iter()
        .filter_map(|t| t.wait().ok().map(|r| r.timing.total))
        .collect();
    let wall = begun.elapsed().as_secs_f64();
    let snapshot = server.metrics_snapshot();
    server.shutdown();
    OpenLoopPoint {
        rho,
        lambda,
        offered: arrivals,
        snapshot,
        wall,
        exact: LatencyStats::from_samples(&sojourns),
    }
}

impl OpenLoopPoint {
    fn sojourn(&self) -> &HistogramSnapshot {
        self.snapshot
            .histogram("sojourn_ns")
            .expect("runtime registers sojourn_ns")
    }

    fn shed(&self) -> u64 {
        self.snapshot.counter("admission.shed").unwrap_or(0)
    }

    /// Per-stage measurements from the runtime's own histograms, lined up
    /// against independent per-stage M/M/1 models and reconciled with the
    /// end-to-end sojourn.
    fn tandem(&self) -> TandemComparison {
        let stages: Vec<StageMeasurement> = STAGES
            .iter()
            .map(|stage| {
                let wait = self
                    .snapshot
                    .histogram(&format!("{stage}.queue_wait_ns"))
                    .expect("stage wait histogram");
                let service = self
                    .snapshot
                    .histogram(&format!("{stage}.service_ns"))
                    .expect("stage service histogram");
                StageMeasurement {
                    stage: (*stage).to_owned(),
                    completions: service.count,
                    mean_wait: wait.mean() / 1e9,
                    mean_service: service.mean() / 1e9,
                }
            })
            .collect();
        let sojourn = self.sojourn();
        TandemComparison::against(self.wall, sojourn.count, sojourn.mean() / 1e9, &stages)
    }

    /// Whether the bucketed p50/p95/p99 agree with the exact nearest-rank
    /// percentiles to within one bucket width. (The histogram and the
    /// tickets time the same queries through clocks a hair apart, so the
    /// tolerance is the exact value's bucket ± one neighbouring width.)
    fn percentiles_within_one_bucket(&self) -> bool {
        let h = self.sojourn();
        [
            (50.0, self.exact.p50),
            (95.0, self.exact.p95),
            (99.0, self.exact.p99),
        ]
        .iter()
        .all(|&(pct, exact)| {
            let exact_ns = exact.as_nanos() as u64;
            let (lo, hi) = bucket_bounds(bucket_index(exact_ns));
            let width = hi - lo + 1;
            let bucketed = h.percentile(pct);
            bucketed >= lo.saturating_sub(width) && bucketed <= hi.saturating_add(width)
        })
    }
}

/// One admission policy's showing at one offered load.
struct PolicyOutcome {
    admitted: u64,
    /// Sheds from a full admission queue (`Overloaded`).
    shed_full: u64,
    /// Sheds from the sojourn estimator (`DeadlineUnmeetable` at submit).
    shed_deadline: u64,
    /// Admitted jobs whose deadline passed while queued (dropped at
    /// dequeue, never serviced).
    expired: u64,
    completed: u64,
    /// Completions that met the SLO — the goodput numerator.
    within_slo: u64,
    /// First arrival to last completion, seconds.
    wall: f64,
    p99_ms: f64,
    outputs_match: bool,
    /// Whether the runtime's own ledger balanced: accepted = completed +
    /// failed, expiries all attributed to exactly one stage, and every
    /// accepted query either got ASR service or expired there — i.e. no
    /// stage spent service time on a dead job.
    accounting_balanced: bool,
}

impl PolicyOutcome {
    fn goodput(&self) -> f64 {
        self.within_slo as f64 / self.wall
    }

    fn json(&self) -> String {
        format!(
            "\"admitted\": {}, \"shed_full\": {}, \"shed_deadline\": {}, \"expired\": {}, \"completed\": {}, \"within_slo\": {}, \"goodput_qps\": {:.2}, \"p99_ms\": {:.3}",
            self.admitted,
            self.shed_full,
            self.shed_deadline,
            self.expired,
            self.completed,
            self.within_slo,
            self.goodput(),
            self.p99_ms
        )
    }
}

/// Drives one fresh single-worker runtime open-loop at rate `lambda` under
/// one admission policy: `admission_deadline = None` is plain shed-on-full,
/// `Some(slo)` stamps every submit with the SLO as its deadline. Goodput is
/// judged against the same `slo` either way so the two policies compare on
/// identical terms, and the paired caller reuses one `seed` per load point
/// so both see the same arrival process.
#[allow(clippy::too_many_arguments)]
fn policy_run(
    sirius: &Arc<Sirius>,
    inputs: &[SiriusInput],
    reference: &[(String, String, Option<String>)],
    lambda: f64,
    arrivals: usize,
    admission_deadline: Option<Duration>,
    slo: Duration,
    seed: u64,
) -> PolicyOutcome {
    let server = SiriusServer::start(
        Arc::clone(sirius),
        ServerConfig::with_workers(1).with_queue_depth(POLICY_QUEUE_DEPTH),
    );
    // Warm the per-stage service meters so the sojourn estimator starts
    // informed; both policies get the identical warmup for parity.
    for input in inputs {
        server.process_sync(input.clone()).expect("warmup query");
    }
    let warm = inputs.len() as u64;

    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut tickets = Vec::with_capacity(arrivals);
    let mut shed_full = 0u64;
    let mut shed_deadline = 0u64;
    let begun = Instant::now();
    let mut next = begun;
    for i in 0..arrivals {
        let gap = -(1.0 - rng.gen_range(0.0f64..1.0)).ln() / lambda;
        next += Duration::from_secs_f64(gap);
        wait_until(next);
        let at = i % inputs.len();
        match server.submit(Request {
            input: inputs[at].clone(),
            class: None,
            deadline: admission_deadline,
        }) {
            Ok(ticket) => tickets.push((at, ticket)),
            Err(SiriusError::Overloaded { .. }) => shed_full += 1,
            Err(SiriusError::DeadlineUnmeetable { .. }) => shed_deadline += 1,
            Err(other) => panic!("unexpected admission error: {other}"),
        }
    }

    let admitted = tickets.len() as u64;
    let mut completed = 0u64;
    let mut within_slo = 0u64;
    let mut expired = 0u64;
    let mut outputs_match = true;
    let mut sojourns = Vec::new();
    for (at, ticket) in tickets {
        match ticket.wait() {
            Ok(response) => {
                completed += 1;
                if response.timing.total <= slo {
                    within_slo += 1;
                }
                sojourns.push(response.timing.total);
                if payload(&response) != reference[at] {
                    outputs_match = false;
                }
            }
            Err(SiriusError::DeadlineUnmeetable { .. }) => expired += 1,
            Err(other) => panic!("unexpected ticket error: {other}"),
        }
    }
    let wall = begun.elapsed().as_secs_f64();

    let snap = server.metrics_snapshot();
    let accepted = snap.counter("admission.accepted").unwrap_or(0);
    let stage_expired: u64 = STAGES
        .iter()
        .map(|s| snap.counter(&format!("{s}.expired")).unwrap_or(0))
        .sum();
    let asr_serviced = snap.histogram("asr.service_ns").map_or(0, |h| h.count);
    let accounting_balanced = accepted == admitted + warm
        && stage_expired == expired
        && asr_serviced + snap.counter("asr.expired").unwrap_or(0) == accepted
        && snap.counter("completed") == Some(completed + warm)
        && snap.counter("failed") == Some(expired);
    server.shutdown();

    PolicyOutcome {
        admitted,
        shed_full,
        shed_deadline,
        expired,
        completed,
        within_slo,
        wall,
        p99_ms: ms(LatencyStats::from_samples(&sojourns).p99),
        outputs_match,
        accounting_balanced,
    }
}

/// Offered loads for the batching sweep, relative to the *serial single-core
/// DNN* service rate: one load just under that capacity and two past it,
/// where cross-query batches actually form.
const BATCH_RHO: [f64; 3] = [0.8, 1.1, 1.5];
/// `(max_batch, max_delay_ms)` policy grid. `(1, 2)` is the unbatched
/// baseline (no collector is spawned).
const BATCH_GRID: [(usize, u64); 5] = [(1, 2), (4, 1), (4, 4), (8, 1), (8, 4)];

/// One batching policy's showing at one offered load.
struct BatchOutcome {
    qps: f64,
    p50_ms: f64,
    p99_ms: f64,
    /// Blocks coalesced per GEMM flush (0s when no collector ran).
    batch_mean: f64,
    batch_p95: u64,
    batch_max: u64,
    flushes_full: u64,
    flushes_timeout: u64,
    outputs_match: bool,
    /// accepted = completed, no failures, and the flush census balances.
    accounting_balanced: bool,
}

/// Drives one fresh DNN-acoustic runtime open-loop at rate `lambda` under
/// one batching policy. The queue is deep enough that nothing sheds, so
/// every arrival's output is checked against the serial DNN reference.
#[allow(clippy::too_many_arguments)]
fn batch_run(
    sirius: &Arc<Sirius>,
    inputs: &[SiriusInput],
    reference: &[(String, String, Option<String>)],
    lambda: f64,
    arrivals: usize,
    workers: usize,
    policy: BatchPolicy,
    seed: u64,
) -> BatchOutcome {
    let mut config = ServerConfig::with_workers(workers)
        .with_queue_depth(arrivals.max(16))
        .with_batch_policy(policy);
    config.acoustic = AcousticModelKind::Dnn;
    let server = SiriusServer::start(Arc::clone(sirius), config);

    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut tickets = Vec::with_capacity(arrivals);
    let begun = Instant::now();
    let mut next = begun;
    for i in 0..arrivals {
        let gap = -(1.0 - rng.gen_range(0.0f64..1.0)).ln() / lambda;
        next += Duration::from_secs_f64(gap);
        wait_until(next);
        let at = i % inputs.len();
        let ticket = server
            .submit(inputs[at].clone())
            .expect("deep queue admits every arrival");
        tickets.push((at, ticket));
    }
    let mut outputs_match = true;
    let mut completed = 0u64;
    for (at, ticket) in tickets {
        let response = ticket.wait().expect("query served");
        completed += 1;
        if payload(&response) != reference[at] {
            outputs_match = false;
        }
    }
    let wall = begun.elapsed().as_secs_f64();

    let snap = server.metrics_snapshot();
    let sojourn = snap.histogram("sojourn_ns").expect("sojourn histogram");
    let sizes = snap.histogram("asr.batch_size").expect("batch histogram");
    let flushes_full = snap.counter("asr.batch_flush_full").unwrap_or(0);
    let flushes_timeout = snap.counter("asr.batch_flush_timeout").unwrap_or(0);
    let accounting_balanced = snap.counter("admission.accepted") == Some(completed)
        && snap.counter("completed") == Some(completed)
        && snap.counter("failed") == Some(0)
        && sizes.count == flushes_full + flushes_timeout;
    server.shutdown();

    BatchOutcome {
        qps: completed as f64 / wall,
        p50_ms: sojourn.percentile(50.0) as f64 / 1e6,
        p99_ms: sojourn.percentile(99.0) as f64 / 1e6,
        batch_mean: sizes.mean(),
        batch_p95: sizes.percentile(95.0),
        batch_max: sizes.max,
        flushes_full,
        flushes_timeout,
        outputs_match,
        accounting_balanced,
    }
}

/// Offered loads for the streaming sweep, relative to the measured
/// streaming occupancy capacity (a streaming worker is occupied for the
/// paced audio-arrival window, not just the decode CPU time).
const STREAM_RHO: [f64; 3] = [0.2, 0.8, 1.1];
/// Ingestion chunk sizes swept, in milliseconds of audio.
const STREAM_CHUNKS_MS: [u64; 3] = [80, 160, 320];
/// Arrival pacing as a fraction of real time: 0.25× keeps the
/// decode-overlaps-arrival structure of live capture while the sweep
/// finishes in seconds rather than minutes.
const STREAM_PACING: f64 = 0.25;

fn stream_policy(chunk_ms: u64) -> StreamPolicy {
    StreamPolicy::new(Duration::from_millis(chunk_ms))
        .with_pacing(STREAM_PACING)
        .with_speculation()
}

/// One streaming policy point's showing at one offered load.
struct StreamOutcome {
    first_partial_p50_ms: f64,
    /// Sojourn measured from admission (includes the paced arrival window).
    from_submit: LatencyStats,
    /// Sojourn measured from the instant the query's last chunk was due —
    /// the latency a caller perceives after they stop speaking.
    from_end: LatencyStats,
    partials_per_query: f64,
    /// Confirmed speculations over reconciles (NaN-free: 0 when none ran).
    spec_hit_rate: f64,
    outputs_match: bool,
}

/// Measures the streaming occupancy capacity (queries/sec the pool
/// sustains) by timing a short closed warmup through a throwaway server
/// with the same policy: occupancy ≈ paced arrival window + decode tail.
fn stream_capacity(
    sirius: &Arc<Sirius>,
    inputs: &[SiriusInput],
    workers: usize,
    chunk_ms: u64,
) -> f64 {
    let server = SiriusServer::start(
        Arc::clone(sirius),
        ServerConfig::with_workers(workers).with_stream_policy(stream_policy(chunk_ms)),
    );
    let n = inputs.len().min(16);
    let mut occupancy = Duration::ZERO;
    for input in inputs.iter().take(n) {
        let response = server.process_sync(input.clone()).expect("warmup query");
        occupancy += response.timing.total;
    }
    server.shutdown();
    workers as f64 * n as f64 / occupancy.as_secs_f64()
}

/// Drives one fresh streaming GMM runtime open-loop at rate `lambda`. The
/// queue is deep enough that nothing sheds; every output is checked
/// against the serial reference, and per-query from-end sojourns subtract
/// the paced arrival window the query itself asked for.
#[allow(clippy::too_many_arguments)]
fn stream_run(
    sirius: &Arc<Sirius>,
    inputs: &[SiriusInput],
    reference: &[(String, String, Option<String>)],
    lambda: f64,
    arrivals: usize,
    workers: usize,
    chunk_ms: u64,
    seed: u64,
) -> StreamOutcome {
    let mut config = ServerConfig::with_workers(workers)
        .with_queue_depth(arrivals.max(16))
        .with_stream_policy(stream_policy(chunk_ms));
    config.acoustic = AcousticModelKind::Gmm;
    let server = SiriusServer::start(Arc::clone(sirius), config);

    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut tickets = Vec::with_capacity(arrivals);
    let begun = Instant::now();
    let mut next = begun;
    for i in 0..arrivals {
        let gap = -(1.0 - rng.gen_range(0.0f64..1.0)).ln() / lambda;
        next += Duration::from_secs_f64(gap);
        wait_until(next);
        let at = i % inputs.len();
        let ticket = server
            .submit(inputs[at].clone())
            .expect("deep queue admits every arrival");
        tickets.push((at, ticket));
    }
    let mut outputs_match = true;
    let mut from_submit = Vec::new();
    let mut from_end = Vec::new();
    for (at, ticket) in tickets {
        let response = ticket.wait().expect("query served");
        if payload(&response) != reference[at] {
            outputs_match = false;
        }
        let total = response.timing.total;
        let arrival_window = Duration::from_secs_f64(
            STREAM_PACING * inputs[at].audio.len() as f64 / SAMPLE_RATE as f64,
        );
        from_submit.push(total);
        from_end.push(total.saturating_sub(arrival_window));
    }

    let snap = server.metrics_snapshot();
    let completed = from_submit.len().max(1) as f64;
    let partials = snap.counter("asr.partials_emitted").unwrap_or(0) as f64;
    let hits = snap.counter("asr.spec_hit").unwrap_or(0) as f64;
    let misses = snap.counter("asr.spec_miss").unwrap_or(0) as f64;
    let first_partial = snap
        .histogram("e2e.first_partial_ns")
        .expect("streaming runtime registers first-partial");
    server.shutdown();

    StreamOutcome {
        first_partial_p50_ms: first_partial.percentile(50.0) as f64 / 1e6,
        from_submit: LatencyStats::from_samples(&from_submit),
        from_end: LatencyStats::from_samples(&from_end),
        partials_per_query: partials / completed,
        spec_hit_rate: if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
        outputs_match,
    }
}

/// Closed-loop saturation: `clients` threads process `total` queries as
/// fast as the runtime admits them. Returns (qps, outputs_match_serial).
fn saturate(
    sirius: &Arc<Sirius>,
    inputs: &[SiriusInput],
    reference: &[(String, String, Option<String>)],
    workers: usize,
    clients: usize,
    total: usize,
) -> (f64, bool) {
    let server = SiriusServer::start(
        Arc::clone(sirius),
        ServerConfig::with_workers(workers).with_queue_depth(64),
    );
    let next = AtomicUsize::new(0);
    let all_match = AtomicBool::new(true);
    let t = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..clients {
            let server = &server;
            let next = &next;
            let all_match = &all_match;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= total {
                    break;
                }
                let at = i % inputs.len();
                match server.process_sync(inputs[at].clone()) {
                    Ok(response) => {
                        if payload(&response) != reference[at] {
                            all_match.store(false, Ordering::Relaxed);
                        }
                    }
                    // Closed-loop clients retry shed queries.
                    Err(_) => {
                        next.fetch_sub(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    let elapsed = t.elapsed().as_secs_f64();
    server.shutdown();
    (total as f64 / elapsed, all_match.load(Ordering::Relaxed))
}

/// Replica counts of the cluster sweep. Must include 1: every policy's
/// speedup-vs-N is normalized against its own single-replica point.
const CLUSTER_REPLICAS: [u32; 3] = [1, 2, 4];
/// Offered load of each cluster point as a multiple of that replica
/// count's *measured* capacity (a deep-overload round-robin probe run
/// first). Past saturation on purpose: with queues deep enough never to
/// shed, the open-loop drain rate measures the cluster's capacity (an
/// under-saturated point would just measure its own arrival rate and fake
/// perfectly linear scaling), and the standing backlog is what separates
/// backlog-aware routing from blind round-robin. Anchoring on measured
/// capacity — not N × the single-replica rate — keeps the overload depth
/// matched across N even when the replicas contend for the same few cores.
const CLUSTER_RHO: f64 = 1.25;
/// Paired trials per cluster point; reported p50/p99 are medians over the
/// trials (single-seed tail comparisons on a loaded machine are noise).
const CLUSTER_TRIALS: usize = 3;
/// Offered loads of the routing head-to-head, as fractions of the
/// straggler mix's serial service rate. Sub-saturation on purpose: past
/// saturation every worker thread is always busy, the OS processor-shares
/// the core across replicas, and drain — hence tail latency — equalizes no
/// matter how arrivals were routed. Queue-aware routing can only separate
/// from blind routing while there is still slack to steer into.
const ROUTING_RHO: [f64; 2] = [0.5, 0.75];
/// Trials per routing point; the compared p99s pool the sojourn samples of
/// all trials (a 1-in-100 quantile needs more than one 100-arrival window).
const ROUTING_TRIALS: usize = 5;
/// Noise bound for the least-sojourn vs round-robin gate. On a single
/// shared core the two policies sit within scheduler noise of each other
/// (pooled-p99 ratios ranged 0.45-1.39 over eleven validation runs of this
/// exact comparison), so the gate asserts non-inferiority within this
/// bound rather than a strict win that would flake on every loaded CI box.
const ROUTING_TOL: f64 = 1.5;

struct ClusterOutcome {
    qps: f64,
    stats: LatencyStats,
    outputs_match: bool,
    accounting_balanced: bool,
    /// Queries routed to each replica (warmup excluded).
    served_by: Vec<u64>,
}

/// Drives an N-replica sharded cluster open-loop at arrival rate `lambda`
/// under one routing policy; arrival `i` carries `inputs[order[i]]`. Every
/// output is checked against the serial reference, and the merged cluster
/// telemetry is checked to account for every query exactly once across
/// the replicas.
#[allow(clippy::too_many_arguments)]
fn cluster_run(
    sirius: &Arc<Sirius>,
    inputs: &[SiriusInput],
    order: &[usize],
    reference: &[(String, String, Option<String>)],
    replicas: u32,
    route: RoutePolicy,
    lambda: f64,
    arrivals: usize,
    seed: u64,
) -> ClusterOutcome {
    let cluster = SiriusCluster::start(
        sirius,
        ClusterConfig::new(replicas)
            .with_route(route)
            .with_server(ServerConfig::default().with_queue_depth(arrivals.max(16))),
    )
    .expect("cluster start");
    // Warm every stage meter on every replica before timing starts. An
    // image-bearing question traverses asr -> classify -> imm -> qa; a
    // voice-only query covers the short path. The coverage matters: a
    // replica whose warmup skipped a stage keeps that meter cold, the
    // cold meter contributes nothing to `expected_sojourn`, and the
    // least-sojourn router then herds traffic onto the replica it
    // chronically underestimates. Identical warmup under every policy
    // keeps the paired comparison fair.
    let viq = inputs
        .iter()
        .find(|i| i.image.is_some())
        .expect("input set has image queries");
    let voice = inputs
        .iter()
        .find(|i| i.image.is_none())
        .expect("input set has voice-only queries");
    let warm = 3 * cluster.len();
    for server in cluster.replicas() {
        for w in [viq, viq, voice] {
            server.process_sync(w.clone()).expect("cluster warmup");
        }
    }
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut tickets = Vec::with_capacity(arrivals);
    let begun = Instant::now();
    let mut next = begun;
    for i in 0..arrivals {
        let gap = -(1.0 - rng.gen_range(0.0f64..1.0)).ln() / lambda;
        next += Duration::from_secs_f64(gap);
        wait_until(next);
        let at = order[i % order.len()];
        let ticket = cluster
            .submit(inputs[at].clone())
            .expect("queues are deep enough never to shed");
        tickets.push((at, ticket));
    }
    let mut served_by = vec![0u64; cluster.len()];
    let mut outputs_match = true;
    let mut sojourns = Vec::with_capacity(arrivals);
    for (at, ticket) in tickets {
        served_by[ticket.replica()] += 1;
        let response = ticket.wait().expect("admitted queries complete");
        if payload(&response) != reference[at] {
            outputs_match = false;
        }
        sojourns.push(response.timing.total);
    }
    let wall = begun.elapsed().as_secs_f64();
    let snapshot = cluster.metrics_snapshot();
    let expected = (arrivals + warm) as u64;
    let accounting_balanced = cluster.merged_counter(&snapshot, "completed") == expected
        && cluster.merged_counter(&snapshot, "failed") == 0
        && cluster.merged_histogram(&snapshot, "sojourn_ns").count == expected
        && served_by.iter().sum::<u64>() == arrivals as u64;
    cluster.shutdown();
    ClusterOutcome {
        qps: arrivals as f64 / wall,
        stats: LatencyStats::from_samples(&sojourns),
        outputs_match,
        accounting_balanced,
        served_by,
    }
}

/// Offered loads of the cache/tenant sweep, relative to the serial
/// full-pipeline rate μ: one point below saturation and two past it, where
/// weighted admission has to choose whom to shed and the result cache's
/// capacity multiplication actually shows up as throughput.
const CACHE_RHO: [f64; 3] = [0.8, 1.1, 1.5];
/// Result-cache capacities swept; 0 disables the cache entirely. The small
/// capacity forces LRU churn against the Zipf head (an intermediate hit
/// ratio); the large one holds the whole 42-query corpus (hit ratio near
/// one once warm). Points at one load share one arrival process, so the
/// capacity axis is a paired comparison.
const CACHE_CAPACITIES: [usize; 3] = [0, 8, 1024];
/// Zipf exponent of each tenant's query popularity: heavy-tailed, most
/// arrivals concentrated on each class's few head queries.
const ZIPF_EXPONENT: f64 = 1.1;
/// Diurnal arrival modulation `λ(t) = λ0 · (1 + A·sin(2πt/T))`: the sweep
/// compresses a day's swing into a few seconds so every point sees both
/// the peak and the trough of its offered load.
const DIURNAL_AMPLITUDE: f64 = 0.5;
/// Synthetic "day" length in seconds of scheduled arrival time.
const DIURNAL_PERIOD_S: f64 = 4.0;
/// The tenant classes: `(name, priority, slo as a multiple of the serial
/// mean service time, admission weight, share of arrivals)`. Premium pays
/// for the full weight (its admission budget is its whole SLO); best
/// effort gets a quarter of its own SLO as budget and is shed first.
const TENANT_SPEC: [(&str, u8, f64, u32, f64); 3] = [
    ("premium", 0, 8.0, 4, 0.30),
    ("standard", 1, 12.0, 2, 0.30),
    ("best_effort", 2, 16.0, 1, 0.40),
];

/// Heavy-tailed, diurnal, multi-tenant arrival generator. Every arrival
/// draws a tenant class by traffic share, then a query by a per-class Zipf
/// over the corpus — each class gets its own corpus permutation, so the
/// classes' popularity heads land on *different* queries and the shared
/// result cache has to hold all three working sets. Interarrival gaps are
/// exponential at the instantaneous diurnal rate `λ0·(1 + A·sin(2πt/T))`,
/// with `t` the scheduled (not wall-clock) arrival time so the process is
/// reproducible from its seed alone.
struct TenantGen {
    rng: ChaCha8Rng,
    /// Per-class permutation of query indices: rank r of class c is query
    /// `perms[c][r]`.
    perms: Vec<Vec<usize>>,
    /// Zipf CDF over corpus ranks (shared by every class).
    rank_cdf: Vec<f64>,
    /// CDF over classes by traffic share.
    class_cdf: Vec<f64>,
    /// Scheduled arrival-time offset in seconds (diurnal phase).
    t: f64,
    lambda0: f64,
}

impl TenantGen {
    fn new(seed: u64, corpus: usize, lambda0: f64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let weights: Vec<f64> = (1..=corpus)
            .map(|rank| (rank as f64).powf(-ZIPF_EXPONENT))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let rank_cdf: Vec<f64> = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        let perms: Vec<Vec<usize>> = TENANT_SPEC
            .iter()
            .map(|_| {
                let mut p: Vec<usize> = (0..corpus).collect();
                for i in (1..corpus).rev() {
                    p.swap(i, rng.gen_range(0..=i));
                }
                p
            })
            .collect();
        let mut acc = 0.0;
        let class_cdf: Vec<f64> = TENANT_SPEC
            .iter()
            .map(|(.., share)| {
                acc += share;
                acc
            })
            .collect();
        Self {
            rng,
            perms,
            rank_cdf,
            class_cdf,
            t: 0.0,
            lambda0,
        }
    }

    /// Next arrival: `(gap to wait, class index, query index)`.
    fn next(&mut self) -> (Duration, usize, usize) {
        let u = self.rng.gen_range(0.0f64..1.0);
        let rate = self.lambda0
            * (1.0
                + DIURNAL_AMPLITUDE
                    * (2.0 * std::f64::consts::PI * self.t / DIURNAL_PERIOD_S).sin());
        let gap = -(1.0 - u).ln() / rate;
        self.t += gap;
        let c = self
            .class_cdf
            .partition_point(|&cdf| cdf < self.rng.gen_range(0.0f64..1.0))
            .min(TENANT_SPEC.len() - 1);
        let rank = self
            .rank_cdf
            .partition_point(|&cdf| cdf < self.rng.gen_range(0.0f64..1.0))
            .min(self.rank_cdf.len() - 1);
        (Duration::from_secs_f64(gap), c, self.perms[c][rank])
    }
}

/// One tenant class's showing at one cache-sweep point.
#[derive(Default)]
struct ClassOutcome {
    admitted: u64,
    shed_deadline: u64,
    shed_full: u64,
    expired: u64,
    completed: u64,
    within_slo: u64,
    p99_ms: f64,
}

impl ClassOutcome {
    fn offered(&self) -> u64 {
        self.admitted + self.shed_deadline + self.shed_full
    }

    /// Fraction of this class's offered queries that were never served
    /// (shed at admission or expired in queue).
    fn unserved_fraction(&self) -> f64 {
        if self.offered() == 0 {
            return 0.0;
        }
        (self.shed_deadline + self.shed_full + self.expired) as f64 / self.offered() as f64
    }
}

/// One cache-sweep operating point.
struct CacheOutcome {
    qps: f64,
    hit_ratio: f64,
    hits: u64,
    lookups: u64,
    mean_sojourn_ms: f64,
    p99_ms: f64,
    /// Mean ASR service time over the run, ms — the dominant cost of a
    /// cache hit (hits skip every later stage).
    hit_cost_ms: f64,
    /// Per class, indexed as `TENANT_SPEC`.
    classes: Vec<ClassOutcome>,
    outputs_match: bool,
    accounting_balanced: bool,
}

/// Drives one fresh single-worker runtime open-loop under the multi-tenant
/// generator at base rate `lambda`, with the result cache at `capacity`
/// entries (0 = disabled). Meters and cache are warmed with one corpus
/// pass, then the caches are invalidated so the measured hit ratio comes
/// from measured traffic only (and the O(1) generation-bump invalidation
/// is exercised on a live server).
#[allow(clippy::too_many_arguments)]
fn cache_run(
    sirius: &Arc<Sirius>,
    inputs: &[SiriusInput],
    reference: &[(String, String, Option<String>)],
    mean_service: f64,
    lambda: f64,
    arrivals: usize,
    capacity: usize,
    seed: u64,
) -> CacheOutcome {
    let tenants: Vec<TenantClass> = TENANT_SPEC
        .iter()
        .map(|&(name, priority, slo_mult, weight, _)| {
            TenantClass::new(
                name,
                priority,
                Duration::from_secs_f64(slo_mult * mean_service),
                weight,
            )
        })
        .collect();
    let slos: Vec<Duration> = tenants.iter().map(|t| t.slo).collect();
    let mut config = ServerConfig::with_workers(1)
        .with_queue_depth(POLICY_QUEUE_DEPTH)
        .with_tenant_classes(tenants);
    if capacity > 0 {
        config = config.with_cache_policy(CachePolicy::enabled().with_capacity(capacity));
    }
    let server = SiriusServer::start(Arc::clone(sirius), config);
    for input in inputs {
        server.process_sync(input.clone()).expect("warmup query");
    }
    server.invalidate_result_caches();
    let warm = inputs.len() as u64;
    let (base_hits, base_lookups) = server.caches().map_or((0, 0), |c| c.totals());

    let mut gen = TenantGen::new(seed, inputs.len(), lambda);
    let mut tickets = Vec::with_capacity(arrivals);
    let mut classes: Vec<ClassOutcome> = TENANT_SPEC
        .iter()
        .map(|_| ClassOutcome::default())
        .collect();
    let begun = Instant::now();
    let mut next = begun;
    for _ in 0..arrivals {
        let (gap, c, q) = gen.next();
        next += gap;
        wait_until(next);
        match server.submit(Request::from(inputs[q].clone()).with_class(TENANT_SPEC[c].0)) {
            Ok(ticket) => {
                classes[c].admitted += 1;
                tickets.push((c, q, ticket));
            }
            Err(SiriusError::DeadlineUnmeetable { .. }) => classes[c].shed_deadline += 1,
            Err(SiriusError::Overloaded { .. }) => classes[c].shed_full += 1,
            Err(other) => panic!("unexpected admission error: {other}"),
        }
    }
    let mut outputs_match = true;
    let mut sojourns: Vec<Vec<Duration>> = TENANT_SPEC.iter().map(|_| Vec::new()).collect();
    for (c, q, ticket) in tickets {
        match ticket.wait() {
            Ok(response) => {
                classes[c].completed += 1;
                if response.timing.total <= slos[c] {
                    classes[c].within_slo += 1;
                }
                if payload(&response) != reference[q] {
                    outputs_match = false;
                }
                sojourns[c].push(response.timing.total);
            }
            Err(SiriusError::DeadlineUnmeetable { .. }) => classes[c].expired += 1,
            Err(other) => panic!("unexpected ticket error: {other}"),
        }
    }
    let wall = begun.elapsed().as_secs_f64();
    for (c, outcome) in classes.iter_mut().enumerate() {
        outcome.p99_ms = ms(LatencyStats::from_samples(&sojourns[c]).p99);
    }

    let snap = server.metrics_snapshot();
    // The per-class ledger must agree with the harness's own counts:
    // accepted = admitted, completed = completed, failed = expired, and
    // the in-flight gauge is back to zero.
    let mut accounting_balanced = true;
    for (i, (name, ..)) in TENANT_SPEC.iter().enumerate() {
        let counter = |leaf: &str| snap.counter(&format!("tenant.{name}.{leaf}"));
        let expected: [(&str, Option<u64>, u64); 4] = [
            ("accepted", counter("accepted"), classes[i].admitted),
            (
                "shed_deadline",
                counter("shed_deadline"),
                classes[i].shed_deadline,
            ),
            ("completed", counter("completed"), classes[i].completed),
            ("failed", counter("failed"), classes[i].expired),
        ];
        for (leaf, got, want) in expected {
            if got != Some(want) {
                eprintln!(
                    "cache accounting: tenant.{name}.{leaf} = {got:?}, harness counted {want}"
                );
                accounting_balanced = false;
            }
        }
        let in_flight = snap.gauge(&format!("tenant.{name}.in_flight"));
        if in_flight != Some(0) {
            eprintln!("cache accounting: tenant.{name}.in_flight = {in_flight:?}, expected 0");
            accounting_balanced = false;
        }
    }
    let completed_total: u64 = classes.iter().map(|c| c.completed).sum();
    let global = snap.counter("completed");
    if global != Some(completed_total + warm) {
        eprintln!(
            "cache accounting: completed = {global:?}, harness counted {completed_total} + {warm} warm"
        );
        accounting_balanced = false;
    }
    let (hits, lookups) = server.caches().map_or((0, 0), |c| c.totals());
    let (hits, lookups) = (hits - base_hits, lookups - base_lookups);
    let all: Vec<Duration> = sojourns.into_iter().flatten().collect();
    let stats = LatencyStats::from_samples(&all);
    let hit_cost_ms = snap
        .histogram("asr.service_ns")
        .map_or(0.0, |h| h.mean() / 1e6);
    server.shutdown();
    CacheOutcome {
        qps: completed_total as f64 / wall,
        hit_ratio: if lookups == 0 {
            0.0
        } else {
            hits as f64 / lookups as f64
        },
        hits,
        lookups,
        mean_sojourn_ms: ms(stats.mean),
        p99_ms: ms(stats.p99),
        hit_cost_ms,
        classes,
        outputs_match,
        accounting_balanced,
    }
}

/// Replica counts of the cache-affinity head-to-head.
const AFFINITY_REPLICAS: [u32; 2] = [2, 4];
/// Noise allowance on the affinity gate: consistent-hash must aggregate at
/// least this much more hit ratio than round-robin (in-flight duplicates
/// miss under both policies, but which duplicates overlap is timing).
const AFFINITY_MARGIN: f64 = 0.02;

/// Drives an N-replica cluster cold-start under a Zipf arrival order and
/// measures the aggregate result-cache hit ratio: consistent-hash routing
/// pins each query to one replica (one cold miss per distinct query);
/// round-robin smears each query across all N (up to N cold misses each).
#[allow(clippy::too_many_arguments)]
fn affinity_run(
    sirius: &Arc<Sirius>,
    inputs: &[SiriusInput],
    order: &[usize],
    reference: &[(String, String, Option<String>)],
    replicas: u32,
    route: RoutePolicy,
    lambda: f64,
    arrivals: usize,
    seed: u64,
) -> (f64, bool) {
    let cluster = SiriusCluster::start(
        sirius,
        ClusterConfig::new(replicas).with_route(route).with_server(
            ServerConfig::default()
                .with_queue_depth(arrivals.max(16))
                .with_cache_policy(CachePolicy::enabled()),
        ),
    )
    .expect("cluster start");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut tickets = Vec::with_capacity(arrivals);
    let begun = Instant::now();
    let mut next = begun;
    for i in 0..arrivals {
        let gap = -(1.0 - rng.gen_range(0.0f64..1.0)).ln() / lambda;
        next += Duration::from_secs_f64(gap);
        wait_until(next);
        let at = order[i % order.len()];
        let ticket = cluster
            .submit(inputs[at].clone())
            .expect("queues are deep enough never to shed");
        tickets.push((at, ticket));
    }
    let mut outputs_match = true;
    for (at, ticket) in tickets {
        let response = ticket.wait().expect("admitted queries complete");
        if payload(&response) != reference[at] {
            outputs_match = false;
        }
    }
    let snapshot = cluster.metrics_snapshot();
    let (hits, lookups) = cluster.cache_totals(&snapshot);
    cluster.shutdown();
    (
        if lookups == 0 {
            0.0
        } else {
            hits as f64 / lookups as f64
        },
        outputs_match,
    )
}

/// Closed-loop client counts for the loopback network sweep.
const NET_CLIENTS: [usize; 4] = [1, 2, 4, 8];
/// Replicas behind the network front-end.
const NET_REPLICAS: u32 = 2;
/// Tenant classes the loopback clients rotate through.
const NET_TENANTS: [&str; 3] = ["premium", "standard", "best_effort"];

/// One closed-loop loopback point against the TCP front-end.
struct NetPoint {
    clients: usize,
    qps: f64,
    stats: LatencyStats,
    /// Every remote answer matched the serial reference bit-for-bit.
    outputs_match: bool,
    /// `net.frames_in == net.frames_out == queries` and no protocol
    /// errors or handler panics.
    frames_balanced: bool,
    /// Per-tenant `accepted == completed` across replicas, and the class
    /// totals sum to the queries served.
    ledger_balanced: bool,
    /// `GET /metrics` on the same socket returned 200 with both replica
    /// and front-end series present.
    scrape_ok: bool,
}

/// Drives the network front-end closed-loop over loopback: `clients` TCP
/// connections, each submitting its share of `total` queries (rotating
/// tenant classes) as fast as answers return. Everything crosses the real
/// wire — framing, admission, answers, typed errors, the metrics scrape.
fn net_point(
    sirius: &Arc<Sirius>,
    inputs: &[SiriusInput],
    reference: &[(String, String, Option<String>)],
    clients: usize,
    total: usize,
    workers: usize,
) -> NetPoint {
    // Hour-scale SLOs: admission never sheds, so every query measures the
    // full remote round-trip.
    let slo = Duration::from_secs(3600);
    let classes = vec![
        TenantClass::new("premium", 2, slo, 3),
        TenantClass::new("standard", 1, slo, 2),
        TenantClass::new("best_effort", 0, slo, 1),
    ];
    let cluster = SiriusCluster::start(
        sirius,
        ClusterConfig::new(NET_REPLICAS)
            .with_route(RoutePolicy::RoundRobin)
            .with_server(
                ServerConfig::with_workers(workers)
                    .with_queue_depth(total.max(16))
                    .with_tenant_classes(classes),
            ),
    )
    .expect("cluster starts");
    let net = NetServer::serve(cluster, "127.0.0.1:0", NetConfig::default())
        .expect("loopback listener binds");
    let addr = net.local_addr();

    let outputs_match = AtomicBool::new(true);
    let mut latencies: Vec<Duration> = Vec::with_capacity(total);
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let outputs_match = &outputs_match;
                scope.spawn(move || {
                    let mut client = NetClient::connect(addr).expect("loopback connect");
                    let mut lat = Vec::new();
                    let mut i = c;
                    while i < total {
                        let q = i % inputs.len();
                        let class = NET_TENANTS[q % NET_TENANTS.len()];
                        let t = Instant::now();
                        let r = client
                            .submit(&inputs[q], class, None)
                            .expect("loopback query served");
                        lat.push(t.elapsed());
                        if payload(&r) != reference[q] {
                            outputs_match.store(false, Ordering::Relaxed);
                        }
                        i += clients;
                    }
                    lat
                })
            })
            .collect();
        for handle in handles {
            latencies.extend(handle.join().expect("client thread"));
        }
    });
    let wall = t0.elapsed().as_secs_f64();

    let scrape_ok = matches!(
        sirius_server::http_get(addr, "/metrics"),
        Ok((200, body)) if body.contains("net_frames_in") && body.contains("replica0_")
    );
    let snapshot = net.cluster().metrics_snapshot();
    let frames_balanced = snapshot.counter("net.frames_in") == Some(total as u64)
        && snapshot.counter("net.frames_out") == Some(total as u64)
        && snapshot.counter("net.errors_protocol") == Some(0)
        && snapshot.counter("net.handler_panics") == Some(0);
    let mut ledger_balanced = true;
    let mut accepted_total = 0u64;
    for class in NET_TENANTS {
        let accepted = net
            .cluster()
            .merged_counter(&snapshot, &format!("tenant.{class}.accepted"));
        let completed = net
            .cluster()
            .merged_counter(&snapshot, &format!("tenant.{class}.completed"));
        ledger_balanced &= accepted == completed;
        accepted_total += accepted;
    }
    ledger_balanced &= accepted_total == total as u64;
    net.shutdown();

    NetPoint {
        clients,
        qps: total as f64 / wall,
        stats: LatencyStats::from_samples(&latencies),
        outputs_match: outputs_match.load(Ordering::Relaxed),
        frames_balanced,
        ledger_balanced,
        scrape_ok,
    }
}

fn stats_json(stats: &LatencyStats) -> String {
    format!(
        "\"mean_ms\": {:.3}, \"p50_ms\": {:.3}, \"p95_ms\": {:.3}, \"p99_ms\": {:.3}",
        ms(stats.mean),
        ms(stats.p50),
        ms(stats.p95),
        ms(stats.p99)
    )
}

fn hist_json(h: &HistogramSnapshot) -> String {
    format!(
        "\"mean_ms\": {:.3}, \"p50_ms\": {:.3}, \"p95_ms\": {:.3}, \"p99_ms\": {:.3}",
        h.mean() / 1e6,
        h.percentile(50.0) as f64 / 1e6,
        h.percentile(95.0) as f64 / 1e6,
        h.percentile(99.0) as f64 / 1e6
    )
}

fn opt(e: Option<f64>) -> String {
    e.map_or("null".to_owned(), |e| format!("{e:.3}"))
}

fn main() {
    let mut arrivals = 100usize;
    let mut workers = 4usize;
    let mut seed = 0x51_A7E5u64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |name: &str| -> u64 {
            args.next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("{name} needs a positive integer"))
        };
        match arg.as_str() {
            "--queries" => arrivals = take("--queries") as usize,
            "--workers" => workers = take("--workers") as usize,
            "--seed" => seed = take("--seed"),
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: bench_server [--queries N] [--workers W] [--seed S]");
                std::process::exit(2);
            }
        }
    }
    assert!(arrivals >= 10, "--queries must be at least 10");
    assert!(workers >= 1, "--workers must be at least 1");

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    eprintln!("building Sirius (trains all models)...");
    let sirius = Arc::new(Sirius::build(SiriusConfig::default()));
    let prepared = prepare_input_set(&sirius, 4242);
    let inputs: Vec<SiriusInput> = prepared.iter().map(|p| p.input()).collect();

    // Warm caches and capture the serial reference outputs.
    let reference: Vec<_> = inputs
        .iter()
        .map(|input| payload(&sirius.process(input)))
        .collect();

    eprintln!("serial baseline over {} queries...", inputs.len());
    let t = Instant::now();
    let serial_latencies: Vec<Duration> = inputs
        .iter()
        .map(|input| sirius.process(input).timing.total)
        .collect();
    let serial_wall = t.elapsed().as_secs_f64();
    let serial_stats = LatencyStats::from_samples(&serial_latencies);
    let serial_qps = inputs.len() as f64 / serial_wall;
    let mean_service = serial_wall / inputs.len() as f64;
    let mu = 1.0 / mean_service;

    let mut points = Vec::new();
    for (i, &rho) in SWEEP_RHO.iter().enumerate() {
        let lambda = rho * mu;
        eprintln!("open-loop sweep: rho={rho:.1} lambda={lambda:.1}/s ({arrivals} arrivals)...");
        points.push(open_loop(
            &sirius,
            &inputs,
            lambda,
            rho,
            arrivals,
            seed.wrapping_add(i as u64),
        ));
    }
    let comparison = QueueComparison::against_service_time(
        mean_service,
        &points
            .iter()
            .map(|p| MeasuredPoint {
                lambda: p.lambda,
                mean_latency: p.sojourn().mean() / 1e9,
            })
            .collect::<Vec<_>>(),
    );

    let slo = Duration::from_secs_f64(SLO_SERVICE_MULTIPLE * mean_service);
    let policy_arrivals = arrivals.max(150);
    let mut policy_rows = Vec::new();
    for (i, &rho) in POLICY_RHO.iter().enumerate() {
        let lambda = rho * mu;
        let pair_seed = seed.wrapping_add(0x900 + i as u64);
        eprintln!(
            "policy sweep: rho={rho:.1} lambda={lambda:.1}/s ({policy_arrivals} arrivals) shed-on-full..."
        );
        let shed_on_full = policy_run(
            &sirius,
            &inputs,
            &reference,
            lambda,
            policy_arrivals,
            None,
            slo,
            pair_seed,
        );
        eprintln!("policy sweep: rho={rho:.1} deadline-aware...");
        let deadline_aware = policy_run(
            &sirius,
            &inputs,
            &reference,
            lambda,
            policy_arrivals,
            Some(slo),
            slo,
            pair_seed,
        );
        policy_rows.push((rho, shed_on_full, deadline_aware));
    }
    let shed_points: Vec<ShedPoint> = policy_rows
        .iter()
        .map(|(rho, shed_on_full, _)| ShedPoint {
            rho: *rho,
            capacity: POLICY_QUEUE_DEPTH + 1,
            offered: policy_arrivals as u64,
            shed: shed_on_full.shed_full,
        })
        .collect();
    let shed_cmp = ShedComparison::against(&shed_points);
    let deadline_beats_shed = policy_rows
        .iter()
        .filter(|(rho, ..)| *rho >= 0.9)
        .all(|(_, shed_on_full, deadline_aware)| deadline_aware.goodput() > shed_on_full.goodput());
    let policy_outputs_match = policy_rows
        .iter()
        .all(|(_, a, b)| a.outputs_match && b.outputs_match);
    let policy_accounting = policy_rows
        .iter()
        .all(|(_, a, b)| a.accounting_balanced && b.accounting_balanced);

    // Batching sweep: DNN acoustic — the model with a block GEMM to batch.
    // All arrival rates are relative to the *serial single-core* DNN
    // service rate; the grid points at one load share one arrival process
    // so policies compare paired.
    eprintln!("serial DNN baseline over {} queries...", inputs.len());
    let dnn_reference: Vec<_> = inputs
        .iter()
        .map(|input| payload(&sirius.process_with(input, AcousticModelKind::Dnn)))
        .collect();
    let t = Instant::now();
    for input in &inputs {
        let _ = sirius.process_with(input, AcousticModelKind::Dnn);
    }
    let dnn_mu = inputs.len() as f64 / t.elapsed().as_secs_f64();
    let mut batch_rows = Vec::new();
    for (i, &rho) in BATCH_RHO.iter().enumerate() {
        let lambda = rho * dnn_mu;
        let pair_seed = seed.wrapping_add(0xBA7C + i as u64);
        for &(max_batch, delay_ms) in BATCH_GRID.iter() {
            eprintln!(
                "batch sweep: rho={rho:.1} lambda={lambda:.1}/s max_batch={max_batch} max_delay={delay_ms}ms ({arrivals} arrivals)..."
            );
            let outcome = batch_run(
                &sirius,
                &inputs,
                &dnn_reference,
                lambda,
                arrivals,
                workers,
                BatchPolicy::new(max_batch, Duration::from_millis(delay_ms)),
                pair_seed,
            );
            batch_rows.push((rho, max_batch, delay_ms, outcome));
        }
    }
    let batch_outputs_match = batch_rows.iter().all(|(.., o)| o.outputs_match);
    let batch_accounting = batch_rows.iter().all(|(.., o)| o.accounting_balanced);

    // Streaming sweep: GMM acoustic with speculative downstream
    // pipelining, audio paced in at STREAM_PACING× real time. Capacity is
    // occupancy-bound (a worker holds a query for its whole paced arrival
    // window), so it is measured per chunk size with a closed warmup.
    let stream_arrivals = arrivals.min(48);
    let mut stream_rows = Vec::new();
    for (ci, &chunk_ms) in STREAM_CHUNKS_MS.iter().enumerate() {
        let stream_mu = stream_capacity(&sirius, &inputs, workers, chunk_ms);
        for (ri, &rho) in STREAM_RHO.iter().enumerate() {
            let lambda = rho * stream_mu;
            eprintln!(
                "streaming sweep: chunk={chunk_ms}ms rho={rho:.1} lambda={lambda:.1}/s ({stream_arrivals} arrivals)..."
            );
            let outcome = stream_run(
                &sirius,
                &inputs,
                &reference,
                lambda,
                stream_arrivals,
                workers,
                chunk_ms,
                seed.wrapping_add(0x57_2EA0 + (ci * STREAM_RHO.len() + ri) as u64),
            );
            stream_rows.push((chunk_ms, rho, lambda, outcome));
        }
    }
    let stream_outputs_match = stream_rows.iter().all(|(.., o)| o.outputs_match);
    // The streaming win: once decode overlaps the paced arrival, the
    // latency left after the speaker stops must undercut the serial
    // sum-of-stages floor whenever the pool is not oversubscribed.
    let stream_below_floor = stream_rows
        .iter()
        .filter(|(_, rho, ..)| *rho <= 0.8)
        .all(|(.., o)| o.from_end.p50 < serial_stats.mean);

    let total = (3 * inputs.len()).max(arrivals);
    eprintln!("saturation: 1 worker/stage, {total} queries...");
    let (staged_1w_qps, match_1w) = saturate(&sirius, &inputs, &reference, 1, 2, total);
    eprintln!("saturation: {workers} workers/stage, {total} queries...");
    let (staged_qps, match_nw) =
        saturate(&sirius, &inputs, &reference, workers, workers + 2, total);

    // Cluster sweep. Per replica count: first a deep-overload round-robin
    // probe (lambda scaled off the single-replica staged capacity) to
    // measure what this machine actually delivers at N — the replicas
    // contend for the same cores, so N × the single rate would overshoot —
    // then every policy at a matched CLUSTER_RHO × measured capacity, with
    // CLUSTER_TRIALS paired arrival seeds shared across the policies.
    let median = |mut v: Vec<f64>| -> f64 {
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
        v[v.len() / 2]
    };
    // Arrival order for the cluster sweep: alternate vision-heavy (image)
    // and voice-only queries. The period-2 mix is resonant with every even
    // replica count — round-robin's count-balance then lands every heavy
    // query on half the replicas. Count-balance is only work-balance when
    // the mix is uniform; a periodic mix is exactly the structural failure
    // a backlog-aware router repairs, so this is the head-to-head worth
    // measuring (with a uniform mix on a contended box, round-robin and
    // least-sojourn are indistinguishable).
    let heavy: Vec<usize> = (0..inputs.len())
        .filter(|&i| inputs[i].image.is_some())
        .collect();
    let light: Vec<usize> = (0..inputs.len())
        .filter(|&i| inputs[i].image.is_none())
        .collect();
    assert!(
        !heavy.is_empty() && !light.is_empty(),
        "input set must mix vision and voice-only queries"
    );
    let cluster_order: Vec<usize> = (0..arrivals)
        .map(|i| {
            if i % 2 == 0 {
                heavy[(i / 2) % heavy.len()]
            } else {
                light[(i / 2) % light.len()]
            }
        })
        .collect();
    type ClusterRowData = (u32, RoutePolicy, f64, f64, Vec<ClusterOutcome>);
    let mut cluster_rows: Vec<ClusterRowData> = Vec::new();
    for (ni, &n) in CLUSTER_REPLICAS.iter().enumerate() {
        let probe_lambda = CLUSTER_RHO * f64::from(n) * staged_1w_qps;
        eprintln!("cluster sweep: replicas={n} capacity probe at lambda={probe_lambda:.1}/s...");
        let probe = cluster_run(
            &sirius,
            &inputs,
            &cluster_order,
            &reference,
            n,
            RoutePolicy::RoundRobin,
            probe_lambda,
            arrivals,
            seed.wrapping_add(0xCA9 + ni as u64),
        );
        let capacity = probe.qps;
        let lambda = CLUSTER_RHO * capacity;
        for route in RoutePolicy::ALL {
            eprintln!(
                "cluster sweep: replicas={n} route={route} lambda={lambda:.1}/s ({arrivals} arrivals x {CLUSTER_TRIALS} trials)..."
            );
            let trials: Vec<ClusterOutcome> = (0..CLUSTER_TRIALS)
                .map(|t| {
                    cluster_run(
                        &sirius,
                        &inputs,
                        &cluster_order,
                        &reference,
                        n,
                        route,
                        lambda,
                        arrivals,
                        seed.wrapping_add(0xC1_0572 + (ni * CLUSTER_TRIALS + t) as u64),
                    )
                })
                .collect();
            cluster_rows.push((n, route, lambda, capacity, trials));
        }
    }
    let cluster_points: Vec<ClusterPoint> = cluster_rows
        .iter()
        .map(|(n, route, _, _, trials)| ClusterPoint {
            replicas: *n,
            route: route.to_string(),
            qps: trials.iter().map(|o| o.qps).sum::<f64>() / trials.len() as f64,
            p50_ms: median(trials.iter().map(|o| ms(o.stats.p50)).collect()),
            p99_ms: median(trials.iter().map(|o| ms(o.stats.p99)).collect()),
        })
        .collect();
    // Restate the measured scale-out against the paper's Table 8 scale-up:
    // how many machines of the homogeneous GPU design match N multicore
    // replicas.
    let accel_improvement = homogeneous_throughput_improvement(PlatformKind::Gpu);
    let cluster_cmp = ClusterComparison::against(&cluster_points, accel_improvement);
    let cluster_outputs_match = cluster_rows
        .iter()
        .all(|(.., trials)| trials.iter().all(|o| o.outputs_match));
    let cluster_accounting = cluster_rows
        .iter()
        .all(|(.., trials)| trials.iter().all(|o| o.accounting_balanced));
    // Routing head-to-head at the widest cluster, below saturation. The
    // arrival order plants one straggler (the slowest query in the set)
    // among every three fastest-third queries; with period 4 resonant
    // against 4 replicas, round-robin lands every straggler on the same
    // replica while least-sojourn steers the following arrivals around the
    // backlog it leaves behind. Policies share paired arrival seeds per
    // (rho, trial); the gate compares pooled and median p99 at the highest
    // routing load.
    let top_n = *CLUSTER_REPLICAS.last().expect("non-empty sweep");
    let mut by_lat: Vec<usize> = (0..inputs.len()).collect();
    by_lat.sort_by_key(|&i| serial_latencies[i]);
    let fastest = &by_lat[..inputs.len() / 3];
    let slowest = *by_lat.last().expect("non-empty input set");
    let straggler_order: Vec<usize> = (0..arrivals)
        .map(|i| {
            if i % 4 == 0 {
                slowest
            } else {
                fastest[(3 * (i / 4) + i % 4 - 1) % fastest.len()]
            }
        })
        .collect();
    let straggler_mean = straggler_order
        .iter()
        .map(|&i| serial_latencies[i].as_secs_f64())
        .sum::<f64>()
        / straggler_order.len() as f64;
    type RoutingRowData = (f64, f64, RoutePolicy, Vec<ClusterOutcome>, LatencyStats);
    let mut routing_rows: Vec<RoutingRowData> = Vec::new();
    for (ri, &rho) in ROUTING_RHO.iter().enumerate() {
        let lambda = rho / straggler_mean;
        for route in [RoutePolicy::RoundRobin, RoutePolicy::LeastSojourn] {
            eprintln!(
                "routing head-to-head: replicas={top_n} rho={rho} route={route} lambda={lambda:.1}/s ({arrivals} arrivals x {ROUTING_TRIALS} trials)..."
            );
            let trials: Vec<ClusterOutcome> = (0..ROUTING_TRIALS)
                .map(|t| {
                    cluster_run(
                        &sirius,
                        &inputs,
                        &straggler_order,
                        &reference,
                        top_n,
                        route,
                        lambda,
                        arrivals,
                        seed.wrapping_add(0x40D7E + (ri * ROUTING_TRIALS + t) as u64),
                    )
                })
                .collect();
            let pooled = trials
                .iter()
                .skip(1)
                .fold(trials[0].stats.clone(), |m, o| m.merge(&o.stats));
            routing_rows.push((rho, lambda, route, trials, pooled));
        }
    }
    let routing_outputs_match = routing_rows
        .iter()
        .all(|(.., trials, _)| trials.iter().all(|o| o.outputs_match));
    let routing_accounting = routing_rows
        .iter()
        .all(|(.., trials, _)| trials.iter().all(|o| o.accounting_balanced));
    let routing_peak = *ROUTING_RHO.last().expect("non-empty routing sweep");
    let routing_at = |rho: f64, want: RoutePolicy| {
        routing_rows
            .iter()
            .find(|(r, _, route, ..)| *r == rho && *route == want)
            .expect("swept routing point")
    };
    let (.., rr_trials, rr_pooled) = routing_at(routing_peak, RoutePolicy::RoundRobin);
    let (.., ls_trials, ls_pooled) = routing_at(routing_peak, RoutePolicy::LeastSojourn);
    let ratio_pooled = ms(ls_pooled.p99) / ms(rr_pooled.p99);
    let ratio_median = median(ls_trials.iter().map(|o| ms(o.stats.p99)).collect())
        / median(rr_trials.iter().map(|o| ms(o.stats.p99)).collect());
    let least_sojourn_holds = ratio_pooled.min(ratio_median) <= ROUTING_TOL;
    let cluster_outputs_match = cluster_outputs_match && routing_outputs_match;
    let cluster_accounting = cluster_accounting && routing_accounting;

    // Cache/tenant sweep: the multi-tenant heavy-tailed generator drives a
    // single-worker runtime at ρ × μ with the result cache off, small and
    // corpus-sized. Capacities at one load share one arrival seed, so the
    // capacity axis is paired.
    let cache_arrivals = arrivals.max(150);
    let mut cache_rows: Vec<(f64, usize, CacheOutcome)> = Vec::new();
    for (ri, &rho) in CACHE_RHO.iter().enumerate() {
        let lambda = rho * mu;
        let pair_seed = seed.wrapping_add(0xCAC4E + ri as u64);
        for &capacity in CACHE_CAPACITIES.iter() {
            eprintln!(
                "cache sweep: rho={rho:.1} lambda={lambda:.1}/s capacity={capacity} ({cache_arrivals} arrivals)..."
            );
            let outcome = cache_run(
                &sirius,
                &inputs,
                &reference,
                mean_service,
                lambda,
                cache_arrivals,
                capacity,
                pair_seed,
            );
            cache_rows.push((rho, capacity, outcome));
        }
    }
    let cache_outputs_match = cache_rows.iter().all(|(.., o)| o.outputs_match);
    let cache_accounting = cache_rows.iter().all(|(.., o)| o.accounting_balanced);
    // Gate 1: at and past saturation, completion throughput rises with the
    // measured hit ratio — the cache's capacity multiplication is real.
    // (Below saturation every setting just serves its arrival rate, so
    // ρ = 0.8 is reported but not gated.)
    let throughput_monotone = CACHE_RHO.iter().filter(|&&rho| rho >= 1.1).all(|&rho| {
        let mut at_rho: Vec<&(f64, usize, CacheOutcome)> =
            cache_rows.iter().filter(|(r, ..)| *r == rho).collect();
        at_rho.sort_by(|a, b| {
            a.2.hit_ratio
                .partial_cmp(&b.2.hit_ratio)
                .expect("finite hit ratios")
        });
        at_rho.windows(2).all(|w| w[1].2.qps >= w[0].2.qps * 0.95)
            && at_rho.last().expect("swept").2.qps > at_rho.first().expect("swept").2.qps * 1.05
    });
    // Gate 2: in deep overload with no cache to hide behind, weighted
    // admission protects premium — its p99 holds near its SLO (one
    // last-stage service time of overshoot allowed past the dequeue-time
    // expiry backstop) while best-effort absorbs strictly more shed.
    let overload = cache_rows
        .iter()
        .find(|(rho, capacity, _)| *rho == 1.5 && *capacity == 0)
        .expect("swept overload point");
    let premium_slo_ms = TENANT_SPEC[0].2 * mean_service * 1e3;
    let premium = &overload.2.classes[0];
    let best_effort = &overload.2.classes[2];
    let premium_protected = premium.p99_ms <= premium_slo_ms * 1.15
        && best_effort.unserved_fraction() > premium.unserved_fraction() + 0.05;
    // Line the below-saturation points up against the hit-deflected M/M/1:
    // backend μ from the serial baseline, hit cost from the measured ASR
    // mean of the corpus-sized-cache run.
    let cache_hit_cost_s = cache_rows
        .iter()
        .find(|(rho, capacity, _)| *rho == 0.8 && *capacity == *CACHE_CAPACITIES.last().unwrap())
        .expect("swept point")
        .2
        .hit_cost_ms
        / 1e3;
    let cache_points: Vec<CachePoint> = cache_rows
        .iter()
        .filter(|(rho, ..)| *rho == 0.8)
        .map(|(rho, _, o)| CachePoint {
            lambda: rho * mu,
            hit_ratio: o.hit_ratio,
            mean_latency: o.mean_sojourn_ms / 1e3,
        })
        .collect();
    let cache_cmp = CacheComparison::against(
        Mm1::from_service_time(mean_service),
        cache_hit_cost_s,
        &cache_points,
    );

    // Cache affinity: cold N-replica clusters under one shared Zipf
    // arrival order, consistent-hash vs round-robin, aggregate hit ratio.
    let affinity_order: Vec<usize> = {
        let mut gen = TenantGen::new(seed.wrapping_add(0xAFF1), inputs.len(), 1.0);
        (0..cache_arrivals).map(|_| gen.next().2).collect()
    };
    let affinity_lambda = 0.8 * staged_1w_qps;
    let mut affinity_rows: Vec<(u32, RoutePolicy, f64, bool)> = Vec::new();
    for (ni, &n) in AFFINITY_REPLICAS.iter().enumerate() {
        for route in [RoutePolicy::ConsistentHash, RoutePolicy::RoundRobin] {
            eprintln!(
                "cache affinity: replicas={n} route={route} lambda={affinity_lambda:.1}/s ({cache_arrivals} arrivals)..."
            );
            let (hit_ratio, matches) = affinity_run(
                &sirius,
                &inputs,
                &affinity_order,
                &reference,
                n,
                route,
                affinity_lambda,
                cache_arrivals,
                seed.wrapping_add(0xAFF10 + ni as u64),
            );
            affinity_rows.push((n, route, hit_ratio, matches));
        }
    }
    let affinity_outputs_match = affinity_rows.iter().all(|(.., m)| *m);
    let affinity_at = |n: u32, want: RoutePolicy| -> f64 {
        affinity_rows
            .iter()
            .find(|(rn, route, ..)| *rn == n && *route == want)
            .expect("swept affinity point")
            .2
    };
    let hash_beats_rr = AFFINITY_REPLICAS.iter().all(|&n| {
        affinity_at(n, RoutePolicy::ConsistentHash)
            >= affinity_at(n, RoutePolicy::RoundRobin) + AFFINITY_MARGIN
    });

    // Loopback network sweep: closed-loop TCP clients against the framed
    // front-end, every query crossing the real wire.
    let mut net_points = Vec::new();
    for &clients in &NET_CLIENTS {
        eprintln!("net sweep: {clients} loopback clients ({arrivals} queries)...");
        net_points.push(net_point(
            &sirius, &inputs, &reference, clients, arrivals, workers,
        ));
    }
    let net_outputs_match = net_points.iter().all(|p| p.outputs_match);
    let net_frames_balanced = net_points.iter().all(|p| p.frames_balanced);
    let net_ledger_balanced = net_points.iter().all(|p| p.ledger_balanced);
    let net_scrape_ok = net_points.iter().all(|p| p.scrape_ok);

    println!("{{");
    println!("  \"bench\": \"server\",");
    println!("  \"cores\": {cores},");
    println!("  \"arrivals_per_point\": {arrivals},");
    println!("  \"workers\": {workers},");
    println!(
        "  \"serial\": {{ \"queries\": {}, \"qps\": {:.2}, {} }},",
        inputs.len(),
        serial_qps,
        stats_json(&serial_stats)
    );
    println!(
        "  \"mm1\": {{ \"mu_qps\": {:.2}, \"mean_service_ms\": {:.3} }},",
        mu,
        mean_service * 1e3
    );
    println!("  \"open_loop\": [");
    for (i, (p, row)) in points.iter().zip(&comparison.rows).enumerate() {
        let comma = if i + 1 < points.len() { "," } else { "" };
        let tandem = p.tandem();
        println!(
            "    {{ \"rho\": {:.2}, \"lambda_qps\": {:.2}, \"offered\": {}, \"shed\": {}, {}, \"mm1_predicted_mean_ms\": {:.3}, \"mm1_relative_error\": {}, \"sojourn_reconstruction_error\": {}, \"percentiles_within_one_bucket\": {} }}{comma}",
            p.rho,
            p.lambda,
            p.offered,
            p.shed(),
            hist_json(p.sojourn()),
            row.predicted * 1e3,
            opt(row.relative_error),
            opt(tandem.reconstruction_error()),
            p.percentiles_within_one_bucket()
        );
    }
    println!("  ],");
    println!(
        "  \"mm1_mean_relative_error\": {},",
        opt(comparison.mean_relative_error())
    );
    // Per-stage tandem table at the highest swept load: each stage's own
    // arrival rate, utilization and measured-vs-predicted sojourn.
    let heaviest = points.last().expect("non-empty sweep");
    let tandem = heaviest.tandem();
    println!(
        "  \"tandem\": {{ \"rho\": {:.2}, \"stages\": [",
        heaviest.rho
    );
    for (i, row) in tandem.rows.iter().enumerate() {
        let comma = if i + 1 < tandem.rows.len() { "," } else { "" };
        println!(
            "    {{ \"stage\": \"{}\", \"lambda_qps\": {:.2}, \"rho\": {:.3}, \"measured_ms\": {:.3}, \"mm1_predicted_ms\": {:.3}, \"relative_error\": {}, \"absolute_error_ms\": {}, \"below_floor\": {} }}{comma}",
            row.stage,
            row.lambda,
            row.rho,
            row.measured * 1e3,
            row.predicted * 1e3,
            opt(row.relative_error),
            opt(row.absolute_error.map(|e| e * 1e3)),
            row.below_floor
        );
    }
    println!(
        "  ], \"reconstruction_error\": {}, \"mean_relative_error\": {} }},",
        opt(tandem.reconstruction_error()),
        opt(tandem.mean_relative_error())
    );
    println!(
        "  \"policy_sweep\": {{ \"slo_ms\": {:.3}, \"arrivals_per_point\": {policy_arrivals}, \"mm1k_capacity\": {}, \"points\": [",
        slo.as_secs_f64() * 1e3,
        POLICY_QUEUE_DEPTH + 1
    );
    for (i, ((rho, shed_on_full, deadline_aware), row)) in
        policy_rows.iter().zip(&shed_cmp.rows).enumerate()
    {
        let comma = if i + 1 < policy_rows.len() { "," } else { "" };
        println!(
            "    {{ \"rho\": {rho:.2}, \"shed_on_full\": {{ {}, \"measured_shed_rate\": {:.4}, \"mm1k_predicted_shed_rate\": {:.4}, \"absolute_error\": {:.4} }}, \"deadline_aware\": {{ {} }} }}{comma}",
            shed_on_full.json(),
            row.measured,
            row.predicted,
            row.absolute_error,
            deadline_aware.json()
        );
    }
    println!(
        "  ], \"mm1k_worst_absolute_error\": {}, \"deadline_beats_shed_on_full_at_high_load\": {deadline_beats_shed}, \"outputs_match_serial\": {policy_outputs_match}, \"accounting_balanced\": {policy_accounting} }},",
        opt(shed_cmp.worst_absolute_error())
    );
    println!(
        "  \"batch_sweep\": {{ \"acoustic\": \"dnn\", \"workers\": {workers}, \"serial_dnn_qps\": {dnn_mu:.2}, \"arrivals_per_point\": {arrivals}, \"note\": \"rho is relative to the serial single-core DNN rate; all pools share one machine\", \"points\": ["
    );
    for (i, (rho, max_batch, delay_ms, o)) in batch_rows.iter().enumerate() {
        let comma = if i + 1 < batch_rows.len() { "," } else { "" };
        println!(
            "    {{ \"rho\": {rho:.2}, \"max_batch\": {max_batch}, \"max_delay_ms\": {delay_ms}, \"qps\": {:.2}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \"batch_size_mean\": {:.3}, \"batch_size_p95\": {}, \"batch_size_max\": {}, \"flush_full\": {}, \"flush_timeout\": {} }}{comma}",
            o.qps,
            o.p50_ms,
            o.p99_ms,
            o.batch_mean,
            o.batch_p95,
            o.batch_max,
            o.flushes_full,
            o.flushes_timeout
        );
    }
    // Per-load Pareto frontier over (throughput up, p99 down): the policy
    // points no other policy beats on both axes at that load.
    println!("  ], \"pareto\": [");
    for (i, &rho) in BATCH_RHO.iter().enumerate() {
        let at_rho: Vec<_> = batch_rows.iter().filter(|(r, ..)| *r == rho).collect();
        let frontier: Vec<String> = at_rho
            .iter()
            .filter(|(_, mb, dl, o)| {
                !at_rho.iter().any(|(_, omb, odl, other)| {
                    (omb, odl) != (mb, dl)
                        && other.qps >= o.qps
                        && other.p99_ms <= o.p99_ms
                        && (other.qps > o.qps || other.p99_ms < o.p99_ms)
                })
            })
            .map(|(_, mb, dl, o)| {
                format!(
                    "{{ \"max_batch\": {mb}, \"max_delay_ms\": {dl}, \"qps\": {:.2}, \"p99_ms\": {:.3} }}",
                    o.qps, o.p99_ms
                )
            })
            .collect();
        let comma = if i + 1 < BATCH_RHO.len() { "," } else { "" };
        println!(
            "    {{ \"rho\": {rho:.2}, \"frontier\": [{}] }}{comma}",
            frontier.join(", ")
        );
    }
    println!(
        "  ], \"outputs_match_serial\": {batch_outputs_match}, \"accounting_balanced\": {batch_accounting} }},"
    );
    println!(
        "  \"streaming_sweep\": {{ \"acoustic\": \"gmm\", \"workers\": {workers}, \"pacing\": {STREAM_PACING}, \"arrivals_per_point\": {stream_arrivals}, \"serial_floor_ms\": {:.3}, \"note\": \"rho is relative to the measured streaming occupancy capacity; from_end subtracts the paced arrival window\", \"points\": [",
        ms(serial_stats.mean)
    );
    for (i, (chunk_ms, rho, lambda, o)) in stream_rows.iter().enumerate() {
        let comma = if i + 1 < stream_rows.len() { "," } else { "" };
        println!(
            "    {{ \"chunk_ms\": {chunk_ms}, \"rho\": {rho:.2}, \"lambda_qps\": {lambda:.2}, \"first_partial_p50_ms\": {:.3}, \"from_submit_p50_ms\": {:.3}, \"from_submit_p99_ms\": {:.3}, \"from_end_p50_ms\": {:.3}, \"from_end_p99_ms\": {:.3}, \"partials_per_query\": {:.2}, \"spec_hit_rate\": {:.3} }}{comma}",
            o.first_partial_p50_ms,
            ms(o.from_submit.p50),
            ms(o.from_submit.p99),
            ms(o.from_end.p50),
            ms(o.from_end.p99),
            o.partials_per_query,
            o.spec_hit_rate
        );
    }
    println!(
        "  ], \"outputs_match_serial\": {stream_outputs_match}, \"from_end_p50_below_serial_floor_at_low_rho\": {stream_below_floor} }},"
    );
    println!(
        "  \"cluster_sweep\": {{ \"rho\": {CLUSTER_RHO}, \"arrivals_per_point\": {arrivals}, \"trials_per_point\": {CLUSTER_TRIALS}, \"single_replica_staged_qps\": {staged_1w_qps:.2}, \"accel_improvement_gpu\": {accel_improvement:.3}, \"note\": \"capacity points run open-loop past saturation (lambda = rho * measured capacity at N, arrivals alternate vision-heavy and voice-only queries, policies at one N share paired arrival seeds, p50/p99 are medians over the trials); the routing head-to-head runs below saturation on a straggler mix where blind routing piles every slow query onto one replica\", \"points\": ["
    );
    for (i, ((n, route, lambda, capacity, trials), (point, row))) in cluster_rows
        .iter()
        .zip(cluster_points.iter().zip(&cluster_cmp.rows))
        .enumerate()
    {
        let comma = if i + 1 < cluster_rows.len() { "," } else { "" };
        let served: Vec<String> = trials[0].served_by.iter().map(u64::to_string).collect();
        println!(
            "    {{ \"replicas\": {n}, \"route\": \"{route}\", \"capacity_qps\": {capacity:.2}, \"lambda_qps\": {lambda:.2}, \"qps\": {:.2}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \"speedup_vs_1\": {}, \"efficiency\": {}, \"accelerated_equivalent_machines\": {}, \"served_by\": [{}] }}{comma}",
            point.qps,
            point.p50_ms,
            point.p99_ms,
            opt(row.speedup),
            opt(row.efficiency),
            opt(row.accelerated_equivalent),
            served.join(", ")
        );
    }
    println!(
        "  ], \"best_speedup\": {}, \"worst_scaling_efficiency\": {},",
        opt(cluster_cmp.best_speedup()),
        opt(cluster_cmp.worst_efficiency())
    );
    println!(
        "  \"routing\": {{ \"replicas\": {top_n}, \"mix\": \"1-in-4 straggler (slowest query) among fastest-third queries, period 4 resonant with {top_n} replicas under round-robin\", \"mix_mean_service_ms\": {:.3}, \"trials_per_point\": {ROUTING_TRIALS}, \"tolerance\": {ROUTING_TOL}, \"points\": [",
        straggler_mean * 1e3
    );
    for (i, (rho, lambda, route, trials, pooled)) in routing_rows.iter().enumerate() {
        let comma = if i + 1 < routing_rows.len() { "," } else { "" };
        let mut served = vec![0u64; top_n as usize];
        for o in trials {
            for (s, c) in served.iter_mut().zip(&o.served_by) {
                *s += c;
            }
        }
        let served: Vec<String> = served.iter().map(u64::to_string).collect();
        println!(
            "    {{ \"rho\": {rho}, \"route\": \"{route}\", \"lambda_qps\": {lambda:.2}, \"pooled_p50_ms\": {:.3}, \"pooled_p99_ms\": {:.3}, \"median_p99_ms\": {:.3}, \"served_by\": [{}] }}{comma}",
            ms(pooled.p50),
            ms(pooled.p99),
            median(trials.iter().map(|o| ms(o.stats.p99)).collect()),
            served.join(", ")
        );
    }
    println!(
        "  ], \"ls_rr_p99_ratio_pooled\": {ratio_pooled:.3}, \"ls_rr_p99_ratio_median\": {ratio_median:.3} }},"
    );
    println!(
        "  \"least_sojourn_p99_le_round_robin_at_peak\": {least_sojourn_holds}, \"outputs_match_serial\": {cluster_outputs_match}, \"accounting_balanced\": {cluster_accounting} }},"
    );
    println!(
        "  \"cache_sweep\": {{ \"arrivals_per_point\": {cache_arrivals}, \"zipf_exponent\": {ZIPF_EXPONENT}, \"diurnal_amplitude\": {DIURNAL_AMPLITUDE}, \"diurnal_period_s\": {DIURNAL_PERIOD_S}, \"note\": \"multi-tenant Zipf arrivals with per-class corpus permutations and diurnal rate modulation; capacities at one rho share one arrival seed; caches are invalidated after warmup so hit ratios come from measured traffic\", \"classes\": [{}], \"points\": [",
        TENANT_SPEC
            .iter()
            .map(|(name, priority, slo_mult, weight, share)| format!(
                "{{ \"name\": \"{name}\", \"priority\": {priority}, \"slo_ms\": {:.3}, \"weight\": {weight}, \"share\": {share} }}",
                slo_mult * mean_service * 1e3
            ))
            .collect::<Vec<_>>()
            .join(", ")
    );
    for (i, (rho, capacity, o)) in cache_rows.iter().enumerate() {
        let comma = if i + 1 < cache_rows.len() { "," } else { "" };
        let classes: Vec<String> = TENANT_SPEC
            .iter()
            .zip(&o.classes)
            .map(|((name, ..), c)| {
                format!(
                    "{{ \"class\": \"{name}\", \"offered\": {}, \"admitted\": {}, \"shed_deadline\": {}, \"shed_full\": {}, \"expired\": {}, \"completed\": {}, \"within_slo\": {}, \"unserved_fraction\": {:.4}, \"p99_ms\": {:.3} }}",
                    c.offered(),
                    c.admitted,
                    c.shed_deadline,
                    c.shed_full,
                    c.expired,
                    c.completed,
                    c.within_slo,
                    c.unserved_fraction(),
                    c.p99_ms
                )
            })
            .collect();
        println!(
            "    {{ \"rho\": {rho:.2}, \"capacity\": {capacity}, \"qps\": {:.2}, \"hit_ratio\": {:.4}, \"hits\": {}, \"lookups\": {}, \"mean_ms\": {:.3}, \"p99_ms\": {:.3}, \"hit_cost_ms\": {:.3}, \"classes\": [{}] }}{comma}",
            o.qps,
            o.hit_ratio,
            o.hits,
            o.lookups,
            o.mean_sojourn_ms,
            o.p99_ms,
            o.hit_cost_ms,
            classes.join(", ")
        );
    }
    println!("  ], \"mm1_cache\": {{ \"mu_qps\": {:.2}, \"hit_cost_ms\": {:.3}, \"note\": \"hit-deflected M/M/1 at the below-saturation load: predicted = h*t_hit + (1-h)/(mu - lambda*(1-h))\", \"rows\": [", cache_cmp.mu, cache_cmp.hit_cost * 1e3);
    for (i, row) in cache_cmp.rows.iter().enumerate() {
        let comma = if i + 1 < cache_cmp.rows.len() {
            ","
        } else {
            ""
        };
        println!(
            "    {{ \"lambda_qps\": {:.2}, \"hit_ratio\": {:.4}, \"effective_rho\": {:.3}, \"measured_ms\": {:.3}, \"predicted_ms\": {:.3}, \"relative_error\": {} }}{comma}",
            row.lambda,
            row.hit_ratio,
            row.effective_rho,
            row.measured * 1e3,
            row.predicted * 1e3,
            opt(row.relative_error)
        );
    }
    println!(
        "  ], \"worst_relative_error\": {} }},",
        opt(cache_cmp.worst_relative_error())
    );
    println!(
        "  \"throughput_increases_with_hit_ratio\": {throughput_monotone}, \"premium_protected_under_overload\": {premium_protected}, \"outputs_match_serial\": {cache_outputs_match}, \"accounting_balanced\": {cache_accounting} }},"
    );
    println!(
        "  \"cache_affinity\": {{ \"lambda_qps\": {affinity_lambda:.2}, \"arrivals\": {cache_arrivals}, \"margin\": {AFFINITY_MARGIN}, \"note\": \"cold clusters, shared Zipf arrival order: consistent-hash affinity concentrates each query's entries on one replica; round-robin pays up to N cold misses per query\", \"points\": ["
    );
    for (i, (n, route, hit_ratio, _)) in affinity_rows.iter().enumerate() {
        let comma = if i + 1 < affinity_rows.len() { "," } else { "" };
        println!(
            "    {{ \"replicas\": {n}, \"route\": \"{route}\", \"hit_ratio\": {hit_ratio:.4} }}{comma}"
        );
    }
    println!(
        "  ], \"hash_beats_round_robin\": {hash_beats_rr}, \"outputs_match_serial\": {affinity_outputs_match} }},"
    );
    println!(
        "  \"net_sweep\": {{ \"replicas\": {NET_REPLICAS}, \"queries_per_point\": {arrivals}, \"note\": \"closed-loop TCP clients over loopback against the framed front-end; every query crosses the wire (submit frame in, answer frame out) and each point scrapes GET /metrics on the same socket\", \"points\": ["
    );
    for (i, p) in net_points.iter().enumerate() {
        let comma = if i + 1 < net_points.len() { "," } else { "" };
        println!(
            "    {{ \"clients\": {}, \"qps\": {:.2}, {}, \"outputs_match_serial\": {}, \"frames_balanced\": {}, \"ledger_balanced\": {}, \"scrape_ok\": {} }}{comma}",
            p.clients,
            p.qps,
            stats_json(&p.stats),
            p.outputs_match,
            p.frames_balanced,
            p.ledger_balanced,
            p.scrape_ok
        );
    }
    println!(
        "  ], \"outputs_match_serial\": {net_outputs_match}, \"frames_balanced\": {net_frames_balanced}, \"ledger_balanced\": {net_ledger_balanced}, \"scrape_ok\": {net_scrape_ok} }},"
    );
    println!(
        "  \"saturation\": {{ \"total_queries\": {total}, \"staged_1worker_qps\": {:.2}, \"staged_qps\": {:.2}, \"speedup_vs_serial\": {:.2}, \"outputs_match_serial\": {} }}",
        staged_1w_qps,
        staged_qps,
        staged_qps / serial_qps,
        match_1w && match_nw
    );
    println!("}}");
}
