//! Generic worker pool: the one loop in the crate that dequeues a [`Job`].
//!
//! [`spawn_stage_pool`] turns a stage step into a pool of named OS threads
//! draining one bounded queue. Every queue carries the same [`Job`]: the
//! per-query value `C` plus its enqueue timestamp and completion deadline.
//! The `step` callback advances the query in place and says what comes
//! next; the `route` callback then receives the job with that result and
//! acts on it (forward to another stage's queue, or complete the query's
//! ticket). Steps run under `catch_unwind`, so a panicking step is
//! converted into [`SiriusError::StagePanicked`] and the worker survives
//! to serve the next job.
//!
//! A worker checks the job's deadline at dequeue, *before* invoking the
//! step: a job whose deadline has already passed is dropped — counted in
//! the stage's `expired` counter and handed to the `on_expired` callback
//! (which completes the query's ticket with the typed deadline error) — so
//! stage service time is never spent on work the client has abandoned.
//!
//! Every worker attributes each job's time to the stage's [`StageObs`]
//! histograms: queue wait (enqueue → dequeue) and service (the `step` call
//! alone, never the `route` hand-off after it). Those records are
//! lock-free atomics. When the optional [`Recorder`] is enabled, the same
//! two spans are also reported per query.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use sirius::error::SiriusError;
use sirius_obs::{Recorder, SpanKind};

use crate::metrics::StageObs;
use crate::queue::Receiver;

/// One queued unit of work: the per-query value, when it entered the
/// queue (so the worker can attribute queue wait), and the query's
/// optional completion deadline.
#[derive(Debug)]
pub(crate) struct Job<C> {
    /// The query the stage steps advance.
    pub(crate) ctx: C,
    /// When the job was enqueued.
    pub(crate) enqueued: Instant,
    /// Absolute completion deadline. A worker dequeuing the job at or after
    /// this instant drops it without invoking the stage step.
    pub(crate) deadline: Option<Instant>,
}

impl<C> Job<C> {
    /// A job stamped with the current instant, carrying the query's
    /// completion deadline across every hand-off.
    pub(crate) fn new(ctx: C, deadline: Option<Instant>) -> Self {
        Self {
            ctx,
            enqueued: Instant::now(),
            deadline,
        }
    }
}

/// Spawns `workers` threads (clamped to at least 1), named after
/// `obs.name`, that drain `rx`, advance each job through `step` and hand it
/// with the step's result to `route`, recording queue-wait and service
/// time into `obs` (and into `recorder` when it is enabled). Jobs whose
/// deadline already passed at dequeue are handed to `on_expired` unserved.
/// The threads exit when the queue is closed (every sender dropped) and
/// drained, dropping their clones of the three callbacks with them.
pub(crate) fn spawn_stage_pool<C, N, S, R, E>(
    workers: usize,
    rx: Receiver<Job<C>>,
    obs: Arc<StageObs>,
    recorder: Arc<dyn Recorder>,
    step: S,
    route: R,
    on_expired: E,
) -> Vec<JoinHandle<()>>
where
    C: Send + 'static,
    S: Fn(&mut C) -> Result<N, SiriusError> + Send + Sync + Clone + 'static,
    R: Fn(Job<C>, Result<N, SiriusError>) + Send + Sync + Clone + 'static,
    E: Fn(Job<C>) + Send + Sync + Clone + 'static,
{
    let stage = obs.name;
    (0..workers.max(1))
        .map(|i| {
            let rx = rx.clone();
            let obs = Arc::clone(&obs);
            let recorder = Arc::clone(&recorder);
            let step = step.clone();
            let route = route.clone();
            let on_expired = on_expired.clone();
            std::thread::Builder::new()
                .name(format!("sirius-{stage}-{i}"))
                .spawn(move || {
                    while let Some(mut job) = rx.recv() {
                        let wait = job.enqueued.elapsed();
                        obs.queue_wait.record_duration(wait);
                        if recorder.enabled() {
                            recorder.record(stage, SpanKind::QueueWait, wait);
                        }
                        if job.deadline.is_some_and(|d| Instant::now() >= d) {
                            obs.expired.inc();
                            on_expired(job);
                            continue;
                        }
                        obs.in_flight.inc();
                        let begun = Instant::now();
                        let result = catch_unwind(AssertUnwindSafe(|| step(&mut job.ctx)));
                        let service = begun.elapsed();
                        obs.in_flight.dec();
                        obs.service.record_duration(service);
                        obs.service_meter.record_duration(service);
                        if recorder.enabled() {
                            recorder.record(stage, SpanKind::Service, service);
                        }
                        let result = result.unwrap_or_else(|_| {
                            obs.panics.inc();
                            Err(SiriusError::StagePanicked { stage })
                        });
                        route(job, result);
                    }
                })
                .expect("spawn stage worker")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    use crate::queue::bounded;
    use sirius_obs::{CollectingRecorder, Registry};

    /// A step that doubles, errors on odd input, and panics on 13. A job is
    /// its id and its input; the step must see the id unchanged.
    fn double(&mut (id, req): &mut (usize, u64)) -> Result<u64, SiriusError> {
        assert!(id < 5, "the handler sees the job's own context");
        assert!(req != 13, "unlucky request");
        if req % 2 == 1 {
            return Err(SiriusError::ShuttingDown);
        }
        Ok(req * 2)
    }

    #[test]
    fn pool_processes_routes_observes_and_survives_panics() {
        let registry = Registry::new();
        let obs = StageObs::register(&registry, "", "doubler");
        let recorder = Arc::new(CollectingRecorder::new());
        let (tx, rx) = bounded(16);
        let (out_tx, out_rx) = mpsc::channel();
        let workers = spawn_stage_pool(
            3,
            rx,
            Arc::clone(&obs),
            Arc::<CollectingRecorder>::clone(&recorder),
            double,
            move |job: Job<(usize, u64)>, result| {
                out_tx.send((job.ctx.0, result)).unwrap();
            },
            |_job| panic!("no job carries a deadline"),
        );
        let inputs: Vec<u64> = vec![2, 4, 13, 7, 100];
        for (id, req) in inputs.iter().enumerate() {
            tx.send(Job::new((id, *req), None)).unwrap();
        }
        drop(tx);
        for w in workers {
            w.join().unwrap();
        }
        let mut results: Vec<_> = out_rx.iter().collect();
        results.sort_by_key(|(id, _)| *id);
        assert_eq!(results[0].1, Ok(4));
        assert_eq!(results[1].1, Ok(8));
        assert_eq!(
            results[2].1,
            Err(SiriusError::StagePanicked { stage: "doubler" })
        );
        assert_eq!(results[3].1, Err(SiriusError::ShuttingDown));
        assert_eq!(results[4].1, Ok(200));

        // Every job — including the panicked one — is attributed.
        let snap = registry.snapshot();
        assert_eq!(snap.histogram("doubler.queue_wait_ns").unwrap().count, 5);
        assert_eq!(snap.histogram("doubler.service_ns").unwrap().count, 5);
        assert_eq!(snap.counter("doubler.panics"), Some(1));
        let events = recorder.events();
        assert_eq!(
            events
                .iter()
                .filter(|(s, k, _)| *s == "doubler" && *k == SpanKind::QueueWait)
                .count(),
            5
        );
        assert_eq!(
            events
                .iter()
                .filter(|(s, k, _)| *s == "doubler" && *k == SpanKind::Service)
                .count(),
            5
        );
        assert_eq!(snap.counter("doubler.expired"), Some(0));
        assert_eq!(snap.gauge("doubler.in_flight"), Some(0), "all drained");
    }

    #[test]
    fn expired_jobs_skip_the_handler_entirely() {
        let registry = Registry::new();
        let obs = StageObs::register(&registry, "", "doubler");
        let (tx, rx) = bounded(16);
        let (out_tx, out_rx) = mpsc::channel();
        let expired_tx = out_tx.clone();
        let workers = spawn_stage_pool(
            1,
            rx,
            Arc::clone(&obs),
            Arc::new(sirius_obs::NoopRecorder),
            double,
            move |job: Job<(usize, u64)>, result| out_tx.send((job.ctx.0, Some(result))).unwrap(),
            move |job: Job<(usize, u64)>| expired_tx.send((job.ctx.0, None)).unwrap(),
        );
        let past = Instant::now();
        // A deadline in the past, one in the far future, one absent.
        tx.send(Job::new((0usize, 2u64), Some(past))).unwrap();
        tx.send(Job::new(
            (1usize, 4u64),
            Instant::now().checked_add(std::time::Duration::from_secs(3600)),
        ))
        .unwrap();
        tx.send(Job::new((2usize, 6u64), None)).unwrap();
        drop(tx);
        for w in workers {
            w.join().unwrap();
        }
        let mut results: Vec<_> = out_rx.iter().collect();
        results.sort_by_key(|(id, _)| *id);
        assert_eq!(results[0], (0, None), "expired job routed to on_expired");
        assert_eq!(results[1], (1, Some(Ok(8))));
        assert_eq!(results[2], (2, Some(Ok(12))));
        let snap = registry.snapshot();
        assert_eq!(snap.counter("doubler.expired"), Some(1));
        // The expired job waited in the queue but consumed no service time.
        assert_eq!(snap.histogram("doubler.queue_wait_ns").unwrap().count, 3);
        assert_eq!(snap.histogram("doubler.service_ns").unwrap().count, 2);
        assert_eq!(snap.meter("doubler.service_ewma_ns").unwrap().count, 2);
    }
}
