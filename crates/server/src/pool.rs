//! Generic worker pool: the one loop in the crate that dequeues a [`Job`].
//!
//! [`spawn_stage_pool`] turns a stage handler into a pool of named OS
//! threads draining one bounded queue. Each queued [`Job`] carries an opaque
//! per-query context `C` alongside the stage request plus its enqueue
//! timestamp. The `handle` callback sees the context by reference (the
//! streaming ASR stage reads the query's admission instant and image from
//! it) and produces the stage result; the `route` callback then receives
//! the context by value with that result and decides what happens next
//! (forward to the next stage's queue, or complete the query's ticket).
//! Handlers run under `catch_unwind`, so a panicking request is converted
//! into [`SiriusError::StagePanicked`] and the worker survives to serve the
//! next job.
//!
//! A job may additionally carry a **deadline**. A worker checks it at
//! dequeue, *before* invoking the handler: a job whose deadline has already
//! passed is dropped — counted in the stage's `expired` counter and handed
//! to the `on_expired` callback (which completes the query's ticket with
//! the typed deadline error) — so stage service time is never spent on work
//! the client has abandoned.
//!
//! Every worker attributes each job's time to the stage's [`StageObs`]
//! histograms: queue wait (enqueue → dequeue) and service (the `handle`
//! call). Those records are lock-free atomics. When the optional
//! [`Recorder`] is enabled, the same two spans are also reported per query.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use sirius::error::SiriusError;
use sirius_obs::{Recorder, SpanKind};
use sirius_par::queue::Receiver;

use crate::metrics::StageObs;

/// One queued unit of work: the per-query context, the stage request, when
/// it entered the queue (so the worker can attribute queue wait), and the
/// query's optional completion deadline.
#[derive(Debug)]
pub struct Job<C, Req> {
    /// Per-query context threaded through the stage graph.
    pub ctx: C,
    /// The typed request for the stage draining this queue.
    pub req: Req,
    /// When the job was enqueued.
    pub enqueued: Instant,
    /// Absolute completion deadline. A worker dequeuing the job at or after
    /// this instant drops it without invoking the stage handler.
    pub deadline: Option<Instant>,
}

impl<C, Req> Job<C, Req> {
    /// A deadline-free job stamped with the current instant.
    pub fn now(ctx: C, req: Req) -> Self {
        Self::with_deadline(ctx, req, None)
    }

    /// A job stamped with the current instant, carrying the query's
    /// completion deadline across the stage hand-off.
    pub fn with_deadline(ctx: C, req: Req, deadline: Option<Instant>) -> Self {
        Self {
            ctx,
            req,
            enqueued: Instant::now(),
            deadline,
        }
    }
}

/// Spawns `workers` threads (clamped to at least 1), named after
/// `obs.name`, that drain `rx` through `handle` and hand each result to
/// `route`, recording queue-wait and service time into `obs` (and into
/// `recorder` when it is enabled). Jobs whose deadline already passed at
/// dequeue are dropped unserved and handed to `on_expired` instead. The
/// threads exit when the queue is closed (every sender dropped) and
/// drained, dropping their clones of the three callbacks with them.
pub fn spawn_stage_pool<C, Req, Resp, H, R, E>(
    workers: usize,
    rx: Receiver<Job<C, Req>>,
    obs: Arc<StageObs>,
    recorder: Arc<dyn Recorder>,
    handle: H,
    route: R,
    on_expired: E,
) -> Vec<JoinHandle<()>>
where
    C: Send + 'static,
    Req: Send + 'static,
    H: Fn(&C, Req) -> Result<Resp, SiriusError> + Send + Sync + Clone + 'static,
    R: Fn(C, Result<Resp, SiriusError>) + Send + Sync + Clone + 'static,
    E: Fn(C) + Send + Sync + Clone + 'static,
{
    let stage = obs.name;
    (0..workers.max(1))
        .map(|i| {
            let rx = rx.clone();
            let obs = Arc::clone(&obs);
            let recorder = Arc::clone(&recorder);
            let handle = handle.clone();
            let route = route.clone();
            let on_expired = on_expired.clone();
            std::thread::Builder::new()
                .name(format!("sirius-{stage}-{i}"))
                .spawn(move || {
                    while let Some(Job {
                        ctx,
                        req,
                        enqueued,
                        deadline,
                    }) = rx.recv()
                    {
                        let wait = enqueued.elapsed();
                        obs.queue_wait.record_duration(wait);
                        if recorder.enabled() {
                            recorder.record(stage, SpanKind::QueueWait, wait);
                        }
                        if deadline.is_some_and(|d| Instant::now() >= d) {
                            obs.expired.inc();
                            on_expired(ctx);
                            continue;
                        }
                        obs.in_flight.inc();
                        let begun = Instant::now();
                        let result = catch_unwind(AssertUnwindSafe(|| handle(&ctx, req)));
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
                        route(ctx, result);
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

    use sirius_obs::{CollectingRecorder, Registry};
    use sirius_par::queue::bounded;

    /// A handler that doubles, errors on odd input, and panics on 13. The
    /// context is the job's id, which the handler must see unchanged.
    fn double(id: &usize, req: u64) -> Result<u64, SiriusError> {
        assert!(*id < 5, "the handler sees the job's own context");
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
            move |id: usize, result| {
                out_tx.send((id, result)).unwrap();
            },
            |_id: usize| panic!("no job carries a deadline"),
        );
        let inputs: Vec<u64> = vec![2, 4, 13, 7, 100];
        for (id, req) in inputs.iter().enumerate() {
            tx.send(Job::now(id, *req)).unwrap();
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
            move |id: usize, result| out_tx.send((id, Some(result))).unwrap(),
            move |id: usize| expired_tx.send((id, None)).unwrap(),
        );
        let past = Instant::now();
        // A deadline in the past, one in the far future, one absent.
        tx.send(Job::with_deadline(0usize, 2u64, Some(past)))
            .unwrap();
        tx.send(Job::with_deadline(
            1usize,
            4u64,
            Instant::now().checked_add(std::time::Duration::from_secs(3600)),
        ))
        .unwrap();
        tx.send(Job::now(2usize, 6u64)).unwrap();
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
