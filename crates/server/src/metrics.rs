//! The staged runtime's telemetry: one [`Registry`] per server holding
//! per-stage queue-wait/service histograms and panic counters, admission
//! counters, queue-depth gauges and the end-to-end sojourn histogram.
//!
//! Everything a worker records on the hot path is lock-free
//! (`sirius-obs` atomics); the registry lock is touched only at wiring and
//! snapshot time. [`SiriusServer::metrics_snapshot`] refreshes the
//! queue-depth gauges from the live queues and exports the lot.
//!
//! Naming scheme (`Snapshot` keys):
//!
//! | name | type | meaning |
//! |---|---|---|
//! | `{stage}.queue_wait_ns` | histogram | time queued in front of the stage |
//! | `{stage}.service_ns` | histogram | stage handler time |
//! | `{stage}.service_ewma_ns` | meter | rolling (EWMA) mean service time |
//! | `{stage}.panics` | counter | requests lost to a caught stage panic |
//! | `{stage}.expired` | counter | jobs dropped at dequeue (deadline passed) |
//! | `{stage}.queue_depth` | gauge | queued items at snapshot time |
//! | `{stage}.queue_capacity` | gauge | bounded queue capacity |
//! | `{stage}.in_flight` | gauge | jobs a worker is serving right now |
//! | `{stage}.batch_size` | histogram | blocks coalesced per collector flush |
//! | `{stage}.batch_flush_full` | counter | flushes at `max_batch` blocks |
//! | `{stage}.batch_flush_timeout` | counter | partial flushes forced by `max_delay` |
//! | `asr.partials_emitted` | counter | stable-prefix partial hypotheses emitted |
//! | `asr.commit_latency_ns` | histogram | chunk arrival → its words committed |
//! | `asr.spec_dispatched` | counter | speculative downstream jobs dispatched |
//! | `asr.spec_hit` | counter | speculations confirmed by the final hypothesis |
//! | `asr.spec_miss` | counter | speculations discarded at reconcile |
//! | `e2e.first_partial_ns` | histogram | admission → first committed partial |
//! | `admission.accepted` / `admission.shed` | counter | admission control outcomes |
//! | `admission.shed_deadline` | counter | sheds by the deadline-aware policy |
//! | `admission.rejected_shutdown` | counter | submits refused mid-shutdown |
//! | `completed` / `failed` | counter | ticket completions by result |
//! | `sojourn_ns` | histogram | admission → completion, successful queries |
//! | `sojourn_failed_ns` | histogram | admission → completion, failed queries |
//! | `cache.{qa,imm}.hit` / `.miss` | counter | result-cache lookups after ASR commit |
//! | `cache.{qa,imm}.insert` / `.eviction` / `.stale` | counter | result-cache fills, LRU evictions, generation rejections |
//! | `cache.{qa,imm}.entries` | gauge | live result-cache entries |
//! | `tenant.{class}.accepted` / `.shed_deadline` | counter | classed admission outcomes |
//! | `tenant.{class}.completed` / `.failed` | counter | classed completions by result |
//! | `tenant.{class}.cache_hit` | counter | classed queries answered from the result cache |
//! | `tenant.{class}.in_flight` | gauge | admitted, not yet completed classed queries |
//! | `tenant.{class}.sojourn_ns` | histogram | admission → completion per class |
//! | `net.connections_opened` / `.connections_closed` | counter | TCP front-end connection lifecycle |
//! | `net.active_connections` | gauge | connections being served right now |
//! | `net.frames_in` / `.frames_out` | counter | well-formed frames read / frames written |
//! | `net.bytes_in` / `.bytes_out` | counter | bytes crossing accepted connections |
//! | `net.errors_protocol` | counter | violations answered with a typed error frame |
//! | `net.read_timeouts` | counter | connections cut off by the read timeout |
//! | `net.http_scrapes` | counter | successful `GET /metrics` responses |
//! | `net.handler_panics` | counter | handler panics caught at the connection boundary |
//!
//! The `net.*` names ([`NetMetrics::register`](crate::NetMetrics::register))
//! are never replica-prefixed: one front-end serves the whole cluster, so
//! they sit beside the `replica{i}.*` series in the same registry.
//!
//! When several servers share one registry — the cluster front-end's
//! layout — every name above additionally carries the instance's prefix:
//! `replica0.asr.queue_depth`, `replica1.sojourn_ns`, and so on
//! ([`ServerMetrics::in_registry`]).
//!
//! [`SiriusServer::metrics_snapshot`]: crate::SiriusServer::metrics_snapshot

use std::sync::Arc;

use sirius_obs::{Counter, Gauge, Histogram, Meter, Registry};

/// The stage names the runtime instruments, in pipeline order.
pub const STAGES: [&str; 4] = ["asr", "classify", "imm", "qa"];

/// Per-stage observability handles shared by every worker in one pool.
#[derive(Debug, Clone)]
pub struct StageObs {
    /// The stage's stable name (one of [`STAGES`] in the runtime): labels
    /// the pool's threads, its recorder spans and its panic errors.
    pub name: &'static str,
    /// Time each job spent queued before a worker picked it up.
    pub queue_wait: Histogram,
    /// Time the stage handler spent on each job.
    pub service: Histogram,
    /// Rolling (EWMA) mean of the stage's service time — the admission
    /// estimator's per-stage service-rate input.
    pub service_meter: Meter,
    /// Jobs lost to a panic caught at the pool boundary.
    pub panics: Counter,
    /// Jobs dropped at dequeue because their deadline had already passed;
    /// they consume no stage service time.
    pub expired: Counter,
    /// Jobs a worker of this stage is serving right now (dequeued, handler
    /// running).
    pub in_flight: Gauge,
}

impl StageObs {
    /// Registers the stage's metrics under `{prefix}{name}.…` names.
    pub fn register(registry: &Registry, prefix: &str, name: &'static str) -> Arc<Self> {
        let stage = format!("{prefix}{name}");
        Arc::new(Self {
            name,
            queue_wait: registry.histogram(&format!("{stage}.queue_wait_ns")),
            service: registry.histogram(&format!("{stage}.service_ns")),
            service_meter: registry.meter(&format!("{stage}.service_ewma_ns")),
            panics: registry.counter(&format!("{stage}.panics")),
            expired: registry.counter(&format!("{stage}.expired")),
            in_flight: registry.gauge(&format!("{stage}.in_flight")),
        })
    }
}

/// Batch-collector telemetry for one stage (today only ASR batches).
///
/// `size.count == flush_full + flush_timeout` — every flush records its
/// size exactly once, so the histogram doubles as a flush census.
#[derive(Debug, Clone)]
pub struct BatchObs {
    /// Blocks coalesced into each GEMM flush.
    pub size: Histogram,
    /// Flushes triggered by reaching `max_batch` blocks.
    pub flush_full: Counter,
    /// Partial flushes forced by the oldest block waiting out `max_delay`
    /// (includes drain-at-teardown flushes).
    pub flush_timeout: Counter,
}

impl BatchObs {
    /// Registers the collector's metrics under `{stage}.batch_…` names.
    pub fn register(registry: &Registry, stage: &str) -> Arc<Self> {
        Arc::new(Self {
            size: registry.histogram(&format!("{stage}.batch_size")),
            flush_full: registry.counter(&format!("{stage}.batch_flush_full")),
            flush_timeout: registry.counter(&format!("{stage}.batch_flush_timeout")),
        })
    }
}

/// Streaming-ASR telemetry: partial-hypothesis emission and speculative
/// pipelining outcomes (flat when streaming is off).
#[derive(Debug, Clone)]
pub struct StreamObs {
    /// Stable-prefix partial hypotheses emitted (each commit that grew the
    /// prefix counts once).
    pub partials_emitted: Counter,
    /// Latency from a chunk's arrival at the worker to the commit it
    /// produced (the decode lag behind the audio edge).
    pub commit_latency: Histogram,
    /// Admission → the query's first non-empty committed prefix: the
    /// time-to-first-partial a barge-in UI would observe.
    pub first_partial: Histogram,
    /// Speculative downstream (Classify/IMM/QA) jobs dispatched on partials.
    pub spec_dispatched: Counter,
    /// Speculations whose text matched the final hypothesis (reused).
    pub spec_hit: Counter,
    /// Speculations discarded at reconcile (prefix was not the final text).
    pub spec_miss: Counter,
}

impl StreamObs {
    /// Registers the streaming metrics under `{prefix}asr.…` /
    /// `{prefix}e2e.…` names (empty prefix for a server that owns its
    /// registry).
    pub fn register(registry: &Registry, prefix: &str) -> Arc<Self> {
        Arc::new(Self {
            partials_emitted: registry.counter(&format!("{prefix}asr.partials_emitted")),
            commit_latency: registry.histogram(&format!("{prefix}asr.commit_latency_ns")),
            first_partial: registry.histogram(&format!("{prefix}e2e.first_partial_ns")),
            spec_dispatched: registry.counter(&format!("{prefix}asr.spec_dispatched")),
            spec_hit: registry.counter(&format!("{prefix}asr.spec_hit")),
            spec_miss: registry.counter(&format!("{prefix}asr.spec_miss")),
        })
    }
}

/// Every metric the staged runtime records, pre-registered in one
/// [`Registry`] (also reachable by name through snapshots).
///
/// A server normally owns its registry ([`ServerMetrics::new`]); a cluster
/// front-end instead registers each replica's metrics into one **shared**
/// registry under a distinct name prefix ([`ServerMetrics::in_registry`]
/// with e.g. `"replica0."`), so N replicas export side by side without
/// aliasing each other's counters.
#[derive(Debug)]
pub struct ServerMetrics {
    registry: Registry,
    /// Name prefix every metric was registered under (empty for a server
    /// that owns its registry).
    prefix: String,
    /// Queries admitted by `submit`.
    pub accepted: Counter,
    /// Queries shed at admission because the ASR queue was full
    /// (`Overloaded`).
    pub shed: Counter,
    /// Queries shed at admission because their expected sojourn exceeded the
    /// caller's deadline (`DeadlineUnmeetable`).
    pub shed_deadline: Counter,
    /// Submits refused because the runtime was already shutting down when
    /// the send raced the queue teardown.
    pub rejected_shutdown: Counter,
    /// Tickets completed with a response.
    pub completed: Counter,
    /// Tickets completed with an error.
    pub failed: Counter,
    /// Admission → completion time of successful queries.
    pub sojourn: Histogram,
    /// Admission → completion time of failed queries (expired, panicked,
    /// shut down mid-flight), so accepted work is always accounted:
    /// `accepted = sojourn.count + sojourn_failed.count + in flight`.
    pub sojourn_failed: Histogram,
    /// ASR pool telemetry.
    pub asr: Arc<StageObs>,
    /// Classifier pool telemetry.
    pub classify: Arc<StageObs>,
    /// Image-matching pool telemetry.
    pub imm: Arc<StageObs>,
    /// Question-answering pool telemetry.
    pub qa: Arc<StageObs>,
    /// ASR batch-collector telemetry (flat counters when batching is off).
    pub batch: Arc<BatchObs>,
    /// Streaming-ASR telemetry (flat when streaming is off).
    pub stream: Arc<StreamObs>,
}

impl ServerMetrics {
    /// A fresh registry with every runtime metric registered under its
    /// plain (unprefixed) name.
    pub fn new() -> Arc<Self> {
        Self::in_registry(Registry::new(), "")
    }

    /// Registers every runtime metric into a caller-supplied — possibly
    /// shared — registry, each name prepended with `prefix` verbatim
    /// (`"replica0."` yields `replica0.asr.queue_depth` and friends). Two
    /// servers wired into the same registry with distinct prefixes never
    /// alias a metric; an empty prefix reproduces [`ServerMetrics::new`]'s
    /// naming exactly.
    pub fn in_registry(registry: Registry, prefix: &str) -> Arc<Self> {
        let scoped = |name: &str| format!("{prefix}{name}");
        Arc::new(Self {
            accepted: registry.counter(&scoped("admission.accepted")),
            shed: registry.counter(&scoped("admission.shed")),
            shed_deadline: registry.counter(&scoped("admission.shed_deadline")),
            rejected_shutdown: registry.counter(&scoped("admission.rejected_shutdown")),
            completed: registry.counter(&scoped("completed")),
            failed: registry.counter(&scoped("failed")),
            sojourn: registry.histogram(&scoped("sojourn_ns")),
            sojourn_failed: registry.histogram(&scoped("sojourn_failed_ns")),
            asr: StageObs::register(&registry, prefix, "asr"),
            classify: StageObs::register(&registry, prefix, "classify"),
            imm: StageObs::register(&registry, prefix, "imm"),
            qa: StageObs::register(&registry, prefix, "qa"),
            batch: BatchObs::register(&registry, &scoped("asr")),
            stream: StreamObs::register(&registry, prefix),
            prefix: prefix.to_owned(),
            registry,
        })
    }

    /// The prefix every metric name was registered under (empty unless the
    /// metrics live in a shared registry).
    pub fn prefix(&self) -> &str {
        &self.prefix
    }

    /// `name` with this instance's registration prefix applied — how the
    /// metric appears in snapshots of the backing registry.
    pub fn scoped(&self, name: &str) -> String {
        format!("{}{name}", self.prefix)
    }

    /// The backing registry (snapshot it via
    /// [`SiriusServer::metrics_snapshot`] to get fresh queue gauges).
    ///
    /// [`SiriusServer::metrics_snapshot`]: crate::SiriusServer::metrics_snapshot
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The per-stage telemetry for a stage name from [`STAGES`].
    pub fn stage(&self, name: &str) -> Option<&Arc<StageObs>> {
        match name {
            "asr" => Some(&self.asr),
            "classify" => Some(&self.classify),
            "imm" => Some(&self.imm),
            "qa" => Some(&self.qa),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_are_registered_and_shared() {
        let m = ServerMetrics::new();
        m.asr.queue_wait.record(100);
        m.asr.service_meter.record(5_000);
        m.shed.inc();
        let snap = m.registry().snapshot();
        assert_eq!(snap.histogram("asr.queue_wait_ns").unwrap().count, 1);
        assert_eq!(snap.counter("admission.shed"), Some(1));
        assert_eq!(snap.counter("admission.shed_deadline"), Some(0));
        assert_eq!(snap.counter("admission.rejected_shutdown"), Some(0));
        assert_eq!(snap.histogram("sojourn_failed_ns").unwrap().count, 0);
        assert!((snap.meter("asr.service_ewma_ns").unwrap().mean - 5_000.0).abs() < 1e-9);
        for stage in STAGES {
            assert!(m.stage(stage).is_some(), "{stage}");
            assert!(snap.histogram(&format!("{stage}.service_ns")).is_some());
            assert!(snap.counter(&format!("{stage}.panics")).is_some());
            assert!(snap.counter(&format!("{stage}.expired")).is_some());
            assert!(snap.gauge(&format!("{stage}.in_flight")).is_some());
            assert!(snap.meter(&format!("{stage}.service_ewma_ns")).is_some());
        }
        assert!(m.stage("nope").is_none());
        m.batch.size.record(3);
        m.batch.flush_full.inc();
        let snap = m.registry().snapshot();
        assert_eq!(snap.histogram("asr.batch_size").unwrap().count, 1);
        assert_eq!(snap.counter("asr.batch_flush_full"), Some(1));
        assert_eq!(snap.counter("asr.batch_flush_timeout"), Some(0));
    }

    #[test]
    fn prefixed_instances_in_one_registry_do_not_alias() {
        let registry = Registry::new();
        let a = ServerMetrics::in_registry(registry.clone(), "replica0.");
        let b = ServerMetrics::in_registry(registry.clone(), "replica1.");
        assert_eq!(a.prefix(), "replica0.");
        assert_eq!(a.scoped("sojourn_ns"), "replica0.sojourn_ns");
        a.completed.inc();
        a.asr.queue_wait.record(100);
        a.stream.partials_emitted.inc();
        b.shed.inc();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("replica0.completed"), Some(1));
        assert_eq!(snap.counter("replica1.completed"), Some(0));
        assert_eq!(snap.counter("replica0.admission.shed"), Some(0));
        assert_eq!(snap.counter("replica1.admission.shed"), Some(1));
        assert_eq!(
            snap.histogram("replica0.asr.queue_wait_ns").unwrap().count,
            1
        );
        assert_eq!(
            snap.histogram("replica1.asr.queue_wait_ns").unwrap().count,
            0
        );
        assert_eq!(snap.counter("replica0.asr.partials_emitted"), Some(1));
        assert_eq!(snap.counter("replica1.asr.partials_emitted"), Some(0));
        // The unprefixed names must not exist in a prefixed layout.
        assert_eq!(snap.counter("completed"), None);
        assert!(snap.histogram("asr.queue_wait_ns").is_none());
    }

    #[test]
    fn streaming_metrics_are_registered_and_exported() {
        let m = ServerMetrics::new();
        m.stream.partials_emitted.inc();
        m.stream.commit_latency.record(1_000);
        m.stream.first_partial.record(2_000);
        m.stream.spec_dispatched.inc();
        m.stream.spec_hit.inc();
        let snap = m.registry().snapshot();
        assert_eq!(snap.counter("asr.partials_emitted"), Some(1));
        assert_eq!(snap.histogram("asr.commit_latency_ns").unwrap().count, 1);
        assert_eq!(snap.histogram("e2e.first_partial_ns").unwrap().count, 1);
        assert_eq!(snap.counter("asr.spec_dispatched"), Some(1));
        assert_eq!(snap.counter("asr.spec_hit"), Some(1));
        assert_eq!(snap.counter("asr.spec_miss"), Some(0));
        let prom = snap.to_prometheus();
        for name in [
            "asr_partials_emitted",
            "asr_commit_latency_ns",
            "e2e_first_partial_ns",
            "asr_spec_dispatched",
        ] {
            assert!(prom.contains(name), "{name} missing from Prometheus export");
        }
    }
}
