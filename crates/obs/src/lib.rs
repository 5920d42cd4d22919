//! # sirius-obs
//!
//! The observability substrate of the Sirius serving stack: a dependency-free
//! metrics registry, log-bucketed latency histograms, and a per-query span
//! tracing API.
//!
//! The paper's entire warehouse-scale argument rests on *measurement* —
//! VTune cycle attribution (Fig. 9/10), per-service latency distributions
//! (Fig. 8a) and the per-stage service times that feed its M/M/1 datacenter
//! models (Fig. 16/17). This crate is the layer that produces those numbers
//! from a *running* system instead of ad-hoc timers: the staged runtime
//! (`sirius-server`) records per-stage queue-wait and service-time
//! histograms, queue-depth gauges and shed counters into a [`Registry`];
//! the pipeline profiler (`sirius::profile`) accumulates its per-component
//! cycle accounting over the same primitives; and the repo benchmark
//! reads [`Snapshot`]s of the same registry for its per-stage queue-wait,
//! service and busy-share metrics.
//!
//! Design rules:
//!
//! * **Lock-free hot path.** `Counter::add`, `Gauge::set` and
//!   `Histogram::record` are relaxed atomics — no `Mutex`, no `Condvar`, no
//!   allocation. The registry lock is taken only at registration and
//!   snapshot time.
//! * **Bounded error, declared.** Histograms bucket log-linearly (8
//!   sub-buckets per octave); exported percentiles are within one bucket
//!   width (≤ 12.5% relative) of the exact nearest-rank sample, and the
//!   rank arithmetic is shared with the exact-sample path
//!   ([`stats::nearest_rank`]) so the two can only differ by bucketing.
//! * **Near-zero cost when off.** The default [`NoopRecorder`] reports
//!   itself disabled and instrumented code skips even the clock reads;
//!   `scripts/bench_obs.sh` gates the end-to-end overhead below 1%.

#![warn(missing_docs)]

pub mod metrics;
pub mod registry;
pub mod stats;
pub mod trace;

pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, Meter, MeterSnapshot};
pub use registry::{Registry, Snapshot};
pub use trace::{CollectingRecorder, NoopRecorder, Recorder, SpanKind};
