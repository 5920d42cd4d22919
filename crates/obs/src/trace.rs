//! Per-query span tracing.
//!
//! A serving runtime attributes every query's life to three kinds of time:
//! waiting in a stage's queue, being serviced by a stage, and the end-to-end
//! total (sojourn). [`Recorder`] is the sink for those attributions; the
//! default [`NoopRecorder`] reports itself disabled so instrumented code can
//! skip even the clock reads — observability that is *off* costs two branch
//! predictions, not two `Instant::now()` calls.

use std::sync::Mutex;
use std::time::Duration;

/// What a recorded duration represents in a query's life.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// Time spent queued in front of a stage.
    QueueWait,
    /// Time spent being processed by a stage.
    Service,
    /// End-to-end sojourn time (admission to completion); the `stage` label
    /// is conventionally `"total"`.
    Total,
}

impl SpanKind {
    /// Stable lowercase label (`queue_wait` / `service` / `total`).
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::QueueWait => "queue_wait",
            SpanKind::Service => "service",
            SpanKind::Total => "total",
        }
    }
}

/// A sink for per-query time attributions.
///
/// Implementations must be cheap and thread-safe: stage workers call
/// [`Recorder::record`] from the serving hot path. A recorder that is not
/// interested reports `enabled() == false` and instrumented code skips the
/// clock reads entirely.
pub trait Recorder: Send + Sync {
    /// Whether instrumented code should measure at all. Defaults to `true`;
    /// [`NoopRecorder`] overrides it to `false`.
    fn enabled(&self) -> bool {
        true
    }

    /// One attributed duration: `stage` is the stable stage name (`"asr"`,
    /// `"qa"`, ... or `"total"` for [`SpanKind::Total`]).
    fn record(&self, stage: &'static str, kind: SpanKind, elapsed: Duration);
}

/// The default recorder: disabled, records nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&self, _stage: &'static str, _kind: SpanKind, _elapsed: Duration) {}
}

/// A recorder that collects every event into a vector — for tests and
/// per-query debugging, not for production hot paths (it takes a lock per
/// event).
#[derive(Debug, Default)]
pub struct CollectingRecorder {
    events: Mutex<Vec<(&'static str, SpanKind, Duration)>>,
}

impl CollectingRecorder {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Everything recorded so far, in arrival order.
    pub fn events(&self) -> Vec<(&'static str, SpanKind, Duration)> {
        self.events.lock().expect("collector lock").clone()
    }

    /// Sum of recorded durations matching a `(stage, kind)` filter.
    pub fn total_for(&self, stage: &str, kind: SpanKind) -> Duration {
        self.events
            .lock()
            .expect("collector lock")
            .iter()
            .filter(|(s, k, _)| *s == stage && *k == kind)
            .map(|&(_, _, d)| d)
            .sum()
    }
}

impl Recorder for CollectingRecorder {
    fn record(&self, stage: &'static str, kind: SpanKind, elapsed: Duration) {
        self.events
            .lock()
            .expect("collector lock")
            .push((stage, kind, elapsed));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collecting_recorder_keeps_every_event() {
        let rec = CollectingRecorder::new();
        assert!(rec.enabled());
        rec.record("asr", SpanKind::Service, Duration::from_millis(1));
        rec.record("asr", SpanKind::QueueWait, Duration::from_micros(5));
        rec.record("asr", SpanKind::Service, Duration::from_millis(2));
        let events = rec.events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].0, "asr");
        assert_eq!(events[0].1, SpanKind::Service);
        assert_eq!(events[0].2, Duration::from_millis(1));
        assert_eq!(
            rec.total_for("asr", SpanKind::Service),
            Duration::from_millis(3)
        );
        assert_eq!(rec.total_for("qa", SpanKind::Service), Duration::ZERO);
    }

    #[test]
    fn noop_recorder_is_disabled() {
        let rec = NoopRecorder;
        assert!(!rec.enabled());
        rec.record("asr", SpanKind::Service, Duration::from_millis(1));
    }

    #[test]
    fn span_kind_labels_are_stable() {
        assert_eq!(SpanKind::QueueWait.label(), "queue_wait");
        assert_eq!(SpanKind::Service.label(), "service");
        assert_eq!(SpanKind::Total.label(), "total");
    }
}
