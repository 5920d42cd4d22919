//! Typed pipeline errors.
//!
//! The staged runtime (`sirius-server`) runs every pipeline stage on pooled
//! worker threads; a malformed request or an overload condition must surface
//! as a value the caller can match on, never as a panic that takes a worker
//! down. [`SiriusError`] is that value: admission control rejections,
//! shutdown races and internal invariant violations are all typed here, and
//! the fallible pipeline entry point ([`Sirius::try_process_with`]) returns
//! it.
//!
//! [`Sirius::try_process_with`]: crate::pipeline::Sirius::try_process_with

/// Why a query could not be served.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SiriusError {
    /// Admission control shed the request: the named stage's bounded queue
    /// was full. The client should back off and retry (the serving-system
    /// alternative is unbounded queueing, which turns overload into
    /// unbounded latency for every queued request).
    Overloaded {
        /// The stage whose queue rejected the request.
        stage: &'static str,
    },
    /// The runtime is shutting down and no longer accepts (or can complete)
    /// requests.
    ShuttingDown,
    /// Image matching returned an image id outside the venue table — an
    /// internal invariant violation (the database and venue table are built
    /// together), reported as a value so a serving worker survives it.
    VenueOutOfRange {
        /// The offending image id.
        image_id: u32,
        /// The venue-table size it must be below.
        venues: usize,
    },
    /// A stage worker panicked while processing this request. The worker
    /// itself survives (the panic is caught at the pool boundary); only the
    /// one request is lost.
    StagePanicked {
        /// The stage whose handler panicked.
        stage: &'static str,
    },
    /// A bounded wait for the response elapsed before the query completed.
    /// The query is still in flight: the caller keeps the ticket and may
    /// wait again.
    Timeout {
        /// How long the caller waited before giving up.
        waited: std::time::Duration,
    },
    /// The request's audio was malformed for streaming ingestion (empty
    /// chunk, NaN/infinite sample, or a zero-length utterance flush).
    /// Carries the typed [`sirius_speech::StreamingError`] rendered as
    /// text so this enum stays `Eq` and wire-friendly.
    InvalidAudio {
        /// Human-readable cause (the streaming error's display form).
        reason: String,
    },
    /// Deadline-aware admission control shed the request: the expected
    /// end-to-end sojourn (live queue backlog × recent mean service, summed
    /// over the stages) already exceeds the caller's deadline, so admitting
    /// the query would only spend service time on an answer that arrives
    /// too late. Also completes a query that was admitted but expired in a
    /// queue before any worker picked it up; such jobs are dropped at
    /// dequeue and consume no stage service time.
    DeadlineUnmeetable {
        /// The expected (or, for an expired job, already elapsed) sojourn.
        expected: std::time::Duration,
        /// The deadline the caller asked for (a tenant class's SLO when the
        /// query entered through classed admission).
        deadline: std::time::Duration,
        /// Retry hint: how long until the backlog ahead of the query drains
        /// enough that admission succeeds, assuming the pipeline keeps
        /// draining at its current service rate and no new queries are
        /// admitted in between. For a plain deadline submit this is
        /// `expected − deadline`; for classed admission it is `expected −
        /// budget(class)` — the backlog must drain to the class's
        /// *weighted* admission budget (`slo × weight / max_weight`), so a
        /// low-weight class's hint is strictly longer than the raw-SLO hint
        /// and its retries don't undershoot while premium traffic still
        /// holds the larger share of the backlog.
        retry_after: std::time::Duration,
    },
    /// A classed submit named a tenant class the server was not configured
    /// with. Carries the offending name so multi-tenant clients can log
    /// exactly which tier was mis-addressed.
    UnknownTenantClass {
        /// The class name the submit asked for.
        class: String,
    },
}

impl std::fmt::Display for SiriusError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SiriusError::Overloaded { stage } => {
                write!(f, "overloaded: the {stage} stage queue is full")
            }
            SiriusError::ShuttingDown => f.write_str("the runtime is shutting down"),
            SiriusError::VenueOutOfRange { image_id, venues } => write!(
                f,
                "image id {image_id} outside the venue table ({venues} venues)"
            ),
            SiriusError::StagePanicked { stage } => {
                write!(f, "the {stage} stage panicked while serving this request")
            }
            SiriusError::Timeout { waited } => {
                write!(f, "no response after waiting {waited:?}")
            }
            SiriusError::InvalidAudio { reason } => {
                write!(f, "invalid audio: {reason}")
            }
            SiriusError::DeadlineUnmeetable {
                expected,
                deadline,
                retry_after,
            } => write!(
                f,
                "deadline unmeetable: expected sojourn {expected:?} exceeds deadline \
                 {deadline:?}; retry after {retry_after:?}"
            ),
            SiriusError::UnknownTenantClass { class } => {
                write!(f, "unknown tenant class {class:?}")
            }
        }
    }
}

impl std::error::Error for SiriusError {}

/// Why a cluster front-end could not serve (or be built for) a query.
///
/// The routing layer (`sirius-server`'s `SiriusCluster`) sits in front of N
/// replica runtimes; its failures are either configuration errors (no
/// replicas, impossible shard counts) or a replica-level [`SiriusError`]
/// annotated with *which* replica produced it, so a load harness can tell a
/// router bug from an overloaded backend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// The cluster was configured with zero replicas.
    NoReplicas,
    /// The requested shard count cannot partition the data planes.
    InvalidShardCount {
        /// The shard count asked for.
        requested: u32,
    },
    /// A replica failed to serve the routed query.
    Replica {
        /// Index of the replica the query was routed to.
        replica: usize,
        /// The replica's own error.
        source: SiriusError,
    },
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::NoReplicas => f.write_str("cluster has no replicas"),
            ClusterError::InvalidShardCount { requested } => {
                write!(f, "invalid shard count {requested}")
            }
            ClusterError::Replica { replica, source } => {
                write!(f, "replica {replica}: {source}")
            }
        }
    }
}

impl std::error::Error for ClusterError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClusterError::Replica { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<sirius_speech::StreamingError> for SiriusError {
    fn from(e: sirius_speech::StreamingError) -> Self {
        SiriusError::InvalidAudio {
            reason: e.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_their_stage() {
        let e = SiriusError::Overloaded { stage: "asr" };
        assert!(e.to_string().contains("asr"));
        let e = SiriusError::StagePanicked { stage: "qa" };
        assert!(e.to_string().contains("qa"));
        assert!(SiriusError::ShuttingDown.to_string().contains("shutting"));
        let e = SiriusError::VenueOutOfRange {
            image_id: 9,
            venues: 3,
        };
        assert!(e.to_string().contains('9'));
        let e = SiriusError::Timeout {
            waited: std::time::Duration::from_millis(250),
        };
        assert!(e.to_string().contains("250"));
        let e = SiriusError::DeadlineUnmeetable {
            expected: std::time::Duration::from_millis(90),
            deadline: std::time::Duration::from_millis(40),
            retry_after: std::time::Duration::from_millis(50),
        };
        let text = e.to_string();
        assert!(
            text.contains("90") && text.contains("40") && text.contains("50"),
            "{text}"
        );
    }

    #[test]
    fn cluster_errors_display_and_chain() {
        assert!(ClusterError::NoReplicas.to_string().contains("no replicas"));
        assert!(ClusterError::InvalidShardCount { requested: 0 }
            .to_string()
            .contains('0'));
        let e = ClusterError::Replica {
            replica: 2,
            source: SiriusError::Overloaded { stage: "asr" },
        };
        let text = e.to_string();
        assert!(text.contains("replica 2") && text.contains("asr"), "{text}");
        use std::error::Error;
        assert!(e.source().is_some());
        assert!(ClusterError::NoReplicas.source().is_none());
    }

    #[test]
    fn streaming_errors_convert_to_invalid_audio() {
        let e: SiriusError = sirius_speech::StreamingError::NonFiniteSample { index: 11 }.into();
        match &e {
            SiriusError::InvalidAudio { reason } => assert!(reason.contains("index 11")),
            other => panic!("expected InvalidAudio, got {other:?}"),
        }
        assert!(e.to_string().contains("invalid audio"));
        let e: SiriusError = sirius_speech::StreamingError::EmptyChunk.into();
        assert!(matches!(e, SiriusError::InvalidAudio { .. }));
    }
}
