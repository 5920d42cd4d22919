//! Per-layer metrics of the traced served run: the counts, waits, batch
//! sizes and cache and speculation ratios the program's registry holds, the
//! exact per-stage waits and service times a benchmark-owned recorder
//! collected through `start_with_recorder`, and the client's own spans.

use std::time::{Duration, Instant};

use sirius_obs::{CollectingRecorder, SpanKind};
use sirius_server::{SiriusCluster, STAGES};

use crate::drive::Phase;
use crate::stats::{mean, percentile, sorted};
use crate::workload::{Stand, Workload};
use crate::Metrics;

/// Submits timed one at a time after the served run, for the cost of the
/// routing and admission calls themselves.
const PROBE_CALLS: usize = 64;

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Reads the registry once and folds it with the recorder's events and the
/// client-side observations of `phase`.
pub fn served_metrics(
    workload: &Workload,
    cluster: &SiriusCluster,
    recorder: &CollectingRecorder,
    phase: &Phase,
) -> Metrics {
    let snapshot = cluster.metrics_snapshot();
    let counter = |name: &str| cluster.merged_counter(&snapshot, name);
    let net = |name: &str| snapshot.counter(name).unwrap_or(0) as f64;
    let events = recorder.events();
    let durations_us = |stage: &str, kind: SpanKind| -> Vec<f64> {
        sorted(
            events
                .iter()
                .filter(|(s, k, _)| *s == stage && *k == kind)
                .map(|(_, _, d)| d.as_secs_f64() * 1e6)
                .collect(),
        )
    };

    let mut metrics = Metrics::new();
    let mut put = |name: &str, value: f64| {
        metrics.insert(name.to_owned(), value);
    };
    put(
        "runtime.admission_accepted",
        counter("admission.accepted") as f64,
    );
    put("runtime.admission_shed", counter("admission.shed") as f64);
    put(
        "runtime.admission_shed_deadline",
        counter("admission.shed_deadline") as f64,
    );
    put("runtime.completed", counter("completed") as f64);
    put("runtime.failed", counter("failed") as f64);
    let sojourn_us = durations_us("total", SpanKind::Total);
    put(
        "runtime.sojourn_p50_ms",
        percentile(&sojourn_us, 50.0) / 1e3,
    );
    put(
        "runtime.sojourn_p95_ms",
        percentile(&sojourn_us, 95.0) / 1e3,
    );

    for (stage, workers) in STAGES.iter().zip(workload.stage_workers()) {
        let waits = durations_us(stage, SpanKind::QueueWait);
        let service = durations_us(stage, SpanKind::Service);
        let capacity_us = phase.window.as_secs_f64() * 1e6 * workers as f64;
        put(
            &format!("runtime.{stage}.queue_wait_p50_us"),
            percentile(&waits, 50.0),
        );
        put(
            &format!("runtime.{stage}.queue_wait_p95_us"),
            percentile(&waits, 95.0),
        );
        put(&format!("runtime.{stage}.service_mean_us"), mean(&service));
        put(
            &format!("runtime.{stage}.busy_share"),
            service.iter().sum::<f64>() / capacity_us,
        );
        put(
            &format!("runtime.{stage}.expired"),
            counter(&format!("{stage}.expired")) as f64,
        );
    }

    put(
        "batch.size_mean",
        cluster.merged_histogram(&snapshot, "asr.batch_size").mean(),
    );
    put("batch.flush_full", counter("asr.batch_flush_full") as f64);
    put(
        "batch.flush_timeout",
        counter("asr.batch_flush_timeout") as f64,
    );

    put(
        "stream.partials_per_query",
        ratio(counter("asr.partials_emitted"), counter("completed")),
    );
    put(
        "stream.commit_latency_p50_ms",
        cluster
            .merged_histogram(&snapshot, "asr.commit_latency_ns")
            .percentile_ms(50.0),
    );
    put(
        "stream.spec_dispatched",
        counter("asr.spec_dispatched") as f64,
    );
    put(
        "stream.spec_hit_ratio",
        ratio(
            counter("asr.spec_hit"),
            counter("asr.spec_hit") + counter("asr.spec_miss"),
        ),
    );

    for (metric, cache) in [
        ("cache.qa.hit_ratio", "cache.qa"),
        ("cache.imm.hit_ratio", "cache.imm"),
    ] {
        let hits = counter(&format!("{cache}.hit"));
        put(
            metric,
            ratio(hits, hits + counter(&format!("{cache}.miss"))),
        );
    }
    put(
        "cache.inserts",
        (counter("cache.qa.insert") + counter("cache.imm.insert")) as f64,
    );
    put(
        "cache.evictions",
        (counter("cache.qa.eviction") + counter("cache.imm.eviction")) as f64,
    );

    put("net.frames_in", net("net.frames_in"));
    put("net.frames_out", net("net.frames_out"));
    put("net.bytes_in", net("net.bytes_in"));
    put("net.bytes_out", net("net.bytes_out"));
    let client_span_us = |name: &str| {
        phase.trace.as_ref().map_or(0.0, |trace| {
            let (count, total_ns) = trace.span_totals(name);
            total_ns as f64 / 1e3 / count.max(1) as f64
        })
    };
    put("net.client_write_us", client_span_us("net.client_write"));
    put(
        "net.client_read_wait_us",
        client_span_us("net.client_read_wait"),
    );

    let latencies = phase.latencies_ms();
    put("client.latency_mean_ms", mean(&latencies));
    put("client.latency_p99_ms", percentile(&latencies, 99.0));
    put("client.samples", latencies.len() as f64);
    put(
        "client.failed_share",
        ratio(phase.tally.failed(), phase.tally.sent),
    );
    let lateness = sorted(phase.lateness_us.clone());
    put("gen.late_p95_us", percentile(&lateness, 95.0));
    put("gen.late_max_us", lateness.last().copied().unwrap_or(0.0));
    // The open loop makes the admission call itself, under load; for the
    // closed loops the server makes it, and `probe_calls` stands in.
    if let Some((calls @ 1.., total_ns)) = phase
        .trace
        .as_ref()
        .map(|t| t.span_totals("runtime.submit_call"))
    {
        put(
            "runtime.submit_call_us",
            total_ns as f64 / 1e3 / calls as f64,
        );
    }
    metrics
}

/// Times the routing decision and the admission call on an idle server:
/// each probe is routed, submitted with the workload's deadline, and waited
/// for before the next.
pub fn probe_calls(stand: &Stand, workload: &Workload, cluster: &SiriusCluster) -> Metrics {
    let mut route_us = Vec::new();
    let mut submit_us = Vec::new();
    for input in stand.inputs.iter().cycle().take(PROBE_CALLS) {
        let input = input.clone();
        let at = Instant::now();
        std::hint::black_box(cluster.route(&input));
        route_us.push(at.elapsed().as_secs_f64() * 1e6);
        let at = Instant::now();
        let ticket = cluster.submit_with_deadline(input, workload.limit);
        submit_us.push(at.elapsed().as_secs_f64() * 1e6);
        if let Ok(ticket) = ticket {
            let _ = ticket.wait_timeout(Duration::from_secs(5));
        }
    }
    Metrics::from([
        ("cluster.route_us".to_owned(), mean(&route_us)),
        ("runtime.submit_call_us".to_owned(), mean(&submit_us)),
    ])
}
