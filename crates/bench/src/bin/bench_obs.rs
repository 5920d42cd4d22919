//! Overhead gate for the observability subsystem (`BENCH_obs.json`).
//!
//! The `sirius-obs` design contract is "near-zero cost when off": metrics
//! are always-on lock-free atomics, span tracing defaults to a disabled
//! `NoopRecorder` that skips even the clock reads. This harness measures
//! that contract three ways:
//!
//! 1. **Micro** — ns/op for every hot-path primitive (counter inc,
//!    histogram record, gauge set, clock read).
//! 2. **Per-query** — ns for the *entire* per-query observability block the
//!    staged runtime executes with tracing disabled (all four stages' wait
//!    and service records, admission/completion counters, the sojourn
//!    record, and every `enabled()` check), measured as one unit.
//! 3. **End-to-end** — the per-query block as a fraction of the measured
//!    mean serial query latency (the gate: < 1%). The block costs about
//!    0.03% of a query; timing loops with and without it cannot resolve
//!    that (three such pairs read −9% to +21% on one tree), so the fraction
//!    is derived, not differenced.
//!
//! Usage: `bench_obs`. JSON on stdout; progress on stderr.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use sirius::pipeline::{Sirius, SiriusConfig, SiriusInput};
use sirius::prepare_input_set;
use sirius_obs::{Counter, Gauge, Histogram, NoopRecorder, Recorder, Registry, SpanKind};
use sirius_server::ServerMetrics;

fn ns_per_op<F: FnMut()>(iters: u64, mut op: F) -> f64 {
    let t = Instant::now();
    for _ in 0..iters {
        op();
    }
    t.elapsed().as_nanos() as f64 / iters as f64
}

/// The exact per-query observability work the staged runtime performs when
/// span tracing is disabled: queue-wait + service records for all four
/// stages, the recorder gates, admission/completion counters and the
/// end-to-end sojourn record. A question crossing every stage — the worst
/// case.
fn per_query_obs_block(m: &ServerMetrics, rec: &dyn Recorder, admitted: Instant) {
    m.accepted.inc();
    for stage in [&m.asr, &m.classify, &m.imm, &m.qa] {
        let wait = admitted.elapsed();
        stage.queue_wait.record_duration(wait);
        if rec.enabled() {
            rec.record("stage", SpanKind::QueueWait, wait);
        }
        let begun = Instant::now();
        let service = begun.elapsed();
        stage.service.record_duration(service);
        if rec.enabled() {
            rec.record("stage", SpanKind::Service, service);
        }
    }
    m.completed.inc();
    let sojourn = admitted.elapsed();
    m.sojourn.record_duration(sojourn);
    if rec.enabled() {
        rec.record("total", SpanKind::Total, sojourn);
    }
}

/// Serial passes over the input set whose median is the mean query latency.
const SERIAL_PASSES: usize = 3;

/// Mean ns/query of one serial pass over the input set.
fn serial_pass(sirius: &Sirius, inputs: &[SiriusInput]) -> f64 {
    let t = Instant::now();
    for input in inputs {
        black_box(sirius.process(input));
    }
    t.elapsed().as_nanos() as f64 / inputs.len() as f64
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    xs[xs.len() / 2]
}

fn main() {
    if let Some(arg) = std::env::args().nth(1) {
        eprintln!("unknown argument: {arg}");
        eprintln!("usage: bench_obs");
        std::process::exit(2);
    }

    eprintln!("micro benchmarks (hot-path primitives)...");
    const ITERS: u64 = 1_000_000;
    let counter = Counter::default();
    let counter_inc = ns_per_op(ITERS, || counter.inc());
    let gauge = Gauge::default();
    let gauge_set = ns_per_op(ITERS, || gauge.set(black_box(42)));
    let histogram = Histogram::default();
    let mut v = 1u64;
    let histogram_record = ns_per_op(ITERS, || {
        histogram.record(black_box(v));
        v = v.wrapping_mul(6364136223846793005).wrapping_add(1) >> 32;
    });
    let clock_read = ns_per_op(ITERS, || {
        black_box(Instant::now());
    });
    let registry = Registry::new();
    let snapshot_cost = {
        let h = registry.histogram("x.lat_ns");
        for i in 0..1000u64 {
            h.record(i * 1000);
        }
        ns_per_op(1000, || {
            black_box(registry.snapshot());
        })
    };

    eprintln!("per-query observability block (tracing disabled)...");
    let metrics = ServerMetrics::new();
    let noop: Arc<dyn Recorder> = Arc::new(NoopRecorder);
    let per_query_obs_ns = ns_per_op(200_000, || {
        per_query_obs_block(&metrics, noop.as_ref(), Instant::now());
    });

    eprintln!("building Sirius (trains all models)...");
    let sirius = Arc::new(Sirius::build(SiriusConfig::default()));
    let prepared = prepare_input_set(&sirius, 4242);
    let inputs: Vec<SiriusInput> = prepared.iter().map(|p| p.input()).collect();
    // Warm pass, not measured.
    serial_pass(&sirius, &inputs);

    eprintln!(
        "serial passes ({SERIAL_PASSES} over {} queries)...",
        inputs.len()
    );
    let plain_ns = median(
        (0..SERIAL_PASSES)
            .map(|_| serial_pass(&sirius, &inputs))
            .collect(),
    );

    let overhead_pct = per_query_obs_ns / plain_ns * 100.0;
    let pass = overhead_pct < 1.0;

    println!("{{");
    println!("  \"bench\": \"obs\",");
    println!(
        "  \"micro_ns\": {{ \"counter_inc\": {counter_inc:.1}, \"gauge_set\": {gauge_set:.1}, \"histogram_record\": {histogram_record:.1}, \"clock_read\": {clock_read:.1}, \"registry_snapshot\": {snapshot_cost:.0} }},"
    );
    println!("  \"per_query_obs_ns\": {per_query_obs_ns:.1},");
    println!("  \"serial_mean_query_ns\": {plain_ns:.0},");
    println!("  \"overhead_pct\": {overhead_pct:.4},");
    println!("  \"gate\": \"overhead_pct < 1.0\",");
    println!("  \"pass\": {pass}");
    println!("}}");

    if !pass {
        eprintln!("FAIL: disabled-observability overhead {overhead_pct:.3}% >= 1%");
        std::process::exit(1);
    }
    eprintln!("ok: disabled-observability overhead {overhead_pct:.4}% (< 1%)");
}
