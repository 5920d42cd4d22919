//! Figure/table reproductions that require running the real pipeline and
//! kernels on this machine.

use std::time::{Duration, Instant};

use sirius::pipeline::{Sirius, SiriusConfig};
use sirius::profile::Profiler;
use sirius::taxonomy::{QueryKind, VOICE_QUERIES};
use sirius::{prepare_input_set, PreparedQuery};
use sirius_dcsim::gap;
use sirius_suite::{measure, standard_suite, Measurement};

use crate::format::{duration, Table};

/// A built pipeline plus its prepared input set and profiling results.
pub struct MeasuredContext {
    /// The trained end-to-end pipeline.
    pub sirius: Sirius,
    /// Synthesized audio/images for the 42-query input set.
    pub prepared: Vec<PreparedQuery>,
    /// Profiler filled by running every query once.
    pub profiler: Profiler,
    /// End-to-end latency per query, aligned with `prepared`.
    pub latencies: Vec<Duration>,
    /// Mean web-search query latency on the same corpus.
    pub websearch_mean: Duration,
}

impl MeasuredContext {
    /// Builds the pipeline, runs all 42 queries, and measures web search.
    pub fn build() -> Self {
        let sirius = Sirius::build(SiriusConfig::default());
        let prepared = prepare_input_set(&sirius, 0xbead);
        let mut profiler = Profiler::new();
        let mut latencies = Vec::with_capacity(prepared.len());
        for p in &prepared {
            let input = p.input();
            let t = Instant::now();
            let response = sirius.process(&input);
            latencies.push(t.elapsed());
            profiler.record(p.spec.kind, &response);
        }
        // Web-search baseline: the raw BM25 engine on the same corpus.
        let engine = sirius.qa().search_engine();
        let queries: Vec<String> = VOICE_QUERIES
            .iter()
            .map(|(text, _)| text.to_lowercase())
            .collect();
        let t = Instant::now();
        let mut reps = 0u32;
        for _ in 0..50 {
            for q in &queries {
                let _ = engine.search(q, 10);
                reps += 1;
            }
        }
        let websearch_mean = t.elapsed() / reps.max(1);
        Self {
            sirius,
            prepared,
            profiler,
            latencies,
            websearch_mean,
        }
    }

    /// Mean end-to-end latency over the whole input set.
    pub fn sirius_mean(&self) -> Duration {
        self.latencies.iter().sum::<Duration>() / self.latencies.len().max(1) as u32
    }

    /// Measured scalability gap (Sirius mean / web-search mean).
    pub fn measured_gap(&self) -> f64 {
        gap::scalability_gap(
            self.sirius_mean().as_secs_f64(),
            self.websearch_mean.as_secs_f64(),
        )
    }
}

/// Table 1: the query taxonomy with measured input-set counts.
pub fn table1(ctx: &MeasuredContext) -> Table {
    let mut t = Table::new("Table 1: Query Taxonomy");
    t.header(["Query Type", "Example", "Service", "# Queries"]);
    let count = |k: QueryKind| {
        ctx.prepared
            .iter()
            .filter(|p| p.spec.kind == k)
            .count()
            .to_string()
    };
    t.row([
        "Voice Command (VC)".to_owned(),
        "\"Set my alarm for 8am.\"".to_owned(),
        "ASR".to_owned(),
        count(QueryKind::VoiceCommand),
    ]);
    t.row([
        "Voice Query (VQ)".to_owned(),
        "\"Who was elected 44th president?\"".to_owned(),
        "ASR & QA".to_owned(),
        count(QueryKind::VoiceQuery),
    ]);
    t.row([
        "Voice-Image Query (VIQ)".to_owned(),
        "\"When does this restaurant close?\"".to_owned(),
        "ASR, QA & IMM".to_owned(),
        count(QueryKind::VoiceImageQuery),
    ]);
    t
}

/// Figure 7a: the measured scalability gap.
pub fn fig7a(ctx: &MeasuredContext) -> Table {
    let mut t = Table::new("Fig 7a: Scalability gap (measured on this machine)");
    t.header(["Workload", "mean query latency"]);
    t.row([
        "Web Search (BM25 engine)".to_owned(),
        duration(ctx.websearch_mean),
    ]);
    t.row([
        "Sirius (42-query input set)".to_owned(),
        duration(ctx.sirius_mean()),
    ]);
    t.row([
        "scalability gap".to_owned(),
        format!("{:.0}x", ctx.measured_gap()),
    ]);
    t.note("paper: 91 ms vs ~15 s -> 165x; absolute times differ, the orders-of-magnitude gap is the claim");
    t
}

/// Figure 7b: latency across query types.
pub fn fig7b(ctx: &MeasuredContext) -> Table {
    let mut t = Table::new("Fig 7b: Latency across query types");
    t.header(["Type", "count", "mean", "min", "max", "p95", "p99"]);
    t.row([
        "WS".to_owned(),
        "16".to_owned(),
        duration(ctx.websearch_mean),
        "-".to_owned(),
        "-".to_owned(),
        "-".to_owned(),
        "-".to_owned(),
    ]);
    for (kind, stats) in ctx.profiler.latency_stats() {
        t.row([
            kind.to_owned(),
            stats.count.to_string(),
            duration(stats.mean),
            duration(stats.min),
            duration(stats.max),
            duration(stats.p95),
            duration(stats.p99),
        ]);
    }
    t.note("paper shape: VC < VQ < VIQ, all orders of magnitude above WS");
    t
}

/// Figure 8a: latency variability per service.
pub fn fig8a(ctx: &MeasuredContext) -> Table {
    let mut t = Table::new("Fig 8a: Latency variability across services");
    t.header([
        "Service", "count", "mean", "p50", "p95", "min", "max", "max/min",
    ]);
    for (service, stats) in ctx.profiler.service_latency_spread() {
        if stats.count == 0 {
            continue;
        }
        let spread = stats.max.as_secs_f64() / stats.min.as_secs_f64().max(1e-12);
        t.row([
            service.to_owned(),
            stats.count.to_string(),
            duration(stats.mean),
            duration(stats.p50),
            duration(stats.p95),
            duration(stats.min),
            duration(stats.max),
            format!("{spread:.1}x"),
        ]);
    }
    t.note("paper: QA has the highest variability (1.7 s to 35 s), ASR/IMM are stable");
    t
}

/// Figure 8b: QA component breakdown per voice query.
pub fn fig8b(ctx: &MeasuredContext) -> Table {
    let mut t = Table::new("Fig 8b: OpenEphyra breakdown per voice query");
    t.header([
        "Query",
        "stemmer",
        "regex",
        "CRF",
        "search",
        "filter/extract",
        "total",
    ]);
    for (i, p) in ctx
        .prepared
        .iter()
        .enumerate()
        .filter(|(_, p)| p.spec.kind == QueryKind::VoiceQuery)
    {
        // Re-run QA alone so the per-query breakdown is exact.
        let r = ctx.sirius.qa().answer(p.spec.text);
        let b = &r.breakdown;
        let tot = b.total.as_secs_f64().max(1e-12);
        let pct = |d: Duration| format!("{:.0}%", d.as_secs_f64() / tot * 100.0);
        t.row([
            format!("q{}", i - 15), // VQ entries follow the 16 VC entries.
            pct(b.stemmer),
            pct(b.regex),
            pct(b.crf),
            pct(b.search),
            pct(b.filtering),
            duration(b.total),
        ]);
    }
    t.note("paper: stemmer/regex/CRF shares vary per query with the documents filtered");
    t
}

/// Figure 8c: QA latency vs document-filter hits.
pub fn fig8c(ctx: &MeasuredContext) -> Table {
    let mut t = Table::new("Fig 8c: QA latency vs document-filter hits");
    t.header(["query#", "filter hits", "QA latency"]);
    for (i, s) in ctx.profiler.filter_hit_samples().iter().enumerate() {
        t.row([
            format!("{}", i + 1),
            s.hits.to_string(),
            duration(s.latency),
        ]);
    }
    t.note(format!(
        "Pearson correlation(hits, latency) = {:.2} (paper: strongly correlated)",
        ctx.profiler.filter_hit_correlation()
    ));
    t.note(
        "known divergence: the filters count their hits in a corpus analysed once at build, \
         so the latency that tracks them is candidate extraction over the sentences that \
         cover the question, not the paper's per-query document scanning",
    );
    t
}

/// Figure 9: cycle breakdown per service (measured).
pub fn fig9(ctx: &MeasuredContext) -> Table {
    let mut t = Table::new("Fig 9: Cycle breakdown per service (measured wall-clock shares)");
    t.header(["Service", "component", "share"]);
    for (service, breakdown) in [
        ("ASR", ctx.profiler.asr_breakdown()),
        ("QA", ctx.profiler.qa_breakdown()),
        ("IMM", ctx.profiler.imm_breakdown()),
    ] {
        for (component, share) in breakdown {
            t.row([
                service.to_owned(),
                component.to_owned(),
                format!("{:.0}%", share * 100.0),
            ]);
        }
    }
    t.note("paper: scoring dominates ASR; stemmer+regex+CRF ~85% of QA; FE/FD dominate IMM");
    t.note(
        "known divergence: QA's document-side stemmer, regex and CRF work runs once at build, \
         so per query those three are the question's own analysis",
    );
    t
}

/// Extension: Figure 20 recomputed with this machine's measured service
/// times as the baseline weights (instead of the paper's 4.2 s / 10 s / 5 s).
pub fn fig20_measured(ctx: &MeasuredContext) -> Table {
    use sirius_accel::platform::PlatformKind;
    use sirius_dcsim::design::{query_latency_reduction, BaselineSeconds, QueryClass};

    let spread = ctx.profiler.service_latency_spread();
    let secs = |name: &str| -> f64 {
        spread
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, s)| s.mean.as_secs_f64())
            .unwrap_or(1.0)
    };
    let baselines = BaselineSeconds {
        asr: secs("ASR"),
        qa: secs("QA"),
        imm: secs("IMM"),
    };
    let mut t = Table::new("Extension: Fig 20 with measured baseline service times");
    t.header(["Query", "GPU latency red.", "FPGA latency red."]);
    for class in QueryClass::ALL {
        t.row([
            class.to_string(),
            format!(
                "{:.1}x",
                query_latency_reduction(class, PlatformKind::Gpu, &baselines)
            ),
            format!(
                "{:.1}x",
                query_latency_reduction(class, PlatformKind::Fpga, &baselines)
            ),
        ]);
    }
    t.note(format!(
        "measured baselines: ASR {:.1} ms, QA {:.1} ms, IMM {:.1} ms (paper used 4.2 s / ~10 s / ~5 s)",
        baselines.asr * 1e3,
        baselines.qa * 1e3,
        baselines.imm * 1e3
    ));
    t.note("our QA/IMM are much lighter relative to ASR than the paper's, so VQ/VIQ reductions skew toward the ASR speedup");
    t
}

/// Table 4 + the measured CMP column of Table 5: Sirius Suite kernels.
pub fn suite_cmp(scale: f64, threads: usize) -> (Table, Vec<Measurement>) {
    let suite = standard_suite(scale, 1);
    let mut t = Table::new(format!(
        "Table 4 + Table 5 CMP column: Sirius Suite at scale {scale}, {threads} threads (measured)"
    ));
    t.header([
        "Kernel",
        "Service",
        "items",
        "baseline",
        "parallel",
        "speedup",
        "paper CMP",
        "checksum",
    ]);
    let mut measurements = Vec::new();
    for kernel in &suite {
        let m = measure(kernel.as_ref(), threads, 2);
        let published = sirius_accel::paper::table5(m.name, 0).expect("kernel in table");
        t.row([
            m.name.to_owned(),
            m.service.to_string(),
            m.items.to_string(),
            duration(m.baseline_time),
            duration(m.parallel_time),
            format!("{:.1}x", m.speedup()),
            format!("{published:.1}x"),
            if m.checksum_match {
                "ok".to_owned()
            } else {
                "MISMATCH".to_owned()
            },
        ]);
        measurements.push(m);
    }
    (t, measurements)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_cmp_runs_at_tiny_scale() {
        let (table, ms) = suite_cmp(0.02, 2);
        assert_eq!(ms.len(), 7);
        assert!(ms.iter().all(|m| m.checksum_match));
        assert!(table.render().contains("GMM"));
    }
}
