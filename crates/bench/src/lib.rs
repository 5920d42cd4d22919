//! # sirius-bench
//!
//! The benchmark harness of the Sirius reproduction: regenerates every table
//! and figure of the paper's evaluation (see DESIGN.md's per-experiment
//! index). The `figures` binary prints the reproductions; the `bench_kernels`
//! binary is the one place a kernel is timed (`BENCH_kernels.json`).

#![warn(missing_docs)]

pub mod format;
pub mod measured;
pub mod modeled;

pub use format::Table;
pub use measured::MeasuredContext;

/// The experiments the `figures` binary can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Experiment {
    /// Table 1 (query taxonomy).
    Table1,
    /// Table 2 (voice-query input set).
    Table2,
    /// Table 3 (platform specs).
    Table3,
    /// Table 4 + measured Table 5 CMP column (Sirius Suite).
    Table4,
    /// Table 5 / Figure 13 (kernel speedups, modeled vs paper).
    Table5,
    /// Table 6 (power/cost).
    Table6,
    /// Table 7 (TCO parameters).
    Table7,
    /// Table 8 (homogeneous DC designs).
    Table8,
    /// Table 9 (heterogeneous DC designs).
    Table9,
    /// Figure 7a (scalability gap, measured).
    Fig7a,
    /// Figure 7b (latency across query types, measured).
    Fig7b,
    /// Figure 8a (service latency variability, measured).
    Fig8a,
    /// Figure 8b (QA breakdown per query, measured).
    Fig8b,
    /// Figure 8c (latency vs filter hits, measured).
    Fig8c,
    /// Figure 9 (cycle breakdown per service, measured).
    Fig9,
    /// Figure 10 (IPC/bottleneck model).
    Fig10,
    /// Figure 14 (service latency across platforms).
    Fig14,
    /// Figure 15 (performance per watt).
    Fig15,
    /// Figure 16 (throughput improvement).
    Fig16,
    /// Figure 17 (throughput at load levels).
    Fig17,
    /// Figure 18 (normalized TCO).
    Fig18,
    /// Figure 19 (latency/TCO trade-off).
    Fig19,
    /// Figure 20 (query-level DC results).
    Fig20,
    /// Figure 21 (bridging the gap).
    Fig21,
    /// Extension: roofline analysis (not a paper figure).
    Roofline,
    /// Extension: Figure 20 with measured baseline service times.
    Fig20Measured,
}

impl Experiment {
    /// All experiments, in paper order (the trailing entries are extensions
    /// beyond the paper's figures).
    pub const ALL: [Experiment; 26] = [
        Experiment::Table1,
        Experiment::Table2,
        Experiment::Fig7a,
        Experiment::Fig7b,
        Experiment::Fig8a,
        Experiment::Fig8b,
        Experiment::Fig8c,
        Experiment::Fig9,
        Experiment::Fig10,
        Experiment::Table3,
        Experiment::Table4,
        Experiment::Table5,
        Experiment::Table6,
        Experiment::Fig14,
        Experiment::Fig15,
        Experiment::Fig16,
        Experiment::Fig17,
        Experiment::Table7,
        Experiment::Fig18,
        Experiment::Fig19,
        Experiment::Table8,
        Experiment::Table9,
        Experiment::Fig20,
        Experiment::Fig21,
        Experiment::Roofline,
        Experiment::Fig20Measured,
    ];

    /// Parses an experiment id like "fig14" or "table5".
    pub fn parse(s: &str) -> Option<Experiment> {
        let key = s.to_lowercase();
        Experiment::ALL.iter().copied().find(|e| e.id() == key)
    }

    /// Canonical id string.
    pub fn id(self) -> &'static str {
        match self {
            Experiment::Table1 => "table1",
            Experiment::Table2 => "table2",
            Experiment::Table3 => "table3",
            Experiment::Table4 => "table4",
            Experiment::Table5 => "table5",
            Experiment::Table6 => "table6",
            Experiment::Table7 => "table7",
            Experiment::Table8 => "table8",
            Experiment::Table9 => "table9",
            Experiment::Fig7a => "fig7a",
            Experiment::Fig7b => "fig7b",
            Experiment::Fig8a => "fig8a",
            Experiment::Fig8b => "fig8b",
            Experiment::Fig8c => "fig8c",
            Experiment::Fig9 => "fig9",
            Experiment::Fig10 => "fig10",
            Experiment::Fig14 => "fig14",
            Experiment::Fig15 => "fig15",
            Experiment::Fig16 => "fig16",
            Experiment::Fig17 => "fig17",
            Experiment::Fig18 => "fig18",
            Experiment::Fig19 => "fig19",
            Experiment::Fig20 => "fig20",
            Experiment::Fig21 => "fig21",
            Experiment::Roofline => "roofline",
            Experiment::Fig20Measured => "fig20m",
        }
    }

    /// Whether the experiment needs the measured pipeline context.
    pub fn needs_measurement(self) -> bool {
        matches!(
            self,
            Experiment::Table1
                | Experiment::Fig7a
                | Experiment::Fig7b
                | Experiment::Fig8a
                | Experiment::Fig8b
                | Experiment::Fig8c
                | Experiment::Fig9
                | Experiment::Fig21
                | Experiment::Fig20Measured
        )
    }

    /// Runs the experiment, using `ctx` when measurement is needed and
    /// `suite_scale`/`threads` for the kernel table.
    pub fn run(self, ctx: Option<&MeasuredContext>, suite_scale: f64, threads: usize) -> Table {
        match self {
            Experiment::Table1 => measured::table1(ctx.expect("needs context")),
            Experiment::Table2 => table2(),
            Experiment::Table3 => modeled::table3(),
            Experiment::Table4 => measured::suite_cmp(suite_scale, threads).0,
            Experiment::Table5 => modeled::table5(),
            Experiment::Table6 => modeled::table6(),
            Experiment::Table7 => modeled::table7(),
            Experiment::Table8 => modeled::table8(),
            Experiment::Table9 => modeled::table9(),
            Experiment::Fig7a => measured::fig7a(ctx.expect("needs context")),
            Experiment::Fig7b => measured::fig7b(ctx.expect("needs context")),
            Experiment::Fig8a => measured::fig8a(ctx.expect("needs context")),
            Experiment::Fig8b => measured::fig8b(ctx.expect("needs context")),
            Experiment::Fig8c => measured::fig8c(ctx.expect("needs context")),
            Experiment::Fig9 => measured::fig9(ctx.expect("needs context")),
            Experiment::Fig10 => modeled::fig10(),
            Experiment::Fig14 => modeled::fig14(),
            Experiment::Fig15 => modeled::fig15(),
            Experiment::Fig16 => modeled::fig16(),
            Experiment::Fig17 => modeled::fig17(),
            Experiment::Fig18 => modeled::fig18(),
            Experiment::Fig19 => modeled::fig19(),
            Experiment::Fig20 => modeled::fig20(),
            Experiment::Fig21 => modeled::fig21(ctx.map(MeasuredContext::measured_gap)),
            Experiment::Roofline => modeled::roofline(),
            Experiment::Fig20Measured => measured::fig20_measured(ctx.expect("needs context")),
        }
    }
}

/// Table 2-style listing of the voice-query input set.
pub fn table2() -> Table {
    let mut t = Table::new("Table 2: Voice Query input set");
    t.header(["Q#", "Query", "expected answer"]);
    for (i, (text, answer)) in sirius::taxonomy::VOICE_QUERIES.iter().enumerate() {
        t.row([
            format!("q{}", i + 1),
            format!("\"{text}?\""),
            (*answer).to_owned(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_ids_round_trip() {
        for e in Experiment::ALL {
            assert_eq!(Experiment::parse(e.id()), Some(e), "{}", e.id());
        }
        assert_eq!(Experiment::parse("FIG14"), Some(Experiment::Fig14));
        assert_eq!(Experiment::parse("nonsense"), None);
    }

    #[test]
    fn modeled_experiments_run_without_context() {
        for e in Experiment::ALL {
            if !e.needs_measurement() && e != Experiment::Table4 {
                let t = e.run(None, 0.02, 2);
                assert!(!t.render().is_empty(), "{}", e.id());
            }
        }
    }

    #[test]
    fn table2_lists_16_queries() {
        let s = table2().render();
        assert!(s.contains("q16"));
        assert!(s.contains("capital of Italy"));
    }
}
