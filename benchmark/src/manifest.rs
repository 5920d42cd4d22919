//! `BENCHMARK.json`: the one place that names the workloads, the metrics,
//! their units and their regression bounds. The benchmark reads it rather
//! than repeating it, and refuses to report a metric it does not declare.

use crate::json::{self, Value};

#[derive(Debug, Clone, PartialEq)]
pub struct MetricDecl {
    pub name: String,
    pub unit: String,
    /// The share of the parent's median by which an end-to-end metric may
    /// worsen; per-layer metrics have none.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDecl>,
    pub per_layer: Vec<MetricDecl>,
}

impl Manifest {
    pub fn parse(text: &str) -> Result<Self, String> {
        let doc = json::parse(text)?;
        let field = |key: &str| doc.get(key).ok_or(format!("BENCHMARK.json lacks `{key}`"));
        let text_of = |item: &Value, key: &str| {
            item.get(key)
                .and_then(Value::as_str)
                .map(str::to_owned)
                .ok_or(format!("an entry lacks `{key}`"))
        };
        let metrics = |key: &str| -> Result<Vec<MetricDecl>, String> {
            field(key)?
                .as_arr()
                .iter()
                .map(|m| {
                    Ok(MetricDecl {
                        name: text_of(m, "name")?,
                        unit: text_of(m, "unit")?,
                        bound: m.get("bound").and_then(Value::as_f64),
                    })
                })
                .collect()
        };
        Ok(Self {
            run_seconds: field("run_seconds")?
                .as_f64()
                .ok_or("`run_seconds` is not a number")? as u64,
            workloads: field("workloads")?
                .as_arr()
                .iter()
                .map(|w| text_of(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    /// Reads `BENCHMARK.json` from the working directory: the benchmark is
    /// run from the root of a checkout.
    pub fn load() -> Result<Self, String> {
        let text = std::fs::read_to_string("BENCHMARK.json")
            .map_err(|e| format!("cannot read BENCHMARK.json in the working directory: {e}"))?;
        Self::parse(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    fn committed() -> Manifest {
        Manifest::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
    }

    fn well_formed(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn committed_manifest_names_the_workloads_the_code_runs() {
        let manifest = committed();
        let coded: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(manifest.workloads, coded);
        assert!((1..=60).contains(&manifest.run_seconds));
    }

    #[test]
    fn committed_manifest_keeps_the_contract_limits() {
        let manifest = committed();
        assert!((1..=16).contains(&manifest.end_to_end.len()));
        assert!((1..=128).contains(&manifest.per_layer.len()));
        let mut names: Vec<&String> = manifest
            .workloads
            .iter()
            .chain(manifest.end_to_end.iter().map(|m| &m.name))
            .chain(manifest.per_layer.iter().map(|m| &m.name))
            .collect();
        assert!(names.iter().all(|n| well_formed(n)), "{names:?}");
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for m in &manifest.end_to_end {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}: {bound}", m.name);
        }
        assert!(manifest.per_layer.iter().all(|m| m.bound.is_none()));
        let setup = manifest
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is declared");
        assert_eq!(setup.unit, "s");
        let largest = manifest
            .end_to_end
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest), "setup_s has the largest bound");
    }
}
