//! The whole suite: every workload untraced, then traced, one process per
//! run (so `peak_rss_mb` belongs to one workload); the checks the issue
//! lists; the repeatability comparison of `--sets 2`; and the stamped
//! `results.json`, written only when every check passed.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Stdio};

use crate::json::{self, Value};
use crate::manifest::Manifest;
use crate::workload::{by_name, cores, Pattern};
use crate::Metrics;

/// The traced run of the suite: 8 s untraced reference, 8 s traced.
const TRACED_SECONDS: u64 = 16;
/// `failed_share` may differ between two sets by this much, absolutely.
const FAILED_SHARE_BOUND: f64 = 0.005;
/// Share of an open loop's requests that may fail.
const OPEN_FAILED_SHARE_MAX: f64 = 0.01;
/// Every workload sustains 40 requests a second, so a 25 s run holds the
/// 1000 measured requests the checks ask for; shorter runs are held to
/// that rate instead.
const MIN_REQUESTS: u64 = 1000;
const MIN_REQUEST_RATE: u64 = 40;
/// An open loop is open only if its generator keeps its schedule.
const GEN_LATE_P95_MAX_US: f64 = 1000.0;
const WALK_RESIDUAL_MAX_PCT: f64 = 5.0;

/// What one run printed on its last line.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

impl RunResult {
    pub fn parse(line: &str) -> Result<Self, String> {
        let doc = json::parse(line)?;
        let number = |key: &str| {
            doc.get(key)
                .and_then(Value::as_f64)
                .ok_or(format!("result line lacks `{key}`"))
        };
        let Some(Value::Obj(metrics)) = doc.get("metrics") else {
            return Err("result line lacks `metrics`".into());
        };
        Ok(Self {
            correct: doc.get("correct").and_then(Value::as_bool) == Some(true),
            attempted: number("attempted")? as u64,
            failed: number("failed")? as u64,
            metrics: metrics
                .iter()
                .map(|(name, m)| {
                    let value = m.get("value").and_then(Value::as_f64);
                    Ok((name.clone(), value.ok_or(format!("`{name}` has no value"))?))
                })
                .collect::<Result<_, String>>()?,
        })
    }

    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    fn to_json(&self) -> Value {
        Value::obj([
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("failed_share", Value::Num(self.failed_share())),
            (
                "metrics",
                Value::obj(
                    self.metrics
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::Num(*v))),
                ),
            ),
        ])
    }
}

/// The untraced and the traced run of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Pair {
    pub end_to_end: RunResult,
    pub per_layer: RunResult,
}

/// Workload name → its two runs.
pub type Set = BTreeMap<String, Pair>;

/// Runs this executable once for one workload and returns its result. The
/// run's own report lines are passed through.
fn run_child(
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    out_dir: &Path,
) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(out_dir)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {workload} run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or_default();
    for line in lines {
        println!("{line}");
    }
    if !output.status.success() {
        return Err(format!("the {workload} run exited with {}", output.status));
    }
    RunResult::parse(last).map_err(|e| format!("the {workload} run printed no result: {e}"))
}

fn run_set(manifest: &Manifest, seed: u64, seconds: u64, out_dir: &Path) -> Result<Set, String> {
    let mut set = Set::new();
    for name in &manifest.workloads {
        let end_to_end = run_child(name, seed, seconds, false, out_dir)?;
        let per_layer = run_child(name, seed, seconds.min(TRACED_SECONDS), true, out_dir)?;
        set.insert(
            name.clone(),
            Pair {
                end_to_end,
                per_layer,
            },
        );
    }
    Ok(set)
}

/// Everything the issue says must hold of one set; each failure is one
/// line. Empty when the set is sound.
pub fn problems(manifest: &Manifest, set: &Set, seconds: u64) -> Vec<String> {
    let mut found = Vec::new();
    let mut check = |ok: bool, complaint: String| {
        if !ok {
            found.push(complaint);
        }
    };
    let layer = |workload: &str, metric: &str| -> f64 {
        set.get(workload)
            .and_then(|p| p.per_layer.metrics.get(metric))
            .copied()
            .unwrap_or(f64::NAN)
    };
    let required = MIN_REQUESTS.min(MIN_REQUEST_RATE * seconds);

    for name in &manifest.workloads {
        let Some(pair) = set.get(name) else {
            check(false, format!("{name}: no results"));
            continue;
        };
        for (section, run, declared) in [
            ("end-to-end", &pair.end_to_end, &manifest.end_to_end),
            ("per-layer", &pair.per_layer, &manifest.per_layer),
        ] {
            check(
                !run.metrics.is_empty() && run.metrics.len() == declared.len(),
                format!(
                    "{name}: the {section} section holds {} of {} metrics",
                    run.metrics.len(),
                    declared.len()
                ),
            );
            check(
                run.correct,
                format!("{name}: a {section} run served an answer the serial oracle does not give"),
            );
        }
        let open = matches!(by_name(name).map(|w| w.pattern), Some(Pattern::Open { .. }));
        let share = pair.end_to_end.failed_share();
        let allowed = if open { OPEN_FAILED_SHARE_MAX } else { 0.0 };
        check(
            share <= allowed,
            format!("{name}: failed_share {share} is above {allowed}"),
        );
        check(
            pair.end_to_end.attempted >= required,
            format!(
                "{name}: {} measured requests, fewer than {required}",
                pair.end_to_end.attempted
            ),
        );
        let late = layer(name, "gen.late_p95_us");
        check(
            late <= GEN_LATE_P95_MAX_US,
            format!("{name}: gen.late_p95_us {late} is above {GEN_LATE_P95_MAX_US}"),
        );
        let residual = layer(name, "core.walk_residual_pct");
        check(
            residual <= WALK_RESIDUAL_MAX_PCT,
            format!("{name}: core.walk_residual_pct {residual} is above {WALK_RESIDUAL_MAX_PCT}"),
        );
        let partials = layer(name, "stream.partials_per_query");
        check(
            (partials > 0.0) == (name == "net_stream"),
            format!("{name}: stream.partials_per_query is {partials}"),
        );
    }

    // The contrasts the workloads were chosen for.
    let asr_share = |w: &str| layer(w, "core.stage_asr_us") / layer(w, "core.walk_total_us");
    for other in manifest.workloads.iter().filter(|w| *w != "net_viq") {
        check(
            asr_share("net_viq") < asr_share(other),
            format!(
                "ASR's share of the walk is {} on net_viq but {} on {other}",
                asr_share("net_viq"),
                asr_share(other)
            ),
        );
    }
    check(
        layer("net_viq", "wire.submit_bytes") >= 1.5 * layer("net_mixed", "wire.submit_bytes"),
        "wire.submit_bytes on net_viq is under 1.5 times net_mixed".into(),
    );
    let hit_ratio = layer("open_dnn_zipf", "cache.qa.hit_ratio");
    check(
        hit_ratio > 0.0 && hit_ratio < 1.0 && layer("open_dnn_zipf", "cache.evictions") > 0.0,
        format!("open_dnn_zipf: cache.qa.hit_ratio {hit_ratio} or no evictions"),
    );
    found
}

/// One end-to-end metric of one workload in two sets of the same code.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    pub workload: String,
    pub metric: String,
    pub first: f64,
    pub second: f64,
    /// Relative to `first`, except for `failed_share`, which is absolute.
    pub difference: f64,
    pub bound: f64,
}

impl Comparison {
    pub fn within(&self) -> bool {
        self.difference <= self.bound
    }
}

/// Compares every end-to-end metric, and `failed_share`, between two sets.
pub fn compare_sets(manifest: &Manifest, first: &Set, second: &Set) -> Vec<Comparison> {
    let mut rows = Vec::new();
    for (workload, a) in first {
        let Some(b) = second.get(workload) else {
            continue;
        };
        for decl in &manifest.end_to_end {
            let (Some(&x), Some(&y)) = (
                a.end_to_end.metrics.get(&decl.name),
                b.end_to_end.metrics.get(&decl.name),
            ) else {
                continue;
            };
            rows.push(Comparison {
                workload: workload.clone(),
                metric: decl.name.clone(),
                first: x,
                second: y,
                difference: (y - x).abs() / x.abs().max(f64::MIN_POSITIVE),
                bound: decl.bound.unwrap_or(0.0),
            });
        }
        let (x, y) = (a.end_to_end.failed_share(), b.end_to_end.failed_share());
        rows.push(Comparison {
            workload: workload.clone(),
            metric: "failed_share".into(),
            first: x,
            second: y,
            difference: (y - x).abs(),
            bound: FAILED_SHARE_BOUND,
        });
    }
    rows
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn stamp(seed: u64, seconds: u64, sets: usize) -> Value {
    Value::obj([
        ("cores", Value::Num(cores() as f64)),
        (
            "commit",
            Value::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        (
            "date",
            Value::Str(command_line("date", &["-u", "+%Y-%m-%dT%H:%M:%SZ"])),
        ),
        ("rustc", Value::Str(command_line("rustc", &["--version"]))),
        ("seed", Value::Num(seed as f64)),
        ("run_seconds", Value::Num(seconds as f64)),
        (
            "traced_run_seconds",
            Value::Num(seconds.min(TRACED_SECONDS) as f64),
        ),
        ("sets", Value::Num(sets as f64)),
    ])
}

/// Writes `results.json` through a temporary file, so that a failed or
/// interrupted suite never leaves a truncated one behind.
fn write_results(out_dir: &Path, doc: &Value) -> Result<(), String> {
    let path = out_dir.join("results.json");
    let temp = out_dir.join("results.json.tmp");
    std::fs::create_dir_all(out_dir)
        .and_then(|()| std::fs::write(&temp, doc.render() + "\n"))
        .and_then(|()| std::fs::rename(&temp, &path))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

pub fn run(
    manifest: &Manifest,
    seed: u64,
    seconds: u64,
    sets: usize,
    out_dir: &Path,
) -> Result<(), String> {
    let mut done: Vec<Set> = Vec::new();
    let mut complaints = Vec::new();
    for n in 1..=sets {
        println!("== set {n} of {sets}: seed {seed}, {seconds} s per run ==");
        let set = run_set(manifest, seed, seconds, out_dir)?;
        for name in &manifest.workloads {
            println!(
                "{name} failed_share {} ratio",
                set[name].end_to_end.failed_share()
            );
        }
        complaints.extend(
            problems(manifest, &set, seconds)
                .into_iter()
                .map(|p| format!("set {n}: {p}")),
        );
        done.push(set);
    }

    if let [first, second, ..] = done.as_slice() {
        println!("== repeatability: set 2 against set 1 ==");
        for row in compare_sets(manifest, first, second) {
            println!(
                "{} {} first {} second {} difference {:.4} bound {} {}",
                row.workload,
                row.metric,
                row.first,
                row.second,
                row.difference,
                row.bound,
                if row.within() { "ok" } else { "OVER" }
            );
            if !row.within() {
                complaints.push(format!(
                    "{} {} differs by {:.4} between the sets, over its bound {}",
                    row.workload, row.metric, row.difference, row.bound
                ));
            }
        }
    }

    if !complaints.is_empty() {
        return Err(format!(
            "{} check(s) failed; results.json not written:\n  {}",
            complaints.len(),
            complaints.join("\n  ")
        ));
    }
    let sets_json = done
        .iter()
        .map(|set| {
            Value::obj(set.iter().map(|(name, pair)| {
                (
                    name.clone(),
                    Value::obj([
                        ("end_to_end", pair.end_to_end.to_json()),
                        ("per_layer", pair.per_layer.to_json()),
                    ]),
                )
            }))
        })
        .collect();
    write_results(
        out_dir,
        &Value::obj([
            ("stamp", stamp(seed, seconds, sets)),
            ("sets", Value::Arr(sets_json)),
        ]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::MetricDecl;

    /// A manifest with bounds of its own, so that these tests do not move
    /// when `BENCHMARK.json` is re-tuned.
    fn manifest() -> Manifest {
        let metric = |name: &str, bound: f64| MetricDecl {
            name: name.to_owned(),
            unit: "x".to_owned(),
            bound: Some(bound),
        };
        Manifest {
            run_seconds: 30,
            workloads: vec!["net_mixed".to_owned(), "net_viq".to_owned()],
            end_to_end: vec![
                metric("latency_p50_ms", 0.05),
                metric("latency_p95_ms", 0.10),
                metric("throughput_qps", 0.05),
                metric("setup_s", 0.15),
                metric("peak_rss_mb", 0.05),
            ],
            per_layer: vec![MetricDecl {
                name: "core.walk_total_us".to_owned(),
                unit: "us".to_owned(),
                bound: None,
            }],
        }
    }

    fn run_with(values: &[(&str, f64)], attempted: u64, failed: u64) -> RunResult {
        RunResult {
            correct: true,
            attempted,
            failed,
            metrics: values.iter().map(|(k, v)| ((*k).to_owned(), *v)).collect(),
        }
    }

    fn set_of(p50: f64, qps: f64, failed: u64) -> Set {
        let end_to_end = run_with(
            &[
                ("latency_p50_ms", p50),
                ("latency_p95_ms", 20.0),
                ("throughput_qps", qps),
                ("setup_s", 2.0),
                ("peak_rss_mb", 32.0),
            ],
            1000,
            failed,
        );
        Set::from([(
            "net_mixed".to_owned(),
            Pair {
                per_layer: run_with(&[], 1, 0),
                end_to_end,
            },
        )])
    }

    #[test]
    fn sets_within_their_bounds_compare_clean() {
        let rows = compare_sets(
            &manifest(),
            &set_of(10.0, 150.0, 0),
            &set_of(10.4, 146.0, 4),
        );
        assert_eq!(rows.len(), 6, "five end-to-end metrics and failed_share");
        assert!(rows.iter().all(Comparison::within), "{rows:?}");
        let p50 = rows.iter().find(|r| r.metric == "latency_p50_ms").unwrap();
        assert!((p50.difference - 0.04).abs() < 1e-12);
        let failed = rows.iter().find(|r| r.metric == "failed_share").unwrap();
        assert!(
            (failed.difference - 0.004).abs() < 1e-12,
            "absolute, not relative"
        );
    }

    #[test]
    fn a_metric_over_its_bound_is_flagged_in_either_direction() {
        let m = manifest();
        for second in [set_of(10.6, 150.0, 0), set_of(9.4, 150.0, 0)] {
            let rows = compare_sets(&m, &set_of(10.0, 150.0, 0), &second);
            let over: Vec<_> = rows.iter().filter(|r| !r.within()).collect();
            assert_eq!(over.len(), 1, "{rows:?}");
            assert_eq!(over[0].metric, "latency_p50_ms");
        }
        let rows = compare_sets(&m, &set_of(10.0, 150.0, 0), &set_of(10.0, 150.0, 6));
        let over: Vec<_> = rows.iter().filter(|r| !r.within()).collect();
        assert_eq!(over.len(), 1);
        assert_eq!(over[0].metric, "failed_share");
    }

    #[test]
    fn a_result_line_parses_and_a_truncated_one_does_not() {
        let line = r#"{"attempted": 1526, "correct": true, "failed": 3, "metrics": {"latency_p50_ms": {"unit": "ms", "value": 12.5}}}"#;
        let run = RunResult::parse(line).expect("parses");
        assert_eq!((run.correct, run.attempted, run.failed), (true, 1526, 3));
        assert_eq!(run.metrics["latency_p50_ms"], 12.5);
        assert!(RunResult::parse(&line[..40]).is_err());
        assert!(RunResult::parse("").is_err());
    }

    #[test]
    fn an_empty_section_or_a_failed_oracle_is_a_problem() {
        let m = manifest();
        let found = problems(&m, &set_of(10.0, 150.0, 0), 30);
        assert!(found
            .iter()
            .any(|p| p.contains("net_mixed: the per-layer section holds 0")));
        assert!(found.iter().any(|p| p.contains("net_viq: no results")));
        let mut wrong = set_of(10.0, 150.0, 0);
        wrong.get_mut("net_mixed").unwrap().end_to_end.correct = false;
        assert!(problems(&m, &wrong, 30)
            .iter()
            .any(|p| p.contains("serial oracle")));
        let failing = set_of(10.0, 150.0, 1);
        assert!(problems(&m, &failing, 30)
            .iter()
            .any(|p| p.contains("failed_share")));
    }
}
