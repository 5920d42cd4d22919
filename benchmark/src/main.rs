//! The repo benchmark. With `--workload` it performs one run and prints one
//! JSON result line; without, it runs the whole suite (every workload
//! untraced, then traced) by calling itself once per run, checks the
//! results and writes `out/results.json`. See `benchmark/README.md`.

mod drive;
mod gen;
mod json;
mod manifest;
mod served;
mod single;
mod span;
mod stats;
mod suite;
mod walk;
mod workload;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// Metric name → value; units live in `BENCHMARK.json`.
pub type Metrics = BTreeMap<String, f64>;

const USAGE: &str = "usage: benchmark/run.sh [--seed N] [--seconds N] [--sets N]
       benchmark/run.sh --workload NAME --seed N --seconds N --trace 0|1";

/// The suite measures each workload this long unless told otherwise; the
/// driver's single runs use `run_seconds` of `BENCHMARK.json`, which its
/// time budget for 92 runs keeps shorter.
const SUITE_SECONDS: u64 = 30;

pub struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<u64>,
    trace: bool,
    sets: usize,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 9999,
        seconds: None,
        trace: false,
        sets: 1,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut words = std::env::args().skip(1);
    while let Some(flag) = words.next() {
        let value = words
            .next()
            .ok_or(format!("{flag} needs a value\n{USAGE}"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} {value}: not a whole number"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = Some(number()?.max(1)),
            "--trace" => args.trace = number()? != 0,
            "--sets" => args.sets = number()?.max(1) as usize,
            "--out" => args.out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    Ok(args)
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let manifest = manifest::Manifest::load()?;
    match &args.workload {
        Some(name) => {
            let seconds = args.seconds.unwrap_or(manifest.run_seconds);
            let workload = workload::by_name(name).ok_or(format!("unknown workload {name}"))?;
            single::run(
                &manifest,
                &workload,
                args.seed,
                seconds,
                args.trace,
                &args.out_dir,
            )
        }
        None => suite::run(
            &manifest,
            args.seed,
            args.seconds.unwrap_or(SUITE_SECONDS),
            args.sets,
            &args.out_dir,
        ),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::FAILURE
        }
    }
}
