//! One run of one workload, as the driver asks for it: set up, warm up,
//! measure (or walk and trace), check every answer, print one result line.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sirius_obs::CollectingRecorder;

use crate::drive::{closed_loop, open_loop, Door, Phase, Stop, Tally};
use crate::gen::{arrival_schedule, Rng};
use crate::json::Value;
use crate::manifest::Manifest;
use crate::served::{probe_calls, served_metrics};
use crate::stats::{median, percentile, sorted};
use crate::walk::layer_walk;
use crate::workload::{clients, cores, set_up, start_server, Pattern, Served, Stand, Workload};
use crate::Metrics;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: u32 = 3;
/// Requests of the workload's sequence the layer walk performs.
const WALK_REQUESTS: usize = 200;
/// Slices of each set-up's measured time. Every end-to-end timing is
/// taken per slice, and of the six slices the second-best is reported.
/// Interference on a shared machine only ever slows a slice down, and it
/// comes in bursts of seconds to minutes: the second-best slice stays
/// clean while up to four are hit, without being the single luckiest one.
const SLICES_PER_SEGMENT: u32 = 2;

struct Outcome {
    /// No phase, warm-up included, saw a wrong or errored answer.
    correct: bool,
    /// Requests of the measured phases, and how many of them failed.
    attempted: u64,
    failed: u64,
    metrics: Metrics,
}

impl Outcome {
    fn of(warm_up: &Tally, measured: &[&Tally], metrics: Metrics) -> Self {
        let sound = |t: &Tally| t.wrong + t.errored == 0;
        Self {
            correct: sound(warm_up) && measured.iter().all(|t| sound(t)),
            attempted: measured.iter().map(|t| t.sent).sum(),
            failed: measured.iter().map(|t| t.failed()).sum(),
            metrics,
        }
    }
}

pub fn run(
    manifest: &Manifest,
    workload: &Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    out_dir: &Path,
) -> Result<(), String> {
    if clients() > cores() {
        return Err(format!(
            "{} generator threads on {} cores",
            clients(),
            cores()
        ));
    }
    let (outcome, declared) = if trace {
        (
            traced(workload, seed, seconds, out_dir)?,
            &manifest.per_layer,
        )
    } else {
        (measured(workload, seed, seconds), &manifest.end_to_end)
    };

    let mut reported = Vec::new();
    for decl in declared {
        let value = *outcome
            .metrics
            .get(&decl.name)
            .ok_or(format!("declared metric `{}` was not measured", decl.name))?;
        println!("{} {} {} {}", workload.name, decl.name, value, decl.unit);
        reported.push((
            decl.name.clone(),
            Value::obj([
                ("value", Value::Num(value)),
                ("unit", Value::Str(decl.unit.clone())),
            ]),
        ));
    }
    if let Some(stray) = outcome
        .metrics
        .keys()
        .find(|name| declared.iter().all(|d| d.name != **name))
    {
        return Err(format!(
            "measured metric `{stray}` is not declared in BENCHMARK.json"
        ));
    }
    println!(
        "{}",
        Value::obj([
            ("correct", Value::Bool(outcome.correct)),
            ("attempted", Value::Num(outcome.attempted as f64)),
            ("failed", Value::Num(outcome.failed as f64)),
            ("metrics", Value::obj(reported)),
        ])
        .render()
    );
    Ok(())
}

/// How long the first spin of a run lasts; later ones a quarter of it.
const WAKE_UP: Duration = Duration::from_secs(2);

/// Keeps every core busy for `duration`. After an idle or lightly loaded
/// minute this container runs its two virtual cores on one physical core at
/// a low clock; about 1.5 s of load on both at once brings it back, and it
/// then stays through a run. The workloads themselves keep one core busy
/// and a second partly, which takes far longer to do so. Without this,
/// whatever ran before a run decides whether its first seconds measure a
/// one-core or a two-core machine (25 % on `net_mixed`).
fn wake_cores(duration: Duration) {
    let began = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..cores() {
            scope.spawn(|| {
                while began.elapsed() < duration {
                    std::hint::spin_loop();
                }
            });
        }
    });
}

/// Runs the workload's traffic against `server` for `window`.
fn drive(
    stand: &Stand,
    server: &Served,
    workload: &Workload,
    seed: u64,
    window: Duration,
    trace_epoch: Option<Instant>,
) -> Phase {
    let inputs = stand.inputs.len();
    match (server, workload.pattern) {
        (Served::Net(net), _) => closed_loop(
            stand,
            Door::Tcp(net.local_addr()),
            &workload.sequences(inputs, seed, 0),
            Stop::After(window),
            workload.limit,
            trace_epoch,
        ),
        (Served::Local(cluster), Pattern::Open { rate_qps }) => {
            let schedule = arrival_schedule(&mut Rng::new(seed ^ 0xa771), rate_qps, window);
            let picks = workload.sequences(inputs, seed, schedule.len()).remove(0);
            open_loop(
                stand,
                cluster,
                &picks,
                &schedule,
                workload.limit,
                trace_epoch,
            )
        }
        (Served::Local(_), Pattern::Closed) => unreachable!("closed loops are served over TCP"),
    }
}

/// A fixed number of requests, so that set-up time reflects work and not a
/// timer: every client sends each input once; the open loop's first picks
/// are sent one at a time, twice as many as there are inputs, which fills
/// its result cache.
fn warm_up(stand: &Stand, server: &Served, workload: &Workload, seed: u64) -> Phase {
    let inputs = stand.inputs.len();
    let (door, requests) = match server {
        Served::Net(net) => (Door::Tcp(net.local_addr()), inputs),
        Served::Local(cluster) => (Door::InProcess(cluster), 2 * inputs),
    };
    closed_loop(
        stand,
        door,
        &workload.sequences(inputs, seed, requests),
        Stop::Requests(requests),
        workload.limit,
        None,
    )
}

fn report(workload: &Workload, phase_name: &str, phase: &Phase) {
    println!(
        "{} {phase_name}: {} in {:.3} s",
        workload.name,
        phase.tally,
        phase.window.as_secs_f64()
    );
}

fn measured(workload: &Workload, seed: u64, seconds: u64) -> Outcome {
    // Each set-up serves its share of the measured time, so that a run
    // averages over three server instances (thread placement, heap layout)
    // as well as over time.
    let segment = Duration::from_secs(seconds) / SETUPS;
    let slice = segment / SLICES_PER_SEGMENT;
    let mut setup_s = Vec::new();
    let mut warm_ups = Tally::default();
    let mut measured = Tally::default();
    let mut slices: Vec<Vec<f64>> = Vec::new();
    let mut segment_qps = Vec::new();
    let mut peak_rss = None;
    for n in 0..SETUPS {
        let began = Instant::now();
        let (stand, server) = set_up(workload, seed);
        let warm = warm_up(&stand, &server, workload, seed);
        setup_s.push(began.elapsed().as_secs_f64());
        report(workload, "warm-up", &warm);
        warm_ups.add(&warm.tally);

        let traffic_seed = seed.wrapping_add(u64::from(n));
        wake_cores(if n == 0 { WAKE_UP } else { WAKE_UP / 4 });
        let phase = drive(&stand, &server, workload, traffic_seed, segment, None);
        report(workload, "measured", &phase);
        measured.add(&phase.tally);
        segment_qps.push(phase.throughput_qps());
        server.shutdown();
        // Later set-ups grow the high-water mark by what the allocator kept
        // of earlier ones, which varies from run to run; the first is clean.
        peak_rss.get_or_insert_with(peak_rss_mb);
        slices.extend((0..SLICES_PER_SEGMENT).map(|k| {
            let within = (slice * k)..(slice * (k + 1));
            sorted(
                phase
                    .samples
                    .iter()
                    .filter(|s| within.contains(&s.at))
                    .map(|s| s.latency_ms)
                    .collect(),
            )
        }));
    }
    println!(
        "{} latency samples: {} in {} slices",
        workload.name,
        slices.iter().map(Vec::len).sum::<usize>(),
        slices.len()
    );
    let per_slice = |of: fn(&[f64]) -> f64| sorted(slices.iter().map(|s| of(s)).collect());
    let p50 = per_slice(|s| percentile(s, 50.0));
    let p95 = per_slice(|s| percentile(s, 95.0));
    let answered = per_slice(|s| s.len() as f64);
    let second_best = 1.min(slices.len() - 1);
    let throughput = match workload.pattern {
        Pattern::Closed => answered[answered.len() - 1 - second_best] / slice.as_secs_f64(),
        // An open loop answers as fast as requests arrive, less what it
        // fails: there is nothing for interference to slow, and a slice's
        // count would only echo the arrival schedule.
        Pattern::Open { .. } => median(&segment_qps),
    };
    let metrics = Metrics::from([
        ("latency_p50_ms".to_owned(), p50[second_best]),
        ("latency_p95_ms".to_owned(), p95[second_best]),
        ("throughput_qps".to_owned(), throughput),
        ("setup_s".to_owned(), median(&setup_s)),
        ("peak_rss_mb".to_owned(), peak_rss.unwrap_or_default()),
    ]);
    Outcome::of(&warm_ups, &[&measured], metrics)
}

/// `VmHWM` of this process: the most resident memory it has held so far.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn traced(workload: &Workload, seed: u64, seconds: u64, out_dir: &Path) -> Result<Outcome, String> {
    let (stand, server) = set_up(workload, seed);
    let warm = warm_up(&stand, &server, workload, seed);
    report(workload, "warm-up", &warm);

    let epoch = Instant::now();
    let order: Vec<usize> = workload
        .sequences(stand.inputs.len(), seed, WALK_REQUESTS)
        .remove(0)
        .into_iter()
        .cycle()
        .take(WALK_REQUESTS)
        .collect();
    let walk = layer_walk(&stand, workload, &order, epoch);
    println!("{} walked: {}", workload.name, walk.tally);

    // Half the run untraced, on the server the warm-up used, then half
    // traced on a fresh server that reports to the benchmark's recorder.
    let half = Duration::from_secs_f64(seconds as f64 / 2.0);
    wake_cores(WAKE_UP);
    let reference = drive(&stand, &server, workload, seed, half, None);
    report(workload, "untraced reference", &reference);
    server.shutdown();

    let recorder = Arc::new(CollectingRecorder::new());
    let server = start_server(&stand.sirius, workload, Some(recorder.clone()));
    wake_cores(WAKE_UP / 4);
    let phase = drive(&stand, &server, workload, seed, half, Some(epoch));
    report(workload, "traced", &phase);

    // The registry is read before the probes add to its counts; the served
    // run's own `runtime.submit_call_us`, where it has one, replaces theirs.
    let served = served_metrics(workload, server.cluster(), &recorder, &phase);
    let mut metrics = walk.metrics;
    metrics.extend(probe_calls(&stand, workload, server.cluster()));
    metrics.extend(served);
    server.shutdown();
    metrics.insert(
        "trace.overhead_pct".to_owned(),
        (1.0 - phase.throughput_qps() / reference.throughput_qps()) * 100.0,
    );

    let mut trace = walk.trace;
    if let Some(client) = phase.trace {
        trace.absorb(client);
    }
    let path = out_dir.join(format!("trace_{}.json", workload.name));
    trace
        .write_json(&path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!(
        "{} trace: {} spans in {}",
        workload.name,
        trace.spans().len(),
        path.display()
    );
    Ok(Outcome::of(
        &warm.tally,
        &[&walk.tally, &reference.tally, &phase.tally],
        metrics,
    ))
}
