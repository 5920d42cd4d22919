//! Kernel speedup summary for the lazy-scoring / GEMM-batching work.
//!
//! Measures the three pairs the PR optimizes — eager vs lazy end-to-end ASR
//! decode (GMM and DNN), per-frame matvec vs GEMM-batched DNN forward, and
//! AoS vs SoA GMM scoring — and prints a JSON summary to stdout. Beside the
//! lazy decode it times the same utterances through the streaming
//! recognizer as a single chunk (`streaming_one_chunk_ms`), the number that
//! says what serving whole utterances through the streaming path would
//! cost. The repo's vendored criterion shim has no JSON reporter, so this
//! binary hand-rolls the one artifact the experiment recipe records
//! (`BENCH_kernels.json`).
//!
//! Usage: `bench_kernels [--reps N]` (default 5; medians over reps).

use std::time::Instant;

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use sirius_speech::asr::{AcousticModelKind, AsrSystem, AsrTrainConfig, ScoringMode};
use sirius_speech::dnn::{Dnn, DnnScratch};
use sirius_speech::features::{Frames, FrontendScratch, FRAME_HOP, FRAME_LEN, NUM_CEPSTRA};
use sirius_speech::gmm::Gmm;
use sirius_speech::synth::{SynthConfig, Synthesizer};

const CORPUS: [&str; 6] = [
    "set my alarm",
    "call me a cab",
    "play some jazz",
    "go home now",
    "stop the music",
    "what time is it",
];

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("non-NaN timing"));
    samples[samples.len() / 2]
}

struct DecodePair {
    eager_ms: f64,
    lazy_ms: f64,
    streaming_one_chunk_ms: f64,
    fe_ms: f64,
    scoring_ms: f64,
    search_ms: f64,
    /// Beam survivors per frame, over the whole corpus (a count, not a
    /// timing: it repeats exactly).
    tokens_per_frame: f64,
    outputs_match: bool,
}

/// The front-end's three steps over the corpus, timed apart by running the
/// chain up to each step: power spectrum only, through the cepstra, and
/// through the delta rows.
struct FrontendSplit {
    fft_ms: f64,
    mel_log_dct_ms: f64,
    deltas_ms: f64,
}

fn bench_frontend(asr: &AsrSystem, utts: &[Vec<f32>], reps: usize) -> FrontendSplit {
    let fe = asr.frontend();
    // Start of every whole analysis frame, as `Frontend::extract` walks them.
    let starts = |samples: &[f32]| {
        let spare = samples.len().checked_sub(FRAME_LEN);
        spare
            .into_iter()
            .flat_map(|spare| (0..=spare).step_by(FRAME_HOP))
    };
    let mut scratch = FrontendScratch::default();
    let (mut fft, mut cepstra_ms, mut deltas) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..reps {
        let t = Instant::now();
        for samples in utts {
            for start in starts(samples) {
                fe.power_spectrum(samples, start, &mut scratch);
            }
        }
        fft.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let cepstra: Vec<Frames> = utts
            .iter()
            .map(|samples| {
                let mut cepstra = Frames::new(NUM_CEPSTRA);
                for start in starts(samples) {
                    fe.cepstra_frame(samples, start, &mut scratch, &mut cepstra);
                }
                cepstra
            })
            .collect();
        cepstra_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        for cepstra in &cepstra {
            std::hint::black_box(Frames::with_deltas(cepstra));
        }
        deltas.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let fft_ms = median(&mut fft);
    FrontendSplit {
        fft_ms,
        mel_log_dct_ms: median(&mut cepstra_ms) - fft_ms,
        deltas_ms: median(&mut deltas),
    }
}

fn bench_decode(
    asr: &AsrSystem,
    utts: &[Vec<f32>],
    kind: AcousticModelKind,
    reps: usize,
) -> DecodePair {
    let mut eager = Vec::with_capacity(reps);
    let mut lazy = Vec::with_capacity(reps);
    let mut one_chunk = Vec::with_capacity(reps);
    let mut fe = Vec::with_capacity(reps);
    let mut scoring = Vec::with_capacity(reps);
    let mut search = Vec::with_capacity(reps);
    let mut outputs_match = true;
    let (mut tokens, mut frames) = (0usize, 0usize);
    for _ in 0..reps {
        let mut eager_texts = Vec::new();
        let t = Instant::now();
        for samples in utts {
            eager_texts.push(
                asr.recognize_with_mode(samples, kind, ScoringMode::Eager)
                    .text,
            );
        }
        eager.push(t.elapsed().as_secs_f64() * 1e3);
        let (mut fe_s, mut sc_s, mut se_s) = (0.0f64, 0.0f64, 0.0f64);
        (tokens, frames) = (0, 0);
        let t = Instant::now();
        for (samples, expect) in utts.iter().zip(&eager_texts) {
            let out = asr.recognize_with_mode(samples, kind, ScoringMode::Lazy);
            outputs_match &= out.text == *expect;
            tokens += out.tokens_expanded;
            frames += out.frames;
            fe_s += out.timing.feature_extraction.as_secs_f64() * 1e3;
            sc_s += out.timing.scoring.as_secs_f64() * 1e3;
            se_s += out.timing.search.as_secs_f64() * 1e3;
        }
        lazy.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        for (samples, expect) in utts.iter().zip(&eager_texts) {
            let mut rec = asr.streaming(kind);
            rec.push_chunk(samples).expect("clean synthesized audio");
            let out = rec.finish().expect("non-empty utterance");
            outputs_match &= out.text == *expect;
        }
        one_chunk.push(t.elapsed().as_secs_f64() * 1e3);
        fe.push(fe_s);
        scoring.push(sc_s);
        search.push(se_s);
    }
    DecodePair {
        eager_ms: median(&mut eager),
        lazy_ms: median(&mut lazy),
        streaming_one_chunk_ms: median(&mut one_chunk),
        fe_ms: median(&mut fe),
        scoring_ms: median(&mut scoring),
        search_ms: median(&mut search),
        tokens_per_frame: tokens as f64 / frames.max(1) as f64,
        outputs_match,
    }
}

fn decode_json(name: &str, p: &DecodePair, fe: &FrontendSplit) -> String {
    format!(
        concat!(
            "    \"{}\": {{\n",
            "      \"eager_ms\": {:.3},\n",
            "      \"lazy_ms\": {:.3},\n",
            "      \"streaming_one_chunk_ms\": {:.3},\n",
            "      \"speedup\": {:.2},\n",
            "      \"outputs_match\": {},\n",
            "      \"tokens_per_frame\": {:.1},\n",
            "      \"lazy_breakdown_ms\": {{ \"feature_extraction\": {:.3}, \"fft\": {:.3}, \"mel_log_dct\": {:.3}, \"deltas\": {:.3}, \"scoring\": {:.3}, \"search\": {:.3} }}\n",
            "    }}"
        ),
        name,
        p.eager_ms,
        p.lazy_ms,
        p.streaming_one_chunk_ms,
        p.eager_ms / p.lazy_ms,
        p.outputs_match,
        p.tokens_per_frame,
        p.fe_ms,
        fe.fft_ms,
        fe.mel_log_dct_ms,
        fe.deltas_ms,
        p.scoring_ms,
        p.search_ms,
    )
}

fn bench_dnn_forward(reps: usize) -> (f64, f64, bool) {
    let mut rng = ChaCha8Rng::seed_from_u64(17);
    let net = Dnn::new(&[120, 256, 256, 128], &mut rng);
    let rows = 256usize;
    let x: Vec<f32> = (0..rows * 120)
        .map(|_| rng.gen_range(-1.0f32..1.0))
        .collect();
    let plan = net.plan();
    let mut per_frame = Vec::with_capacity(reps);
    let mut batched = Vec::with_capacity(reps);
    let mut reference: Vec<Vec<f32>> = Vec::new();
    for _ in 0..reps {
        let t = Instant::now();
        reference = x.chunks(120).map(|row| net.forward(row)).collect();
        per_frame.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let mut scratch = DnnScratch::default();
    let mut out = Vec::new();
    for _ in 0..reps {
        let t = Instant::now();
        net.forward_batch_into(&x, rows, &plan, &mut scratch, &mut out);
        batched.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let bit_identical = reference
        .iter()
        .flatten()
        .zip(&out)
        .all(|(a, b)| a.to_bits() == b.to_bits());
    (median(&mut per_frame), median(&mut batched), bit_identical)
}

fn bench_gmm_layout(reps: usize) -> (f64, f64, bool) {
    let mut rng = ChaCha8Rng::seed_from_u64(29);
    let dim = 39usize;
    let m = 16usize;
    let means = (0..m * dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let vars = (0..m * dim).map(|_| rng.gen_range(0.2f32..1.5)).collect();
    let weights = (0..m).map(|_| rng.gen_range(0.1f32..1.0)).collect();
    let gmm = Gmm::from_params(dim, means, vars, weights);
    let soa = gmm.soa();
    let rows: Vec<Vec<f32>> = (0..2048)
        .map(|_| (0..dim).map(|_| rng.gen_range(-2.0f32..2.0)).collect())
        .collect();
    let frames = Frames::from_rows(&rows);
    let mut aos = Vec::with_capacity(reps);
    let mut soa_ms = Vec::with_capacity(reps);
    let mut reference = Vec::new();
    for _ in 0..reps {
        let t = Instant::now();
        reference = frames.rows().map(|f| gmm.log_likelihood(f)).collect();
        aos.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let mut out = vec![0.0f32; frames.len()];
    for _ in 0..reps {
        let t = Instant::now();
        soa.log_likelihood_batch(&frames, &mut out);
        soa_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let bit_identical = reference
        .iter()
        .zip(&out)
        .all(|(a, b)| a.to_bits() == b.to_bits());
    (median(&mut aos), median(&mut soa_ms), bit_identical)
}

fn main() {
    let mut reps = 5usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--reps" => {
                reps = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--reps needs a positive integer");
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: bench_kernels [--reps N]");
                std::process::exit(2);
            }
        }
    }
    assert!(reps >= 1, "--reps must be at least 1");

    eprintln!("training ASR system on {} utterances...", CORPUS.len());
    let asr = AsrSystem::train(&CORPUS, 42, AsrTrainConfig::default());
    let mut synth = Synthesizer::new(777, SynthConfig::default());
    let utts: Vec<Vec<f32>> = CORPUS.iter().map(|t| synth.say(t).samples).collect();

    eprintln!("benchmarking decode (eager vs lazy), {reps} reps...");
    let gmm = bench_decode(&asr, &utts, AcousticModelKind::Gmm, reps);
    let dnn = bench_decode(&asr, &utts, AcousticModelKind::Dnn, reps);
    let fe = bench_frontend(&asr, &utts, reps);
    eprintln!("benchmarking DNN forward (matvec vs GEMM)...");
    let (pf_ms, gemm_ms, dnn_bits) = bench_dnn_forward(reps);
    eprintln!("benchmarking GMM layout (AoS vs SoA)...");
    let (aos_ms, soa_ms, gmm_bits) = bench_gmm_layout(reps);

    println!("{{");
    println!("  \"bench\": \"kernels\",");
    println!("  \"reps\": {reps},");
    println!("  \"corpus_utterances\": {},", CORPUS.len());
    println!("  \"asr_decode\": {{");
    println!("{},", decode_json("gmm", &gmm, &fe));
    println!("{}", decode_json("dnn", &dnn, &fe));
    println!("  }},");
    println!(
        "  \"dnn_forward\": {{ \"per_frame_matvec_ms\": {:.3}, \"batched_gemm_ms\": {:.3}, \"speedup\": {:.2}, \"bit_identical\": {} }},",
        pf_ms,
        gemm_ms,
        pf_ms / gemm_ms,
        dnn_bits
    );
    println!(
        "  \"gmm_scoring\": {{ \"component_major_aos_ms\": {:.3}, \"dimension_major_soa_ms\": {:.3}, \"speedup\": {:.2}, \"bit_identical\": {} }}",
        aos_ms,
        soa_ms,
        aos_ms / soa_ms,
        gmm_bits
    );
    println!("}}");
}
