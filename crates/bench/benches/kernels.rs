//! Hot-path kernel benches for the lazy-scoring / GEMM-batching work:
//!
//! * Eager whole-utterance scoring + decode vs the lazy beam-driven provider
//!   (GMM and DNN acoustic models).
//! * Per-frame matrix-vector DNN forward vs the frame-batched GEMM forward.
//! * Component-major (AoS) GMM log-likelihood vs the dimension-major (SoA)
//!   batch kernel.
//!
//! All pairs are bit-identical by construction (see DESIGN.md "Lazy
//! beam-driven acoustic scoring"), so these benches measure pure speed.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::OnceLock;

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use sirius_speech::asr::{AsrSystem, AsrTrainConfig};
use sirius_speech::dnn::{Dnn, DnnScratch};
use sirius_speech::features::Frames;
use sirius_speech::gmm::Gmm;
use sirius_speech::hmm::{AcousticScorer, Decoder, DecoderConfig};
use sirius_speech::synth::{SynthConfig, Synthesizer};

const CORPUS: [&str; 4] = [
    "set my alarm",
    "play some jazz",
    "what time is it",
    "go home now",
];

type AsrContext = (AsrSystem, Vec<Frames>);

fn asr_context() -> &'static AsrContext {
    static CTX: OnceLock<AsrContext> = OnceLock::new();
    CTX.get_or_init(|| {
        let asr = AsrSystem::train(&CORPUS, 5, AsrTrainConfig::default());
        let mut synth = Synthesizer::new(99, SynthConfig::default());
        let utts = CORPUS
            .iter()
            .map(|t| {
                let utt = synth.say(t);
                asr.frontend().extract(&utt.samples)
            })
            .collect();
        (asr, utts)
    })
}

fn bench_decode_eager_vs_lazy(c: &mut Criterion) {
    let (asr, utts) = asr_context();
    let decoder = Decoder::new(asr.lexicon(), DecoderConfig::default());
    let mut group = c.benchmark_group("kernel_decode");
    group.sample_size(10);
    group.bench_function("gmm_eager", |b| {
        b.iter(|| {
            for frames in utts {
                let emis = asr.gmm_scorer().score_utterance(frames);
                black_box(decoder.decode_scores(&emis, asr.lm(), asr.lexicon()));
            }
        })
    });
    group.bench_function("gmm_lazy", |b| {
        b.iter(|| {
            for frames in utts {
                let mut scores = asr.gmm_scorer().lazy_scores(frames);
                black_box(decoder.decode_lazy(&mut scores, asr.lm(), asr.lexicon()));
            }
        })
    });
    group.bench_function("dnn_eager", |b| {
        b.iter(|| {
            for frames in utts {
                let emis = asr.dnn_scorer().score_utterance(frames);
                black_box(decoder.decode_scores(&emis, asr.lm(), asr.lexicon()));
            }
        })
    });
    group.bench_function("dnn_lazy", |b| {
        b.iter(|| {
            for frames in utts {
                let mut scores = asr.dnn_scorer().lazy_scores(frames, None);
                black_box(decoder.decode_lazy(&mut scores, asr.lm(), asr.lexicon()));
            }
        })
    });
    group.finish();
}

fn bench_dnn_forward(c: &mut Criterion) {
    let mut rng = ChaCha8Rng::seed_from_u64(17);
    let net = Dnn::new(&[120, 256, 256, 128], &mut rng);
    let rows = 64usize;
    let x: Vec<f32> = (0..rows * 120)
        .map(|_| rng.gen_range(-1.0f32..1.0))
        .collect();
    let plan = net.plan();
    let mut group = c.benchmark_group("kernel_dnn_forward");
    group.sample_size(10);
    group.bench_function("per_frame_matvec", |b| {
        b.iter(|| {
            for row in x.chunks(120) {
                black_box(net.forward(row));
            }
        })
    });
    group.bench_function("batched_gemm", |b| {
        let mut scratch = DnnScratch::default();
        let mut out = Vec::new();
        b.iter(|| {
            net.forward_batch_into(&x, rows, &plan, &mut scratch, &mut out);
            black_box(out.last().copied());
        })
    });
    group.finish();
}

fn random_gmm(dim: usize, m: usize, rng: &mut ChaCha8Rng) -> Gmm {
    let means = (0..m * dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let vars = (0..m * dim).map(|_| rng.gen_range(0.2f32..1.5)).collect();
    let weights = (0..m).map(|_| rng.gen_range(0.1f32..1.0)).collect();
    Gmm::from_params(dim, means, vars, weights)
}

fn bench_gmm_layout(c: &mut Criterion) {
    let mut rng = ChaCha8Rng::seed_from_u64(29);
    let dim = 39usize;
    let gmm = random_gmm(dim, 16, &mut rng);
    let soa = gmm.soa();
    let rows: Vec<Vec<f32>> = (0..128)
        .map(|_| (0..dim).map(|_| rng.gen_range(-2.0f32..2.0)).collect())
        .collect();
    let frames = Frames::from_rows(&rows);
    let mut group = c.benchmark_group("kernel_gmm_layout");
    group.sample_size(10);
    group.bench_function("component_major_aos", |b| {
        b.iter(|| {
            for f in frames.rows() {
                black_box(gmm.log_likelihood(f));
            }
        })
    });
    group.bench_function("dimension_major_soa_batch", |b| {
        let mut out = vec![0.0f32; frames.len()];
        b.iter(|| {
            soa.log_likelihood_batch(&frames, &mut out);
            black_box(out.last().copied());
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_decode_eager_vs_lazy,
    bench_dnn_forward,
    bench_gmm_layout
);
criterion_main!(benches);
