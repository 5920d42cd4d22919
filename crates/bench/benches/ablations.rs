//! Ablation benches for the design choices called out in DESIGN.md:
//!
//! * Viterbi beam width (accuracy/latency trade-off in the decoder).
//! * SURF tile size for the multicore FE port (the paper fixes a 50x50
//!   minimum).
//! * Stemmer scheduling: chunked vs interleaved vs work-queue (the paper's
//!   Phi finding).
//! * CRF decoding: Viterbi vs posterior (forward-backward).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::sync::OnceLock;

use sirius_nlp::crf::{Crf, TrainConfig};
use sirius_nlp::pos;
use sirius_speech::asr::{AsrSystem, AsrTrainConfig};
use sirius_speech::hmm::{AcousticScorer, Decoder, DecoderConfig};
use sirius_speech::synth::{SynthConfig, Synthesizer};
use sirius_suite::kernels::fe::FeKernel;
use sirius_suite::kernels::stemmer::StemmerKernel;
use sirius_suite::Kernel;
use sirius_vision::synth as vsynth;

fn bench_beam_width(c: &mut Criterion) {
    static CTX: OnceLock<(AsrSystem, Vec<f32>, Vec<Vec<f32>>)> = OnceLock::new();
    let (asr, _samples, emissions) = CTX.get_or_init(|| {
        let corpus = ["set my alarm", "play some jazz", "what time is it"];
        let asr = AsrSystem::train(&corpus, 5, AsrTrainConfig::default());
        let utt = Synthesizer::new(99, SynthConfig::default()).say("play some jazz");
        let frames = asr.frontend().extract(&utt.samples);
        let emis = asr.gmm_scorer().score_utterance(&frames);
        (asr, utt.samples, emis)
    });
    let mut group = c.benchmark_group("ablation_beam");
    group.sample_size(10);
    for beam in [250.0f32, 1000.0, 2500.0, 10_000.0] {
        let decoder = Decoder::new(
            asr.lexicon(),
            // The beam axis alone: no cap on live tokens.
            DecoderConfig {
                beam,
                max_active: usize::MAX,
                ..DecoderConfig::default()
            },
        );
        group.bench_function(BenchmarkId::new("viterbi", beam as u64), |b| {
            b.iter(|| black_box(decoder.decode_scores(emissions, asr.lm(), asr.lexicon())))
        });
    }
    group.finish();
}

fn bench_tile_size(c: &mut Criterion) {
    let image = vsynth::generate_scene(7, 384, 288);
    let mut group = c.benchmark_group("ablation_fe_tile");
    group.sample_size(10);
    for tile in [64usize, 96, 128, 192] {
        let kernel = FeKernel::with_tile_size(image.clone(), tile);
        group.bench_function(BenchmarkId::new("tiled_x4", tile), |b| {
            b.iter(|| black_box(kernel.run_parallel(4)))
        });
    }
    group.finish();
}

fn bench_stemmer_scheduling(c: &mut Criterion) {
    let kernel = StemmerKernel::generate(0.2, 11);
    let mut group = c.benchmark_group("ablation_stemmer_sched");
    group.sample_size(10);
    group.bench_function("chunked_x4", |b| {
        b.iter(|| black_box(kernel.run_parallel(4)))
    });
    group.bench_function("interleaved_x4", |b| {
        b.iter(|| black_box(kernel.run_interleaved(4)))
    });
    group.bench_function("workqueue_x4", |b| {
        b.iter(|| black_box(kernel.run_workqueue(4)))
    });
    group.finish();
}

fn bench_crf_decoding(c: &mut Criterion) {
    let train = pos::generate(5, 200);
    let crf = Crf::train(pos::tag_set(), &train, TrainConfig::default());
    let sentences: Vec<Vec<String>> = pos::generate(6, 50).into_iter().map(|s| s.tokens).collect();
    let mut group = c.benchmark_group("ablation_crf_decode");
    group.sample_size(10);
    group.bench_function("viterbi", |b| {
        b.iter(|| {
            for s in &sentences {
                black_box(crf.decode(s));
            }
        })
    });
    group.bench_function("posterior", |b| {
        b.iter(|| {
            for s in &sentences {
                black_box(crf.decode_posterior(s));
            }
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_beam_width,
    bench_tile_size,
    bench_stemmer_scheduling,
    bench_crf_decoding
);
criterion_main!(benches);
