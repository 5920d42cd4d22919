//! Kernel speedup summary for the lazy-scoring / GEMM-batching work.
//!
//! Measures three pairs — eager vs lazy end-to-end ASR decode (GMM and
//! DNN), per-frame matvec vs GEMM-batched DNN forward, and AoS vs SoA GMM
//! scoring — and prints a JSON summary to stdout. `eager_ms` is the eager
//! oracle (the whole score matrix, then the search); `lazy_ms` is
//! `AsrSystem::recognize`, one streaming recognizer run once per utterance;
//! `streaming_one_chunk_ms` is the public streaming entry over the same
//! audio as one chunk (`push_chunk` + `finish`), which adds the sample
//! check. `outputs_match` holds when all three give the eager transcripts.
//! This binary is the repo's one kernel timer; its stdout is the committed
//! `BENCH_kernels.json`.
//!
//! The `build` section times `Sirius::build(SiriusConfig::default())` by
//! phase (`Sirius::build_timed`): ASR synthesis and features, GMM EM, the
//! DNN's SGD and its examples per second, the CRF, the search index, the
//! QA engine's one-time document analysis (`qa_analysis_ms`) and the IMM
//! database. `asr_ms` is all of ASR training; `total_ms` the whole build.
//!
//! The `qa` section times `QaEngine::answer` on the input set's 26 QA
//! questions, the voice-image ones rewritten by image matching as the
//! pipeline serves them: `us_per_question` is the median over reps of the
//! mean over `QA_PASSES` passes. `analysis` sizes the document analysis the
//! filters read (`heap_kb` is a lower bound: lengths, not capacities).
//!
//! The `imm` section times the IMM stage's descriptor search on the
//! default database: `ann_us_per_view` is the median over reps of
//! `ImageDatabase::match_partial` (the exact two-nearest-neighbour scan of
//! every query descriptor) per view, over the 42-query set's VIQ images and
//! seeded `random_view`s of every venue; the query features are extracted
//! once, outside the timing.
//!
//! The `pruning` section is the calibration of the decoder's two limits
//! ([`DecoderConfig`]): over the 42 query texts at four synthesis seeds it
//! finds the smallest score beam and the smallest `max_active` that still
//! give every transcript of the exhaustive search, and the binary exits
//! non-zero — so nothing is published — when the shipped default is less
//! than twice either. These are counts, not timings: they repeat exactly.
//!
//! The `ablations` section times the design choices of DESIGN.md §5: the
//! Viterbi beam width (no `max_active` cap), the SURF tile size of the
//! 4-thread FE port, the three stemmer schedules at 4 threads (the binary
//! exits non-zero if their checksums differ) and CRF Viterbi against
//! posterior decoding.
//!
//! Usage: `bench_kernels [--reps N]` (default 5; medians over reps).

use std::time::Instant;

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use sirius::pipeline::{Sirius, SiriusConfig};
use sirius::stage::ImmRequest;
use sirius::{prepare_input_set, QueryKind};
use sirius_nlp::crf::{Crf, TrainConfig};
use sirius_nlp::pos;
use sirius_speech::asr::{AcousticModelKind, AsrSystem, AsrTrainConfig};
use sirius_speech::dnn::{Dnn, DnnScratch};
use sirius_speech::features::{Frames, FrontendScratch, FRAME_HOP, FRAME_LEN, NUM_CEPSTRA};
use sirius_speech::gmm::Gmm;
use sirius_speech::hmm::{AcousticScorer, Decoder, DecoderConfig, EagerScores};
use sirius_speech::synth::{SynthConfig, Synthesizer};
use sirius_speech::StreamingDecoder;
use sirius_suite::kernels::fe::FeKernel;
use sirius_suite::kernels::stemmer::StemmerKernel;
use sirius_suite::Kernel;
use sirius_vision::synth as vsynth;
use sirius_vision::QueryFeatures;

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

/// Median wall time of `f` over `reps` calls, in ms, and its last output.
fn timed<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut ms = Vec::with_capacity(reps);
    let mut out = None;
    for _ in 0..reps {
        let t = Instant::now();
        out = Some(std::hint::black_box(f()));
        ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    (median(&mut ms), out.expect("reps >= 1"))
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
/// through the delta rows. The two chains that share the power spectrum run
/// back to back in every rep, and `mel_log_dct_ms` is the median of the
/// per-rep differences, so a slow spell hits both halves of a difference.
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
    let (mut fft, mut mel_log_dct) = (Vec::with_capacity(reps), Vec::with_capacity(reps));
    let mut cepstra = Vec::new();
    for _ in 0..reps {
        let (fft_ms, ()) = timed(1, || {
            for samples in utts {
                for start in starts(samples) {
                    fe.power_spectrum(samples, start, &mut scratch);
                }
            }
        });
        let cepstra_ms;
        (cepstra_ms, cepstra) = timed(1, || {
            utts.iter()
                .map(|samples| {
                    let mut cepstra = Frames::new(NUM_CEPSTRA);
                    for start in starts(samples) {
                        fe.cepstra_frame(samples, start, &mut scratch, &mut cepstra);
                    }
                    cepstra
                })
                .collect::<Vec<_>>()
        });
        fft.push(fft_ms);
        mel_log_dct.push(cepstra_ms - fft_ms);
    }
    let (deltas_ms, _) = timed(reps, || {
        cepstra.iter().map(Frames::with_deltas).collect::<Vec<_>>()
    });
    FrontendSplit {
        fft_ms: median(&mut fft),
        mel_log_dct_ms: median(&mut mel_log_dct),
        deltas_ms,
    }
}

/// Seeded `random_view`s the `imm` section matches beside the VIQ images.
const IMM_VIEWS: u64 = 200;

fn bench_imm(sirius: &Sirius, reps: usize) -> String {
    let db = sirius.imm();
    let viq = prepare_input_set(sirius, 9999)
        .into_iter()
        .filter_map(|p| p.image);
    let venues = sirius.venues().len() as u64;
    let views = (0..IMM_VIEWS).map(|i| {
        let scene = sirius.venue_scene((i % venues) as usize);
        vsynth::random_view(&scene, 31_000 + i)
    });
    let features: Vec<QueryFeatures> = viq.chain(views).map(|v| db.extract_query(&v)).collect();
    let descriptors: usize = features.iter().map(QueryFeatures::len).sum();
    let (ms, _) = timed(reps, || {
        features
            .iter()
            .map(|f| db.match_partial(f))
            .collect::<Vec<_>>()
    });
    let per_view = |x: f64| x / features.len() as f64;
    format!(
        "  \"imm\": {{ \"views\": {}, \"database_descriptors\": {}, \"query_descriptors_per_view\": {:.1}, \"ann_us_per_view\": {:.1} }},",
        features.len(),
        db.num_descriptors(),
        per_view(descriptors as f64),
        per_view(ms * 1e3)
    )
}

/// Passes over the 26 QA questions per `qa` rep.
const QA_PASSES: usize = 10;

fn bench_qa(sirius: &Sirius, reps: usize) -> String {
    let questions: Vec<String> = prepare_input_set(sirius, 9999)
        .into_iter()
        .filter(|p| p.spec.kind != QueryKind::VoiceCommand)
        .map(|p| {
            let req = ImmRequest {
                question: p.spec.text.to_owned(),
                image: p.image,
            };
            sirius.stage_imm(req).expect("image matching").question
        })
        .collect();
    let qa = sirius.qa();
    let pass = || {
        questions
            .iter()
            .map(|q| qa.answer(q).answer)
            .collect::<Vec<_>>()
    };
    pass();
    let (ms, ()) = timed(reps, || {
        for _ in 0..QA_PASSES {
            std::hint::black_box(pass());
        }
    });
    let analysis = qa.corpus_analysis();
    format!(
        "  \"qa\": {{ \"questions\": {}, \"us_per_question\": {:.1}, \"analysis\": {{ \"docs\": {}, \"sentences\": {}, \"stems\": {}, \"distinct_stems\": {}, \"heap_kb\": {:.0} }} }},",
        questions.len(),
        ms * 1e3 / (QA_PASSES * questions.len()) as f64,
        analysis.len(),
        analysis.num_sentences(),
        analysis.num_stems(),
        analysis.num_distinct_stems(),
        analysis.heap_bytes() as f64 / 1024.0
    )
}

/// The eager oracle's transcript: the front-end, the whole `frames x
/// states` score matrix, then the search over it — the path that never
/// enters the streaming recognizer `recognize` runs.
fn eager_text(asr: &AsrSystem, samples: &[f32], kind: AcousticModelKind) -> String {
    let frames = asr.frontend().extract(samples);
    let emis = match kind {
        AcousticModelKind::Gmm => asr.gmm_scorer().score_utterance(&frames),
        AcousticModelKind::Dnn => asr.dnn_scorer().score_utterance(&frames),
    };
    asr.decoder()
        .decode_scores(&emis, asr.lm(), asr.lexicon())
        .map_or_else(String::new, |r| r.words.join(" "))
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
            eager_texts.push(eager_text(asr, samples, kind));
        }
        eager.push(t.elapsed().as_secs_f64() * 1e3);
        let (mut fe_s, mut sc_s, mut se_s) = (0.0f64, 0.0f64, 0.0f64);
        (tokens, frames) = (0, 0);
        let t = Instant::now();
        for (samples, expect) in utts.iter().zip(&eager_texts) {
            let out = asr.recognize(samples, kind);
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
    let (per_frame_ms, reference) = timed(reps, || {
        x.chunks(120)
            .map(|row| net.forward(row))
            .collect::<Vec<_>>()
    });
    let (mut scratch, mut out) = (DnnScratch::default(), Vec::new());
    let (batched_ms, ()) = timed(reps, || {
        net.forward_batch_into(&x, rows, &plan, &mut scratch, &mut out)
    });
    let bit_identical = reference
        .iter()
        .flatten()
        .zip(&out)
        .all(|(a, b)| a.to_bits() == b.to_bits());
    (per_frame_ms, batched_ms, bit_identical)
}

/// `Sirius::build(SiriusConfig::default())` `reps` times: the median of
/// each phase as one JSON section, and the last build (for the pruning
/// calibration).
fn bench_build(reps: usize) -> (String, Sirius) {
    let mut phases: [Vec<f64>; 9] = Default::default();
    let mut last = None;
    let mut dnn_examples = 0;
    for _ in 0..reps {
        let t = Instant::now();
        let (sirius, b) = Sirius::build_timed(SiriusConfig::default());
        let total = t.elapsed();
        let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
        let sample = [
            ms(total),
            ms(b.asr_total),
            ms(b.asr.synthesis_features),
            ms(b.asr.gmm_em),
            ms(b.asr.dnn_sgd),
            ms(b.crf),
            ms(b.index),
            ms(b.qa_analysis),
            ms(b.imm),
        ];
        for (p, v) in phases.iter_mut().zip(sample) {
            p.push(v);
        }
        dnn_examples = b.asr.dnn_examples;
        last = Some(sirius);
    }
    let [total, asr, synth, gmm, sgd, crf, index, qa_analysis, imm] =
        phases.map(|mut p| median(&mut p));
    let json = format!(
        "  \"build\": {{ \"total_ms\": {total:.1}, \"asr_ms\": {asr:.1}, \"asr_synthesis_features_ms\": {synth:.1}, \"asr_gmm_em_ms\": {gmm:.1}, \"asr_dnn_sgd_ms\": {sgd:.1}, \"crf_ms\": {crf:.1}, \"index_ms\": {index:.1}, \"qa_analysis_ms\": {qa_analysis:.1}, \"imm_ms\": {imm:.1}, \"dnn_examples\": {dnn_examples}, \"dnn_examples_per_s\": {:.0} }},",
        dnn_examples as f64 / (sgd / 1e3)
    );
    (json, last.expect("reps >= 1"))
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
    let (aos_ms, reference) = timed(reps, || {
        frames
            .rows()
            .map(|f| gmm.log_likelihood(f))
            .collect::<Vec<_>>()
    });
    let mut out = vec![0.0f32; frames.len()];
    let (soa_ms, ()) = timed(reps, || soa.log_likelihood_batch(&frames, &mut out));
    let bit_identical = reference
        .iter()
        .zip(&out)
        .all(|(a, b)| a.to_bits() == b.to_bits());
    (aos_ms, soa_ms, bit_identical)
}

/// The design ablations of DESIGN.md §5 as one JSON section, and whether
/// the three stemmer schedules agree on their checksum.
fn bench_ablations(asr: &AsrSystem, utts: &[Vec<f32>], reps: usize) -> (String, bool) {
    // Viterbi beam width, the beam axis alone (no cap on live tokens), over
    // the corpus's GMM score matrices.
    let emis: Vec<_> = utts
        .iter()
        .map(|s| asr.gmm_scorer().score_utterance(&asr.frontend().extract(s)))
        .collect();
    let frames: usize = emis.iter().map(Vec::len).sum();
    let beam = [250.0f32, 1000.0, 2500.0, 10_000.0].map(|beam| {
        let config = DecoderConfig {
            beam,
            max_active: usize::MAX,
            ..DecoderConfig::default()
        };
        let decoder = Decoder::new(asr.lexicon(), config);
        let (ms, tokens) = timed(reps, || {
            emis.iter()
                .filter_map(|e| decoder.decode_scores(e, asr.lm(), asr.lexicon()))
                .map(|r| r.tokens_expanded)
                .sum::<usize>()
        });
        let tpf = tokens as f64 / frames as f64;
        format!("\"{beam}\": {{ \"decode_ms\": {ms:.3}, \"tokens_per_frame\": {tpf:.1} }}")
    });
    // SURF tile size of the 4-thread FE port (the paper floors it at 50).
    let image = vsynth::generate_scene(7, 384, 288);
    let fe_tile = [64usize, 96, 128, 192].map(|tile| {
        let kernel = FeKernel::with_tile_size(image.clone(), tile);
        let (ms, keypoints) = timed(reps, || kernel.run_parallel(4));
        format!("\"{tile}\": {{ \"ms\": {ms:.3}, \"keypoints\": {keypoints} }}")
    });
    // Stemmer scheduling at 4 threads (the paper's Phi finding).
    let stems = StemmerKernel::generate(0.2, 11);
    let schedules = [
        ("chunked", timed(reps, || stems.run_parallel(4))),
        ("interleaved", timed(reps, || stems.run_interleaved(4))),
        ("workqueue", timed(reps, || stems.run_workqueue(4))),
    ];
    let (_, (_, first)) = schedules[0];
    let stems_match = schedules.iter().all(|(_, (_, sum))| *sum == first);
    let stemmer = schedules
        .map(|(name, (ms, sum))| format!("\"{name}\": {{ \"ms\": {ms:.3}, \"checksum\": {sum} }}"));
    // CRF decoding: Viterbi against posterior (forward-backward).
    let crf = Crf::train(
        pos::tag_set(),
        &pos::generate(5, 200),
        TrainConfig::default(),
    );
    let sentences: Vec<_> = pos::generate(6, 50).into_iter().map(|s| s.tokens).collect();
    let (viterbi_ms, _) = timed(reps, || {
        sentences.iter().map(|s| crf.decode(s)).collect::<Vec<_>>()
    });
    let (posterior_ms, _) = timed(reps, || {
        sentences
            .iter()
            .map(|s| crf.decode_posterior(s))
            .collect::<Vec<_>>()
    });
    let json = format!(
        concat!(
            "  \"ablations\": {{\n",
            "    \"beam\": {{ \"utterances\": {}, \"frames\": {}, \"max_active\": \"unbounded\", {} }},\n",
            "    \"fe_tile\": {{ \"threads\": 4, {} }},\n",
            "    \"stemmer_schedule\": {{ \"threads\": 4, \"words\": {}, {}, \"checksums_match\": {} }},\n",
            "    \"crf_decode\": {{ \"sentences\": {}, \"viterbi_ms\": {:.3}, \"posterior_ms\": {:.3} }}\n",
            "  }}"
        ),
        emis.len(),
        frames,
        beam.join(", "),
        fe_tile.join(", "),
        stems.items(),
        stemmer.join(", "),
        stems_match,
        sentences.len(),
        viterbi_ms,
        posterior_ms,
    );
    (json, stems_match)
}

/// Synthesis seeds of the calibration set: the benchmark's 9999 and three
/// more, 42 query texts each.
const PRUNING_SEEDS: [u64; 4] = [9999, 1, 2, 3];
/// Candidate limits, widest first; each axis is walked down until a
/// transcript changes, the other axis held at the exhaustive setting.
const BEAM_GRID: [f32; 10] = [
    400.0, 300.0, 200.0, 150.0, 100.0, 80.0, 60.0, 40.0, 30.0, 20.0,
];
const MAX_ACTIVE_GRID: [usize; 8] = [64, 48, 32, 24, 16, 12, 8, 4];
/// The shipped limits must sit at least this far above the smallest ones
/// that lose nothing.
const MIN_MARGIN: f64 = 2.0;

struct Pruning {
    /// Tokens expanded per frame at the shipped defaults.
    tokens_per_frame: f64,
    /// Most tokens expanded in any one frame at the shipped defaults (above
    /// `max_active` only through ties at the cut).
    live_max: usize,
    /// Transcripts at the shipped defaults that differ from the exhaustive
    /// search's.
    shipped_differ: usize,
    lossless_beam: f32,
    lossless_max_active: usize,
}

impl Pruning {
    fn beam_margin(&self) -> f64 {
        f64::from(DecoderConfig::default().beam / self.lossless_beam)
    }

    fn max_active_margin(&self) -> f64 {
        DecoderConfig::default().max_active as f64 / self.lossless_max_active as f64
    }

    fn holds(&self) -> bool {
        self.shipped_differ == 0
            && self.beam_margin() >= MIN_MARGIN
            && self.max_active_margin() >= MIN_MARGIN
    }

    fn json(&self, name: &str) -> String {
        format!(
            "    \"{}\": {{ \"tokens_per_frame\": {:.1}, \"live_max\": {}, \"shipped_differ\": {}, \"lossless_beam\": {}, \"lossless_max_active\": {}, \"beam_margin\": {:.2}, \"max_active_margin\": {:.2} }}",
            name,
            self.tokens_per_frame,
            self.live_max,
            self.shipped_differ,
            self.lossless_beam,
            self.lossless_max_active,
            self.beam_margin(),
            self.max_active_margin(),
        )
    }
}

/// Calibrates the two limits for one acoustic model over pre-scored
/// emissions (`emis[utterance][frame][state]`).
fn bench_pruning(asr: &AsrSystem, emis: &[Vec<Vec<f32>>]) -> Pruning {
    let exhaustive = DecoderConfig {
        beam: 2500.0,
        max_active: usize::MAX,
        ..DecoderConfig::default()
    };
    let words = |config: DecoderConfig| {
        let decoder = Decoder::new(asr.lexicon(), config);
        move |e: &Vec<Vec<f32>>| {
            decoder
                .decode_scores(e, asr.lm(), asr.lexicon())
                .map(|r| r.words)
        }
    };
    let reference: Vec<_> = emis.iter().map(words(exhaustive)).collect();
    let lossless = |config: DecoderConfig| {
        let decode = words(config);
        emis.iter()
            .zip(&reference)
            .all(|(e, want)| decode(e) == *want)
    };
    let lossless_beam = BEAM_GRID
        .into_iter()
        .take_while(|&beam| lossless(DecoderConfig { beam, ..exhaustive }))
        .last()
        .unwrap_or(f32::INFINITY);
    let lossless_max_active = MAX_ACTIVE_GRID
        .into_iter()
        .take_while(|&max_active| {
            lossless(DecoderConfig {
                max_active,
                ..exhaustive
            })
        })
        .last()
        .unwrap_or(usize::MAX);

    // The shipped defaults, one frame at a time, so the per-frame count can
    // be read off the running total.
    let shipped = Decoder::new(asr.lexicon(), DecoderConfig::default());
    let (mut tokens, mut frames, mut live_max, mut shipped_differ) = (0, 0, 0, 0);
    for (e, want) in emis.iter().zip(&reference) {
        let mut sdec = StreamingDecoder::new(&shipped, asr.lm());
        let mut scores = EagerScores::new(e);
        for t in 1..=e.len() {
            let before = sdec.tokens_expanded();
            sdec.advance(&mut scores, t);
            live_max = live_max.max(sdec.tokens_expanded() - before);
        }
        tokens += sdec.tokens_expanded();
        frames += e.len();
        shipped_differ += usize::from(sdec.finish(asr.lexicon()).map(|r| r.words) != *want);
    }
    Pruning {
        tokens_per_frame: tokens as f64 / frames.max(1) as f64,
        live_max,
        shipped_differ,
        lossless_beam,
        lossless_max_active,
    }
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

    eprintln!("benchmarking the design ablations...");
    let (ablations, stems_match) = bench_ablations(&asr, &utts, reps);

    eprintln!("timing Sirius::build, {reps} reps...");
    let (build, sirius) = bench_build(reps);
    eprintln!("timing the IMM descriptor search, {reps} reps...");
    let imm = bench_imm(&sirius, reps);
    eprintln!("timing QA on the input set's questions, {reps} reps...");
    let qa = bench_qa(&sirius, reps);

    eprintln!("calibrating the decoder's pruning limits (full vocabulary)...");
    let full = sirius.asr();
    let audio: Vec<Frames> = PRUNING_SEEDS
        .iter()
        .flat_map(|&seed| {
            let mut synth = Synthesizer::new(seed, SynthConfig::default());
            sirius::input_set()
                .into_iter()
                .map(move |spec| synth.say(spec.text).samples)
        })
        .map(|samples| full.frontend().extract(&samples))
        .collect();
    let score = |scorer: &dyn AcousticScorer| -> Vec<Vec<Vec<f32>>> {
        audio.iter().map(|f| scorer.score_utterance(f)).collect()
    };
    let prune_gmm = bench_pruning(full, &score(full.gmm_scorer()));
    let prune_dnn = bench_pruning(full, &score(full.dnn_scorer()));

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
        "  \"gmm_scoring\": {{ \"component_major_aos_ms\": {:.3}, \"dimension_major_soa_ms\": {:.3}, \"speedup\": {:.2}, \"bit_identical\": {} }},",
        aos_ms,
        soa_ms,
        aos_ms / soa_ms,
        gmm_bits
    );
    println!("{build}");
    println!("{imm}");
    println!("{qa}");
    let shipped = DecoderConfig::default();
    println!("  \"pruning\": {{");
    println!(
        "    \"utterances\": {}, \"frames\": {}, \"beam\": {}, \"max_active\": {},",
        audio.len(),
        audio.iter().map(Frames::len).sum::<usize>(),
        shipped.beam,
        shipped.max_active
    );
    println!("{},", prune_gmm.json("gmm"));
    println!("{}", prune_dnn.json("dnn"));
    println!("  }},");
    println!("{ablations}");
    println!("}}");
    if !(prune_gmm.holds() && prune_dnn.holds()) {
        eprintln!(
            "pruning margin lost: a shipped limit is under {MIN_MARGIN} x the smallest lossless one, or changes a transcript"
        );
        std::process::exit(1);
    }
    if !stems_match {
        eprintln!("stemmer schedules disagree on the checksum");
        std::process::exit(1);
    }
}
