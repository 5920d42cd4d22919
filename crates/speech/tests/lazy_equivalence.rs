//! Equivalence gates for the lazy beam-driven scoring path.
//!
//! The lazy decoder must produce the *same bits* as the eager reference:
//! identical 1-best word sequence and identical total log-score, for both
//! acoustic models, across beam widths. A property-style
//! test additionally checks the lazy GMM cache never evaluates a
//! `(frame, state)` cell twice, and that narrow beams actually skip work.

use sirius_speech::asr::{Acoustic, AcousticModelKind, AsrOutput, AsrSystem, AsrTrainConfig};
use sirius_speech::hmm::{AcousticScorer, Decoder, DecoderConfig};
use sirius_speech::lexicon::Lexicon;
use sirius_speech::synth::{SynthConfig, Synthesizer};

const CORPUS: [&str; 4] = [
    "set my alarm",
    "call me a cab",
    "go home now",
    "stop the music",
];

fn system() -> AsrSystem {
    AsrSystem::train(&CORPUS, 42, AsrTrainConfig::default())
}

/// Lazy and eager decodes must agree exactly — same words, same score bits,
/// same search effort — for both scorers and several beam widths.
#[test]
fn lazy_decode_is_bit_identical_to_eager() {
    let asr = system();
    let mut synth = Synthesizer::new(321, SynthConfig::default());
    let utts: Vec<Vec<f32>> = CORPUS.iter().map(|t| synth.say(t).samples).collect();
    for beam in [10.0f32, 60.0, 2500.0] {
        let lexicon = Lexicon::from_texts(CORPUS);
        let decoder = Decoder::new(
            &lexicon,
            DecoderConfig {
                beam,
                ..DecoderConfig::default()
            },
        );
        for samples in &utts {
            let frames = asr.frontend().extract(samples);
            // GMM: eager matrix vs lazy provider.
            let emis = asr.gmm_scorer().score_utterance(&frames);
            let eager = decoder.decode_scores(&emis, asr.lm(), asr.lexicon());
            let mut lazy_scores = asr.gmm_scorer().lazy_scores(&frames);
            let lazy = decoder.decode_lazy(&mut lazy_scores, asr.lm(), asr.lexicon());
            match (eager, lazy) {
                (Some(a), Some(b)) => {
                    assert_eq!(a.words, b.words, "GMM words beam={beam}");
                    assert_eq!(
                        a.score.to_bits(),
                        b.score.to_bits(),
                        "GMM score beam={beam}"
                    );
                    assert_eq!(a.tokens_expanded, b.tokens_expanded);
                    assert_eq!(a.complete, b.complete);
                }
                (a, b) => assert_eq!(a.is_none(), b.is_none(), "GMM beam={beam}"),
            }
            // DNN: eager matrix vs block-batched lazy provider.
            let emis = asr.dnn_scorer().score_utterance(&frames);
            let eager = decoder.decode_scores(&emis, asr.lm(), asr.lexicon());
            let mut lazy_scores = asr.dnn_scorer().lazy_scores(&frames, None);
            let lazy = decoder.decode_lazy(&mut lazy_scores, asr.lm(), asr.lexicon());
            match (eager, lazy) {
                (Some(a), Some(b)) => {
                    assert_eq!(a.words, b.words, "DNN words beam={beam}");
                    assert_eq!(
                        a.score.to_bits(),
                        b.score.to_bits(),
                        "DNN score beam={beam}"
                    );
                    assert_eq!(a.tokens_expanded, b.tokens_expanded);
                }
                (a, b) => assert_eq!(a.is_none(), b.is_none(), "DNN beam={beam}"),
            }
        }
    }
}

/// The eager oracle: the front-end, the whole `frames x states` score
/// matrix, then the search over it. It never enters `StreamingRecognizer`,
/// so `recognize` is checked against a path that is not its own.
fn eager_oracle(asr: &AsrSystem, samples: &[f32], kind: AcousticModelKind) -> AsrOutput {
    let frames = asr.frontend().extract(samples);
    let emis = match kind {
        AcousticModelKind::Gmm => asr.gmm_scorer().score_utterance(&frames),
        AcousticModelKind::Dnn => asr.dnn_scorer().score_utterance(&frames),
    };
    let decoded = asr.decoder().decode_scores(&emis, asr.lm(), asr.lexicon());
    let (text, tokens_expanded, confidence) = match decoded {
        Some(r) => (
            r.words.join(" "),
            r.tokens_expanded,
            r.confidence(frames.len()),
        ),
        None => (String::new(), 0, 0.0),
    };
    AsrOutput {
        text,
        timing: Default::default(),
        frames: frames.len(),
        tokens_expanded,
        confidence,
    }
}

/// The end-to-end recognize() entry point must agree with the eager oracle.
#[test]
fn recognize_modes_agree() {
    let asr = system();
    let mut synth = Synthesizer::new(654, SynthConfig::default());
    for text in CORPUS {
        let utt = synth.say(text);
        for kind in [AcousticModelKind::Gmm, AcousticModelKind::Dnn] {
            let eager = eager_oracle(&asr, &utt.samples, kind);
            let lazy = asr.recognize(&utt.samples, kind);
            assert_eq!(eager.text, lazy.text, "{kind} {text}");
            assert_eq!(eager.tokens_expanded, lazy.tokens_expanded);
            assert_eq!(eager.confidence, lazy.confidence);
            let default = asr.recognize(&utt.samples, kind);
            assert_eq!(default.text, lazy.text);
        }
    }
}

/// The remote-scorer decode path (the seam the serving layer batches
/// across queries at) must be bit-identical to the local DNN decode — same
/// text, same confidence bits, same search effort — when the "remote" is
/// the scorer itself, and must actually route every block through it. A
/// remote offered to the GMM is never called: it has no GEMM to batch.
#[test]
fn window_scorer_decode_is_bit_identical_to_local_dnn() {
    use std::sync::atomic::{AtomicUsize, Ordering};

    use sirius_speech::WindowScorer;

    /// Delegating scorer that counts blocks and rows, standing in for a
    /// serving-layer batch collector.
    struct Counting<'a> {
        inner: &'a dyn WindowScorer,
        blocks: AtomicUsize,
        rows: AtomicUsize,
    }

    impl WindowScorer for Counting<'_> {
        fn score_windows(&self, x: &[f32], rows: usize) -> Vec<f32> {
            self.blocks.fetch_add(1, Ordering::Relaxed);
            self.rows.fetch_add(rows, Ordering::Relaxed);
            self.inner.score_windows(x, rows)
        }
    }

    let asr = system();
    let mut synth = Synthesizer::new(444, SynthConfig::default());
    for text in CORPUS {
        let utt = synth.say(text);
        let local = asr.recognize(&utt.samples, AcousticModelKind::Dnn);

        // The scorer is its own reference WindowScorer implementation.
        let direct = asr.recognize(&utt.samples, Acoustic::Dnn(Some(asr.dnn_scorer())));
        assert_eq!(direct.text, local.text, "{text}");
        assert_eq!(direct.confidence.to_bits(), local.confidence.to_bits());
        assert_eq!(direct.tokens_expanded, local.tokens_expanded);
        assert_eq!(direct.frames, local.frames);

        let counting = Counting {
            inner: asr.dnn_scorer(),
            blocks: AtomicUsize::new(0),
            rows: AtomicUsize::new(0),
        };
        // GMM + remote is unrepresentable: `Acoustic::new` drops the remote,
        // the decode is plain GMM and the counting scorer sees zero blocks.
        let gmm = asr.recognize(&utt.samples, AcousticModelKind::Gmm);
        let gmm_via = asr.recognize(
            &utt.samples,
            Acoustic::new(AcousticModelKind::Gmm, Some(&counting)),
        );
        assert_eq!(gmm_via.text, gmm.text, "{text}");
        assert_eq!(gmm_via.confidence.to_bits(), gmm.confidence.to_bits());
        assert_eq!(gmm_via.tokens_expanded, gmm.tokens_expanded);
        assert_eq!(gmm_via.frames, gmm.frames);
        assert_eq!(
            counting.blocks.load(Ordering::Relaxed),
            0,
            "GMM used remote"
        );
        assert_eq!(counting.rows.load(Ordering::Relaxed), 0);

        // A wrapping scorer sees every block: rows must cover the decode's
        // visited frames (blocks of <= 16, so blocks * 16 >= rows > 0).
        let via = asr.recognize(
            &utt.samples,
            Acoustic::new(AcousticModelKind::Dnn, Some(&counting)),
        );
        assert_eq!(via.text, local.text, "{text}");
        assert_eq!(via.confidence.to_bits(), local.confidence.to_bits());
        let blocks = counting.blocks.load(Ordering::Relaxed);
        let rows = counting.rows.load(Ordering::Relaxed);
        assert!(blocks > 0, "no block was delegated");
        assert!(rows > 0 && rows <= local.frames);
        assert!(blocks * 16 >= rows, "blocks {blocks} rows {rows}");
    }
}

/// Property: the memoizing cache never computes a `(frame, state)` pair
/// twice — `computed <= total_cells` and every repeated read hits the memo.
/// Seeded across several utterances and beam widths.
#[test]
fn lazy_cache_never_computes_a_cell_twice() {
    let asr = system();
    let mut synth = Synthesizer::new(987, SynthConfig::default());
    for (i, text) in CORPUS.iter().enumerate() {
        let utt = synth.say(text);
        let frames = asr.frontend().extract(&utt.samples);
        for beam in [15.0f32, 120.0, 2500.0] {
            let decoder = Decoder::new(
                asr.lexicon(),
                DecoderConfig {
                    beam,
                    ..DecoderConfig::default()
                },
            );
            let mut scores = asr.gmm_scorer().lazy_scores(&frames);
            let _ = decoder.decode_lazy(&mut scores, asr.lm(), asr.lexicon());
            let stats = scores.stats();
            // The decoder re-reads shared emissions many times per frame;
            // the cache must have evaluated each at most once. If any cell
            // were computed twice, `computed` would exceed the dense total
            // on wide beams (requested >> total_cells here).
            assert!(
                stats.computed <= stats.total_cells,
                "utt {i} beam {beam}: computed {} > cells {}",
                stats.computed,
                stats.total_cells
            );
            assert!(
                stats.requested > stats.computed,
                "utt {i} beam {beam}: memoization never hit"
            );
        }
    }
}

/// Narrow beams must evaluate strictly fewer cells than the dense matrix —
/// the lazy win the tentpole is about.
#[test]
fn narrow_beam_skips_scoring_work() {
    let asr = system();
    let utt = Synthesizer::new(55, SynthConfig::default()).say("go home now");
    let frames = asr.frontend().extract(&utt.samples);
    let decode_computed = |beam: f32| {
        let decoder = Decoder::new(
            asr.lexicon(),
            DecoderConfig {
                beam,
                ..DecoderConfig::default()
            },
        );
        let mut scores = asr.gmm_scorer().lazy_scores(&frames);
        let _ = decoder.decode_lazy(&mut scores, asr.lm(), asr.lexicon());
        scores.stats()
    };
    let narrow = decode_computed(15.0);
    let wide = decode_computed(2500.0);
    assert!(
        narrow.computed < wide.computed,
        "narrow {} !< wide {}",
        narrow.computed,
        wide.computed
    );
    assert!(
        narrow.computed < narrow.total_cells,
        "narrow beam computed the dense matrix"
    );
}

/// The cap axis: eager and lazy decodes must stay bit-identical — words,
/// score bits, search effort — when the rank limit, not the score beam, is
/// what prunes: `max_active` 8 and 64 each cut below what the beam leaves
/// (asserted at the end), `usize::MAX` never does.
#[test]
fn lazy_decode_is_bit_identical_to_eager_when_the_cap_binds() {
    let asr = system();
    let mut synth = Synthesizer::new(321, SynthConfig::default());
    let utts: Vec<Vec<f32>> = CORPUS.iter().map(|t| synth.say(t).samples).collect();
    let mut effort = Vec::new();
    for max_active in [8usize, 64, usize::MAX] {
        let decoder = Decoder::new(
            asr.lexicon(),
            DecoderConfig {
                max_active,
                ..DecoderConfig::default()
            },
        );
        let mut tokens = 0;
        for samples in &utts {
            let frames = asr.frontend().extract(samples);
            let emis = asr.gmm_scorer().score_utterance(&frames);
            let eager = decoder.decode_scores(&emis, asr.lm(), asr.lexicon());
            let mut lazy_scores = asr.gmm_scorer().lazy_scores(&frames);
            let lazy = decoder.decode_lazy(&mut lazy_scores, asr.lm(), asr.lexicon());
            let emis = asr.dnn_scorer().score_utterance(&frames);
            let eager_dnn = decoder.decode_scores(&emis, asr.lm(), asr.lexicon());
            let mut lazy_scores = asr.dnn_scorer().lazy_scores(&frames, None);
            let lazy_dnn = decoder.decode_lazy(&mut lazy_scores, asr.lm(), asr.lexicon());
            for (model, eager, lazy) in [("GMM", eager, lazy), ("DNN", eager_dnn, lazy_dnn)] {
                let (a, b) = (eager.expect("eager decode"), lazy.expect("lazy decode"));
                assert_eq!(a.words, b.words, "{model} words cap={max_active}");
                assert_eq!(
                    a.score.to_bits(),
                    b.score.to_bits(),
                    "{model} score cap={max_active}"
                );
                assert_eq!(a.tokens_expanded, b.tokens_expanded, "{model}");
                assert_eq!(a.runner_up_score, b.runner_up_score, "{model}");
                assert_eq!(a.complete, b.complete, "{model}");
                tokens += a.tokens_expanded;
            }
        }
        effort.push(tokens);
    }
    // The axis is exercised: each tighter cap really pruned more.
    assert!(effort[0] < effort[1] && effort[1] < effort[2], "{effort:?}");
}
