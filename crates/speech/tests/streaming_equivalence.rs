//! Equivalence and stability gates for streaming recognition.
//!
//! 1. **Bit-identity**: the streaming path's final hypothesis must equal
//!    batch recognition exactly — same words, same score/confidence bits,
//!    same search effort — across beam widths, both acoustic models and
//!    several chunk sizes. The streaming decoder replays
//!    exactly the batch transitions, so any divergence is a bug, not noise.
//! 2. **Stable prefixes**: the committed prefix must never be retracted as
//!    chunks arrive, and must end as a prefix of the final hypothesis —
//!    checked across 100 seeded utterances (the property the server's
//!    speculative pipelining is built on).

use sirius_speech::asr::{Acoustic, AcousticModelKind, AsrSystem, AsrTrainConfig};
use sirius_speech::hmm::{AcousticScorer, Decoder, DecoderConfig, EagerScores};
use sirius_speech::lexicon::Lexicon;
use sirius_speech::synth::{SynthConfig, Synthesizer};
use sirius_speech::{StreamingDecoder, StreamingError};

const CORPUS: [&str; 4] = [
    "set my alarm",
    "call me a cab",
    "go home now",
    "stop the music",
];

fn system() -> AsrSystem {
    AsrSystem::train(&CORPUS, 42, AsrTrainConfig::default())
}

/// Decoder-level gate: a [`StreamingDecoder`] fed emission prefixes in
/// uneven chunks must finish bit-identical to `decode_lazy` over the full
/// matrix — for both scorers and several beam widths — and its committed
/// prefix must only ever extend.
#[test]
fn streaming_decoder_matches_batch_across_beams_and_models() {
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
            for model in [AcousticModelKind::Gmm, AcousticModelKind::Dnn] {
                let emis = match model {
                    AcousticModelKind::Gmm => asr.gmm_scorer().score_utterance(&frames),
                    AcousticModelKind::Dnn => asr.dnn_scorer().score_utterance(&frames),
                };
                let mut lazy = EagerScores::new(&emis);
                let batch = decoder.decode_lazy(&mut lazy, asr.lm(), asr.lexicon());
                for step in [1usize, 3, 17] {
                    let mut sdec = StreamingDecoder::new(&decoder, asr.lm());
                    let mut prev: Vec<u32> = Vec::new();
                    let mut horizon = 0usize;
                    while horizon < emis.len() {
                        horizon = (horizon + step).min(emis.len());
                        let mut scores = EagerScores::new(&emis[..horizon]);
                        sdec.advance(&mut scores, horizon);
                        let committed = sdec.committed().to_vec();
                        assert!(
                            committed.starts_with(&prev),
                            "retraction at beam={beam} {model} step={step}"
                        );
                        prev = committed;
                    }
                    let streamed = sdec.finish(&lexicon);
                    match (&batch, &streamed) {
                        (Some(a), Some(b)) => {
                            assert_eq!(a.words, b.words, "words beam={beam} {model} step={step}");
                            assert_eq!(
                                a.score.to_bits(),
                                b.score.to_bits(),
                                "score beam={beam} {model} step={step}"
                            );
                            assert_eq!(a.tokens_expanded, b.tokens_expanded);
                            assert_eq!(a.complete, b.complete);
                            // The committed prefix survived to the end as a
                            // prefix of the final backtrace.
                            let final_ids: Vec<u32> = b
                                .words
                                .iter()
                                .map(|w| lexicon.word_index(w).unwrap() as u32)
                                .collect();
                            assert!(
                                final_ids.starts_with(&prev),
                                "committed not a prefix, beam={beam} {model}"
                            );
                        }
                        (a, b) => assert_eq!(a.is_none(), b.is_none(), "beam={beam} {model}"),
                    }
                }
            }
        }
    }
}

/// End-to-end gate: [`AsrSystem::streaming`] must finish bit-identical to
/// [`AsrSystem::recognize`] for every corpus utterance, both
/// acoustic models and several chunk sizes.
#[test]
fn streaming_recognizer_matches_batch_recognition() {
    let asr = system();
    let mut synth = Synthesizer::new(654, SynthConfig::default());
    let utts: Vec<Vec<f32>> = CORPUS.iter().map(|t| synth.say(t).samples).collect();
    for samples in &utts {
        for kind in [AcousticModelKind::Gmm, AcousticModelKind::Dnn] {
            let batch = asr.recognize(samples, kind);
            for chunk in [160usize, 1600, 7937] {
                let mut rec = asr.streaming(kind);
                for c in samples.chunks(chunk) {
                    rec.push_chunk(c).expect("clean audio");
                }
                let committed = rec.committed_text();
                let out = rec.finish().expect("non-empty utterance");
                assert_eq!(out.text, batch.text, "{kind} chunk={chunk}");
                assert_eq!(out.frames, batch.frames);
                assert_eq!(out.tokens_expanded, batch.tokens_expanded);
                assert_eq!(
                    out.confidence.to_bits(),
                    batch.confidence.to_bits(),
                    "{kind} chunk={chunk}"
                );
                assert!(
                    out.text.starts_with(&committed),
                    "committed {committed:?} not a prefix of {:?}",
                    out.text
                );
            }
        }
    }
}

/// The remote-scorer streaming path (the seam the serving layer batches
/// across queries at) must be bit-identical to both the local DNN decode
/// and batch `recognize` through the same [`Acoustic`] value.
#[test]
fn streaming_with_remote_scorer_matches_batch() {
    let asr = system();
    let mut synth = Synthesizer::new(444, SynthConfig::default());
    for text in CORPUS {
        let utt = synth.say(text);
        let local = asr.recognize(&utt.samples, AcousticModelKind::Dnn);
        let remote = Acoustic::new(AcousticModelKind::Dnn, Some(asr.dnn_scorer()));
        let batch_remote = asr.recognize(&utt.samples, remote);
        let mut rec = asr.streaming(remote);
        for c in utt.samples.chunks(800) {
            rec.push_chunk(c).expect("clean audio");
        }
        let out = rec.finish().expect("non-empty utterance");
        assert_eq!(out.text, local.text, "{text}");
        assert_eq!(out.text, batch_remote.text);
        assert_eq!(out.confidence.to_bits(), local.confidence.to_bits());
        assert_eq!(out.tokens_expanded, local.tokens_expanded);
        assert_eq!(out.frames, local.frames);
    }
}

/// Property: across 100 seeded utterances the committed prefix is never
/// retracted at any chunk boundary and always ends as a prefix of the
/// final hypothesis.
#[test]
fn committed_prefix_is_never_retracted_across_seeded_utterances() {
    let asr = system();
    for seed in 0u64..100 {
        let text = CORPUS[(seed % CORPUS.len() as u64) as usize];
        let utt = Synthesizer::new(1000 + seed, SynthConfig::default()).say(text);
        // Vary the chunk size with the seed so boundaries land everywhere.
        let chunk = 160 + 97 * (seed as usize % 23);
        let mut rec = asr.streaming(AcousticModelKind::Gmm);
        let mut prev: Vec<String> = Vec::new();
        for c in utt.samples.chunks(chunk) {
            rec.push_chunk(c).expect("clean audio");
            let committed = rec.committed().to_vec();
            assert!(
                committed.starts_with(&prev),
                "seed {seed}: retraction {prev:?} -> {committed:?}"
            );
            prev = committed;
        }
        let out = rec.finish().expect("non-empty utterance");
        let final_words: Vec<String> = out.text.split_whitespace().map(str::to_owned).collect();
        assert!(
            final_words.starts_with(&prev),
            "seed {seed}: committed {prev:?} not a prefix of {final_words:?}"
        );
    }
}

/// Malformed streaming input surfaces as typed errors, never panics, and
/// an utterance shorter than one chunk decodes identically to batch.
#[test]
fn streaming_edge_cases_are_typed_and_batch_consistent() {
    let asr = system();

    // Empty chunk and non-finite samples: typed errors, state untouched.
    let mut rec = asr.streaming(AcousticModelKind::Gmm);
    assert_eq!(rec.push_chunk(&[]), Err(StreamingError::EmptyChunk));
    let bad = [0.0f32, f32::NAN, 0.0];
    assert_eq!(
        rec.push_chunk(&bad),
        Err(StreamingError::NonFiniteSample { index: 1 })
    );
    assert_eq!(rec.samples_ingested(), 0);

    // Zero-length tail flush: typed error.
    let rec = asr.streaming(AcousticModelKind::Gmm);
    assert_eq!(rec.finish().unwrap_err(), StreamingError::EmptyUtterance);

    // An utterance shorter than one chunk, pushed whole, matches batch.
    let utt = Synthesizer::new(77, SynthConfig::default()).say("go home now");
    for kind in [AcousticModelKind::Gmm, AcousticModelKind::Dnn] {
        let batch = asr.recognize(&utt.samples, kind);
        let mut rec = asr.streaming(kind);
        rec.push_chunk(&utt.samples).expect("whole utterance");
        let out = rec.finish().expect("non-empty utterance");
        assert_eq!(out.text, batch.text, "{kind}");
        assert_eq!(out.confidence.to_bits(), batch.confidence.to_bits());
        assert_eq!(out.tokens_expanded, batch.tokens_expanded);
    }
}

/// The cap axis: with the rank limit binding (`max_active` 8 and 64; see
/// the effort check in `lazy_equivalence.rs`) and without it
/// (`usize::MAX`), a [`StreamingDecoder`] fed uneven chunks must
/// still finish bit-identical to the batch decode, and its committed prefix
/// must still only ever extend and end as a prefix of the final words.
#[test]
fn streaming_decoder_matches_batch_when_the_cap_binds() {
    let asr = system();
    let lexicon = asr.lexicon();
    let mut synth = Synthesizer::new(321, SynthConfig::default());
    let utts: Vec<Vec<f32>> = CORPUS.iter().map(|t| synth.say(t).samples).collect();
    for max_active in [8usize, 64, usize::MAX] {
        let decoder = Decoder::new(
            lexicon,
            DecoderConfig {
                max_active,
                ..DecoderConfig::default()
            },
        );
        for samples in &utts {
            let frames = asr.frontend().extract(samples);
            for model in [AcousticModelKind::Gmm, AcousticModelKind::Dnn] {
                let emis = match model {
                    AcousticModelKind::Gmm => asr.gmm_scorer().score_utterance(&frames),
                    AcousticModelKind::Dnn => asr.dnn_scorer().score_utterance(&frames),
                };
                let batch = decoder
                    .decode_scores(&emis, asr.lm(), lexicon)
                    .expect("batch decode");
                for step in [1usize, 3, 17] {
                    let mut sdec = StreamingDecoder::new(&decoder, asr.lm());
                    let mut prev: Vec<u32> = Vec::new();
                    let mut horizon = 0usize;
                    while horizon < emis.len() {
                        horizon = (horizon + step).min(emis.len());
                        let mut scores = EagerScores::new(&emis[..horizon]);
                        assert!(sdec.advance(&mut scores, horizon), "beam died");
                        let committed = sdec.committed().to_vec();
                        assert!(
                            committed.starts_with(&prev),
                            "retraction at cap={max_active} {model} step={step}"
                        );
                        prev = committed;
                    }
                    let streamed = sdec.finish(lexicon).expect("streaming decode");
                    assert_eq!(streamed, batch, "cap={max_active} {model} step={step}");
                    assert_eq!(streamed.score.to_bits(), batch.score.to_bits());
                    let final_ids: Vec<u32> = streamed
                        .words
                        .iter()
                        .map(|w| lexicon.word_index(w).unwrap() as u32)
                        .collect();
                    assert!(
                        final_ids.starts_with(&prev),
                        "committed not a prefix, cap={max_active} {model}"
                    );
                }
            }
        }
    }
}
