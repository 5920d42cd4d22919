//! The decoder's pruning margin, as a test.
//!
//! `DecoderConfig::default()` prunes by a score beam and a cap on live
//! tokens, both sized about four times above the smallest value that loses
//! nothing (`bench_kernels`' `pruning` section holds the calibration). This
//! gate keeps that true: on the 42 query texts at two synthesis seeds, under
//! both acoustic models, the transcripts at the defaults, at half the
//! default beam and at half the default cap all equal those of the
//! exhaustive search (`beam 2500`, no cap). It also pins the exhaustive
//! search's effort on the benchmark's audio — the counts the dense sweep
//! over every graph state gave, so the active list is exact at full width.

use sirius::pipeline::{Sirius, SiriusConfig};
use sirius_speech::hmm::{AcousticScorer, Decoder, DecoderConfig};
use sirius_speech::synth::{SynthConfig, Synthesizer};

/// The benchmark's synthesis seed, whose exhaustive search effort is
/// pinned, and one other.
const SEEDS: [u64; 2] = [9999, 5];
/// Tokens the exhaustive search expands over the 42 queries of seed 9999.
const EXHAUSTIVE_GMM_TOKENS: usize = 1_854_104;
const EXHAUSTIVE_DNN_TOKENS: usize = 10_441_656;

#[test]
fn half_the_default_limits_still_give_the_exhaustive_transcripts() {
    let sirius = Sirius::build(SiriusConfig::default());
    let asr = sirius.asr();
    let shipped = DecoderConfig::default();
    let exhaustive = DecoderConfig {
        beam: 2500.0,
        max_active: usize::MAX,
        ..shipped
    };
    let decoder = |config| Decoder::new(asr.lexicon(), config);
    let reference = decoder(exhaustive);
    let pruned = [
        ("defaults", decoder(shipped)),
        (
            "half the beam",
            decoder(DecoderConfig {
                beam: shipped.beam / 2.0,
                ..shipped
            }),
        ),
        (
            "half the cap",
            decoder(DecoderConfig {
                max_active: shipped.max_active / 2,
                ..shipped
            }),
        ),
    ];
    let scorers: [&dyn AcousticScorer; 2] = [asr.gmm_scorer(), asr.dnn_scorer()];

    for seed in SEEDS {
        let mut synth = Synthesizer::new(seed, SynthConfig::default());
        let mut effort = [0usize; 2];
        for spec in sirius::input_set() {
            let frames = asr.frontend().extract(&synth.say(spec.text).samples);
            for (scorer, effort) in scorers.iter().zip(&mut effort) {
                let emis = scorer.score_utterance(&frames);
                let decode = |decoder: &Decoder| {
                    decoder
                        .decode_scores(&emis, asr.lm(), asr.lexicon())
                        .expect("finite scores decode")
                };
                let want = decode(&reference);
                *effort += want.tokens_expanded;
                for (what, decoder) in &pruned {
                    let got = decode(decoder);
                    assert_eq!(
                        got.words,
                        want.words,
                        "{} at {what}, seed {seed}: {:?}",
                        scorer.name(),
                        spec.text
                    );
                    assert!(got.tokens_expanded < want.tokens_expanded);
                }
            }
        }
        if seed == 9999 {
            assert_eq!(
                effort,
                [EXHAUSTIVE_GMM_TOKENS, EXHAUSTIVE_DNN_TOKENS],
                "the active list is not exact at full width"
            );
        }
    }
}
