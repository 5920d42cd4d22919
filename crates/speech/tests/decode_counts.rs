//! Search-effort pins for the beam decoder.
//!
//! Every equivalence gate compares two decodes that share
//! `Decoder::beam_step`, so an active-list bug that drops or duplicates a
//! token would pass them all. These counts do not: `tokens_expanded` is the
//! number of beam survivors summed over frames, pinned here for one fixed
//! utterance under both acoustic models.
//!
//! The *legacy* pins run the exhaustive settings (`beam 2500`, no cap: the
//! DNN keeps nearly every graph state alive, the GMM about one in six — the
//! two ends the list has to be exact at). They are the counts the dense
//! sweep over every graph state gave before the survivor list, and before
//! the active-list front, replaced it — which is what proves the front
//! exact. The *default* pins are what the shipped `beam 400, max_active 64`
//! expand on the same utterance: they move only when the pruning does.

use sirius_speech::asr::{AcousticModelKind, AsrSystem, AsrTrainConfig};
use sirius_speech::hmm::{Decoder, DecoderConfig};
use sirius_speech::synth::{SynthConfig, Synthesizer};

const CORPUS: [&str; 4] = [
    "set my alarm",
    "call me a cab",
    "go home now",
    "stop the music",
];

#[test]
fn tokens_expanded_is_pinned_for_a_fixed_utterance() {
    let asr = AsrSystem::train(&CORPUS, 42, AsrTrainConfig::default());
    let utt = Synthesizer::new(321, SynthConfig::default()).say("call me a cab");
    let graph = asr.decoder().num_graph_states();

    // Legacy: the exhaustive search through the public decoder.
    let legacy = Decoder::new(
        asr.lexicon(),
        DecoderConfig {
            beam: 2500.0,
            max_active: usize::MAX,
            ..DecoderConfig::default()
        },
    );
    let frames = asr.frontend().extract(&utt.samples);
    assert_eq!((frames.len(), graph), (FRAMES, GRAPH_STATES));
    let gmm = legacy
        .decode_lazy(
            &mut asr.gmm_scorer().lazy_scores(&frames),
            asr.lm(),
            asr.lexicon(),
        )
        .expect("GMM decode");
    let dnn = legacy
        .decode_lazy(
            &mut asr.dnn_scorer().lazy_scores(&frames, None),
            asr.lm(),
            asr.lexicon(),
        )
        .expect("DNN decode");
    assert_eq!(gmm.words.join(" "), "call me a cab");
    assert_eq!(dnn.words.join(" "), "call me a cab");
    assert_eq!(gmm.tokens_expanded, LEGACY_GMM_TOKENS, "front not exact");
    assert_eq!(dnn.tokens_expanded, LEGACY_DNN_TOKENS, "front not exact");
    // The list is a subset of the graph, every frame after the first.
    assert!(dnn.tokens_expanded <= (FRAMES - 1) * GRAPH_STATES);

    // Shipped defaults, through the recognizer: the same words from a
    // quarter (GMM) and, on this small graph, half (DNN) of the tokens.
    let pruned_gmm = asr.recognize(&utt.samples, AcousticModelKind::Gmm);
    assert_eq!(pruned_gmm.text, "call me a cab");
    assert_eq!(pruned_gmm.tokens_expanded, GMM_TOKENS, "GMM pruning moved");
    let pruned_dnn = asr.recognize(&utt.samples, AcousticModelKind::Dnn);
    assert_eq!(pruned_dnn.text, "call me a cab");
    assert_eq!(pruned_dnn.tokens_expanded, DNN_TOKENS, "DNN pruning moved");
    // The rank limit holds the DNN to 64 a frame (no ties at the cut here).
    assert!(pruned_dnn.tokens_expanded <= (FRAMES - 1) * 64);
}

const FRAMES: usize = 100;
const GRAPH_STATES: usize = 126;
const LEGACY_GMM_TOKENS: usize = 2744;
const LEGACY_DNN_TOKENS: usize = 11871;
const GMM_TOKENS: usize = 655;
const DNN_TOKENS: usize = 6227;
