//! Search-effort pins for the beam decoder.
//!
//! Every equivalence gate compares two decodes that share
//! `Decoder::beam_step`, so a survivor-list bug that drops or duplicates a
//! token would pass them all. These counts do not: `tokens_expanded` is the
//! number of beam survivors summed over frames, pinned here for one fixed
//! utterance under both acoustic models (the DNN keeps nearly every graph
//! state alive, the GMM about one in six — the two ends the list has to be
//! exact at). The counts were the same before the survivor list replaced
//! the dense sweep.

use sirius_speech::asr::{AcousticModelKind, AsrSystem, AsrTrainConfig};
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

    let gmm = asr.recognize(&utt.samples, AcousticModelKind::Gmm);
    assert_eq!(gmm.text, "call me a cab");
    assert_eq!((gmm.frames, graph), (FRAMES, GRAPH_STATES));
    assert_eq!(gmm.tokens_expanded, GMM_TOKENS, "GMM search effort moved");

    let dnn = asr.recognize(&utt.samples, AcousticModelKind::Dnn);
    assert_eq!(dnn.text, "call me a cab");
    assert_eq!(dnn.tokens_expanded, DNN_TOKENS, "DNN search effort moved");

    // The list is a subset of the graph, every frame after the first.
    assert!(dnn.tokens_expanded <= (FRAMES - 1) * GRAPH_STATES);
    assert!(gmm.tokens_expanded < dnn.tokens_expanded);
}

const FRAMES: usize = 100;
const GRAPH_STATES: usize = 126;
const GMM_TOKENS: usize = 2744;
const DNN_TOKENS: usize = 11871;
