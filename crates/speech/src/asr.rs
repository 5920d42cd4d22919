//! End-to-end automatic speech recognition: model training and recognition.
//!
//! [`AsrSystem::train`] builds the full "Trained Data" box of the paper's
//! Figure 4 — pronunciation dictionary, bigram language model, per-state GMM
//! acoustic model and hybrid DNN acoustic model — from a text corpus, using
//! synthesized speech (see [`crate::synth`]) with ground-truth alignments.
//! [`AsrSystem::recognize`] runs the front-end, acoustic scoring and Viterbi
//! search, reporting per-stage timing so the end-to-end pipeline can
//! reproduce the paper's ASR cycle breakdown (Figure 9: scoring dominates).
//!
//! The search is one search with a pluggable scorer, and the scorer is one
//! value: [`Acoustic`] says which model scores and, for the DNN, where its
//! forward passes run. [`AsrSystem::recognize`] (whole utterance) and
//! [`AsrSystem::streaming`] (chunk by chunk) both take it, so a serving
//! layer that batches DNN blocks across queries uses the same two entry
//! points as everyone else.

use std::time::{Duration, Instant};

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::dnn::{Dnn, DnnTrainConfig};
use crate::features::{Frames, Frontend, FEATURE_DIM, FRAME_HOP, FRAME_LEN};
use crate::gmm::Gmm;
use crate::hmm::{Decoder, DecoderConfig, DnnScorer, GmmScorer, WindowScorer};
use crate::lexicon::{Lexicon, NUM_STATES, STATES_PER_PHONE};
use crate::lm::BigramLm;
use crate::synth::{SynthConfig, Synthesizer, Utterance};

/// Which acoustic model scores emissions (paper: GMM/HMM vs DNN/HMM).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AcousticModelKind {
    /// Gaussian mixture scoring (CMU Sphinx style).
    Gmm,
    /// Hybrid deep-neural-network scoring (Kaldi / RWTH RASR style).
    Dnn,
}

impl std::fmt::Display for AcousticModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AcousticModelKind::Gmm => f.write_str("GMM"),
            AcousticModelKind::Dnn => f.write_str("DNN"),
        }
    }
}

/// What scores emissions for one decode: the model, and for the DNN where
/// its forward passes run.
///
/// `Dnn(None)` runs each 16-frame block on the decoding thread.
/// `Dnn(Some(remote))` hands the block to `remote` — the seam a serving
/// layer batches across queries at (see [`WindowScorer`]). The GMM has no
/// GEMM to batch, so "GMM with a remote scorer" is not representable;
/// [`Acoustic::new`] drops the remote for it.
#[derive(Clone, Copy)]
pub enum Acoustic<'a> {
    /// Gaussian mixture scoring.
    Gmm,
    /// DNN scoring, locally or through a remote window scorer.
    Dnn(Option<&'a dyn WindowScorer>),
}

impl<'a> Acoustic<'a> {
    /// The scorer for `kind`, with `remote` applied where it means
    /// something (DNN only).
    pub fn new(kind: AcousticModelKind, remote: Option<&'a dyn WindowScorer>) -> Self {
        match kind {
            AcousticModelKind::Gmm => Acoustic::Gmm,
            AcousticModelKind::Dnn => Acoustic::Dnn(remote),
        }
    }
}

impl From<AcousticModelKind> for Acoustic<'_> {
    fn from(kind: AcousticModelKind) -> Self {
        Acoustic::new(kind, None)
    }
}

impl std::fmt::Debug for Acoustic<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Acoustic::Gmm => f.write_str("Gmm"),
            Acoustic::Dnn(None) => f.write_str("Dnn(local)"),
            Acoustic::Dnn(Some(_)) => f.write_str("Dnn(remote)"),
        }
    }
}

/// Training hyper-parameters for [`AsrSystem::train`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AsrTrainConfig {
    /// How many times each vocabulary word is synthesized for training.
    pub reps: usize,
    /// GMM mixture components per tied state.
    pub gmm_components: usize,
    /// EM iterations after k-means initialization.
    pub em_iters: usize,
    /// Hidden layer width of the DNN.
    pub dnn_hidden: usize,
    /// DNN training epochs.
    pub dnn_epochs: usize,
    /// Cap on labeled frames used for DNN training.
    pub dnn_frame_cap: usize,
    /// Context frames on each side for the DNN input window.
    pub dnn_context: usize,
}

impl Default for AsrTrainConfig {
    fn default() -> Self {
        Self {
            reps: 4,
            gmm_components: 8,
            em_iters: 2,
            dnn_hidden: 96,
            dnn_epochs: 6,
            dnn_frame_cap: 12_000,
            dnn_context: 1,
        }
    }
}

/// Wall time of the phases of one [`AsrSystem::train_timed`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AsrTrainTiming {
    /// Synthesizing the training utterances and extracting their features.
    pub synthesis_features: Duration,
    /// Fitting the per-state GMMs (k-means initialization and EM).
    pub gmm_em: Duration,
    /// The DNN's mini-batch SGD.
    pub dnn_sgd: Duration,
    /// Examples the SGD stepped over: training examples times epochs.
    pub dnn_examples: usize,
}

/// Per-stage timing of one recognition call.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AsrTiming {
    /// MFCC front-end time.
    pub feature_extraction: Duration,
    /// Acoustic scoring time (GMM or DNN — the paper's dominant component).
    pub scoring: Duration,
    /// Viterbi search time (HMM).
    pub search: Duration,
    /// Total recognition wall-clock.
    pub total: Duration,
}

/// The output of a recognition call.
#[derive(Debug, Clone, PartialEq)]
pub struct AsrOutput {
    /// Recognized text (space-joined normalized words).
    pub text: String,
    /// Per-stage timing.
    pub timing: AsrTiming,
    /// Number of acoustic frames processed.
    pub frames: usize,
    /// Search effort (tokens expanded).
    pub tokens_expanded: usize,
    /// Confidence in `[0, 1]` from the Viterbi margin (1.0 when no
    /// competing hypothesis survived).
    pub confidence: f32,
}

/// A trained speech recognizer with both GMM and DNN acoustic models.
#[derive(Debug, Clone)]
pub struct AsrSystem {
    frontend: Frontend,
    lexicon: Lexicon,
    lm: BigramLm,
    decoder: Decoder,
    gmm: GmmScorer,
    dnn: DnnScorer,
}

impl AsrSystem {
    /// Trains all models from a closed-vocabulary text corpus.
    ///
    /// # Panics
    ///
    /// Panics if `texts` is empty or yields an empty vocabulary.
    pub fn train(texts: &[&str], seed: u64, config: AsrTrainConfig) -> Self {
        Self::train_timed(texts, seed, config).0
    }

    /// [`AsrSystem::train`], also returning the wall time of its phases.
    ///
    /// # Panics
    ///
    /// Panics if `texts` is empty or yields an empty vocabulary.
    pub fn train_timed(
        texts: &[&str],
        seed: u64,
        config: AsrTrainConfig,
    ) -> (Self, AsrTrainTiming) {
        assert!(!texts.is_empty(), "training corpus must be non-empty");
        let lexicon = Lexicon::from_texts(texts.iter().copied());
        assert!(!lexicon.is_empty(), "no pronounceable vocabulary");
        let lm = BigramLm::train(texts.iter().copied(), &lexicon);
        let frontend = Frontend::default();

        // Synthesize isolated-word training data with known alignments.
        let phase = Instant::now();
        let mut synth = Synthesizer::new(seed, SynthConfig::default());
        let mut state_frames = vec![Frames::new(FEATURE_DIM); NUM_STATES];
        let mut labeled: Vec<(Vec<f32>, usize)> = Vec::new();
        for (_, word, _) in lexicon.iter() {
            for _ in 0..config.reps {
                let utt = synth.say(word);
                let feats = frontend.extract(&utt.samples);
                for (t, feat) in feats.rows().enumerate() {
                    if let Some(state) = frame_state(&utt, t) {
                        state_frames[state].push_row(feat);
                    }
                }
                // DNN training examples need context windows; build below
                // from the same utterances to keep labels aligned.
                let windows = build_context_examples(&utt, &feats, config.dnn_context);
                labeled.extend(windows);
            }
        }

        let synthesis_features = phase.elapsed();

        // GMM per tied state, with a global fallback for unseen states.
        let phase = Instant::now();
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x517a_11ce);
        let mut all_frames = Frames::new(FEATURE_DIM);
        for row in state_frames.iter().flat_map(Frames::rows) {
            all_frames.push_row(row);
        }
        assert!(!all_frames.is_empty(), "no training frames produced");
        let global = Gmm::fit(&all_frames, 1, 1, &mut rng);
        let gmms: Vec<Gmm> = state_frames
            .iter()
            .map(|frames| {
                if frames.len() >= 16 {
                    // Cap mixture density by available data (8 frames per
                    // component keeps the EM fit stable).
                    let comps = config.gmm_components.min(frames.len() / 8).max(1);
                    Gmm::fit(frames, comps, config.em_iters, &mut rng)
                } else if frames.len() >= 2 {
                    Gmm::fit(frames, 1, 1, &mut rng)
                } else {
                    global.clone()
                }
            })
            .collect();
        let gmm = GmmScorer::new(gmms);
        let gmm_em = phase.elapsed();

        // DNN on (context window, state) pairs.
        let mut priors = vec![1.0f32; NUM_STATES]; // add-one smoothing
        for (_, s) in &labeled {
            priors[*s] += 1.0;
        }
        if labeled.len() > config.dnn_frame_cap {
            // Deterministic stride subsampling preserves class balance.
            let stride = labeled.len() / config.dnn_frame_cap + 1;
            labeled = labeled
                .into_iter()
                .enumerate()
                .filter(|(i, _)| i % stride == 0)
                .map(|(_, x)| x)
                .collect();
        }
        let input_dim = FEATURE_DIM * (2 * config.dnn_context + 1);
        let mut dnn = Dnn::new(&[input_dim, config.dnn_hidden, NUM_STATES], &mut rng);
        let phase = Instant::now();
        dnn.train(
            &labeled,
            DnnTrainConfig {
                epochs: config.dnn_epochs,
                learning_rate: 0.05,
                batch_size: 32,
            },
            &mut rng,
        );
        let timing = AsrTrainTiming {
            synthesis_features,
            gmm_em,
            dnn_sgd: phase.elapsed(),
            dnn_examples: labeled.len() * config.dnn_epochs,
        };
        let dnn = DnnScorer::new(dnn, &priors, config.dnn_context);

        let decoder = Decoder::new(&lexicon, DecoderConfig::default());
        let asr = Self {
            frontend,
            lexicon,
            lm,
            decoder,
            gmm,
            dnn,
        };
        (asr, timing)
    }

    /// The pronunciation lexicon.
    pub fn lexicon(&self) -> &Lexicon {
        &self.lexicon
    }

    /// The language model.
    pub fn lm(&self) -> &BigramLm {
        &self.lm
    }

    /// The GMM acoustic scorer.
    pub fn gmm_scorer(&self) -> &GmmScorer {
        &self.gmm
    }

    /// The DNN acoustic scorer.
    pub fn dnn_scorer(&self) -> &DnnScorer {
        &self.dnn
    }

    /// The MFCC front-end.
    pub fn frontend(&self) -> &Frontend {
        &self.frontend
    }

    /// The Viterbi decoder.
    pub fn decoder(&self) -> &Decoder {
        &self.decoder
    }

    /// Serializes every trained model to a self-contained byte buffer
    /// (lexicon, language model, GMM and DNN acoustic models). The decoder
    /// graph and MFCC front-end are reconstructed on load.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut e = sirius_codec::Encoder::new();
        e.tag("sirius_asr_v1");
        self.lexicon.encode(&mut e);
        self.lm.encode(&mut e);
        self.gmm.encode(&mut e);
        self.dnn.encode(&mut e);
        e.into_bytes()
    }

    /// Restores a system saved with [`AsrSystem::to_bytes`].
    ///
    /// # Errors
    ///
    /// Fails on malformed, truncated or version-mismatched bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, sirius_codec::DecodeError> {
        let mut d = sirius_codec::Decoder::new(bytes);
        d.tag("sirius_asr_v1")?;
        let lexicon = Lexicon::decode(&mut d)?;
        let lm = BigramLm::decode(&mut d)?;
        let gmm = GmmScorer::decode(&mut d)?;
        let dnn = DnnScorer::decode(&mut d)?;
        d.finish()?;
        if lm.vocab_size() != lexicon.len() {
            return Err(sirius_codec::DecodeError {
                message: "language model vocabulary does not match lexicon".into(),
                offset: 0,
            });
        }
        let decoder = Decoder::new(&lexicon, DecoderConfig::default());
        Ok(Self {
            frontend: Frontend::default(),
            lexicon,
            lm,
            decoder,
            gmm,
            dnn,
        })
    }

    /// Recognizes audio with the selected acoustic scorer — an
    /// [`AcousticModelKind`] or a full [`Acoustic`] value: one
    /// [`StreamingRecognizer`](crate::streaming::StreamingRecognizer) run
    /// once over the whole utterance, scoring lazily as the beam search
    /// reaches each frame (GMM: per-state memoization; DNN: frame-blocked
    /// GEMM batches). Any audio is accepted: empty or shorter-than-a-frame
    /// audio is the empty text, and non-finite samples are not rejected.
    ///
    /// `Acoustic::Dnn(Some(remote))` is bit-identical to local DNN scoring
    /// for any correct [`WindowScorer`]: the decoder visits the same frames
    /// in the same order, the blocks partition the utterance identically,
    /// and scoring is row-independent. The providers time their own model
    /// evaluations so the paper's stage breakdown (Figure 9) stays
    /// meaningful: `scoring` is that time (with a remote scorer it is
    /// scoring *latency*, batch-formation wait included) and `search` is the
    /// decode time net of it.
    pub fn recognize<'r>(&self, samples: &[f32], acoustic: impl Into<Acoustic<'r>>) -> AsrOutput {
        self.streaming(acoustic.into()).run_once(samples)
    }

    /// Starts a streaming recognition session with the selected acoustic
    /// scorer (see [`crate::streaming::StreamingRecognizer`]). Feeding the
    /// same audio chunk by chunk and finishing yields output bit-identical
    /// to [`AsrSystem::recognize`] over the concatenated samples with the
    /// same [`Acoustic`].
    pub fn streaming<'a>(
        &'a self,
        acoustic: impl Into<Acoustic<'a>>,
    ) -> crate::streaming::StreamingRecognizer<'a> {
        crate::streaming::StreamingRecognizer::new(self, acoustic.into())
    }
}

/// Maps an acoustic frame index to its tied HMM state using the utterance's
/// ground-truth alignment. Returns `None` for frames outside any segment.
fn frame_state(utt: &Utterance, t: usize) -> Option<usize> {
    let center = t * FRAME_HOP + FRAME_LEN / 2;
    let seg = utt
        .alignment
        .iter()
        .find(|s| center >= s.start && center < s.end)?;
    let pos = (center - seg.start) as f32 / (seg.end - seg.start) as f32;
    let sub = ((pos * STATES_PER_PHONE as f32) as usize).min(STATES_PER_PHONE - 1);
    Some(seg.phone.first_state() + sub)
}

fn build_context_examples(
    utt: &Utterance,
    feats: &Frames,
    context: usize,
) -> Vec<(Vec<f32>, usize)> {
    (0..feats.len())
        .filter_map(|t| {
            frame_state(utt, t).map(|s| (DnnScorer::context_window(feats, t, context), s))
        })
        .collect()
}

/// Word accuracy between a reference and a hypothesis transcript
/// (1 − word error rate, floored at zero), computed via edit distance.
pub fn word_accuracy(reference: &str, hypothesis: &str) -> f64 {
    let r: Vec<&str> = reference.split_whitespace().collect();
    let h: Vec<&str> = hypothesis.split_whitespace().collect();
    if r.is_empty() {
        return if h.is_empty() { 1.0 } else { 0.0 };
    }
    let mut dp = vec![vec![0usize; h.len() + 1]; r.len() + 1];
    for (i, row) in dp.iter_mut().enumerate() {
        row[0] = i;
    }
    for j in 0..=h.len() {
        dp[0][j] = j;
    }
    for i in 1..=r.len() {
        for j in 1..=h.len() {
            let sub = dp[i - 1][j - 1] + usize::from(r[i - 1] != h[j - 1]);
            dp[i][j] = sub.min(dp[i - 1][j] + 1).min(dp[i][j - 1] + 1);
        }
    }
    let wer = dp[r.len()][h.len()] as f64 / r.len() as f64;
    (1.0 - wer).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const CORPUS: [&str; 6] = [
        "set my alarm",
        "call me a cab",
        "play some jazz",
        "go home now",
        "stop the music",
        "what time is it",
    ];

    fn system() -> AsrSystem {
        AsrSystem::train(&super::tests::CORPUS, 42, AsrTrainConfig::default())
    }

    #[test]
    fn gmm_recognizes_heldout_utterances() {
        let asr = system();
        let mut synth = Synthesizer::new(777, SynthConfig::default());
        let mut total_acc = 0.0;
        for text in CORPUS {
            let utt = synth.say(text);
            let out = asr.recognize(&utt.samples, AcousticModelKind::Gmm);
            total_acc += word_accuracy(&utt.words.join(" "), &out.text);
        }
        let avg = total_acc / CORPUS.len() as f64;
        assert!(avg > 0.9, "GMM held-out word accuracy {avg}");
    }

    #[test]
    fn dnn_recognizes_heldout_utterances() {
        let asr = system();
        let mut synth = Synthesizer::new(778, SynthConfig::default());
        let mut total_acc = 0.0;
        for text in CORPUS {
            let utt = synth.say(text);
            let out = asr.recognize(&utt.samples, AcousticModelKind::Dnn);
            total_acc += word_accuracy(&utt.words.join(" "), &out.text);
        }
        let avg = total_acc / CORPUS.len() as f64;
        assert!(avg > 0.85, "DNN held-out word accuracy {avg}");
    }

    #[test]
    fn timing_is_populated_and_scoring_dominated() {
        let asr = system();
        let mut synth = Synthesizer::new(779, SynthConfig::default());
        let utt = synth.say("set my alarm");
        let out = asr.recognize(&utt.samples, AcousticModelKind::Gmm);
        assert!(out.timing.total >= out.timing.scoring);
        assert!(out.frames > 0);
        assert!(out.timing.scoring > Duration::ZERO);
        assert!(out.timing.search > Duration::ZERO);
    }

    #[test]
    fn word_accuracy_metric() {
        assert_eq!(word_accuracy("a b c", "a b c"), 1.0);
        assert_eq!(word_accuracy("a b c", "a x c"), 1.0 - 1.0 / 3.0);
        assert_eq!(word_accuracy("", ""), 1.0);
        assert_eq!(word_accuracy("a", ""), 0.0);
        assert!(word_accuracy("a", "a b c d") == 0.0);
    }

    #[test]
    fn empty_audio_produces_empty_text() {
        let asr = system();
        let out = asr.recognize(&[], AcousticModelKind::Gmm);
        assert!(out.text.is_empty());
        assert_eq!(out.frames, 0);
    }

    /// `recognize` takes any audio. Empty and shorter-than-one-frame audio
    /// decode to the empty text at zero confidence; a NaN sample is not
    /// rejected, it reaches the features of the frames that overlap it and
    /// the decode runs on. Every field is pinned, so a whole-utterance
    /// path that validated samples or refused empty audio would fail here.
    #[test]
    fn degenerate_audio_decodes_to_pinned_outputs() {
        let asr = system();
        let mut speech = Synthesizer::new(780, SynthConfig::default())
            .say("play some jazz")
            .samples;
        speech.resize(16_000, 0.0);
        let mut one_nan = speech;
        one_nan[8_000] = f32::NAN;
        let inputs: [(&str, Vec<f32>); 4] = [
            ("empty", Vec::new()),
            ("sub-frame", vec![0.01; FRAME_LEN - 1]),
            ("one NaN", one_nan),
            ("all NaN", vec![f32::NAN; 16_000]),
        ];
        // (text, frames, tokens_expanded, confidence bits) per input.
        let gmm = [
            ("", 0, 0, 0),
            ("", 0, 0, 0),
            ("play stop", 98, 289, 0x3f80_0000),
            ("", 98, 97, 0x3f80_0000),
        ];
        let dnn = [
            ("", 0, 0, 0),
            ("", 0, 0, 0),
            ("play go me jazz", 98, 6172, 0x3ed7_c8f8),
            ("", 98, 6142, 0x3f17_8b67),
        ];
        for (kind, expected) in [(AcousticModelKind::Gmm, gmm), (AcousticModelKind::Dnn, dnn)] {
            for ((name, audio), (text, frames, tokens, confidence)) in inputs.iter().zip(expected) {
                let out = asr.recognize(audio, kind);
                assert_eq!(out.text, text, "{kind} {name}");
                assert_eq!(out.frames, frames, "{kind} {name}");
                assert_eq!(out.tokens_expanded, tokens, "{kind} {name}");
                assert_eq!(out.confidence.to_bits(), confidence, "{kind} {name}");
            }
        }
    }
}

#[cfg(test)]
mod confidence_tests {
    use super::*;

    #[test]
    fn confidence_is_in_unit_range_and_deterministic() {
        let asr = AsrSystem::train(
            &["go home now", "stop the music"],
            3,
            AsrTrainConfig::default(),
        );
        let utt = Synthesizer::new(808, SynthConfig::default()).say("go home now");
        let a = asr.recognize(&utt.samples, AcousticModelKind::Gmm);
        let b = asr.recognize(&utt.samples, AcousticModelKind::Gmm);
        assert!((0.0..=1.0).contains(&a.confidence), "{}", a.confidence);
        assert_eq!(a.confidence, b.confidence);
        assert_eq!(a.text, "go home now");
    }

    #[test]
    fn empty_audio_has_zero_confidence() {
        let asr = AsrSystem::train(&["yes", "no"], 4, AsrTrainConfig::default());
        let out = asr.recognize(&[], AcousticModelKind::Gmm);
        assert_eq!(out.confidence, 0.0);
    }
}

#[cfg(test)]
mod persistence_tests {
    use super::*;

    #[test]
    fn round_trip_preserves_recognition() {
        let corpus = ["open the door", "close the door"];
        let asr = AsrSystem::train(&corpus, 6, AsrTrainConfig::default());
        let bytes = asr.to_bytes();
        let restored = AsrSystem::from_bytes(&bytes).expect("decode");
        let utt = Synthesizer::new(606, SynthConfig::default()).say("open the door");
        let a = asr.recognize(&utt.samples, AcousticModelKind::Gmm);
        let b = restored.recognize(&utt.samples, AcousticModelKind::Gmm);
        assert_eq!(a.text, b.text);
        let a_dnn = asr.recognize(&utt.samples, AcousticModelKind::Dnn);
        let b_dnn = restored.recognize(&utt.samples, AcousticModelKind::Dnn);
        assert_eq!(a_dnn.text, b_dnn.text);
        assert_eq!(restored.lexicon().len(), asr.lexicon().len());
    }

    /// A saved system whose GMM has more components than the scorers'
    /// fixed-width arrays hold must fail to load, not panic or mis-score
    /// at the first decode.
    #[test]
    fn a_gmm_wider_than_the_scorers_is_rejected_on_load() {
        use crate::gmm::MAX_COMPONENTS;
        let asr = AsrSystem::train(&["hi there"], 7, AsrTrainConfig::default());
        // The system's own bytes, with state 0's mixture replaced by `m`
        // copies of one unit Gaussian.
        let with_components = |m: usize| {
            let mut e = sirius_codec::Encoder::new();
            e.tag("sirius_asr_v1");
            asr.lexicon.encode(&mut e);
            asr.lm.encode(&mut e);
            e.tag("gmm_scorer");
            e.u32(NUM_STATES as u32);
            e.tag("gmm");
            e.u32(FEATURE_DIM as u32);
            e.f32_slice(&vec![0.0; m * FEATURE_DIM]);
            e.f32_slice(&vec![0.5; m * FEATURE_DIM]);
            e.f32_slice(&vec![-(m as f32).ln(); m]);
            e.f32_slice(&vec![-23.9; m]);
            for g in &asr.gmm.models()[1..] {
                g.encode(&mut e);
            }
            asr.dnn.encode(&mut e);
            e.into_bytes()
        };
        let widest = AsrSystem::from_bytes(&with_components(MAX_COMPONENTS)).expect("64 load");
        let utt = Synthesizer::new(606, SynthConfig::default()).say("hi there");
        let out = widest.recognize(&utt.samples, AcousticModelKind::Gmm);
        assert!(out.frames > 0 && out.confidence.is_finite());
        let err = AsrSystem::from_bytes(&with_components(MAX_COMPONENTS + 1)).unwrap_err();
        assert!(err.message.contains("at most 64"), "{}", err.message);
    }

    #[test]
    fn corrupted_bytes_are_rejected() {
        let asr = AsrSystem::train(&["hi there"], 7, AsrTrainConfig::default());
        let mut bytes = asr.to_bytes();
        // Flip a tag byte near the front.
        bytes[6] ^= 0xff;
        assert!(AsrSystem::from_bytes(&bytes).is_err());
        // Truncation is also rejected.
        let half = &bytes[..bytes.len() / 2];
        assert!(AsrSystem::from_bytes(half).is_err());
        assert!(AsrSystem::from_bytes(&[]).is_err());
    }
}
