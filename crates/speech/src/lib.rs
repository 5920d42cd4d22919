//! # sirius-speech
//!
//! The automatic-speech-recognition substrate of the Sirius reproduction
//! (Hauswald et al., ASPLOS 2015): a complete HMM decoder with both
//! GMM (CMU Sphinx style) and hybrid DNN (Kaldi / RWTH RASR style) acoustic
//! scoring, the two headline ASR configurations of the paper (Figure 4).
//!
//! * [`features`] — MFCC front-end (FFT, mel filterbank, DCT, deltas).
//! * [`gmm`] — diagonal-covariance GMMs; the Sirius Suite "GMM" kernel loop.
//! * [`dnn`] — feed-forward network; the Sirius Suite "DNN" kernel.
//! * [`lexicon`] — phone inventory, pronunciations, text normalization.
//! * [`lm`] — bigram language model.
//! * [`hmm`] — decoding graph and the beam Viterbi search, the one search
//!   every decode runs.
//! * [`synth`] — synthetic speech with ground-truth alignment (substitutes
//!   for recorded queries; see DESIGN.md).
//! * [`asr`] — end-to-end training and recognition with per-stage timing.
//! * [`streaming`] — the incremental recognizer. It is the one decode path:
//!   [`AsrSystem::streaming`] feeds it chunk by chunk, and
//!   [`AsrSystem::recognize`] runs it once over the whole utterance.
//!
//! # Example
//!
//! ```
//! use sirius_speech::asr::{AcousticModelKind, AsrSystem, AsrTrainConfig};
//! use sirius_speech::synth::{SynthConfig, Synthesizer};
//!
//! let corpus = ["turn lights on", "turn lights off"];
//! let asr = AsrSystem::train(&corpus, 7, AsrTrainConfig::default());
//! let utt = Synthesizer::new(99, SynthConfig::default()).say("turn lights on");
//! let out = asr.recognize(&utt.samples, AcousticModelKind::Gmm);
//! assert_eq!(out.text, "turn lights on");
//! ```

#![warn(missing_docs)]
// Numeric kernels index parallel arrays; indexed loops are the clearer idiom.
#![allow(clippy::needless_range_loop)]

pub mod asr;
pub mod dnn;
pub mod features;
pub mod gmm;
pub mod hmm;
pub mod lexicon;
pub mod lm;
pub mod streaming;
pub mod synth;

pub use asr::{Acoustic, AcousticModelKind, AsrOutput, AsrSystem, AsrTrainConfig};
pub use hmm::{StreamingDecoder, WindowScorer};
pub use streaming::{StreamProgress, StreamingError, StreamingRecognizer};
pub use synth::{SynthConfig, Synthesizer, Utterance};
