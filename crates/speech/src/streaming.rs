//! Streaming recognition: incremental frame ingestion with stable-prefix
//! partial hypotheses. This is the one decode path; whole-utterance
//! recognition is its degenerate case.
//!
//! [`StreamingRecognizer`] accepts audio chunks as they arrive, extracts
//! MFCC frames incrementally (pre-emphasis is frame-local, so per-frame
//! cepstra are independent; the delta regression looks two frames ahead,
//! so feature row `t` is final once cepstra `t + 2` exists), advances the
//! beam through every frame whose scores can no longer change, and reports
//! the *committed* word prefix — the unique-ancestor portion of the live
//! beam, which is never retracted and always prefixes the final
//! hypothesis. The server can therefore start downstream work before the
//! utterance ends.
//!
//! [`AsrSystem::recognize`] is one recognizer run once: the whole utterance
//! goes through the same feature ingestion as a chunk, then the same tail
//! flush, decode and backtrace as [`StreamingRecognizer::finish`]. It skips
//! only the checks that guard the public streaming entry (finite samples,
//! a non-empty utterance), so it accepts any audio. Every step replays the
//! computation a pass over the whole utterance does over the same frame
//! indices, through the same [`Acoustic`] value and therefore the same
//! score provider, so `finish` is bit-identical to `recognize` on the
//! concatenated audio — the invariant the streaming server relies on to
//! reconcile speculative downstream work.

use std::time::{Duration, Instant};

use crate::asr::{Acoustic, AsrOutput, AsrSystem, AsrTiming};
use crate::features::{Frames, FrontendScratch, FEATURE_DIM, FRAME_HOP, FRAME_LEN, NUM_CEPSTRA};
use crate::hmm::StreamingDecoder;

/// Typed failures of streaming audio ingestion.
///
/// These are API-misuse and malformed-input conditions; none of them can
/// be produced by well-formed audio, and all leave the recognizer in its
/// pre-call state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamingError {
    /// `push_chunk` was called with an empty chunk.
    EmptyChunk,
    /// A chunk sample was NaN or infinite; `index` is its absolute
    /// position in the utterance.
    NonFiniteSample {
        /// Absolute sample index within the utterance.
        index: usize,
    },
    /// `finish` was called before any audio arrived (a zero-length tail
    /// flush). Whole-utterance recognition of empty audio is well-defined
    /// (empty text); a streaming session with no chunks is a caller bug.
    EmptyUtterance,
}

impl std::fmt::Display for StreamingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamingError::EmptyChunk => f.write_str("empty audio chunk pushed to stream"),
            StreamingError::NonFiniteSample { index } => {
                write!(f, "non-finite audio sample at index {index}")
            }
            StreamingError::EmptyUtterance => {
                f.write_str("stream finished before any audio chunk arrived")
            }
        }
    }
}

impl std::error::Error for StreamingError {}

/// Progress report returned by [`StreamingRecognizer::push_chunk`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamProgress {
    /// Words committed so far (stable, never retracted).
    pub committed_words: usize,
    /// Feature frames the beam has consumed so far.
    pub frames_decoded: usize,
}

/// Incremental recognizer over audio chunks; see the module docs.
///
/// Create with [`AsrSystem::streaming`], feed chunks with
/// [`StreamingRecognizer::push_chunk`], then call
/// [`StreamingRecognizer::finish`].
pub struct StreamingRecognizer<'a> {
    asr: &'a AsrSystem,
    acoustic: Acoustic<'a>,
    sdec: StreamingDecoder<'a>,
    samples: Vec<f32>,
    /// Static cepstra of every frame the audio so far contains.
    cepstra: Frames,
    /// Feature rows whose delta half is final (see
    /// [`Frames::push_delta_row`]); the providers read exactly these.
    feats: Frames,
    scratch: FrontendScratch,
    committed: Vec<String>,
    feature_time: Duration,
    scoring: Duration,
    search: Duration,
    /// Wall time spent inside `push_chunk`/`finish` (excludes the gaps
    /// while audio "arrives"), reported as `AsrTiming::total`.
    active: Duration,
}

impl std::fmt::Debug for StreamingRecognizer<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamingRecognizer")
            .field("samples", &self.samples.len())
            .field("frames_decoded", &self.sdec.frames_consumed())
            .field("committed", &self.committed)
            .finish()
    }
}

impl<'a> StreamingRecognizer<'a> {
    pub(crate) fn new(asr: &'a AsrSystem, acoustic: Acoustic<'a>) -> Self {
        StreamingRecognizer {
            asr,
            acoustic,
            sdec: StreamingDecoder::new(asr.decoder(), asr.lm()),
            samples: Vec::new(),
            cepstra: Frames::new(NUM_CEPSTRA),
            feats: Frames::new(FEATURE_DIM),
            scratch: FrontendScratch::default(),
            committed: Vec::new(),
            feature_time: Duration::ZERO,
            scoring: Duration::ZERO,
            search: Duration::ZERO,
            active: Duration::ZERO,
        }
    }

    /// Committed words so far (stable: never retracted, always a prefix
    /// of the final hypothesis).
    pub fn committed(&self) -> &[String] {
        &self.committed
    }

    /// Committed words joined with spaces — a prefix of the final
    /// `AsrOutput::text` (up to the trailing partial word boundary).
    pub fn committed_text(&self) -> String {
        self.committed.join(" ")
    }

    /// Feature frames the beam has consumed so far.
    pub fn frames_decoded(&self) -> usize {
        self.sdec.frames_consumed()
    }

    /// Total audio samples ingested so far.
    pub fn samples_ingested(&self) -> usize {
        self.samples.len()
    }

    /// Ingests one audio chunk: validates it, extracts every newly final
    /// feature row, and advances the beam through every frame whose
    /// scores are final.
    ///
    /// # Errors
    ///
    /// [`StreamingError::EmptyChunk`] for a zero-length chunk and
    /// [`StreamingError::NonFiniteSample`] for NaN/infinite samples; both
    /// leave the stream state untouched.
    pub fn push_chunk(&mut self, chunk: &[f32]) -> Result<StreamProgress, StreamingError> {
        if chunk.is_empty() {
            return Err(StreamingError::EmptyChunk);
        }
        if let Some(i) = chunk.iter().position(|s| !s.is_finite()) {
            return Err(StreamingError::NonFiniteSample {
                index: self.samples.len() + i,
            });
        }
        let start = Instant::now();
        self.samples.extend_from_slice(chunk);
        let samples = std::mem::take(&mut self.samples);
        self.ingest_features(&samples);
        self.samples = samples;
        // Mid-stream decode horizon: exclude rows whose DNN context window
        // would clamp at the current feature edge (the flush clamps at the
        // true utterance edge). GMM scores one row at a time, so every
        // extracted row is already final.
        let horizon = match self.acoustic {
            Acoustic::Gmm => self.feats.len(),
            Acoustic::Dnn(_) => self
                .feats
                .len()
                .saturating_sub(self.asr.dnn_scorer().context()),
        };
        self.advance_to(horizon);
        self.refresh_committed();
        self.active += start.elapsed();
        Ok(StreamProgress {
            committed_words: self.committed.len(),
            frames_decoded: self.sdec.frames_consumed(),
        })
    }

    /// Ends the utterance: extracts the clamped feature tail, decodes the
    /// remaining frames and backtraces. The result is bit-identical to
    /// [`AsrSystem::recognize`] over the concatenated audio.
    ///
    /// # Errors
    ///
    /// [`StreamingError::EmptyUtterance`] if no chunk was ever pushed.
    /// Audio that is non-empty but shorter than one analysis frame is
    /// fine and yields the whole-utterance result (empty text, zero frames).
    pub fn finish(self) -> Result<AsrOutput, StreamingError> {
        if self.samples.is_empty() {
            return Err(StreamingError::EmptyUtterance);
        }
        Ok(self.flush())
    }

    /// [`AsrSystem::recognize`]: the whole utterance as one unchecked
    /// chunk, then [`StreamingRecognizer::finish`]'s flush. Empty and
    /// non-finite audio decode like any other.
    pub(crate) fn run_once(mut self, samples: &[f32]) -> AsrOutput {
        let start = Instant::now();
        self.ingest_features(samples);
        self.active += start.elapsed();
        self.flush()
    }

    /// The end of every decode: the tail flush (the last rows' delta
    /// regressions clamp at the real utterance end), the remaining frames
    /// and the backtrace.
    fn flush(mut self) -> AsrOutput {
        let start = Instant::now();
        while self.feats.len() < self.cepstra.len() {
            self.feats.push_delta_row(&self.cepstra, self.feats.len());
        }
        self.advance_to(self.feats.len());
        let decoded = self.sdec.finish(self.asr.lexicon());
        self.active += start.elapsed();
        let frames = self.feats.len();
        let (text, tokens_expanded, confidence) = match decoded {
            Some(r) => (r.words.join(" "), r.tokens_expanded, r.confidence(frames)),
            // An utterance that decoded to nothing: empty text, zero
            // confidence.
            None => (String::new(), 0, 0.0),
        };
        AsrOutput {
            text,
            timing: AsrTiming {
                feature_extraction: self.feature_time,
                scoring: self.scoring,
                search: self.search,
                total: self.active,
            },
            frames,
            tokens_expanded,
            confidence,
        }
    }

    /// Extracts every cepstra frame of `audio` — the whole utterance so
    /// far — not extracted yet, and every delta row that is already final
    /// (two more cepstra frames exist past it).
    fn ingest_features(&mut self, audio: &[f32]) {
        let t = Instant::now();
        while self.cepstra.len() * FRAME_HOP + FRAME_LEN <= audio.len() {
            let start = self.cepstra.len() * FRAME_HOP;
            self.asr
                .frontend()
                .cepstra_frame(audio, start, &mut self.scratch, &mut self.cepstra);
        }
        while self.feats.len() < self.cepstra.len().saturating_sub(2) {
            self.feats.push_delta_row(&self.cepstra, self.feats.len());
        }
        self.feature_time += t.elapsed();
    }

    /// Advances the beam to `horizon` with a fresh provider over the
    /// current feature prefix. Providers index frames exactly as a pass
    /// over the whole utterance would, and rows beyond the horizon are
    /// never read, so every score the decoder sees equals that pass's score
    /// (DNN blocks are row-independent; see `WindowScorer`).
    fn advance_to(&mut self, horizon: usize) {
        if horizon <= self.sdec.frames_consumed() {
            return;
        }
        let t = Instant::now();
        let scoring_before = match self.acoustic {
            Acoustic::Gmm => {
                let mut scores = self.asr.gmm_scorer().lazy_scores(&self.feats);
                self.sdec.advance(&mut scores, horizon);
                scores.compute_time()
            }
            Acoustic::Dnn(remote) => {
                let mut scores = self.asr.dnn_scorer().lazy_scores(&self.feats, remote);
                self.sdec.advance(&mut scores, horizon);
                scores.compute_time()
            }
        };
        self.scoring += scoring_before;
        self.search += t.elapsed().saturating_sub(scoring_before);
    }

    /// Maps newly committed word ids to spelled words (append-only).
    fn refresh_committed(&mut self) {
        let ids = self.sdec.committed();
        if ids.len() > self.committed.len() {
            let lex = self.asr.lexicon();
            for &w in &ids[self.committed.len()..] {
                self.committed.push(lex.word(w as usize).to_owned());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asr::{AcousticModelKind, AsrTrainConfig};
    use crate::synth::{SynthConfig, Synthesizer};

    fn system() -> AsrSystem {
        AsrSystem::train(
            &["go home now", "stop the music"],
            42,
            AsrTrainConfig::default(),
        )
    }

    #[test]
    fn empty_chunk_is_a_typed_error() {
        let asr = system();
        let mut rec = asr.streaming(AcousticModelKind::Gmm);
        assert_eq!(rec.push_chunk(&[]), Err(StreamingError::EmptyChunk));
        // State unchanged: a valid chunk still works.
        assert!(rec.push_chunk(&[0.0; 100]).is_ok());
        assert_eq!(rec.samples_ingested(), 100);
    }

    #[test]
    fn non_finite_sample_is_a_typed_error_with_absolute_index() {
        let asr = system();
        let mut rec = asr.streaming(AcousticModelKind::Gmm);
        rec.push_chunk(&[0.0; 50]).expect("clean chunk");
        let mut bad = vec![0.0f32; 10];
        bad[3] = f32::NAN;
        assert_eq!(
            rec.push_chunk(&bad),
            Err(StreamingError::NonFiniteSample { index: 53 })
        );
        let mut inf = vec![0.0f32; 4];
        inf[0] = f32::INFINITY;
        assert_eq!(
            rec.push_chunk(&inf),
            Err(StreamingError::NonFiniteSample { index: 50 })
        );
        // Failed pushes ingested nothing.
        assert_eq!(rec.samples_ingested(), 50);
    }

    #[test]
    fn zero_length_flush_is_a_typed_error() {
        let asr = system();
        let rec = asr.streaming(AcousticModelKind::Gmm);
        assert_eq!(rec.finish().unwrap_err(), StreamingError::EmptyUtterance);
    }

    #[test]
    fn error_display_is_informative() {
        let e = StreamingError::NonFiniteSample { index: 7 };
        assert!(e.to_string().contains("index 7"));
        assert!(StreamingError::EmptyChunk.to_string().contains("empty"));
        assert!(StreamingError::EmptyUtterance
            .to_string()
            .contains("before any audio"));
    }

    /// An utterance shorter than one analysis frame (and shorter than any
    /// reasonable chunk) must decode identically to batch: empty text,
    /// zero frames.
    #[test]
    fn sub_frame_utterance_matches_batch() {
        let asr = system();
        let audio = vec![0.01f32; FRAME_LEN - 1];
        let batch = asr.recognize(&audio, AcousticModelKind::Gmm);
        let mut rec = asr.streaming(AcousticModelKind::Gmm);
        rec.push_chunk(&audio).expect("push");
        let out = rec.finish().expect("finish");
        assert_eq!(out.text, batch.text);
        assert_eq!(out.frames, batch.frames);
        assert_eq!(out.frames, 0);
        assert_eq!(out.confidence, batch.confidence);
    }

    #[test]
    fn streaming_matches_batch_for_real_audio() {
        let asr = system();
        let utt = Synthesizer::new(321, SynthConfig::default()).say("go home now");
        let batch = asr.recognize(&utt.samples, AcousticModelKind::Gmm);
        let mut rec = asr.streaming(AcousticModelKind::Gmm);
        for chunk in utt.samples.chunks(1600) {
            rec.push_chunk(chunk).expect("push");
        }
        let committed = rec.committed_text();
        let out = rec.finish().expect("finish");
        assert_eq!(out.text, batch.text);
        assert_eq!(out.frames, batch.frames);
        assert_eq!(out.tokens_expanded, batch.tokens_expanded);
        assert_eq!(out.confidence.to_bits(), batch.confidence.to_bits());
        assert!(
            out.text.starts_with(&committed),
            "committed {committed:?} not a prefix of {:?}",
            out.text
        );
    }
}
