//! Typed stage decomposition of the pipeline.
//!
//! The monolithic [`Sirius::process`] walk of paper Figure 2 is really four
//! services in a row — ASR, the query classifier, image matching and QA —
//! and the datacenter sections of the paper (Figures 16/17, Tables 8/9)
//! treat each one as an independently provisioned server. This module gives
//! each service a typed request/response message pair; the service itself is
//! a `Sirius::stage_*` method taking one and returning the other, so the same
//! code path can run either synchronously (composed by
//! [`Sirius::try_process_with`]) or behind per-stage worker pools and bounded
//! queues (the `sirius-server` runtime, which names its stages in
//! `sirius_server::STAGES`). Both paths invoke the identical stage methods in
//! the identical order per query, so their outputs are bit-identical by
//! construction.
//!
//! [`Sirius::process`]: crate::pipeline::Sirius::process
//! [`Sirius::try_process_with`]: crate::pipeline::Sirius::try_process_with

use std::time::Duration;

use sirius_nlp::qa::QaBreakdown;
use sirius_speech::asr::{AcousticModelKind, AsrOutput, AsrTiming};
use sirius_vision::db::ImmTiming;
use sirius_vision::image::GrayImage;

use crate::classifier::{DeviceAction, QueryClass};

/// Request to the speech-recognition stage.
#[derive(Debug, Clone, PartialEq)]
pub struct AsrRequest {
    /// Mono PCM audio at 16 kHz.
    pub audio: Vec<f32>,
    /// Acoustic model to score with.
    pub acoustic: AcousticModelKind,
}

/// Response from the speech-recognition stage.
#[derive(Debug, Clone, PartialEq)]
pub struct AsrResponse {
    /// The transcription.
    pub recognized: String,
    /// Stage timing breakdown.
    pub timing: AsrTiming,
}

impl From<AsrOutput> for AsrResponse {
    fn from(out: AsrOutput) -> Self {
        Self {
            recognized: out.text,
            timing: out.timing,
        }
    }
}

/// Request to the query-classifier stage.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassifyRequest {
    /// The recognized text to classify.
    pub recognized: String,
}

/// Response from the query-classifier stage.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassifyResponse {
    /// Action vs question routing decision.
    pub class: QueryClass,
    /// The extracted device action; present exactly when `class` is
    /// [`QueryClass::Action`].
    pub action: Option<DeviceAction>,
    /// Classifier wall-clock time.
    pub elapsed: Duration,
}

/// Request to the image-matching stage.
#[derive(Debug, Clone, PartialEq)]
pub struct ImmRequest {
    /// The question text (rewritten in the response if a venue matches).
    pub question: String,
    /// The accompanying image, if any; without one the stage is a
    /// pass-through.
    pub image: Option<GrayImage>,
}

/// Response from the image-matching stage.
#[derive(Debug, Clone, PartialEq)]
pub struct ImmResponse {
    /// The question, with deictic phrases rewritten to the matched venue.
    pub question: String,
    /// The matched venue, if the database recognized the image.
    pub matched_venue: Option<String>,
    /// Stage timing (absent when no image was supplied).
    pub timing: Option<ImmTiming>,
}

/// Request to the question-answering stage.
#[derive(Debug, Clone, PartialEq)]
pub struct QaRequest {
    /// The (possibly rewritten) question.
    pub question: String,
}

/// Response from the question-answering stage.
#[derive(Debug, Clone, PartialEq)]
pub struct QaResponse {
    /// The extracted answer, if any.
    pub answer: Option<String>,
    /// Stage timing breakdown.
    pub breakdown: QaBreakdown,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_stage_extracts_actions_only_for_commands() {
        let sirius = crate::test_support::shared_sirius();
        let r = sirius
            .stage_classify(ClassifyRequest {
                recognized: "set my alarm for eight".into(),
            })
            .expect("classify");
        assert_eq!(r.class, QueryClass::Action);
        assert_eq!(r.action.as_ref().map(|a| a.action.as_str()), Some("alarm"));

        let r = sirius
            .stage_classify(ClassifyRequest {
                recognized: "who wrote hamlet".into(),
            })
            .expect("classify");
        assert_eq!(r.class, QueryClass::Question);
        assert!(r.action.is_none());
    }

    #[test]
    fn imm_stage_without_image_is_a_passthrough() {
        let sirius = crate::test_support::shared_sirius();
        let r = sirius
            .stage_imm(ImmRequest {
                question: "when does this place close".into(),
                image: None,
            })
            .expect("imm");
        assert_eq!(r.question, "when does this place close");
        assert!(r.matched_venue.is_none());
        assert!(r.timing.is_none());
    }
}
