//! # sirius
//!
//! The end-to-end intelligent personal assistant pipeline of the Sirius
//! reproduction (Hauswald et al., ASPLOS 2015): speech and image queries in,
//! natural-language answers (or device actions) out — paper Figure 2.
//!
//! * [`taxonomy`] — the VC/VQ/VIQ query taxonomy and 42-query input set
//!   (Tables 1/2).
//! * [`classifier`] — the regex-driven query classifier (action vs question).
//! * [`pipeline`] — the [`Sirius`] orchestrator over the ASR
//!   ([`sirius_speech`]), QA ([`sirius_nlp`] + [`sirius_search`]) and IMM
//!   ([`sirius_vision`]) services, with per-stage timing.
//! * [`inputset`] — synthesized audio/images for the whole input set.
//! * [`profile`] — cycle accounting for the paper's Figures 7b/8/9.
//!
//! # Example
//!
//! Building Sirius trains every model from scratch, so the doctest uses a
//! reduced configuration:
//!
//! ```no_run
//! use sirius::pipeline::{Sirius, SiriusConfig, SiriusInput, SiriusOutcome};
//! use sirius_speech::synth::{SynthConfig, Synthesizer};
//!
//! let sirius = Sirius::build(SiriusConfig::default());
//! let utt = Synthesizer::new(7, SynthConfig::default()).say("Set my alarm for 8am");
//! let response = sirius.process(&SiriusInput { audio: utt.samples, image: None });
//! match response.outcome {
//!     SiriusOutcome::Action(a) => assert_eq!(a.action, "alarm"),
//!     SiriusOutcome::Answer(_) => panic!("commands are actions"),
//! }
//! ```

#![warn(missing_docs)]

pub mod classifier;
pub mod error;
pub mod inputset;
pub mod pipeline;
pub mod profile;
pub mod stage;
pub mod taxonomy;

pub use classifier::{DeviceAction, QueryClassifier};
pub use error::{ClusterError, SiriusError};
pub use inputset::{prepare_input_set, PreparedQuery};
pub use pipeline::{
    BuildTiming, ShardDirectory, Sirius, SiriusConfig, SiriusInput, SiriusOutcome, SiriusResponse,
};
pub use profile::Profiler;
pub use taxonomy::{input_set, QueryKind, QuerySpec};

#[cfg(test)]
pub(crate) mod test_support {
    use std::sync::OnceLock;

    use crate::pipeline::{Sirius, SiriusConfig};

    static SIRIUS: OnceLock<Sirius> = OnceLock::new();

    /// A shared Sirius instance for tests (building one trains every model,
    /// which costs seconds; share it across the test binary).
    pub fn shared_sirius() -> &'static Sirius {
        SIRIUS.get_or_init(|| Sirius::build(SiriusConfig::default()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::SiriusOutcome;
    use crate::taxonomy::QueryKind;

    #[test]
    fn end_to_end_voice_commands_produce_actions() {
        let sirius = test_support::shared_sirius();
        let prepared = prepare_input_set(sirius, 4242);
        let mut correct = 0;
        let mut total = 0;
        for p in prepared
            .iter()
            .filter(|p| p.spec.kind == QueryKind::VoiceCommand)
        {
            total += 1;
            let response = sirius.process(&p.input());
            if let SiriusOutcome::Action(a) = &response.outcome {
                if a.action == p.spec.expected {
                    correct += 1;
                }
            }
        }
        assert!(
            correct * 10 >= total * 8,
            "only {correct}/{total} voice commands executed correctly"
        );
    }

    #[test]
    fn end_to_end_voice_queries_produce_answers() {
        let sirius = test_support::shared_sirius();
        let prepared = prepare_input_set(sirius, 777);
        let mut correct = 0;
        let mut total = 0;
        for p in prepared
            .iter()
            .filter(|p| p.spec.kind == QueryKind::VoiceQuery)
        {
            total += 1;
            let response = sirius.process(&p.input());
            if let SiriusOutcome::Answer(Some(answer)) = &response.outcome {
                if answer.eq_ignore_ascii_case(p.spec.expected) {
                    correct += 1;
                }
            }
        }
        assert!(
            correct * 10 >= total * 7,
            "only {correct}/{total} voice queries answered correctly"
        );
    }

    #[test]
    fn end_to_end_voice_image_queries_use_all_services() {
        let sirius = test_support::shared_sirius();
        let prepared = prepare_input_set(sirius, 31415);
        let mut correct = 0;
        let mut total = 0;
        for p in prepared
            .iter()
            .filter(|p| p.spec.kind == QueryKind::VoiceImageQuery)
        {
            total += 1;
            let response = sirius.process(&p.input());
            assert!(response.timing.imm.is_some(), "VIQ must run image matching");
            if let SiriusOutcome::Answer(Some(answer)) = &response.outcome {
                if answer.eq_ignore_ascii_case(p.spec.expected) {
                    correct += 1;
                }
            }
        }
        assert!(
            correct * 10 >= total * 6,
            "only {correct}/{total} voice-image queries answered correctly"
        );
    }

    #[test]
    fn trained_assistant_round_trips_through_bytes() {
        let sirius = test_support::shared_sirius();
        let bytes = sirius.to_bytes();
        assert!(bytes.len() > 10_000, "model file suspiciously small");
        let restored = Sirius::from_bytes(&bytes).expect("decode");
        let prepared = prepare_input_set(&restored, 555);
        // One query per class must behave identically to the original.
        for kind in QueryKind::ALL {
            let p = prepared
                .iter()
                .find(|p| p.spec.kind == kind)
                .expect("class present");
            let a = sirius.process(&p.input());
            let b = restored.process(&p.input());
            assert_eq!(a.recognized, b.recognized, "{kind}");
            assert_eq!(a.outcome, b.outcome, "{kind}");
        }
        // Corruption is rejected.
        let mut bad = bytes.clone();
        bad[4] ^= 0x10;
        assert!(Sirius::from_bytes(&bad).is_err());
    }

    #[test]
    fn profiler_collects_breakdowns() {
        let sirius = test_support::shared_sirius();
        let prepared = prepare_input_set(sirius, 2025);
        let mut profiler = Profiler::new();
        for p in prepared.iter().take(20) {
            let response = sirius.process(&p.input());
            profiler.record(p.spec.kind, &response);
        }
        let stats = profiler.latency_stats();
        assert!(!stats.is_empty());
        let asr = profiler.asr_breakdown();
        let total: f64 = asr.iter().map(|(_, s)| s).sum();
        assert!((total - 1.0).abs() < 1e-9, "ASR shares sum to {total}");
        // The serving path scores lazily, only what the beam reaches, so how
        // large a share scoring takes there moves with the pruning: assert
        // that the three phases are reported, not how they split.
        for phase in ["feature extraction", "scoring", "HMM search"] {
            let share = asr.iter().find(|(n, _)| *n == phase).map(|(_, s)| *s);
            assert!(share.is_some_and(|s| s > 0.0), "{phase} share {share:?}");
        }
        // Scoring the full frames x states matrix dominates ASR (paper
        // Figure 9): that is the eager oracle, front-end + whole matrix +
        // search, timed here phase by phase.
        use sirius_speech::hmm::AcousticScorer;
        use std::time::Instant;
        let speech = sirius.asr();
        let (mut scoring, mut total) = (0.0, 0.0);
        for p in prepared.iter().take(20) {
            let t_total = Instant::now();
            let frames = speech.frontend().extract(&p.utterance.samples);
            let t = Instant::now();
            let emis = speech.gmm_scorer().score_utterance(&frames);
            scoring += t.elapsed().as_secs_f64();
            let decoded = speech
                .decoder()
                .decode_scores(&emis, speech.lm(), speech.lexicon());
            std::hint::black_box(decoded);
            total += t_total.elapsed().as_secs_f64();
        }
        assert!(scoring > 0.3 * total, "scoring share {}", scoring / total);
    }
}
