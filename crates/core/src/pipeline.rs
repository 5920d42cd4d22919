//! The end-to-end Sirius pipeline (paper Figure 2).
//!
//! Voice (and optionally image) input flows through Automatic Speech
//! Recognition, the Query Classifier, and then either back to the device as
//! an action or into Question Answering — combined with Image Matching when
//! an image accompanies the speech. Every stage is timed so the pipeline
//! reproduces the paper's latency figures (7b, 8a) and cycle breakdowns
//! (Figure 9).

use std::sync::Arc;
use std::time::{Duration, Instant};

use sirius_nlp::crf::{Crf, TrainConfig};
use sirius_nlp::pos;
use sirius_nlp::qa::{QaBreakdown, QaConfig, QaEngine};
use sirius_search::corpus::{CorpusConfig, FactCorpus, FactKind};
use sirius_search::SearchEngine;
use sirius_speech::asr::{AcousticModelKind, AsrSystem, AsrTiming, AsrTrainConfig, AsrTrainTiming};
use sirius_vision::db::{ImageDatabase, ImmTiming, MatchConfig};
use sirius_vision::image::GrayImage;
use sirius_vision::surf::SurfConfig;
use sirius_vision::synth as vsynth;

use crate::classifier::{DeviceAction, QueryClass, QueryClassifier};
use crate::error::{ClusterError, SiriusError};
use crate::stage::{
    AsrRequest, AsrResponse, ClassifyRequest, ClassifyResponse, ImmRequest, ImmResponse, QaRequest,
    QaResponse,
};
use crate::taxonomy;

/// Wall time of the phases of one [`Sirius::build_timed`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BuildTiming {
    /// The ASR training phases.
    pub asr: AsrTrainTiming,
    /// All of ASR training: its phases plus the lexicon, language model,
    /// decoder graph and scorer set-up.
    pub asr_total: Duration,
    /// Generating the fact corpus and building its search index.
    pub index: Duration,
    /// Training the CRF tagger.
    pub crf: Duration,
    /// Building the QA engine, which analyses every document of the corpus
    /// once (`QaEngine::new`: split, stem, shape-count and CRF-tag).
    pub qa_analysis: Duration,
    /// Generating the venue scenes and building the image database.
    pub imm: Duration,
}

/// Configuration for building a Sirius instance.
#[derive(Debug, Clone)]
pub struct SiriusConfig {
    /// Master seed for all generated models and data.
    pub seed: u64,
    /// Fact-corpus generation parameters.
    pub corpus: CorpusConfig,
    /// ASR training parameters.
    pub asr: AsrTrainConfig,
    /// QA retrieval parameters.
    pub qa: QaConfig,
    /// Image-matching parameters.
    pub imm: MatchConfig,
    /// Venue image dimensions (width, height).
    pub image_size: (usize, usize),
    /// Tagged sentences used to train the CRF tagger.
    pub crf_train_sentences: usize,
}

impl Default for SiriusConfig {
    fn default() -> Self {
        Self {
            seed: 0x5151_7105,
            corpus: CorpusConfig::default(),
            asr: AsrTrainConfig::default(),
            qa: QaConfig::default(),
            imm: MatchConfig::default(),
            image_size: (160, 160),
            crf_train_sentences: 200,
        }
    }
}

/// Stage-level timing of one end-to-end query.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StageTiming {
    /// Speech-recognition stage.
    pub asr: AsrTiming,
    /// Query-classifier time.
    pub classify: Duration,
    /// Question-answering stage (absent for actions).
    pub qa: Option<QaBreakdown>,
    /// Image-matching stage (VIQ only).
    pub imm: Option<ImmTiming>,
    /// End-to-end wall-clock.
    pub total: Duration,
}

/// What Sirius did with the query.
#[derive(Debug, Clone, PartialEq)]
pub enum SiriusOutcome {
    /// A device action (voice command path).
    Action(DeviceAction),
    /// A natural-language answer (voice query / voice-image query path).
    Answer(Option<String>),
}

/// The full response to one query.
#[derive(Debug, Clone, PartialEq)]
pub struct SiriusResponse {
    /// The ASR transcription.
    pub recognized: String,
    /// Action or answer.
    pub outcome: SiriusOutcome,
    /// The venue identified by image matching, if an image was supplied.
    pub matched_venue: Option<String>,
    /// Per-stage timing.
    pub timing: StageTiming,
}

/// One input to the pipeline: audio samples plus an optional image.
#[derive(Debug, Clone, PartialEq)]
pub struct SiriusInput {
    /// Mono PCM audio at 16 kHz.
    pub audio: Vec<f32>,
    /// Accompanying image (VIQ queries).
    pub image: Option<GrayImage>,
}

/// The shared data plane of a sharded cluster: every shard of the retrieval
/// index and of the image database, in shard order.
///
/// Replicas hold this behind an [`Arc`]; a replica's QA retrieval and IMM
/// candidate search *scatter* across all entries and merge deterministically
/// (`sirius_search::merge_hits`, [`ImageDatabase::match_across`]), while
/// everything else in the pipeline runs on the replica's own engines. In a
/// real deployment each entry would live on a different machine; in this
/// single-box cluster the fan-out is an in-memory call, which keeps the
/// merge semantics — the part the paper's provisioning math cares about —
/// real and measurable.
#[derive(Debug)]
pub struct ShardDirectory {
    search: Vec<SearchEngine>,
    imm: Vec<ImageDatabase>,
}

impl ShardDirectory {
    /// Number of shards the data planes are partitioned into.
    pub fn num_shards(&self) -> usize {
        self.search.len()
    }
}

/// The end-to-end intelligent personal assistant.
pub struct Sirius {
    asr: AsrSystem,
    classifier: QueryClassifier,
    qa: QaEngine,
    imm: ImageDatabase,
    venues: Vec<String>,
    config: SiriusConfig,
    /// `Some` on a cluster replica: this instance's QA/IMM engines hold one
    /// shard, and queries scatter-gather across the shared directory. `None`
    /// on an unsharded instance, whose own engines are the one shard.
    shards: Option<(u32, Arc<ShardDirectory>)>,
}

impl std::fmt::Debug for Sirius {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sirius")
            .field("vocabulary", &self.asr.lexicon().len())
            .field("venues", &self.venues.len())
            .finish_non_exhaustive()
    }
}

impl Sirius {
    /// Builds and trains a complete Sirius instance: ASR models over the
    /// input-set vocabulary, the QA engine over a generated fact corpus, and
    /// the image database over procedurally generated venue scenes.
    pub fn build(config: SiriusConfig) -> Self {
        Self::build_timed(config).0
    }

    /// [`Sirius::build`], also returning the wall time of its phases.
    pub fn build_timed(config: SiriusConfig) -> (Self, BuildTiming) {
        // ASR: train on the full taxonomy vocabulary.
        let texts: Vec<&str> = taxonomy::input_set().iter().map(|q| q.text).collect();
        let phase = Instant::now();
        let (asr, asr_timing) = AsrSystem::train_timed(&texts, config.seed, config.asr);
        let asr_total = phase.elapsed();

        // QA: fact corpus + search engine + CRF tagger.
        let phase = Instant::now();
        let corpus = FactCorpus::generate(config.seed ^ 0xfac7, config.corpus);
        let search = SearchEngine::build(corpus.documents().iter().map(|d| d.text.as_str()));
        let index = phase.elapsed();
        let phase = Instant::now();
        let crf = Crf::train(
            pos::tag_set(),
            &pos::generate(config.seed ^ 0x905, config.crf_train_sentences),
            TrainConfig::default(),
        );
        let crf_time = phase.elapsed();
        let phase = Instant::now();
        let qa = QaEngine::new(search, crf, config.qa);
        let qa_analysis = phase.elapsed();

        // IMM: one scene per venue in the knowledge base.
        let phase = Instant::now();
        let venues: Vec<String> = corpus
            .facts()
            .iter()
            .filter(|f| f.kind == FactKind::ClosingTime)
            .map(|f| f.subject.clone())
            .collect();
        let (w, h) = config.image_size;
        let scenes: Vec<GrayImage> = (0..venues.len())
            .map(|i| vsynth::generate_scene(Self::venue_scene_seed(config.seed, i), w, h))
            .collect();
        let imm = ImageDatabase::build(scenes.iter(), config.imm);
        let timing = BuildTiming {
            asr: asr_timing,
            asr_total,
            index,
            crf: crf_time,
            qa_analysis,
            imm: phase.elapsed(),
        };

        let sirius = Self {
            asr,
            classifier: QueryClassifier::new(),
            qa,
            imm,
            venues,
            config,
            shards: None,
        };
        (sirius, timing)
    }

    /// Builds `num_shards` cluster replicas from this instance.
    ///
    /// Each replica carries the full ASR models and classifier (queries
    /// arrive whole; speech is not shardable data) but only *one shard* of
    /// the QA retrieval index ([`QaEngine::shard`]) and of the IMM
    /// descriptor index ([`ImageDatabase::shard`]). All replicas share one
    /// [`ShardDirectory`] holding every shard, so any replica can serve any
    /// query: retrieval and descriptor search scatter across the directory
    /// and merge under the shared total orders, making every replica's
    /// response to a given query identical — to each other and to this
    /// unsharded instance's, which runs the same scatter-gather over one
    /// shard.
    ///
    /// # Errors
    ///
    /// [`ClusterError::InvalidShardCount`] if `num_shards` is zero.
    pub fn shard_replicas(&self, num_shards: u32) -> Result<Vec<Sirius>, ClusterError> {
        if num_shards == 0 {
            return Err(ClusterError::InvalidShardCount { requested: 0 });
        }
        let directory = Arc::new(ShardDirectory {
            search: (0..num_shards)
                .map(|i| self.qa.search_engine().shard(i, num_shards))
                .collect(),
            imm: (0..num_shards)
                .map(|i| self.imm.shard(i, num_shards))
                .collect(),
        });
        Ok((0..num_shards)
            .map(|i| Sirius {
                asr: self.asr.clone(),
                classifier: QueryClassifier::new(),
                qa: self.qa.shard(i, num_shards),
                imm: self.imm.shard(i, num_shards),
                venues: self.venues.clone(),
                config: self.config.clone(),
                shards: Some((i, Arc::clone(&directory))),
            })
            .collect())
    }

    /// `Some((shard_index, num_shards))` on a cluster replica built by
    /// [`Sirius::shard_replicas`], `None` on an unsharded instance.
    pub fn shard_id(&self) -> Option<(u32, u32)> {
        self.shards
            .as_ref()
            .map(|(i, dir)| (*i, dir.num_shards() as u32))
    }

    fn venue_scene_seed(seed: u64, venue_index: usize) -> u64 {
        seed.wrapping_mul(0x1234_5679)
            .wrapping_add(venue_index as u64 * 101 + 3)
    }

    /// The trained speech recognizer.
    pub fn asr(&self) -> &AsrSystem {
        &self.asr
    }

    /// The question-answering engine.
    pub fn qa(&self) -> &QaEngine {
        &self.qa
    }

    /// The image database.
    pub fn imm(&self) -> &ImageDatabase {
        &self.imm
    }

    /// The venues indexed in the image database, in [`ImageId`] order.
    ///
    /// [`ImageId`]: sirius_vision::ImageId
    pub fn venues(&self) -> &[String] {
        &self.venues
    }

    /// The pristine database scene for a venue (by index into
    /// [`Sirius::venues`]); query views are derived from it.
    ///
    /// # Panics
    ///
    /// Panics if `venue_index` is out of range.
    pub fn venue_scene(&self, venue_index: usize) -> GrayImage {
        assert!(venue_index < self.venues.len(), "venue index out of range");
        let (w, h) = self.config.image_size;
        vsynth::generate_scene(Self::venue_scene_seed(self.config.seed, venue_index), w, h)
    }

    /// The configuration this instance was built with.
    pub fn config(&self) -> &SiriusConfig {
        &self.config
    }

    /// Serializes the fully trained assistant: the complete build
    /// configuration, ASR models, QA corpus + CRF, the image database and
    /// the venue table. Restoring with [`Sirius::from_bytes`] skips all
    /// training.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut e = sirius_codec::Encoder::new();
        e.tag("sirius_v3");
        e.u64(self.config.seed);
        e.u32(self.config.image_size.0 as u32);
        e.u32(self.config.image_size.1 as u32);
        encode_corpus_config(&mut e, &self.config.corpus);
        encode_asr_config(&mut e, &self.config.asr);
        e.u32(self.config.qa.top_k as u32);
        encode_match_config(&mut e, &self.config.imm);
        e.u32(self.config.crf_train_sentences as u32);
        e.str_slice(&self.venues);
        e.bytes(&self.asr.to_bytes());
        e.bytes(&self.qa.to_bytes());
        e.bytes(&self.imm.to_bytes());
        e.into_bytes()
    }

    /// Restores an assistant saved with [`Sirius::to_bytes`], including the
    /// build configuration (so a rebuild from the restored config regenerates
    /// the same corpus, venues and scenes).
    ///
    /// # Errors
    ///
    /// Fails on malformed, truncated or inconsistent bytes, and on files
    /// written in an older format (`sirius_v2` carried an image-search
    /// budget this version no longer has).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, sirius_codec::DecodeError> {
        let mut d = sirius_codec::Decoder::new(bytes);
        d.tag("sirius_v3")?;
        let seed = d.u64()?;
        let w = d.u32()? as usize;
        let h = d.u32()? as usize;
        let corpus = decode_corpus_config(&mut d)?;
        let asr_config = decode_asr_config(&mut d)?;
        let qa_config = QaConfig {
            top_k: d.u32()? as usize,
        };
        let imm_config = decode_match_config(&mut d)?;
        let crf_train_sentences = d.u32()? as usize;
        let venues = d.str_vec()?;
        let asr = AsrSystem::from_bytes(&d.bytes_vec()?)?;
        let qa = QaEngine::from_bytes(&d.bytes_vec()?)?;
        let imm = ImageDatabase::from_bytes(&d.bytes_vec()?)?;
        d.finish()?;
        if imm.num_images() != venues.len() {
            return Err(sirius_codec::DecodeError {
                message: "image database does not match venue table".into(),
                offset: 0,
            });
        }
        let config = SiriusConfig {
            seed,
            corpus,
            asr: asr_config,
            qa: qa_config,
            imm: imm_config,
            image_size: (w.max(1), h.max(1)),
            crf_train_sentences,
        };
        Ok(Self {
            asr,
            classifier: QueryClassifier::new(),
            qa,
            imm,
            venues,
            config,
            shards: None,
        })
    }

    /// Processes a query end-to-end with the default (GMM) acoustic model.
    ///
    /// A thin synchronous wrapper over the staged path
    /// ([`Sirius::try_process_with`]): both invoke the identical stage methods in
    /// the identical order, so outputs are bit-identical to the
    /// per-stage-queued `sirius-server` runtime by construction.
    pub fn process(&self, input: &SiriusInput) -> SiriusResponse {
        self.process_with(input, AcousticModelKind::Gmm)
    }

    /// Processes a query end-to-end, choosing the acoustic model.
    ///
    /// Infallible for compatibility: the staged path can only fail on an
    /// internal invariant violation ([`SiriusError::VenueOutOfRange`], which
    /// a correctly built instance never produces), and that case degrades to
    /// an unanswered response instead of panicking.
    pub fn process_with(&self, input: &SiriusInput, acoustic: AcousticModelKind) -> SiriusResponse {
        self.try_process_with(input, acoustic)
            .unwrap_or_else(|_| SiriusResponse {
                recognized: String::new(),
                outcome: SiriusOutcome::Answer(None),
                matched_venue: None,
                timing: StageTiming::default(),
            })
    }

    /// Fallible end-to-end processing: the synchronous composition of the
    /// four typed stages (ASR → classify → IMM → QA). This is the reference
    /// path the staged `sirius-server` runtime must match bit-for-bit.
    pub fn try_process_with(
        &self,
        input: &SiriusInput,
        acoustic: AcousticModelKind,
    ) -> Result<SiriusResponse, SiriusError> {
        let t_total = Instant::now();

        let asr = self.stage_asr(AsrRequest {
            audio: input.audio.clone(),
            acoustic,
        })?;
        let classify = self.stage_classify(ClassifyRequest {
            recognized: asr.recognized.clone(),
        })?;

        if let Some(action) = classify.action {
            return Ok(SiriusResponse {
                recognized: asr.recognized,
                outcome: SiriusOutcome::Action(action),
                matched_venue: None,
                timing: StageTiming {
                    asr: asr.timing,
                    classify: classify.elapsed,
                    qa: None,
                    imm: None,
                    total: t_total.elapsed(),
                },
            });
        }

        let imm = self.stage_imm(ImmRequest {
            question: asr.recognized.clone(),
            image: input.image.clone(),
        })?;
        let qa = self.stage_qa(QaRequest {
            question: imm.question,
        })?;

        Ok(SiriusResponse {
            recognized: asr.recognized,
            outcome: SiriusOutcome::Answer(qa.answer),
            matched_venue: imm.matched_venue,
            timing: StageTiming {
                asr: asr.timing,
                classify: classify.elapsed,
                qa: Some(qa.breakdown),
                imm: imm.timing,
                total: t_total.elapsed(),
            },
        })
    }

    /// The shards QA retrieval and the IMM candidate search scatter across:
    /// the cluster directory on a replica, this instance's own whole
    /// engines — one shard — on an unsharded instance.
    fn data_plane(&self) -> (&[SearchEngine], &[ImageDatabase]) {
        match &self.shards {
            Some((_, directory)) => (&directory.search, &directory.imm),
            None => (
                std::slice::from_ref(self.qa.search_engine()),
                std::slice::from_ref(&self.imm),
            ),
        }
    }

    /// Stage 1: speech recognition.
    pub fn stage_asr(&self, req: AsrRequest) -> Result<AsrResponse, SiriusError> {
        Ok(self.asr.recognize(&req.audio, req.acoustic).into())
    }

    /// Stage 2: query classification (action extraction included, so the
    /// routing decision is complete when the message leaves the stage).
    pub fn stage_classify(&self, req: ClassifyRequest) -> Result<ClassifyResponse, SiriusError> {
        let t = Instant::now();
        let class = self.classifier.classify(&req.recognized);
        let action = (class == QueryClass::Action).then(|| {
            self.classifier
                .action(&req.recognized)
                .unwrap_or(DeviceAction {
                    action: "unknown".to_owned(),
                    command: req.recognized.clone(),
                })
        });
        Ok(ClassifyResponse {
            class,
            action,
            elapsed: t.elapsed(),
        })
    }

    /// Stage 3 (VIQ only): image matching, then deictic query rewriting.
    /// Without an image the stage passes the question through untouched.
    pub fn stage_imm(&self, req: ImmRequest) -> Result<ImmResponse, SiriusError> {
        let ImmRequest {
            mut question,
            image,
        } = req;
        let mut timing = None;
        let mut matched_venue = None;
        if let Some(image) = &image {
            let (_, imm_shards) = self.data_plane();
            let result = self.imm.match_across(image, imm_shards);
            timing = Some(result.timing);
            if let Some(id) = result.best {
                let venue = self
                    .venues
                    .get(id.0 as usize)
                    .ok_or(SiriusError::VenueOutOfRange {
                        image_id: id.0,
                        venues: self.venues.len(),
                    })?
                    .clone();
                question = rewrite_deictic(&question, &venue);
                matched_venue = Some(venue);
            }
        }
        Ok(ImmResponse {
            question,
            matched_venue,
            timing,
        })
    }

    /// Stage 4: question answering.
    pub fn stage_qa(&self, req: QaRequest) -> Result<QaResponse, SiriusError> {
        // Analysis, filters and extraction run locally; retrieval scatters
        // to every shard's posting lists and merges under the shared
        // (score, doc) total order.
        let (search_shards, _) = self.data_plane();
        let result = self.qa.answer_with_retrieval(&req.question, |query, k| {
            sirius_search::merge_hits(search_shards.iter().map(|shard| shard.search(query, k)), k)
        });
        Ok(QaResponse {
            answer: result.answer,
            breakdown: result.breakdown,
        })
    }
}

fn encode_corpus_config(e: &mut sirius_codec::Encoder, c: &CorpusConfig) {
    e.u32(c.docs_per_fact as u32);
    e.u32(c.filler_docs as u32);
    e.u32(c.filler_sentences_per_doc as u32);
    e.f64(c.distractor_fact_prob);
}

fn decode_corpus_config(
    d: &mut sirius_codec::Decoder<'_>,
) -> Result<CorpusConfig, sirius_codec::DecodeError> {
    Ok(CorpusConfig {
        docs_per_fact: d.u32()? as usize,
        filler_docs: d.u32()? as usize,
        filler_sentences_per_doc: d.u32()? as usize,
        distractor_fact_prob: d.f64()?,
    })
}

fn encode_asr_config(e: &mut sirius_codec::Encoder, c: &AsrTrainConfig) {
    e.u32(c.reps as u32);
    e.u32(c.gmm_components as u32);
    e.u32(c.em_iters as u32);
    e.u32(c.dnn_hidden as u32);
    e.u32(c.dnn_epochs as u32);
    e.u32(c.dnn_frame_cap as u32);
    e.u32(c.dnn_context as u32);
}

fn decode_asr_config(
    d: &mut sirius_codec::Decoder<'_>,
) -> Result<AsrTrainConfig, sirius_codec::DecodeError> {
    Ok(AsrTrainConfig {
        reps: d.u32()? as usize,
        gmm_components: d.u32()? as usize,
        em_iters: d.u32()? as usize,
        dnn_hidden: d.u32()? as usize,
        dnn_epochs: d.u32()? as usize,
        dnn_frame_cap: d.u32()? as usize,
        dnn_context: d.u32()? as usize,
    })
}

fn encode_match_config(e: &mut sirius_codec::Encoder, c: &MatchConfig) {
    e.u32(c.surf.octaves as u32);
    e.f32(c.surf.threshold);
    e.u32(c.surf.init_step as u32);
    e.bool(c.surf.upright);
    e.f32(c.ratio);
}

fn decode_match_config(
    d: &mut sirius_codec::Decoder<'_>,
) -> Result<MatchConfig, sirius_codec::DecodeError> {
    let surf = SurfConfig {
        octaves: d.u32()? as usize,
        threshold: d.f32()?,
        init_step: d.u32()? as usize,
        upright: d.bool()?,
    };
    Ok(MatchConfig {
        surf,
        ratio: d.f32()?,
    })
}

/// Replaces deictic phrases ("this restaurant", "this place", ...) with the
/// venue name resolved by image matching.
fn rewrite_deictic(question: &str, venue: &str) -> String {
    let words: Vec<&str> = question.split_whitespace().collect();
    for phrase in [
        &["this", "restaurant"][..],
        &["this", "place"],
        &["this", "shop"],
        &["this", "cafe"],
        &["this", "store"],
        &["it"],
    ] {
        if let Some(at) = words
            .windows(phrase.len())
            .position(|w| w.iter().zip(phrase).all(|(a, b)| a.eq_ignore_ascii_case(b)))
        {
            let mut out: Vec<&str> = Vec::with_capacity(words.len());
            out.extend_from_slice(&words[..at]);
            out.push(venue);
            out.extend_from_slice(&words[at + phrase.len()..]);
            return out.join(" ");
        }
    }
    format!("{question} {venue}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rewrite_replaces_first_deictic_phrase() {
        assert_eq!(
            rewrite_deictic("when does this restaurant close", "Harbor Grill"),
            "when does Harbor Grill close"
        );
        assert_eq!(
            rewrite_deictic("when does it close", "Crown Books"),
            "when does Crown Books close"
        );
        // No deictic phrase: the venue is appended as context.
        assert_eq!(
            rewrite_deictic("when does the kitchen close", "Harbor Grill"),
            "when does the kitchen close Harbor Grill"
        );
    }

    #[test]
    fn v2_model_bytes_are_rejected_with_a_typed_error() {
        // The head of a `sirius_v2` file: its match config carried a search
        // budget after the ratio, which this version must not misread.
        let config = SiriusConfig::default();
        let mut e = sirius_codec::Encoder::new();
        e.tag("sirius_v2");
        e.u64(config.seed);
        e.u32(config.image_size.0 as u32);
        e.u32(config.image_size.1 as u32);
        encode_corpus_config(&mut e, &config.corpus);
        encode_asr_config(&mut e, &config.asr);
        e.u32(config.qa.top_k as u32);
        encode_match_config(&mut e, &config.imm);
        e.u32(96);
        let err = Sirius::from_bytes(&e.into_bytes()).expect_err("v2 must not decode");
        assert!(err.message.contains("sirius_v3"), "{}", err.message);
    }
}
