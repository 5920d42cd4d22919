//! The OpenEphyra-style question-answering engine (paper Section 2.3.3).
//!
//! Pipeline, mirroring Figure 6: question analysis (regex + stemmer + CRF) →
//! web-search query generation → document retrieval → document filters →
//! candidate extraction and scoring → best answer.
//!
//! The document side of the stemmer, regex and CRF work — the bulk of the
//! paper's QA cycles (Figure 9: 85%) — depends only on the documents, which
//! never change, so [`QaEngine::new`] does it once: it splits, stems,
//! shape-counts and CRF-tags every document into an [`AnalysedCorpus`],
//! and a query's filters and extraction read that analysis. Per query there remain the question's own
//! analysis, retrieval, the filter lookups and span extraction on the
//! sentences that cover the question.
//!
//! Every stage is instrumented with wall-clock timing and work counters so
//! the end-to-end pipeline can reproduce the paper's breakdowns (Figure 8b:
//! stemmer/regex/CRF shares; Figure 8c: latency vs filter hits; Figure 9:
//! QA component breakdown), measured over the per-query work that is left.

pub mod extract;
pub mod filters;
#[cfg(test)]
mod oracle;
pub mod question;

use std::sync::Arc;
use std::time::{Duration, Instant};

use sirius_search::{DocId, SearchEngine, SearchHit};

use crate::crf::Crf;
use filters::{AnalysedCorpus, AnalysedDoc};
pub use question::{AnswerType, QuestionAnalysis, QuestionAnalyzer};

/// Per-stage timing and work counters for one QA invocation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QaBreakdown {
    /// Time stemming the question's keywords.
    pub stemmer: Duration,
    /// Time in the question's input filter: special-character strip,
    /// tokenization, the question-word and answer-type patterns and keyword
    /// selection.
    pub regex: Duration,
    /// Time in the question's one CRF tagging call.
    pub crf: Duration,
    /// Time in retrieval (the web-search substrate).
    pub search: Duration,
    /// Time in the document filters (keyword, answer-type and proximity
    /// lookups and the document-CRF sum over the analysed corpus) and in
    /// candidate extraction and scoring.
    pub filtering: Duration,
    /// Total wall-clock for the query.
    pub total: Duration,
    /// Total document-filter hits (the Figure 8c x-axis).
    pub filter_hits: usize,
    /// Number of documents retrieved and filtered.
    pub docs_considered: usize,
    /// Number of regex evaluations performed.
    pub regex_ops: usize,
}

/// The answer produced for a question.
#[derive(Debug, Clone, PartialEq)]
pub struct QaResult {
    /// Best answer text, or `None` when no candidate survived filtering.
    pub answer: Option<String>,
    /// Ranked runner-up candidates (including the winner at index 0).
    pub candidates: Vec<extract::Candidate>,
    /// The top filter-ranked documents supporting the answer (citations).
    pub supporting: Vec<DocId>,
    /// The analyzed question.
    pub analysis: QuestionAnalysis,
    /// Stage-level instrumentation.
    pub breakdown: QaBreakdown,
}

/// Configuration for the QA engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QaConfig {
    /// How many documents to retrieve per generated query.
    pub top_k: usize,
}

impl Default for QaConfig {
    fn default() -> Self {
        Self { top_k: 12 }
    }
}

/// The question-answering engine.
///
/// # Example
///
/// ```
/// use sirius_nlp::qa::QaEngine;
/// use sirius_nlp::{crf::{Crf, TrainConfig}, pos};
/// use sirius_search::{corpus::FactCorpus, SearchEngine};
///
/// let corpus = FactCorpus::generate(1, Default::default());
/// let engine = SearchEngine::build(corpus.documents().iter().map(|d| d.text.as_str()));
/// let crf = Crf::train(pos::tag_set(), &pos::generate(2, 150), TrainConfig::default());
/// let qa = QaEngine::new(engine, crf, Default::default());
/// let result = qa.answer("What is the capital of Italy?");
/// assert_eq!(result.answer.as_deref(), Some("Rome"));
/// ```
#[derive(Debug)]
pub struct QaEngine {
    search: SearchEngine,
    analyzer: QuestionAnalyzer,
    corpus: Arc<AnalysedCorpus>,
    config: QaConfig,
}

impl QaEngine {
    /// Creates a QA engine over a search engine and a trained CRF tagger,
    /// analysing every document of the search engine once.
    pub fn new(search: SearchEngine, crf: Crf, config: QaConfig) -> Self {
        let corpus = AnalysedCorpus::build(
            (0..search.len() as u32).map(|id| search.document(DocId(id))),
            &crf,
        );
        Self {
            search,
            analyzer: QuestionAnalyzer::new(crf),
            corpus: Arc::new(corpus),
            config,
        }
    }

    /// The underlying search engine.
    pub fn search_engine(&self) -> &SearchEngine {
        &self.search
    }

    /// The document analysis the filters read.
    pub fn corpus_analysis(&self) -> &AnalysedCorpus {
        &self.corpus
    }

    /// Builds shard `shard` of `num_shards` of this engine: the retrieval
    /// index is sharded ([`SearchEngine::shard`] — postings partitioned,
    /// document store and global statistics carried whole) while the CRF
    /// tagger and configuration are replicated and the document analysis is
    /// shared, not redone. A shard can therefore run the full answer
    /// pipeline; only its *retrieval* is partial, and
    /// [`answer_with_retrieval`](Self::answer_with_retrieval) with a
    /// `sirius_search::merge_hits` scatter-gather over all shards is
    /// bit-identical to the unsharded [`answer`](Self::answer).
    ///
    /// # Panics
    ///
    /// Panics if `num_shards` is zero or `shard >= num_shards`.
    pub fn shard(&self, shard: u32, num_shards: u32) -> QaEngine {
        QaEngine {
            search: self.search.shard(shard, num_shards),
            analyzer: QuestionAnalyzer::new(self.analyzer.crf().clone()),
            corpus: Arc::clone(&self.corpus),
            config: self.config,
        }
    }

    /// Serializes the engine: the search corpus and the trained CRF tagger
    /// (the document analysis, filters and patterns are rebuilt on load).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut e = sirius_codec::Encoder::new();
        e.tag("sirius_qa_v1");
        e.bytes(&self.search.to_bytes());
        self.analyzer.crf().write_to(&mut e);
        e.u32(self.config.top_k as u32);
        e.into_bytes()
    }

    /// Restores an engine saved with [`QaEngine::to_bytes`].
    ///
    /// # Errors
    ///
    /// Fails on malformed, truncated or inconsistent bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, sirius_codec::DecodeError> {
        let mut d = sirius_codec::Decoder::new(bytes);
        d.tag("sirius_qa_v1")?;
        let search = SearchEngine::from_bytes(&d.bytes_vec()?)?;
        let crf = Crf::read_from(&mut d)?;
        let top_k = d.u32()? as usize;
        d.finish()?;
        Ok(Self::new(search, crf, QaConfig { top_k }))
    }

    /// Answers a natural-language question.
    pub fn answer(&self, question_text: &str) -> QaResult {
        self.answer_with_retrieval(question_text, |query, k| self.search.search(query, k))
    }

    /// Answers a question with a caller-supplied retrieval stage.
    ///
    /// `retrieve` receives the generated keyword query and the configured
    /// `top_k` and must return ranked [`SearchHit`]s over *this engine's*
    /// document id space. [`answer`](Self::answer) is exactly this with
    /// [`SearchEngine::search`] plugged in; a sharded cluster instead plugs
    /// in a scatter-gather (`sirius_search::merge_hits` over per-shard
    /// searches), which returns bit-identical hits — so every downstream
    /// stage (filters, extraction) is bit-identical too. Everything except
    /// the retrieval call runs on this engine, which must therefore hold the
    /// full document store, its analysis and the global collection
    /// statistics (a shard built by [`QaEngine::shard`] does).
    pub fn answer_with_retrieval<F>(&self, question_text: &str, retrieve: F) -> QaResult
    where
        F: FnOnce(&str, usize) -> Vec<SearchHit>,
    {
        let t_total = Instant::now();
        let mut breakdown = QaBreakdown::default();

        // Stage 1: question analysis (regex + stemmer + CRF), each timed.
        let (analysis, timing) = self.analyzer.analyze_timed(question_text);
        breakdown.regex = timing.regex;
        breakdown.stemmer = timing.stemmer;
        breakdown.crf = timing.crf;
        breakdown.regex_ops = analysis.regex_ops;

        // Stage 2: retrieval.
        let t = Instant::now();
        let query = analysis.keywords.join(" ");
        let hits = retrieve(&query, self.config.top_k);
        breakdown.search = t.elapsed();
        breakdown.docs_considered = hits.len();

        // Stage 3: document filters, read from the analysed corpus. A
        // document's score adds the filters in a fixed order: keyword,
        // answer type, proximity, then the CRF's answer-bearing tags.
        let t = Instant::now();
        let stems = self.corpus.stem_ids(&analysis.stems);
        let docs: Vec<&AnalysedDoc> = hits.iter().map(|h| self.corpus.doc(h.doc)).collect();
        let mut doc_scores = vec![0.0f64; docs.len()];
        for (doc, score) in docs.iter().zip(&mut doc_scores) {
            for out in [
                filters::keyword(doc, &stems),
                filters::answer_type(doc, analysis.answer_type),
                filters::proximity(doc, &stems),
                filters::answer_bearing(doc, &analysis.keywords),
            ] {
                *score += out.score;
                breakdown.filter_hits += out.hits;
            }
        }

        // Stage 4: candidate extraction over filter-ranked documents.
        let mut order: Vec<usize> = (0..docs.len()).collect();
        order.sort_by(|&a, &b| doc_scores[b].total_cmp(&doc_scores[a]));
        let ranked: Vec<(&str, &AnalysedDoc)> = order
            .iter()
            .map(|&i| (self.search.document(hits[i].doc), docs[i]))
            .collect();
        let supporting: Vec<DocId> = order.iter().take(3).map(|&i| hits[i].doc).collect();
        let candidates = extract::score_candidates(
            &ranked,
            &analysis,
            &stems,
            self.corpus.shapes(),
            self.search.index(),
        );
        breakdown.filtering = t.elapsed();

        breakdown.total = t_total.elapsed();
        QaResult {
            answer: candidates.first().map(|c| c.text.clone()),
            candidates,
            supporting,
            analysis,
            breakdown,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crf::TrainConfig;
    use crate::pos;
    use sirius_search::corpus::{CorpusConfig, FactCorpus};

    fn engine() -> (QaEngine, FactCorpus) {
        let corpus = FactCorpus::generate(21, CorpusConfig::default());
        let search = SearchEngine::build(corpus.documents().iter().map(|d| d.text.as_str()));
        let crf = Crf::train(
            pos::tag_set(),
            &pos::generate(4, 200),
            TrainConfig::default(),
        );
        (QaEngine::new(search, crf, QaConfig::default()), corpus)
    }

    #[test]
    fn answers_capital_questions() {
        let (qa, _) = engine();
        let r = qa.answer("What is the capital of Italy?");
        assert_eq!(r.answer.as_deref(), Some("Rome"));
        let r = qa.answer("What is the capital of Cuba?");
        assert_eq!(r.answer.as_deref(), Some("Havana"));
    }

    #[test]
    fn answers_author_questions() {
        let (qa, _) = engine();
        let r = qa.answer("Who is the author of Harry Potter?");
        assert_eq!(r.answer.as_deref(), Some("Joanne Rowling"));
    }

    #[test]
    fn answers_president_questions() {
        let (qa, _) = engine();
        let r = qa.answer("Who was elected 44th president of the United States?");
        assert_eq!(r.answer.as_deref(), Some("Barack Obama"));
    }

    #[test]
    fn answers_location_questions() {
        let (qa, _) = engine();
        let r = qa.answer("Where is Las Vegas?");
        assert_eq!(r.answer.as_deref(), Some("Nevada"));
    }

    #[test]
    fn answers_time_questions() {
        let (qa, _) = engine();
        let r = qa.answer("When does Luigi Trattoria close?");
        assert_eq!(r.answer.as_deref(), Some("10 pm"));
    }

    #[test]
    fn qa_engine_persistence_round_trips_answers() {
        let (qa, _) = engine();
        let restored = QaEngine::from_bytes(&qa.to_bytes()).expect("decode");
        for q in [
            "What is the capital of Italy?",
            "Who is the author of Harry Potter?",
        ] {
            assert_eq!(restored.answer(q).answer, qa.answer(q).answer, "{q}");
        }
    }

    #[test]
    fn supporting_documents_cite_the_answer() {
        let (qa, _) = engine();
        let r = qa.answer("What is the capital of Italy?");
        assert!(!r.supporting.is_empty());
        // The top supporting document must actually contain the answer.
        let top = qa.search_engine().document(r.supporting[0]);
        assert!(top.contains("Rome"), "top doc: {top}");
    }

    #[test]
    fn breakdown_is_populated() {
        let (qa, _) = engine();
        let r = qa.answer("What is the capital of France?");
        assert!(r.breakdown.total > Duration::ZERO);
        assert!(r.breakdown.docs_considered > 0);
        assert!(r.breakdown.filter_hits > 0);
        assert!(r.breakdown.regex_ops > 0);
    }

    #[test]
    fn unanswerable_questions_return_none_or_weak_candidates() {
        let (qa, _) = engine();
        let r = qa.answer("What is the capital of Atlantis?");
        // Atlantis is not in the corpus; either nothing comes back or the
        // score of whatever does is below that of a real answer.
        let real = qa.answer("What is the capital of Japan?");
        let real_score = real.candidates.first().map_or(0.0, |c| c.score);
        let fake_score = r.candidates.first().map_or(0.0, |c| c.score);
        assert!(fake_score < real_score);
    }

    #[test]
    fn sharded_scatter_gather_answers_are_bit_identical() {
        let (qa, _) = engine();
        let questions = [
            "What is the capital of Italy?",
            "Who is the author of Harry Potter?",
            "When does Luigi Trattoria close?",
            "Where is Las Vegas?",
        ];
        for q in questions {
            let expect = qa.answer(q);
            for n in [1u32, 2, 4, 8] {
                let shards: Vec<QaEngine> = (0..n).map(|i| qa.shard(i, n)).collect();
                // The "home" shard runs the pipeline; retrieval fans out to
                // every shard and merges under the shared total order.
                let got = shards[0].answer_with_retrieval(q, |query, k| {
                    sirius_search::merge_hits(
                        shards.iter().map(|s| s.search_engine().search(query, k)),
                        k,
                    )
                });
                assert_eq!(got.answer, expect.answer, "{q} shards {n}");
                assert_eq!(got.candidates, expect.candidates, "{q} shards {n}");
                assert_eq!(got.supporting, expect.supporting, "{q} shards {n}");
                assert_eq!(
                    got.breakdown.filter_hits, expect.breakdown.filter_hits,
                    "{q} shards {n}"
                );
                assert_eq!(
                    got.breakdown.docs_considered, expect.breakdown.docs_considered,
                    "{q} shards {n}"
                );
            }
        }
    }

    #[test]
    fn filter_hits_vary_across_queries() {
        let (qa, _) = engine();
        let hits: Vec<usize> = [
            "What is the capital of Italy?",
            "Who was elected 44th president of the United States?",
            "Where is Mount Fuji?",
        ]
        .iter()
        .map(|q| qa.answer(q).breakdown.filter_hits)
        .collect();
        assert!(
            hits.iter().any(|&h| h != hits[0]),
            "hits all equal: {hits:?}"
        );
    }
}
