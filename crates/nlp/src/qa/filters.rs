//! Document filters: the stage of the OpenEphyra pipeline whose runtime
//! variability the paper identifies as the cause of QA's high latency
//! variance ("the high variance is primarily due to the runtime variability
//! of various document filters in the NLP component", Section 3, Figure 8c).
//!
//! The paper's filters stem, pattern-match and CRF-tag every retrieved
//! document on every query. The documents never change, so that work is
//! done once per document instead, when the engine is built: an
//! [`AnalysedCorpus`] splits each document into sentences and keeps, per
//! sentence, its byte range, its lower-cased text, its token stems as
//! interned [`StemId`]s and the NOUN + NUM count the CRF gives it, and per
//! document how many of its words fit each answer-type shape. The filters
//! below are lookups over that analysis; each reports a score together with
//! the number of *hits* (keyword, shape or tag matches) it counted. The
//! total hit count is what Figure 8c correlates with end-to-end QA latency.
//!
//! The per-word kernels themselves (stemmer, regex, CRF) are still measured
//! per query in `sirius-suite` and in the `figures` binary.

use std::collections::HashMap;
use std::ops::Range;

use crate::crf::Crf;
use crate::regex::Regex;
use crate::stemmer;
use sirius_search::{tokenize, DocId};

use super::question::AnswerType;

/// The outcome of running one filter over one document.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FilterOutcome {
    /// Relevance contribution of this filter.
    pub score: f64,
    /// Number of matches the filter produced while scanning.
    pub hits: usize,
}

/// Interned id of a Porter stem in an [`AnalysedCorpus`].
pub type StemId = u32;

/// The surface-shape patterns an answer of each type must fit.
#[derive(Debug)]
pub struct AnswerTypeFilter {
    capitalized: Regex,
    number: Regex,
    time: Regex,
}

impl Default for AnswerTypeFilter {
    fn default() -> Self {
        Self {
            capitalized: Regex::new("^[A-Z][a-z]+$").expect("built-in pattern"),
            number: Regex::new("^[0-9]+(th|st|nd|rd)?$").expect("built-in pattern"),
            time: Regex::new("^([0-9]+|midnight|noon|am|pm)$").expect("built-in pattern"),
        }
    }
}

impl AnswerTypeFilter {
    /// Returns `true` if raw token `word` could be (part of) an answer of
    /// type `at`.
    pub fn token_compatible(&self, word: &str, at: AnswerType) -> bool {
        match at {
            AnswerType::Person | AnswerType::Location | AnswerType::Entity => {
                self.capitalized.is_match(word)
            }
            AnswerType::Number => self.number.is_match(&word.to_lowercase()),
            AnswerType::Time => self.time.is_match(&word.to_lowercase()),
        }
    }
}

/// One answer type per shape class, in [`shape_class`] order.
const SHAPE_CLASSES: [AnswerType; 3] = [AnswerType::Entity, AnswerType::Number, AnswerType::Time];

/// The shape class of an answer type: person, location and entity answers
/// all take the capitalized-word pattern.
fn shape_class(at: AnswerType) -> usize {
    match at {
        AnswerType::Person | AnswerType::Location | AnswerType::Entity => 0,
        AnswerType::Number => 1,
        AnswerType::Time => 2,
    }
}

/// One sentence of an [`AnalysedDoc`].
#[derive(Debug)]
pub(crate) struct AnalysedSentence {
    /// Byte range of the (trimmed) sentence in its document's text.
    pub(crate) span: Range<usize>,
    /// The sentence lower-cased: the document-CRF filter tags only sentences
    /// that contain a question keyword.
    pub(crate) lower: String,
    /// Range of this sentence's stems in [`AnalysedDoc::stems`].
    stems: Range<usize>,
    /// How many of the sentence's whitespace words the CRF tags NOUN or NUM.
    pub(crate) noun_num: usize,
}

/// One document of an [`AnalysedCorpus`].
#[derive(Debug)]
pub struct AnalysedDoc {
    /// The stem of every token of the document, in order. The document's
    /// tokens are exactly its sentences' tokens concatenated, because the
    /// sentence terminators `.`, `!` and `?` are not alphanumeric.
    pub(crate) stems: Vec<StemId>,
    /// The document's sentences, in order ([`split_sentences`]).
    pub(crate) sentences: Vec<AnalysedSentence>,
    /// Whitespace words fitting each shape class, in [`shape_class`] order.
    shape_hits: [usize; 3],
}

impl AnalysedDoc {
    /// The stems of one of this document's sentences.
    pub(crate) fn sentence_stems(&self, sentence: &AnalysedSentence) -> &[StemId] {
        &self.stems[sentence.stems.clone()]
    }
}

/// The QA document collection analysed once, indexed by [`DocId`].
#[derive(Debug)]
pub struct AnalysedCorpus {
    docs: Vec<AnalysedDoc>,
    stem_ids: HashMap<String, StemId>,
    shapes: AnswerTypeFilter,
}

impl AnalysedCorpus {
    /// Analyses `docs`, in [`DocId`] order, tagging sentences with `crf`.
    pub fn build<'a>(docs: impl IntoIterator<Item = &'a str>, crf: &Crf) -> Self {
        let mut corpus = Self {
            docs: Vec::new(),
            stem_ids: HashMap::new(),
            shapes: AnswerTypeFilter::default(),
        };
        let noun_num = [crf.label_id("NOUN"), crf.label_id("NUM")];
        for text in docs {
            let doc = corpus.analyse(text, crf, noun_num);
            corpus.docs.push(doc);
        }
        corpus
    }

    fn analyse(&mut self, text: &str, crf: &Crf, noun_num: [Option<usize>; 2]) -> AnalysedDoc {
        let mut stems = Vec::new();
        let mut sentences = Vec::new();
        for sentence in split_sentences(text) {
            let start = sentence.as_ptr() as usize - text.as_ptr() as usize;
            let first_stem = stems.len();
            for token in tokenize::tokenize(sentence) {
                let next = self.stem_ids.len() as StemId;
                stems.push(*self.stem_ids.entry(stemmer::stem(&token)).or_insert(next));
            }
            let words: Vec<String> = sentence
                .split_whitespace()
                .map(|w| w.trim_matches(|c: char| !c.is_alphanumeric()).to_owned())
                .filter(|w| !w.is_empty())
                .collect();
            sentences.push(AnalysedSentence {
                span: start..start + sentence.len(),
                lower: sentence.to_lowercase(),
                stems: first_stem..stems.len(),
                noun_num: crf
                    .decode(&words)
                    .into_iter()
                    .filter(|&tag| noun_num.contains(&Some(tag)))
                    .count(),
            });
        }
        let mut shape_hits = [0; 3];
        for raw in text.split_whitespace() {
            let word: String = raw.chars().filter(|c| c.is_alphanumeric()).collect();
            if word.is_empty() {
                continue;
            }
            for (hits, at) in shape_hits.iter_mut().zip(SHAPE_CLASSES) {
                *hits += usize::from(self.shapes.token_compatible(&word, at));
            }
        }
        AnalysedDoc {
            stems,
            sentences,
            shape_hits,
        }
    }

    /// The analysis of document `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn doc(&self, id: DocId) -> &AnalysedDoc {
        &self.docs[id.0 as usize]
    }

    /// The answer-shape patterns the documents were counted with.
    pub fn shapes(&self) -> &AnswerTypeFilter {
        &self.shapes
    }

    /// Resolves question stems to their ids, in order and with repeats;
    /// `None` for a stem no document token has, which matches nothing.
    pub fn stem_ids(&self, stems: &[String]) -> Vec<Option<StemId>> {
        stems
            .iter()
            .map(|s| self.stem_ids.get(s).copied())
            .collect()
    }

    /// Number of documents analysed.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// Whether the corpus holds no documents.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// Total sentences over all documents.
    pub fn num_sentences(&self) -> usize {
        self.docs.iter().map(|d| d.sentences.len()).sum()
    }

    /// Total token stems over all documents.
    pub fn num_stems(&self) -> usize {
        self.docs.iter().map(|d| d.stems.len()).sum()
    }

    /// Distinct stems interned.
    pub fn num_distinct_stems(&self) -> usize {
        self.stem_ids.len()
    }

    /// Heap bytes the analysis holds (allocated lengths, not capacities,
    /// and no hash-table overhead: a lower bound).
    pub fn heap_bytes(&self) -> usize {
        let docs: usize = self
            .docs
            .iter()
            .map(|d| {
                std::mem::size_of::<AnalysedDoc>()
                    + d.stems.len() * std::mem::size_of::<StemId>()
                    + d.sentences
                        .iter()
                        .map(|s| std::mem::size_of::<AnalysedSentence>() + s.lower.len())
                        .sum::<usize>()
            })
            .sum();
        let stems: usize = self
            .stem_ids
            .keys()
            .map(|s| s.len() + std::mem::size_of::<(String, StemId)>())
            .sum();
        docs + stems
    }
}

/// How many of the question's stems, counted once per question stem (so a
/// repeated keyword counts twice), occur among `stems`.
pub(crate) fn coverage(stems: &[StemId], question: &[Option<StemId>]) -> usize {
    question
        .iter()
        .filter(|q| q.is_some_and(|id| stems.contains(&id)))
        .count()
}

/// Counts the document's tokens whose stem is a question stem.
pub fn keyword(doc: &AnalysedDoc, question: &[Option<StemId>]) -> FilterOutcome {
    let hits = doc
        .stems
        .iter()
        .filter(|&&id| question.contains(&Some(id)))
        .count();
    FilterOutcome {
        score: hits as f64,
        hits,
    }
}

/// Counts the document's words whose surface shape fits answer type `at`.
pub fn answer_type(doc: &AnalysedDoc, at: AnswerType) -> FilterOutcome {
    let hits = doc.shape_hits[shape_class(at)];
    FilterOutcome {
        score: (hits as f64).sqrt(),
        hits,
    }
}

/// Rewards sentences where many question stems co-occur in a small window,
/// approximating OpenEphyra's proximity/passage scoring.
pub fn proximity(doc: &AnalysedDoc, question: &[Option<StemId>]) -> FilterOutcome {
    let mut hits = 0usize;
    let mut best = 0.0f64;
    for sentence in &doc.sentences {
        let stems = doc.sentence_stems(sentence);
        let found = coverage(stems, question);
        if found >= 2 {
            hits += 1;
            let density = found as f64 / stems.len().max(1) as f64;
            let coverage = found as f64 / question.len().max(1) as f64;
            best = best.max(coverage * (1.0 + density));
        }
    }
    FilterOutcome {
        score: best * 4.0,
        hits,
    }
}

/// Sums the CRF's NOUN + NUM tags over the sentences that mention a
/// question keyword: documents rich in nouns and numbers are likelier to
/// bear answers. OpenEphyra tags retrieved text for answer-type matching,
/// gated by its passage filters; this is where the paper's QA CRF cycles
/// come from (Figure 9), spent here at build time.
pub fn answer_bearing(doc: &AnalysedDoc, keywords: &[String]) -> FilterOutcome {
    let hits: usize = doc
        .sentences
        .iter()
        .filter(|s| keywords.iter().any(|k| s.lower.contains(k.as_str())))
        .map(|s| s.noun_num)
        .sum();
    FilterOutcome {
        score: 0.05 * hits as f64,
        hits,
    }
}

/// Splits document text into sentences on `.`, `!` and `?`.
pub fn split_sentences(text: &str) -> impl Iterator<Item = &str> {
    text.split_terminator(['.', '!', '?'])
        .map(str::trim)
        .filter(|s| !s.is_empty())
}

/// The CRF every test analyses documents with, trained once.
#[cfg(test)]
pub(crate) fn test_crf() -> &'static Crf {
    use crate::crf::TrainConfig;
    use crate::pos;
    static CRF: std::sync::OnceLock<Crf> = std::sync::OnceLock::new();
    CRF.get_or_init(|| {
        Crf::train(
            pos::tag_set(),
            &pos::generate(3, 150),
            TrainConfig::default(),
        )
    })
}

/// `docs` analysed with [`test_crf`].
#[cfg(test)]
pub(crate) fn analysed(docs: &[&str]) -> AnalysedCorpus {
    AnalysedCorpus::build(docs.iter().copied(), test_crf())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qa::question::{QuestionAnalysis, QuestionAnalyzer};

    fn question(q: &str) -> QuestionAnalysis {
        QuestionAnalyzer::new(test_crf().clone()).analyze(q)
    }

    type StemFilter = fn(&AnalysedDoc, &[Option<StemId>]) -> FilterOutcome;

    /// Runs `filter` over `text` analysed as a one-document corpus, with the
    /// question's stems resolved against that corpus.
    fn apply(filter: StemFilter, text: &str, q: &QuestionAnalysis) -> FilterOutcome {
        let corpus = analysed(&[text]);
        filter(corpus.doc(DocId(0)), &corpus.stem_ids(&q.stems))
    }

    fn apply_answer_type(text: &str, q: &QuestionAnalysis) -> FilterOutcome {
        answer_type(analysed(&[text]).doc(DocId(0)), q.answer_type)
    }

    #[test]
    fn keyword_filter_counts_stemmed_hits() {
        let q = question("What is the capital of Italy?");
        let out = apply(
            keyword,
            "Rome is the capital city of Italy. Italy is lovely.",
            &q,
        );
        // capital x1, italy x2 (stems match).
        assert_eq!(out.hits, 3);
        assert!(out.score > 0.0);
    }

    #[test]
    fn keyword_filter_matches_morphological_variants() {
        let q = question("Who was elected 44th president?");
        let out = apply(keyword, "The election elected electing presidents", &q);
        // elected + electing share stem "elect"; "election" stems to "elect" too;
        // presidents stems to president's stem.
        assert!(out.hits >= 3, "hits = {}", out.hits);
    }

    #[test]
    fn answer_type_filter_sees_capitalized_names() {
        let q = question("Who wrote Hamlet?");
        let out = apply_answer_type("William Shakespeare wrote it in London", &q);
        assert!(out.hits >= 3); // William, Shakespeare, London
    }

    #[test]
    fn answer_type_filter_time_tokens() {
        let q = question("When does the cafe close?");
        let f = AnswerTypeFilter::default();
        assert!(f.token_compatible("10", super::super::question::AnswerType::Time));
        assert!(f.token_compatible("pm", super::super::question::AnswerType::Time));
        assert!(f.token_compatible("midnight", super::super::question::AnswerType::Time));
        assert!(!f.token_compatible("banana", super::super::question::AnswerType::Time));
        let out = apply_answer_type("The cafe closes at 10 pm", &q);
        assert_eq!(out.hits, 2);
    }

    #[test]
    fn proximity_filter_prefers_dense_sentences() {
        let q = question("What is the capital of Italy?");
        let dense = apply(proximity, "Rome is the capital of Italy.", &q);
        let sparse = apply(
            proximity,
            "The capital was discussed. Somewhere far away lies Italy, a country.",
            &q,
        );
        assert!(dense.score > sparse.score);
        assert!(dense.hits >= 1);
    }

    #[test]
    fn sentence_splitting() {
        let s: Vec<&str> = split_sentences("One. Two! Three? ").collect();
        assert_eq!(s, vec!["One", "Two", "Three"]);
    }

    #[test]
    fn filters_report_zero_on_irrelevant_docs() {
        let q = question("What is the capital of Italy?");
        for (name, f) in [("keyword", keyword as StemFilter), ("proximity", proximity)] {
            let out = apply(f, "zzz qqq", &q);
            assert_eq!(out.hits, 0, "filter {name}");
        }
    }
}
