//! The text-scanning QA path: every filter and the extraction stem, match
//! and CRF-tag the retrieved documents' raw text on every query, as the
//! paper's OpenEphyra does. It is the reference the analysed-corpus path
//! must reproduce bit for bit, and it exists only in tests.

use std::collections::HashMap;
use std::sync::Arc;

use sirius_search::corpus::{knowledge_base, CorpusConfig, FactCorpus, FactKind};
use sirius_search::{tokenize, DocId, InvertedIndex, SearchEngine, SearchHit};

use super::extract::{extract_spans, mean_idf, overlaps_question, Candidate};
use super::filters::{self, split_sentences, AnswerTypeFilter, FilterOutcome};
use super::{QaBreakdown, QaConfig, QaEngine, QaResult, QuestionAnalysis};
use crate::crf::{Crf, TrainConfig};
use crate::{pos, stemmer};

fn keyword(doc: &str, question: &QuestionAnalysis) -> FilterOutcome {
    let mut hits = 0usize;
    for token in tokenize::tokenize(doc) {
        if question.stems.contains(&stemmer::stem(&token)) {
            hits += 1;
        }
    }
    FilterOutcome {
        score: hits as f64,
        hits,
    }
}

fn answer_type(doc: &str, question: &QuestionAnalysis, shapes: &AnswerTypeFilter) -> FilterOutcome {
    let mut hits = 0usize;
    for raw in doc.split_whitespace() {
        let word: String = raw.chars().filter(|c| c.is_alphanumeric()).collect();
        if !word.is_empty() && shapes.token_compatible(&word, question.answer_type) {
            hits += 1;
        }
    }
    FilterOutcome {
        score: (hits as f64).sqrt(),
        hits,
    }
}

/// How many question stems (with repeats) some token of `tokens` stems to.
fn coverage(tokens: &[String], question: &QuestionAnalysis) -> usize {
    question
        .stems
        .iter()
        .filter(|q| tokens.iter().any(|t| stemmer::stem(t) == **q))
        .count()
}

fn proximity(doc: &str, question: &QuestionAnalysis) -> FilterOutcome {
    let mut hits = 0usize;
    let mut best = 0.0f64;
    for sentence in split_sentences(doc) {
        let tokens = tokenize::tokenize(sentence);
        let found = coverage(&tokens, question);
        if found >= 2 {
            hits += 1;
            let density = found as f64 / tokens.len().max(1) as f64;
            let coverage = found as f64 / question.stems.len().max(1) as f64;
            best = best.max(coverage * (1.0 + density));
        }
    }
    FilterOutcome {
        score: best * 4.0,
        hits,
    }
}

fn answer_bearing(doc: &str, question: &QuestionAnalysis, crf: &Crf) -> FilterOutcome {
    let noun_id = crf.label_id("NOUN");
    let num_id = crf.label_id("NUM");
    let mut hits = 0usize;
    for sentence in split_sentences(doc) {
        let lower = sentence.to_lowercase();
        if !question.keywords.iter().any(|k| lower.contains(k)) {
            continue;
        }
        let tokens: Vec<String> = sentence
            .split_whitespace()
            .map(|w| w.trim_matches(|c: char| !c.is_alphanumeric()).to_owned())
            .filter(|w| !w.is_empty())
            .collect();
        if tokens.is_empty() {
            continue;
        }
        hits += crf
            .decode(&tokens)
            .iter()
            .filter(|&&tag| Some(tag) == noun_id || Some(tag) == num_id)
            .count();
    }
    FilterOutcome {
        score: 0.05 * hits as f64,
        hits,
    }
}

fn text_filters(
    doc: &str,
    question: &QuestionAnalysis,
    shapes: &AnswerTypeFilter,
    crf: &Crf,
) -> [FilterOutcome; 4] {
    [
        keyword(doc, question),
        answer_type(doc, question, shapes),
        proximity(doc, question),
        answer_bearing(doc, question, crf),
    ]
}

fn score_candidates(
    ranked_docs: &[&str],
    question: &QuestionAnalysis,
    index: &InvertedIndex,
) -> Vec<Candidate> {
    let shapes = AnswerTypeFilter::default();
    let mut scores: HashMap<String, (f64, usize)> = HashMap::new();
    for (rank, doc) in ranked_docs.iter().enumerate() {
        let rank_weight = 1.0 / (1.0 + rank as f64 * 0.25);
        for sentence in split_sentences(doc) {
            let coverage = coverage(&tokenize::tokenize(sentence), question);
            if coverage == 0 {
                continue;
            }
            let coverage_frac = coverage as f64 / question.stems.len().max(1) as f64;
            for span in extract_spans(sentence, question.answer_type, &shapes) {
                if overlaps_question(&span, question) {
                    continue;
                }
                let idf = mean_idf(&span, index);
                let entry = scores.entry(span).or_insert((0.0, 0));
                entry.0 += rank_weight * coverage_frac * (1.0 + idf);
                entry.1 += 1;
            }
        }
    }
    let mut out: Vec<Candidate> = scores
        .into_iter()
        .map(|(text, (score, support))| Candidate {
            text,
            score,
            support,
        })
        .collect();
    out.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.text.cmp(&b.text)));
    out
}

/// [`QaEngine::answer_with_retrieval`] over the documents' text.
fn answer_with_retrieval<F>(qa: &QaEngine, question_text: &str, retrieve: F) -> QaResult
where
    F: FnOnce(&str, usize) -> Vec<SearchHit>,
{
    let analysis = qa.analyzer.analyze(question_text);
    let mut breakdown = QaBreakdown {
        regex_ops: analysis.regex_ops,
        ..QaBreakdown::default()
    };
    let hits = retrieve(&analysis.keywords.join(" "), qa.config.top_k);
    breakdown.docs_considered = hits.len();
    let shapes = AnswerTypeFilter::default();
    let docs: Vec<&str> = hits.iter().map(|h| qa.search.document(h.doc)).collect();
    let mut doc_scores = vec![0.0f64; docs.len()];
    for (doc, score) in docs.iter().zip(&mut doc_scores) {
        for out in text_filters(doc, &analysis, &shapes, qa.analyzer.crf()) {
            *score += out.score;
            breakdown.filter_hits += out.hits;
        }
    }
    let mut order: Vec<usize> = (0..docs.len()).collect();
    order.sort_by(|&a, &b| doc_scores[b].total_cmp(&doc_scores[a]));
    let ranked: Vec<&str> = order.iter().map(|&i| docs[i]).collect();
    let supporting: Vec<DocId> = order.iter().take(3).map(|&i| hits[i].doc).collect();
    let candidates = score_candidates(&ranked, &analysis, qa.search.index());
    QaResult {
        answer: candidates.first().map(|c| c.text.clone()),
        candidates,
        supporting,
        analysis,
        breakdown,
    }
}

/// The QA engine `Sirius::build(SiriusConfig::default())` serves with: the
/// same corpus and CRF seeds and sizes.
fn default_engine() -> QaEngine {
    const SEED: u64 = 0x5151_7105;
    let corpus = FactCorpus::generate(SEED ^ 0xfac7, CorpusConfig::default());
    let search = SearchEngine::build(corpus.documents().iter().map(|d| d.text.as_str()));
    let crf = Crf::train(
        pos::tag_set(),
        &pos::generate(SEED ^ 0x905, 200),
        TrainConfig::default(),
    );
    QaEngine::new(search, crf, QaConfig::default())
}

/// The input set's 26 QA questions (its 16 voice queries, and its 10
/// voice-image queries as image matching rewrites them), the QA unit tests'
/// questions, and questions that repeat a keyword stem.
fn questions() -> Vec<String> {
    let vq = [
        "Where is Las Vegas",
        "What is the capital of Italy",
        "Who is the author of Harry Potter",
        "What is the capital of Cuba",
        "What is the capital of France",
        "What is the capital of Japan",
        "What is the capital of Canada",
        "What is the capital of Australia",
        "What is the capital of Egypt",
        "What is the capital of Brazil",
        "Who is the author of Hamlet",
        "Who is the author of The Odyssey",
        "Who was elected 44th president of the United States",
        "Who was the first president of the United States",
        "Where is Mount Fuji",
        "Where is the Grand Canyon",
    ];
    let viq = knowledge_base()
        .into_iter()
        .filter(|f| f.kind == FactKind::ClosingTime)
        .map(|f| format!("when does {} close", f.subject));
    let unit = [
        "What is the capital of Italy?",
        "Who is the author of Harry Potter?",
        "When does Luigi Trattoria close?",
        "Where is Las Vegas?",
        "What is the capital of Atlantis?",
        "Who wrote Hamlet?",
        "When does the cafe close?",
        "How many students visited the museum?",
        "What is the capital-of (Italy)???",
        "Who was elected 44th president?",
    ];
    let repeated = [
        "Which capital is the capital of Italy",
        "Who elected the elected president of the United States",
        "When does Harbor Grill close and when does Crown Books close",
    ];
    vq.iter()
        .map(|q| q.to_string())
        .chain(viq)
        .chain(unit.iter().chain(&repeated).map(|q| q.to_string()))
        .collect()
}

/// The question and every word-prefix of it, down to the empty one, as
/// speculation submits them; and the same lower-cased, as ASR spells them.
fn with_prefixes(question: &str) -> Vec<String> {
    let mut out = Vec::new();
    for text in [question.to_owned(), question.to_lowercase()] {
        let words: Vec<&str> = text.split_whitespace().collect();
        out.extend((0..=words.len()).map(|n| words[..n].join(" ")));
    }
    out
}

fn assert_same(got: &QaResult, want: &QaResult, ctx: &str) {
    assert_eq!(got.answer, want.answer, "{ctx}");
    assert_eq!(got.candidates.len(), want.candidates.len(), "{ctx}");
    for (g, w) in got.candidates.iter().zip(&want.candidates) {
        assert_eq!(g.text, w.text, "{ctx}");
        assert_eq!(g.score.to_bits(), w.score.to_bits(), "{ctx}: {}", g.text);
        assert_eq!(g.support, w.support, "{ctx}: {}", g.text);
    }
    assert_eq!(got.supporting, want.supporting, "{ctx}");
    assert_eq!(got.analysis, want.analysis, "{ctx}");
    assert_eq!(
        got.breakdown.filter_hits, want.breakdown.filter_hits,
        "{ctx}"
    );
    assert_eq!(
        got.breakdown.docs_considered, want.breakdown.docs_considered,
        "{ctx}"
    );
    assert_eq!(got.breakdown.regex_ops, want.breakdown.regex_ops, "{ctx}");
}

#[test]
fn analysed_path_matches_the_text_path_on_every_question_prefix_and_shard_count() {
    let qa = default_engine();
    let sharded: Vec<Vec<QaEngine>> = [1u32, 2, 4]
        .iter()
        .map(|&n| (0..n).map(|i| qa.shard(i, n)).collect())
        .collect();
    let shapes = AnswerTypeFilter::default();
    let mut checked = 0;
    for question in questions() {
        for text in with_prefixes(&question) {
            let want = answer_with_retrieval(&qa, &text, |q, k| qa.search.search(q, k));
            assert_same(&qa.answer(&text), &want, &text);

            // Every retrieved document, filter by filter.
            let analysis = qa.analyzer.analyze(&text);
            let stems = qa.corpus.stem_ids(&analysis.stems);
            for hit in qa
                .search
                .search(&analysis.keywords.join(" "), qa.config.top_k)
            {
                let doc = qa.corpus.doc(hit.doc);
                let got = [
                    filters::keyword(doc, &stems),
                    filters::answer_type(doc, analysis.answer_type),
                    filters::proximity(doc, &stems),
                    filters::answer_bearing(doc, &analysis.keywords),
                ];
                let want = text_filters(
                    qa.search.document(hit.doc),
                    &analysis,
                    &shapes,
                    qa.analyzer.crf(),
                );
                for (name, (g, w)) in ["keyword", "answer type", "proximity", "CRF"]
                    .iter()
                    .zip(got.iter().zip(&want))
                {
                    assert_eq!(g.hits, w.hits, "{text:?} doc {} {name}", hit.doc);
                    assert_eq!(
                        g.score.to_bits(),
                        w.score.to_bits(),
                        "{text:?} doc {} {name}",
                        hit.doc
                    );
                }
            }

            for shards in &sharded {
                let got = shards[0].answer_with_retrieval(&text, |q, k| {
                    sirius_search::merge_hits(
                        shards.iter().map(|s| s.search_engine().search(q, k)),
                        k,
                    )
                });
                assert_same(
                    &got,
                    &want,
                    &format!("{text:?} over {} shards", shards.len()),
                );
            }
            checked += 1;
        }
    }
    assert!(checked > 400, "only {checked} questions checked");
}

#[test]
fn restored_engine_answers_identically_and_shards_share_one_analysis() {
    let qa = default_engine();
    let restored = QaEngine::from_bytes(&qa.to_bytes()).expect("decode");
    for question in questions() {
        assert_same(
            &restored.answer(&question),
            &qa.answer(&question),
            &question,
        );
    }
    assert!(!Arc::ptr_eq(&restored.corpus, &qa.corpus));
    for n in [1u32, 2, 4] {
        for i in 0..n {
            assert!(
                Arc::ptr_eq(&qa.shard(i, n).corpus, &qa.corpus),
                "shard {i} of {n}"
            );
        }
    }
}
