//! Candidate answer extraction and scoring (the "document selector" of the
//! OpenEphyra pipeline, paper Figure 6).
//!
//! Candidates are proper-noun chunks, numbers, or time expressions extracted
//! from sentences that contain query keywords. Each candidate is scored by
//! sentence keyword coverage, retrieval rank, and the rarity (IDF) of its
//! tokens, then aggregated across all retrieved documents; the best-scoring
//! candidate string is the answer.
//!
//! Sentence coverage is read from the [`AnalysedCorpus`](super::filters::AnalysedCorpus)
//! (question stem ids against the sentence's stem ids); span extraction,
//! the question-overlap check and the IDF lookup run per query, only on
//! sentences with coverage.

use std::collections::HashMap;

use crate::stemmer;
use sirius_search::{tokenize, InvertedIndex};

use super::filters::{coverage, AnalysedDoc, AnswerTypeFilter, StemId};
use super::question::{AnswerType, QuestionAnalysis};

/// A scored candidate answer.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// Surface form of the answer.
    pub text: String,
    /// Aggregated score across documents.
    pub score: f64,
    /// In how many scanned sentences the candidate appeared.
    pub support: usize,
}

/// Extracts candidate spans of the expected answer type from one sentence.
///
/// For person/location/entity types these are maximal runs of capitalized
/// words (skipping leading stop words such as sentence-initial "The"); for
/// numbers, digit tokens; for times, expressions like "10 pm" / "midnight".
pub fn extract_spans(sentence: &str, at: AnswerType, shapes: &AnswerTypeFilter) -> Vec<String> {
    let words: Vec<&str> = sentence.split_whitespace().collect();
    let clean = |w: &str| -> String { w.chars().filter(|c| c.is_alphanumeric()).collect() };
    match at {
        AnswerType::Person | AnswerType::Location | AnswerType::Entity => {
            let mut spans = Vec::new();
            let mut current: Vec<String> = Vec::new();
            for raw in &words {
                let w = clean(raw);
                let is_cap = shapes.token_compatible(&w, at);
                let is_stop = tokenize::is_stop_word(&w.to_lowercase());
                if is_cap && !is_stop {
                    current.push(w);
                } else {
                    if !current.is_empty() {
                        spans.push(current.join(" "));
                        current.clear();
                    }
                }
                // A trailing punctuation mark ends the span too (handled by
                // clean() removing it but the token loop above continuing).
                if raw.ends_with([',', ';', ':']) && !current.is_empty() {
                    spans.push(current.join(" "));
                    current.clear();
                }
            }
            if !current.is_empty() {
                spans.push(current.join(" "));
            }
            spans
        }
        AnswerType::Number => words
            .iter()
            .map(|w| clean(w))
            .filter(|w| !w.is_empty() && shapes.token_compatible(w, at))
            .collect(),
        AnswerType::Time => {
            let mut spans = Vec::new();
            let mut i = 0;
            while i < words.len() {
                let w = clean(words[i]).to_lowercase();
                if w == "midnight" || w == "noon" {
                    spans.push(w);
                } else if w.chars().all(|c| c.is_ascii_digit()) && !w.is_empty() {
                    // "10 pm" / "6 am" two-token time.
                    if i + 1 < words.len() {
                        let next = clean(words[i + 1]).to_lowercase();
                        if next == "am" || next == "pm" {
                            spans.push(format!("{w} {next}"));
                            i += 2;
                            continue;
                        }
                    }
                    spans.push(w);
                }
                i += 1;
            }
            spans
        }
    }
}

/// Scores candidates across a ranked list of documents.
///
/// `ranked_docs` pairs each document's text with its analysis, ordered
/// best-first (retrieval order); earlier documents receive a higher rank
/// weight, mirroring OpenEphyra's use of search rank. `question_stems` are
/// the question's stems resolved against the same analysis
/// ([`AnalysedCorpus::stem_ids`](super::filters::AnalysedCorpus::stem_ids)).
pub fn score_candidates(
    ranked_docs: &[(&str, &AnalysedDoc)],
    question: &QuestionAnalysis,
    question_stems: &[Option<StemId>],
    shapes: &AnswerTypeFilter,
    index: &InvertedIndex,
) -> Vec<Candidate> {
    let mut scores: HashMap<String, (f64, usize)> = HashMap::new();

    for (rank, (text, doc)) in ranked_docs.iter().enumerate() {
        let rank_weight = 1.0 / (1.0 + rank as f64 * 0.25);
        for sentence in &doc.sentences {
            let coverage = coverage(doc.sentence_stems(sentence), question_stems);
            if coverage == 0 {
                continue;
            }
            let coverage_frac = coverage as f64 / question_stems.len().max(1) as f64;
            let sentence = &text[sentence.span.clone()];
            for span in extract_spans(sentence, question.answer_type, shapes) {
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

/// A candidate that repeats the question's own keywords is not an answer.
pub(super) fn overlaps_question(span: &str, question: &QuestionAnalysis) -> bool {
    tokenize::tokenize(span)
        .iter()
        .any(|t| question.stems.iter().any(|s| *s == stemmer::stem(t)))
}

/// Mean BM25 IDF of the span's tokens — rarer names are better answers.
pub(super) fn mean_idf(span: &str, index: &InvertedIndex) -> f64 {
    let tokens = tokenize::tokenize(span);
    if tokens.is_empty() {
        return 0.0;
    }
    tokens.iter().map(|t| index.idf(t)).sum::<f64>() / tokens.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qa::filters::analysed;
    use sirius_search::DocId;

    fn shapes() -> AnswerTypeFilter {
        AnswerTypeFilter::default()
    }

    #[test]
    fn extracts_proper_noun_chunks() {
        let spans = extract_spans(
            "Barack Obama was elected in the United States",
            AnswerType::Person,
            &shapes(),
        );
        assert!(spans.contains(&"Barack Obama".to_owned()));
        assert!(spans.contains(&"United States".to_owned()));
    }

    #[test]
    fn skips_stop_word_capitals() {
        let spans = extract_spans(
            "The committee met Rome officials",
            AnswerType::Location,
            &shapes(),
        );
        assert!(spans.contains(&"Rome".to_owned()));
        assert!(!spans.iter().any(|s| s.contains("The")));
    }

    #[test]
    fn extracts_two_token_times() {
        let spans = extract_spans("It closes at 10 pm, not noon.", AnswerType::Time, &shapes());
        assert_eq!(spans, vec!["10 pm".to_owned(), "noon".to_owned()]);
    }

    #[test]
    fn extracts_numbers() {
        let spans = extract_spans("In 1990 there were 44 items", AnswerType::Number, &shapes());
        assert_eq!(spans, vec!["1990", "44"]);
    }

    #[test]
    fn scoring_prefers_supported_rare_candidates() {
        let docs = [
            "Rome is the capital of Italy. Rome has history.",
            "The capital city of Italy is Rome.",
            "Paris is the capital of France.",
        ];
        let mut index = InvertedIndex::new();
        for d in &docs {
            index.add_document(d);
        }
        index.finalize();
        let question = QuestionAnalysis {
            text: "What is the capital of Italy?".into(),
            tokens: vec![
                "what".into(),
                "is".into(),
                "the".into(),
                "capital".into(),
                "of".into(),
                "italy".into(),
            ],
            keywords: vec!["capital".into(), "italy".into()],
            stems: vec!["capit".into(), "itali".into()],
            pos_tags: vec![],
            answer_type: AnswerType::Location,
            regex_ops: 0,
        };
        let corpus = analysed(&docs);
        let refs: Vec<(&str, &AnalysedDoc)> = (0..docs.len())
            .map(|i| (docs[i], corpus.doc(DocId(i as u32))))
            .collect();
        let cands = score_candidates(
            &refs,
            &question,
            &corpus.stem_ids(&question.stems),
            &shapes(),
            &index,
        );
        assert_eq!(cands[0].text, "Rome");
        assert!(cands[0].support >= 2);
        // "Paris" may appear (its sentence contains "capital") but must rank
        // below Rome, whose sentences also contain "Italy".
        if let Some(paris) = cands.iter().find(|c| c.text == "Paris") {
            assert!(paris.score < cands[0].score);
        }
    }
}
