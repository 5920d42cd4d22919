//! Question analysis: the "input filter" stage of the OpenEphyra pipeline
//! (paper Figure 6) — regex-based question-word detection, Porter stemming
//! of content words, and CRF part-of-speech tagging.

use std::time::{Duration, Instant};

use crate::crf::Crf;
use crate::regex::Regex;
use crate::stemmer;
use sirius_search::tokenize;

/// Expected answer type derived from the question form.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AnswerType {
    /// "Who ..." — a person name.
    Person,
    /// "Where ..." or "what is the capital of ..." — a place name.
    Location,
    /// "When ..." — a time or date expression.
    Time,
    /// "How many ..." — a number.
    Number,
    /// Anything else — a generic entity.
    Entity,
}

/// The analyzed form of a natural-language question.
#[derive(Debug, Clone, PartialEq)]
pub struct QuestionAnalysis {
    /// Original question text.
    pub text: String,
    /// Lowercased tokens.
    pub tokens: Vec<String>,
    /// Content keywords (stop words removed), original surface forms.
    pub keywords: Vec<String>,
    /// Porter stems of the keywords.
    pub stems: Vec<String>,
    /// CRF part-of-speech tags, parallel to `tokens`.
    pub pos_tags: Vec<String>,
    /// The expected answer type.
    pub answer_type: AnswerType,
    /// Number of regex pattern evaluations performed (instrumentation).
    pub regex_ops: usize,
}

/// Wall time of one question analysis, by kernel.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct AnalysisTiming {
    /// The input filter: special-character strip, tokenization, the
    /// question-word and answer-type patterns and keyword selection.
    pub regex: Duration,
    /// Stemming the keywords.
    pub stemmer: Duration,
    /// The one CRF tagging call.
    pub crf: Duration,
}

/// Analyzer bundling the trained CRF and compiled question patterns.
#[derive(Debug)]
pub struct QuestionAnalyzer {
    crf: Crf,
    wh_pattern: Regex,
    special_chars: Regex,
    how_many: Regex,
    capital_of: Regex,
}

impl QuestionAnalyzer {
    /// Creates an analyzer around a trained CRF tagger.
    pub fn new(crf: Crf) -> Self {
        Self {
            crf,
            wh_pattern: Regex::new("^(who|what|where|when|which|why|how)$")
                .expect("built-in pattern"),
            special_chars: Regex::new("[^a-zA-Z0-9 ]").expect("built-in pattern"),
            how_many: Regex::new("^how (many|much)").expect("built-in pattern"),
            capital_of: Regex::new("capital of").expect("built-in pattern"),
        }
    }

    /// Access to the underlying CRF tagger.
    pub fn crf(&self) -> &Crf {
        &self.crf
    }

    /// Analyzes a question, producing keywords, stems, tags and answer type.
    pub fn analyze(&self, question: &str) -> QuestionAnalysis {
        self.analyze_timed(question).0
    }

    /// [`analyze`](Self::analyze), also returning the time spent in its
    /// regex, stemmer and CRF steps (the QA breakdown's question side).
    pub(crate) fn analyze_timed(&self, question: &str) -> (QuestionAnalysis, AnalysisTiming) {
        let t = Instant::now();
        let mut regex_ops = 0usize;

        // Input filter: strip special characters (paper Figure 6).
        regex_ops += 1;
        let cleaned: String = question
            .chars()
            .map(|c| {
                if c.is_alphanumeric() || c == ' ' || c == '\'' {
                    c
                } else {
                    ' '
                }
            })
            .collect();
        let _ = self.special_chars.is_match(question);

        let tokens = tokenize::tokenize(&cleaned);

        // Question-word detection.
        let mut wh: Option<String> = None;
        for t in &tokens {
            regex_ops += 1;
            if self.wh_pattern.is_match(t) {
                wh = Some(t.clone());
                break;
            }
        }

        regex_ops += 2;
        let lower = cleaned.to_lowercase();
        let answer_type = if self.how_many.is_match(&lower) {
            AnswerType::Number
        } else {
            match wh.as_deref() {
                Some("who") => AnswerType::Person,
                Some("where") => AnswerType::Location,
                Some("when") => AnswerType::Time,
                Some("what") | Some("which") if self.capital_of.is_match(&lower) => {
                    AnswerType::Location
                }
                _ => AnswerType::Entity,
            }
        };

        // Keywords: drop stop words and auxiliary verbs.
        let keywords: Vec<String> = tokens
            .iter()
            .filter(|t| !tokenize::is_stop_word(t) && !is_auxiliary(t))
            .cloned()
            .collect();
        let regex = t.elapsed();

        let t = Instant::now();
        let stems: Vec<String> = keywords.iter().map(|k| stemmer::stem(k)).collect();
        let stemmer = t.elapsed();

        // CRF tagging of the full token sequence.
        let t = Instant::now();
        let pos_tags = self.crf.tag(&tokens);
        let timing = AnalysisTiming {
            regex,
            stemmer,
            crf: t.elapsed(),
        };

        let analysis = QuestionAnalysis {
            text: question.to_owned(),
            tokens,
            keywords,
            stems,
            pos_tags,
            answer_type,
            regex_ops,
        };
        (analysis, timing)
    }
}

fn is_auxiliary(word: &str) -> bool {
    matches!(
        word,
        "do" | "does" | "did" | "can" | "could" | "would" | "should" | "current" | "currently"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crf::TrainConfig;
    use crate::pos;

    fn analyzer() -> QuestionAnalyzer {
        let train = pos::generate(11, 200);
        let crf = Crf::train(pos::tag_set(), &train, TrainConfig::default());
        QuestionAnalyzer::new(crf)
    }

    #[test]
    fn who_questions_expect_person() {
        let a = analyzer().analyze("Who was elected 44th president?");
        assert_eq!(a.answer_type, AnswerType::Person);
        assert!(a.keywords.contains(&"elected".to_owned()));
        assert!(a.keywords.contains(&"44th".to_owned()));
        assert!(a.stems.contains(&"elect".to_owned()));
    }

    #[test]
    fn where_questions_expect_location() {
        let a = analyzer().analyze("Where is Las Vegas?");
        assert_eq!(a.answer_type, AnswerType::Location);
        assert_eq!(a.keywords, vec!["las", "vegas"]);
    }

    #[test]
    fn capital_questions_expect_location() {
        let a = analyzer().analyze("What is the capital of Italy?");
        assert_eq!(a.answer_type, AnswerType::Location);
        assert!(a.stems.contains(&"itali".to_owned()));
    }

    #[test]
    fn when_questions_expect_time() {
        let a = analyzer().analyze("When does this restaurant close?");
        assert_eq!(a.answer_type, AnswerType::Time);
        assert!(a.keywords.contains(&"restaurant".to_owned()));
        assert!(!a.keywords.contains(&"does".to_owned()));
    }

    #[test]
    fn how_many_expects_number() {
        let a = analyzer().analyze("How many students visited the museum?");
        assert_eq!(a.answer_type, AnswerType::Number);
    }

    #[test]
    fn pos_tags_cover_all_tokens() {
        let a = analyzer().analyze("Who wrote the famous book?");
        assert_eq!(a.pos_tags.len(), a.tokens.len());
        // "who" must be tagged WH by the trained CRF.
        assert_eq!(a.pos_tags[0], "WH");
    }

    #[test]
    fn special_characters_are_stripped() {
        let a = analyzer().analyze("What is the capital-of (Italy)???");
        assert!(a
            .tokens
            .iter()
            .all(|t| t.chars().all(char::is_alphanumeric)));
        assert!(a.regex_ops > 0);
    }
}
