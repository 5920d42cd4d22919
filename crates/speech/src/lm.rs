//! Bigram language model over the recognizer's closed vocabulary.
//!
//! The paper's ASR uses a language model alongside the acoustic model and
//! dictionary (Figure 4, "Trained Data"). A bigram model with add-k
//! smoothing is sufficient for the 42-query input set and keeps decoding
//! exact.

use crate::lexicon::{normalize_text, Lexicon};

/// Bigram language model with add-k smoothing.
#[derive(Debug, Clone)]
pub struct BigramLm {
    vocab: usize,
    k: f64,
    /// `unigram[w]` = count of w as sentence start.
    start_counts: Vec<u32>,
    start_total: u32,
    /// `bigram[prev][next]` counts, dense (vocab is small).
    bigram_counts: Vec<Vec<u32>>,
    /// Row totals for `bigram_counts`.
    prev_totals: Vec<u32>,
}

impl BigramLm {
    /// Trains a bigram LM from raw sentences using `lexicon` for the word
    /// inventory. Words outside the lexicon are skipped.
    pub fn train<'a, I: IntoIterator<Item = &'a str>>(texts: I, lexicon: &Lexicon) -> Self {
        let v = lexicon.len();
        let mut lm = Self {
            vocab: v,
            k: 0.1,
            start_counts: vec![0; v],
            start_total: 0,
            bigram_counts: vec![vec![0; v]; v],
            prev_totals: vec![0; v],
        };
        for text in texts {
            let normalized = normalize_text(text);
            let ids: Vec<usize> = normalized
                .split_whitespace()
                .filter_map(|w| lexicon.word_index(w))
                .collect();
            if let Some(&first) = ids.first() {
                lm.start_counts[first] += 1;
                lm.start_total += 1;
            }
            for pair in ids.windows(2) {
                lm.bigram_counts[pair[0]][pair[1]] += 1;
                lm.prev_totals[pair[0]] += 1;
            }
        }
        lm
    }

    /// Vocabulary size this model was trained over.
    pub fn vocab_size(&self) -> usize {
        self.vocab
    }

    /// Log-probability of `word` starting a sentence.
    pub fn log_start(&self, word: usize) -> f32 {
        let num = f64::from(self.start_counts[word]) + self.k;
        let den = f64::from(self.start_total) + self.k * self.vocab as f64;
        (num / den).ln() as f32
    }

    /// Log-probability of `next` following `prev`.
    pub fn log_bigram(&self, prev: usize, next: usize) -> f32 {
        let num = f64::from(self.bigram_counts[prev][next]) + self.k;
        let den = f64::from(self.prev_totals[prev]) + self.k * self.vocab as f64;
        (num / den).ln() as f32
    }

    /// Log-probability of a full sentence of word ids.
    pub fn log_sentence(&self, words: &[usize]) -> f32 {
        let Some(&first) = words.first() else {
            return 0.0;
        };
        let mut total = self.log_start(first);
        for pair in words.windows(2) {
            total += self.log_bigram(pair[0], pair[1]);
        }
        total
    }

    /// Serializes the model.
    pub fn encode(&self, e: &mut sirius_codec::Encoder) {
        e.tag("bigram_lm");
        e.u32(self.vocab as u32);
        e.f64(self.k);
        e.u32_slice(&self.start_counts);
        e.u32(self.start_total);
        for row in &self.bigram_counts {
            e.u32_slice(row);
        }
        e.u32_slice(&self.prev_totals);
    }

    /// Deserializes a model written by [`BigramLm::encode`].
    ///
    /// # Errors
    ///
    /// Fails on malformed or inconsistent bytes.
    pub fn decode(d: &mut sirius_codec::Decoder<'_>) -> Result<Self, sirius_codec::DecodeError> {
        d.tag("bigram_lm")?;
        let vocab = d.u32()? as usize;
        let k = d.f64()?;
        let start_counts = d.u32_vec()?;
        let start_total = d.u32()?;
        let mut bigram_counts = Vec::with_capacity(vocab);
        for _ in 0..vocab {
            bigram_counts.push(d.u32_vec()?);
        }
        let prev_totals = d.u32_vec()?;
        if start_counts.len() != vocab
            || prev_totals.len() != vocab
            || bigram_counts.iter().any(|r| r.len() != vocab)
        {
            return Err(sirius_codec::DecodeError {
                message: "inconsistent language-model dimensions".into(),
                offset: 0,
            });
        }
        Ok(Self {
            vocab,
            k,
            start_counts,
            start_total,
            bigram_counts,
            prev_totals,
        })
    }

    /// Perplexity of a sentence under the model.
    pub fn perplexity(&self, words: &[usize]) -> f32 {
        if words.is_empty() {
            return 1.0;
        }
        (-self.log_sentence(words) / words.len() as f32).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Lexicon, BigramLm) {
        let texts = [
            "set my alarm for eight am",
            "set my timer for ten minutes",
            "who was elected president",
            "what is the capital of italy",
        ];
        let lex = Lexicon::from_texts(texts.iter().copied());
        let lm = BigramLm::train(texts.iter().copied(), &lex);
        (lex, lm)
    }

    #[test]
    fn seen_bigrams_outscore_unseen() {
        let (lex, lm) = setup();
        let set = lex.word_index("set").expect("set");
        let my = lex.word_index("my").expect("my");
        let italy = lex.word_index("italy").expect("italy");
        assert!(lm.log_bigram(set, my) > lm.log_bigram(set, italy));
    }

    #[test]
    fn start_words_outscore_non_starts() {
        let (lex, lm) = setup();
        let set = lex.word_index("set").expect("set");
        let alarm = lex.word_index("alarm").expect("alarm");
        assert!(lm.log_start(set) > lm.log_start(alarm));
    }

    #[test]
    fn training_sentence_has_low_perplexity() {
        let (lex, lm) = setup();
        let ids: Vec<usize> = "set my alarm for eight am"
            .split_whitespace()
            .map(|w| lex.word_index(w).expect("in vocab"))
            .collect();
        let shuffled: Vec<usize> = ids.iter().rev().copied().collect();
        assert!(lm.perplexity(&ids) < lm.perplexity(&shuffled));
    }

    #[test]
    fn distributions_normalize() {
        let (lex, lm) = setup();
        let v = lex.len();
        let start_sum: f64 = (0..v).map(|w| f64::from(lm.log_start(w)).exp()).sum();
        assert!((start_sum - 1.0).abs() < 1e-6, "start sums to {start_sum}");
        let set = lex.word_index("set").expect("set");
        let big_sum: f64 = (0..v).map(|w| f64::from(lm.log_bigram(set, w)).exp()).sum();
        assert!((big_sum - 1.0).abs() < 1e-6, "bigram row sums to {big_sum}");
    }

    #[test]
    fn empty_sentence_handled() {
        let (_, lm) = setup();
        assert_eq!(lm.log_sentence(&[]), 0.0);
        assert_eq!(lm.perplexity(&[]), 1.0);
    }
}
