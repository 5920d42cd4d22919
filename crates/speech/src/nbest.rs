//! N-best decoding and language-model rescoring.
//!
//! The paper cites hybrid decoding with "on-the-fly hypothesis rescoring"
//! \[62\] as the production approach for GPU-accelerated ASR: a fast first
//! pass produces several candidate transcripts, and a second pass re-ranks
//! them with a stronger (or re-weighted) language model. This module
//! implements that two-pass structure: [`Decoder::decode_nbest`] runs token
//! passing with per-state K-best token lists, and [`rescore`] re-ranks the
//! hypotheses under a caller-supplied language-model weight.

use std::collections::HashMap;

use crate::hmm::{Decoder, DecoderConfig};
use crate::lexicon::Lexicon;
use crate::lm::{BigramLm, SentenceModel};

/// One N-best hypothesis.
#[derive(Debug, Clone, PartialEq)]
pub struct Hypothesis {
    /// The word sequence.
    pub words: Vec<String>,
    /// Combined acoustic + LM Viterbi score from the first pass.
    pub score: f32,
    /// First-pass rank (0 = best).
    pub rank: usize,
}

/// Per-state token used during N-best search.
#[derive(Debug, Clone, Copy)]
struct Token {
    score: f32,
    hist: u32,
}

const ROOT: u32 = u32::MAX;

/// How many tokens each graph state retains during N-best search.
pub const TOKENS_PER_STATE: usize = 4;

/// Score beam of the N-best pass. Deliberately not [`DecoderConfig::beam`]:
/// that width is sized to keep the one best path and little else, and this
/// pass exists to keep the alternatives alive for [`rescore`]. 2500 is the
/// exhaustive width the one-best defaults were calibrated against.
pub const NBEST_BEAM: f32 = 2500.0;

impl Decoder {
    /// Decodes the `n` best distinct word sequences.
    ///
    /// Runs token passing like [`Decoder::decode_scores`] but keeps up to
    /// [`TOKENS_PER_STATE`] tokens with distinct word histories per graph
    /// state, then collects distinct acceptance hypotheses. Prunes by
    /// [`NBEST_BEAM`] alone; the decoder's own `beam` and `max_active` do
    /// not apply.
    ///
    /// Returns an empty vector when no path survives.
    pub fn decode_nbest(
        &self,
        emis: &[Vec<f32>],
        lm: &BigramLm,
        lexicon: &Lexicon,
        n: usize,
    ) -> Vec<Hypothesis> {
        let t_max = emis.len();
        if t_max == 0 || n == 0 {
            return Vec::new();
        }
        let num_states = self.num_graph_states();
        let log_self = self.config().self_loop.ln();
        let log_adv = (1.0 - self.config().self_loop).ln();
        let wip = self.config().word_insertion_penalty;
        let lmw = self.config().lm_weight;

        // History arena: (word, previous) — shared across the beam. The
        // memo canonicalizes transitions so equal word sequences share one
        // arena id, making per-state history dedup exact.
        let mut arena: Vec<(u32, u32)> = Vec::with_capacity(4096);
        let mut memo: HashMap<(u32, u32), u32> = HashMap::with_capacity(4096);
        let mut cur: Vec<Vec<Token>> = vec![Vec::new(); num_states];
        let mut nxt: Vec<Vec<Token>> = vec![Vec::new(); num_states];

        // Initialization: silence start and every word start.
        cur[self.sil_first_state()].push(Token {
            score: emis[0][self.emission_of(self.sil_first_state())],
            hist: ROOT,
        });
        for w in 0..lexicon.len() {
            let e = self.word_first_state(w);
            arena.push((w as u32, ROOT));
            memo.insert((w as u32, ROOT), (arena.len() - 1) as u32);
            cur[e].push(Token {
                score: lmw * lm.log_start(w) + wip + emis[0][self.emission_of(e)],
                hist: (arena.len() - 1) as u32,
            });
        }

        let push_token = |list: &mut Vec<Token>, tok: Token| {
            // Keep at most TOKENS_PER_STATE tokens with distinct histories.
            if let Some(existing) = list.iter_mut().find(|t| t.hist == tok.hist) {
                if tok.score > existing.score {
                    *existing = tok;
                }
                return;
            }
            if list.len() < TOKENS_PER_STATE {
                list.push(tok);
                return;
            }
            let (worst_idx, worst) = list
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.score.total_cmp(&b.1.score))
                .expect("non-empty list");
            if tok.score > worst.score {
                list[worst_idx] = tok;
            }
        };

        for t in 1..t_max {
            for l in &mut nxt {
                l.clear();
            }
            let best = cur
                .iter()
                .flatten()
                .map(|t| t.score)
                .fold(f32::NEG_INFINITY, f32::max);
            if best == f32::NEG_INFINITY {
                return Vec::new();
            }
            let threshold = best - NBEST_BEAM;
            let frame = &emis[t];
            for e in 0..num_states {
                if cur[e].is_empty() {
                    continue;
                }
                let is_word_end = self.is_word_end_state(e);
                let in_sil = e >= self.sil_first_state();
                let tokens = std::mem::take(&mut cur[e]);
                for tok in &tokens {
                    if tok.score < threshold {
                        continue;
                    }
                    // Self loop.
                    push_token(
                        &mut nxt[e],
                        Token {
                            score: tok.score + log_self + frame[self.emission_of(e)],
                            hist: tok.hist,
                        },
                    );
                    if !is_word_end && e != self.sil_last_state() {
                        let target = e + 1;
                        push_token(
                            &mut nxt[target],
                            Token {
                                score: tok.score + log_adv + frame[self.emission_of(target)],
                                hist: tok.hist,
                            },
                        );
                    }
                    if !is_word_end && !in_sil {
                        continue;
                    }
                    let exit = tok.score + log_adv;
                    if is_word_end {
                        push_token(
                            &mut nxt[self.sil_first_state()],
                            Token {
                                score: exit + frame[self.emission_of(self.sil_first_state())],
                                hist: tok.hist,
                            },
                        );
                    }
                    let prev_word = if tok.hist == ROOT {
                        None
                    } else {
                        Some(arena[tok.hist as usize].0 as usize)
                    };
                    for w in 0..lexicon.len() {
                        let lm_score = match prev_word {
                            Some(p) => lm.log_bigram(p, w),
                            None => lm.log_start(w),
                        };
                        let target = self.word_first_state(w);
                        let cand = exit + lmw * lm_score + wip + frame[self.emission_of(target)];
                        // Skip hopeless candidates before touching the arena.
                        let worth_it = nxt[target].len() < TOKENS_PER_STATE
                            || nxt[target].iter().any(|t| cand > t.score);
                        if worth_it {
                            let hist = *memo.entry((w as u32, tok.hist)).or_insert_with(|| {
                                arena.push((w as u32, tok.hist));
                                (arena.len() - 1) as u32
                            });
                            push_token(&mut nxt[target], Token { score: cand, hist });
                        }
                    }
                }
            }
            std::mem::swap(&mut cur, &mut nxt);
        }

        // Collect acceptance tokens and keep the best score per distinct
        // word sequence.
        let mut finals: Vec<Token> = Vec::new();
        for w in 0..lexicon.len() {
            finals.extend(cur[self.word_last_state(w)].iter().copied());
        }
        for e in self.sil_first_state()..=self.sil_last_state() {
            finals.extend(cur[e].iter().copied());
        }
        let words_of = |mut hist: u32| -> Vec<String> {
            let mut rev = Vec::new();
            while hist != ROOT {
                let (w, prev) = arena[hist as usize];
                rev.push(lexicon.word(w as usize).to_owned());
                hist = prev;
            }
            rev.reverse();
            rev
        };
        let mut unique: Vec<(Vec<String>, f32)> = Vec::new();
        for tok in finals {
            let words = words_of(tok.hist);
            match unique.iter_mut().find(|(w, _)| *w == words) {
                Some((_, s)) => *s = s.max(tok.score),
                None => unique.push((words, tok.score)),
            }
        }
        unique.sort_by(|a, b| b.1.total_cmp(&a.1));
        unique
            .into_iter()
            .take(n)
            .enumerate()
            .map(|(rank, (words, score))| Hypothesis { words, score, rank })
            .collect()
    }
}

/// Second-pass rescoring: re-ranks first-pass hypotheses with a stronger
/// language model (e.g. [`crate::lm::TrigramLm`]) and/or a new weight.
///
/// The acoustic evidence is approximated by the first-pass score with the
/// first-pass LM contribution subtracted out, as in standard lattice
/// rescoring: `score = acoustic + lm_weight * second_lm(words)`.
pub fn rescore<M: SentenceModel>(
    hypotheses: &[Hypothesis],
    first_pass_config: &DecoderConfig,
    first_pass_lm: &BigramLm,
    second_pass_lm: &M,
    lexicon: &Lexicon,
    lm_weight: f32,
) -> Vec<Hypothesis> {
    let mut out: Vec<Hypothesis> = hypotheses
        .iter()
        .map(|h| {
            let ids: Vec<usize> = h
                .words
                .iter()
                .filter_map(|w| lexicon.word_index(w))
                .collect();
            let first_lm = first_pass_config.lm_weight * first_pass_lm.log_sentence(&ids);
            let acoustic = h.score - first_lm;
            Hypothesis {
                words: h.words.clone(),
                score: acoustic + lm_weight * second_pass_lm.sentence_log_prob(&ids),
                rank: h.rank,
            }
        })
        .collect();
    out.sort_by(|a, b| b.score.total_cmp(&a.score));
    for (i, h) in out.iter_mut().enumerate() {
        h.rank = i;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asr::{AcousticModelKind, AsrSystem, AsrTrainConfig};
    use crate::hmm::AcousticScorer;
    use crate::synth::{SynthConfig, Synthesizer};

    fn system() -> AsrSystem {
        AsrSystem::train(
            &["go on now", "no go on", "on and on"],
            9,
            AsrTrainConfig::default(),
        )
    }

    fn emissions(asr: &AsrSystem, text: &str, seed: u64) -> Vec<Vec<f32>> {
        let utt = Synthesizer::new(seed, SynthConfig::default()).say(text);
        let frames = asr.frontend().extract(&utt.samples);
        asr.gmm_scorer().score_utterance(&frames)
    }

    #[test]
    fn nbest_top_hypothesis_matches_one_best() {
        let asr = system();
        let emis = emissions(&asr, "go on now", 100);
        let one_best = asr
            .decoder()
            .decode_scores(&emis, asr.lm(), asr.lexicon())
            .expect("decode");
        let nbest = asr
            .decoder()
            .decode_nbest(&emis, asr.lm(), asr.lexicon(), 5);
        assert!(!nbest.is_empty());
        assert_eq!(nbest[0].words, one_best.words);
        assert!((nbest[0].score - one_best.score).abs() < 1e-3);
    }

    #[test]
    fn nbest_returns_distinct_ranked_hypotheses() {
        let asr = system();
        let emis = emissions(&asr, "go on now", 101);
        let nbest = asr
            .decoder()
            .decode_nbest(&emis, asr.lm(), asr.lexicon(), 4);
        assert!(nbest.len() >= 2, "only {} hypotheses", nbest.len());
        for pair in nbest.windows(2) {
            assert!(pair[0].score >= pair[1].score);
            assert_ne!(pair[0].words, pair[1].words);
        }
        for (i, h) in nbest.iter().enumerate() {
            assert_eq!(h.rank, i);
        }
    }

    #[test]
    fn rescoring_with_zero_weight_ranks_by_acoustics() {
        let asr = system();
        let emis = emissions(&asr, "no go on", 102);
        let nbest = asr
            .decoder()
            .decode_nbest(&emis, asr.lm(), asr.lexicon(), 4);
        let cfg = crate::hmm::DecoderConfig::default();
        let rescored = rescore(&nbest, &cfg, asr.lm(), asr.lm(), asr.lexicon(), 0.0);
        assert_eq!(rescored.len(), nbest.len());
        // With the original weight restored, the original ranking returns.
        let restored = rescore(
            &nbest,
            &cfg,
            asr.lm(),
            asr.lm(),
            asr.lexicon(),
            cfg.lm_weight,
        );
        assert_eq!(restored[0].words, nbest[0].words);
    }

    #[test]
    fn stronger_lm_weight_prefers_likely_sentences() {
        // Train the LM heavily on "go on now"; the rescoring pass with a
        // large weight must keep or promote it.
        let asr = AsrSystem::train(
            &["go on now", "go on now", "go on now", "no go on"],
            11,
            AsrTrainConfig::default(),
        );
        let emis = emissions(&asr, "go on now", 103);
        let nbest = asr
            .decoder()
            .decode_nbest(&emis, asr.lm(), asr.lexicon(), 5);
        let cfg = crate::hmm::DecoderConfig::default();
        let heavy = rescore(&nbest, &cfg, asr.lm(), asr.lm(), asr.lexicon(), 12.0);
        assert_eq!(heavy[0].words, vec!["go", "on", "now"]);
    }

    #[test]
    fn trigram_rescoring_promotes_trigram_likely_sentences() {
        use crate::lm::TrigramLm;
        // The trigram corpus makes "go on now" overwhelmingly likely after
        // its context even though bigram evidence is mixed.
        let corpus = ["go on now", "go on now", "no go on", "on and on"];
        let asr = AsrSystem::train(&corpus, 19, AsrTrainConfig::default());
        let trigram = TrigramLm::train(corpus.iter().copied(), asr.lexicon());
        let emis = emissions(&asr, "go on now", 301);
        let nbest = asr
            .decoder()
            .decode_nbest(&emis, asr.lm(), asr.lexicon(), 5);
        let cfg = crate::hmm::DecoderConfig::default();
        let rescored = rescore(&nbest, &cfg, asr.lm(), &trigram, asr.lexicon(), 6.0);
        assert_eq!(rescored[0].words, vec!["go", "on", "now"]);
    }

    #[test]
    fn empty_input_yields_no_hypotheses() {
        let asr = system();
        assert!(asr
            .decoder()
            .decode_nbest(&[], asr.lm(), asr.lexicon(), 3)
            .is_empty());
        let emis = emissions(&asr, "go on", 104);
        assert!(asr
            .decoder()
            .decode_nbest(&emis, asr.lm(), asr.lexicon(), 0)
            .is_empty());
    }

    #[test]
    fn nbest_works_through_the_full_recognizer() {
        let asr = system();
        let utt = Synthesizer::new(105, SynthConfig::default()).say("on and on");
        let out = asr.recognize(&utt.samples, AcousticModelKind::Gmm);
        assert_eq!(out.text, "on and on");
        let frames = asr.frontend().extract(&utt.samples);
        let emis = asr.gmm_scorer().score_utterance(&frames);
        let nbest = asr
            .decoder()
            .decode_nbest(&emis, asr.lm(), asr.lexicon(), 3);
        assert_eq!(nbest[0].words.join(" "), "on and on");
    }
}
