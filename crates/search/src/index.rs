//! Inverted index with BM25 ranking.
//!
//! This is the Nutch/Lucene stand-in used by the scalability-gap experiment
//! (paper Figure 7a: a web-search query averages ~91 ms vs ~15 s for Sirius)
//! and by the OpenEphyra-style QA engine for document retrieval.

use std::collections::HashMap;

use crate::tokenize;

/// Identifier of an indexed document (dense, 0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DocId(pub u32);

impl std::fmt::Display for DocId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "doc{}", self.0)
    }
}

/// One posting: a document and the term frequency within it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Posting {
    doc: DocId,
    term_freq: u32,
}

/// A ranked search result.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchHit {
    /// Matching document.
    pub doc: DocId,
    /// BM25 relevance score (higher is better).
    pub score: f64,
}

/// BM25 ranking parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bm25Params {
    /// Term-frequency saturation (`k1`), typically 1.2–2.0.
    pub k1: f64,
    /// Length normalization (`b`), 0 = none, 1 = full.
    pub b: f64,
}

impl Default for Bm25Params {
    fn default() -> Self {
        Self { k1: 1.2, b: 0.75 }
    }
}

/// Global collection statistics a shard scores against.
///
/// BM25 is a *collection-relative* model: idf depends on how many documents
/// in the whole corpus contain a term. A shard that only sees its own
/// postings would compute different idfs and its partial scores could not be
/// merged with its siblings'. Capturing the full-index document frequencies
/// here and injecting them into every shard makes each shard's per-document
/// score bit-identical to the score the unsharded index would produce.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CollectionStats {
    doc_freqs: HashMap<String, usize>,
}

impl CollectionStats {
    /// Global document frequency of `term` (0 for unknown terms).
    pub fn doc_freq(&self, term: &str) -> usize {
        self.doc_freqs.get(term).copied().unwrap_or(0)
    }

    /// Number of distinct terms in the full collection.
    pub fn num_terms(&self) -> usize {
        self.doc_freqs.len()
    }
}

/// An inverted index over a set of documents with BM25 scoring.
///
/// Build with [`InvertedIndex::add_document`] then call
/// [`InvertedIndex::finalize`] before searching.
#[derive(Debug, Default)]
pub struct InvertedIndex {
    postings: HashMap<String, Vec<Posting>>,
    documents: Vec<String>,
    doc_lengths: Vec<u32>,
    avg_doc_len: f64,
    params: Bm25Params,
    finalized: bool,
    /// `Some` on a shard: global document frequencies override the local
    /// posting-list lengths so idf matches the unsharded index exactly.
    global: Option<CollectionStats>,
}

impl InvertedIndex {
    /// Creates an empty index with default BM25 parameters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a document and returns its id.
    pub fn add_document(&mut self, text: &str) -> DocId {
        let id = DocId(self.documents.len() as u32);
        let tokens = tokenize::tokenize(text);
        self.doc_lengths.push(tokens.len() as u32);
        let mut tf: HashMap<String, u32> = HashMap::new();
        for t in tokens {
            *tf.entry(t).or_insert(0) += 1;
        }
        for (term, term_freq) in tf {
            self.postings
                .entry(term)
                .or_default()
                .push(Posting { doc: id, term_freq });
        }
        self.documents.push(text.to_owned());
        self.finalized = false;
        id
    }

    /// Computes collection statistics. Must be called after the last
    /// [`add_document`](Self::add_document) and before [`search`](Self::search).
    pub fn finalize(&mut self) {
        let total: u64 = self.doc_lengths.iter().map(|&l| u64::from(l)).sum();
        self.avg_doc_len = if self.documents.is_empty() {
            0.0
        } else {
            total as f64 / self.documents.len() as f64
        };
        for postings in self.postings.values_mut() {
            postings.sort_by_key(|p| p.doc);
        }
        self.finalized = true;
    }

    /// Number of indexed documents.
    pub fn num_documents(&self) -> usize {
        self.documents.len()
    }

    /// Number of distinct terms in the index.
    pub fn num_terms(&self) -> usize {
        self.postings.len()
    }

    /// Returns the original text of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn document(&self, id: DocId) -> &str {
        &self.documents[id.0 as usize]
    }

    /// Document frequency of `term` (number of documents containing it).
    ///
    /// On a [`shard`](Self::shard) this is the *global* frequency captured
    /// at shard time, not the length of the shard's filtered posting list —
    /// idf must be collection-relative for partial scores to merge exactly.
    pub fn doc_freq(&self, term: &str) -> usize {
        match &self.global {
            Some(stats) => stats.doc_freq(term),
            None => self.postings.get(term).map_or(0, Vec::len),
        }
    }

    /// Snapshot of the collection statistics every shard must score against.
    pub fn collection_stats(&self) -> CollectionStats {
        match &self.global {
            Some(stats) => stats.clone(),
            None => CollectionStats {
                doc_freqs: self
                    .postings
                    .iter()
                    .map(|(term, postings)| (term.clone(), postings.len()))
                    .collect(),
            },
        }
    }

    /// Builds shard `shard` of `num_shards`: postings are partitioned by
    /// `doc.0 % num_shards` while the document store, document lengths and
    /// global statistics ([`CollectionStats`], `avg_doc_len`, document
    /// count) are carried whole. Each document therefore scores on exactly
    /// one shard, and scores it produces are bit-identical to the unsharded
    /// index's — the same idf, the same length normalization, the same
    /// query-term accumulation order — so [`merge_hits`] over per-shard
    /// result lists reproduces [`search`](Self::search) exactly.
    ///
    /// # Panics
    ///
    /// Panics if `num_shards` is zero or `shard >= num_shards`.
    pub fn shard(&self, shard: u32, num_shards: u32) -> InvertedIndex {
        assert!(
            num_shards > 0 && shard < num_shards,
            "invalid shard {shard}/{num_shards}"
        );
        let postings: HashMap<String, Vec<Posting>> = self
            .postings
            .iter()
            .filter_map(|(term, postings)| {
                let kept: Vec<Posting> = postings
                    .iter()
                    .copied()
                    .filter(|p| p.doc.0 % num_shards == shard)
                    .collect();
                (!kept.is_empty()).then(|| (term.clone(), kept))
            })
            .collect();
        InvertedIndex {
            postings,
            documents: self.documents.clone(),
            doc_lengths: self.doc_lengths.clone(),
            avg_doc_len: self.avg_doc_len,
            params: self.params,
            finalized: true,
            global: Some(self.collection_stats()),
        }
    }

    /// BM25 inverse document frequency of `term`.
    pub fn idf(&self, term: &str) -> f64 {
        let n = self.num_documents() as f64;
        let df = self.doc_freq(term) as f64;
        // BM25+ style floor keeps idf positive for very common terms.
        ((n - df + 0.5) / (df + 0.5) + 1.0).ln()
    }

    /// Runs a BM25-ranked search and returns up to `k` hits, best first.
    ///
    /// Stop words are removed from the query; documents keep them so that the
    /// QA document filters can still match phrases.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if [`finalize`](Self::finalize) was not called
    /// after the last document insertion.
    pub fn search(&self, query: &str, k: usize) -> Vec<SearchHit> {
        debug_assert!(
            self.finalized || self.documents.is_empty(),
            "InvertedIndex::search called before finalize()"
        );
        let mut terms = tokenize::content_tokens(query);
        if terms.is_empty() {
            // Pure stop-word query: fall back to raw tokens so "who is it"
            // still retrieves something rather than nothing.
            terms = tokenize::tokenize(query);
        }
        let mut scores: HashMap<DocId, f64> = HashMap::new();
        for term in &terms {
            let Some(postings) = self.postings.get(term) else {
                continue;
            };
            let idf = self.idf(term);
            for p in postings {
                let dl = f64::from(self.doc_lengths[p.doc.0 as usize]);
                let tf = f64::from(p.term_freq);
                let denom = tf
                    + self.params.k1
                        * (1.0 - self.params.b + self.params.b * dl / self.avg_doc_len.max(1.0));
                let contrib = idf * tf * (self.params.k1 + 1.0) / denom;
                *scores.entry(p.doc).or_insert(0.0) += contrib;
            }
        }
        let mut hits: Vec<SearchHit> = scores
            .into_iter()
            .map(|(doc, score)| SearchHit { doc, score })
            .collect();
        hits.sort_by(hit_order);
        hits.truncate(k);
        hits
    }
}

/// The one result ordering: score descending, ties broken by ascending
/// document id. Total over hits with distinct documents, so any hit set has
/// exactly one sorted arrangement — the property scatter-gather merging
/// depends on.
fn hit_order(a: &SearchHit, b: &SearchHit) -> std::cmp::Ordering {
    b.score
        .partial_cmp(&a.score)
        .unwrap_or(std::cmp::Ordering::Equal)
        .then(a.doc.cmp(&b.doc))
}

/// Merges per-shard top-`k` result lists into the global top-`k`, best
/// first, using the same [`hit_order`] comparator
/// [`InvertedIndex::search`] sorts with.
///
/// Because every document scores on exactly one shard (bit-identically to
/// the unsharded index, see [`InvertedIndex::shard`]) and each shard
/// returns its own top-`k`, the union of the inputs contains the global
/// top-`k`; re-sorting under the shared total order and truncating
/// reproduces the unsharded [`InvertedIndex::search`] output exactly,
/// order and score bits included.
pub fn merge_hits(lists: impl IntoIterator<Item = Vec<SearchHit>>, k: usize) -> Vec<SearchHit> {
    let mut hits: Vec<SearchHit> = lists.into_iter().flatten().collect();
    hits.sort_by(hit_order);
    hits.truncate(k);
    hits
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_index() -> InvertedIndex {
        let mut idx = InvertedIndex::new();
        idx.add_document("the quick brown fox jumps over the lazy dog");
        idx.add_document("a quick reference to rust programming");
        idx.add_document("the dog barks at the brown cat");
        idx.finalize();
        idx
    }

    #[test]
    fn search_ranks_more_relevant_first() {
        let idx = small_index();
        let hits = idx.search("brown dog", 3);
        // Both doc0 and doc2 contain "brown" and "dog"; doc2 is shorter, so
        // BM25 length normalization ranks it first. doc1 contains neither.
        assert_eq!(hits[0].doc, DocId(2));
        assert_eq!(hits.len(), 2);
        assert!(hits[0].score >= hits[1].score);
    }

    #[test]
    fn doc_freq_and_idf() {
        let idx = small_index();
        assert_eq!(idx.doc_freq("quick"), 2);
        assert_eq!(idx.doc_freq("rust"), 1);
        assert_eq!(idx.doc_freq("zebra"), 0);
        assert!(idx.idf("rust") > idx.idf("quick"));
        assert!(idx.idf("the") > 0.0, "idf stays positive for common terms");
    }

    #[test]
    fn search_respects_k() {
        let idx = small_index();
        let hits = idx.search("the", 1);
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn stop_word_only_query_still_matches() {
        let idx = small_index();
        assert!(!idx.search("the", 3).is_empty());
    }

    #[test]
    fn unknown_terms_return_empty() {
        let idx = small_index();
        assert!(idx.search("xylophone quartz", 5).is_empty());
    }

    #[test]
    fn term_frequency_boosts_score() {
        let mut idx = InvertedIndex::new();
        idx.add_document("rust rust rust rust");
        idx.add_document("rust and other topics");
        idx.finalize();
        let hits = idx.search("rust", 2);
        assert_eq!(hits[0].doc, DocId(0));
    }

    #[test]
    fn num_terms_counts_vocabulary() {
        let idx = small_index();
        assert!(idx.num_terms() >= 10);
    }

    /// An index whose duplicate documents force exact BM25 score ties, so
    /// the merge's doc-id tie-break is actually exercised.
    fn tie_heavy_index() -> InvertedIndex {
        let mut idx = InvertedIndex::new();
        for _ in 0..4 {
            idx.add_document("the quick brown fox jumps over the lazy dog");
            idx.add_document("a quick reference to rust programming");
            idx.add_document("the dog barks at the brown cat");
        }
        idx.add_document("brown brown brown");
        idx.finalize();
        idx
    }

    #[test]
    fn shard_keeps_global_statistics() {
        let idx = tie_heavy_index();
        for n in [1u32, 2, 3, 4, 8] {
            for i in 0..n {
                let s = idx.shard(i, n);
                assert_eq!(s.num_documents(), idx.num_documents());
                for term in ["quick", "brown", "rust", "the", "zebra"] {
                    assert_eq!(s.doc_freq(term), idx.doc_freq(term), "df({term})");
                    assert_eq!(s.idf(term).to_bits(), idx.idf(term).to_bits());
                }
                assert_eq!(s.document(DocId(5)), idx.document(DocId(5)));
            }
        }
    }

    #[test]
    fn merged_shard_results_are_bit_identical_to_unsharded_search() {
        let idx = tie_heavy_index();
        for query in ["brown dog", "quick rust", "the", "fox cat programming"] {
            for k in [1usize, 3, 5, 64] {
                let global = idx.search(query, k);
                for n in [1u32, 2, 3, 4, 8] {
                    let merged = merge_hits((0..n).map(|i| idx.shard(i, n).search(query, k)), k);
                    assert_eq!(merged, global, "query={query:?} k={k} shards={n}");
                    for (m, g) in merged.iter().zip(&global) {
                        assert_eq!(m.score.to_bits(), g.score.to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn shard_of_shard_round_trips_collection_stats() {
        let idx = tie_heavy_index();
        let stats = idx.collection_stats();
        let s = idx.shard(0, 2);
        assert_eq!(s.collection_stats(), stats);
    }

    #[test]
    #[should_panic(expected = "invalid shard")]
    fn shard_index_out_of_range_panics() {
        let _ = small_index().shard(2, 2);
    }
}
