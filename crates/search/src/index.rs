//! Inverted index with BM25 ranking.

use crate::bm25::Bm25Params;
use crate::tokenize::{tokenize, tokenize_unique};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::collections::{BTreeMap, HashMap};

/// Index-local document identifier (the caller decides what it maps to; the
/// [`crate::EntitySearcher`] uses entity ids).
pub type DocId = u32;

/// One ranked retrieval result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchHit {
    pub doc: DocId,
    pub score: f32,
}

#[derive(Debug, Clone, Copy)]
struct Posting {
    doc: DocId,
    tf: u32,
}

/// An inverted index over tokenized documents, ranked with Okapi BM25.
///
/// Built once, then queried concurrently (all query methods take `&self`).
/// Documents are added with [`InvertedIndex::add_document`] followed by
/// [`InvertedIndex::finish`]; `finish` freezes corpus statistics.
#[derive(Debug, Default)]
pub struct InvertedIndex {
    postings: HashMap<String, Vec<Posting>>,
    /// Token count per document, indexed directly by [`DocId`]. Zero means
    /// "no such document" (a document with only empty fields is never
    /// registered). Dense because callers use dense ids — the
    /// [`crate::EntitySearcher`] maps entity ids straight to doc ids — so a
    /// flat `Vec` replaces the former `HashMap` at a quarter of the memory
    /// and with deterministic iteration for free.
    doc_lens: Vec<u32>,
    /// Number of distinct registered documents (`doc_lens` entries > 0).
    n_docs: usize,
    total_len: u64,
    params: Bm25Params,
    finished: bool,
}

impl InvertedIndex {
    /// Create an empty index with the given parameters.
    pub fn new(params: Bm25Params) -> Self {
        InvertedIndex {
            params,
            ..Default::default()
        }
    }

    /// Add a document. `text` is analyzed with the standard tokenizer.
    /// Adding the same `doc` id twice appends to its postings (multi-field
    /// documents: label + aliases are separate `add_document` calls).
    ///
    /// # Panics
    /// Panics if called after [`InvertedIndex::finish`].
    pub fn add_document(&mut self, doc: DocId, text: &str) {
        assert!(!self.finished, "index is frozen");
        let tokens = tokenize(text);
        if tokens.is_empty() {
            return;
        }
        if self.doc_lens.len() <= doc as usize {
            self.doc_lens.resize(doc as usize + 1, 0);
        }
        if self.doc_lens[doc as usize] == 0 {
            self.n_docs += 1;
        }
        self.doc_lens[doc as usize] += tokens.len() as u32;
        self.total_len += tokens.len() as u64;
        // BTreeMap so per-document term counts are visited in term order:
        // postings lists grow identically run to run even before finish()
        // canonicalizes them.
        let mut tf: BTreeMap<&str, u32> = BTreeMap::new();
        for t in &tokens {
            *tf.entry(t.as_str()).or_insert(0) += 1;
        }
        for (term, count) in tf {
            let list = self.postings.entry(term.to_string()).or_default();
            if let Some(last) = list.last_mut() {
                if last.doc == doc {
                    last.tf += count;
                    continue;
                }
            }
            list.push(Posting { doc, tf: count });
        }
    }

    /// Freeze the index: sorts postings by document id for deterministic
    /// iteration and enables querying.
    pub fn finish(&mut self) {
        #[expect(
            clippy::disallowed_methods,
            clippy::iter_over_hash_type,
            reason = "order-insensitive: each list is canonicalized (sorted by doc, duplicates merged) independently; the visit order across lists can affect nothing observable"
        )]
        for list in self.postings.values_mut() {
            list.sort_unstable_by_key(|p| p.doc);
            // Merge duplicate (doc) entries produced by multiple fields.
            let mut merged: Vec<Posting> = Vec::with_capacity(list.len());
            for p in list.iter() {
                if let Some(last) = merged.last_mut() {
                    if last.doc == p.doc {
                        last.tf += p.tf;
                        continue;
                    }
                }
                merged.push(*p);
            }
            *list = merged;
        }
        // Freeze the dense length table at its final extent: queries index
        // it directly, and nothing grows after this point.
        self.doc_lens.shrink_to_fit();
        self.finished = true;
    }

    /// Number of indexed documents.
    pub fn doc_count(&self) -> usize {
        self.n_docs
    }

    /// Average document length in tokens (the paper's `avgwl`).
    pub fn avg_doc_len(&self) -> f32 {
        if self.n_docs == 0 {
            0.0
        } else {
            self.total_len as f32 / self.n_docs as f32
        }
    }

    /// Token count of document `doc`, or `None` if it was never added.
    pub fn doc_len(&self, doc: DocId) -> Option<u32> {
        match self.doc_lens.get(doc as usize) {
            Some(&len) if len > 0 => Some(len),
            _ => None,
        }
    }

    /// Number of documents containing `term` (the paper's `n(w)`).
    pub fn doc_freq(&self, term: &str) -> usize {
        self.postings.get(term).map_or(0, Vec::len)
    }

    /// Top-`k` documents for `query`, ranked by BM25 score descending.
    /// Ties break toward the lower document id for determinism.
    pub fn search(&self, query: &str, k: usize) -> Vec<SearchHit> {
        debug_assert!(self.finished, "call finish() before searching");
        let terms = tokenize_unique(query);
        if terms.is_empty() || k == 0 {
            return Vec::new();
        }
        let n = self.doc_count();
        let avg = self.avg_doc_len().max(1e-6);
        let mut acc: HashMap<DocId, f32> = HashMap::new();
        for term in &terms {
            let Some(list) = self.postings.get(term) else {
                continue;
            };
            let idf = Bm25Params::idf(n, list.len());
            for p in list {
                let len = self.doc_lens[p.doc as usize] as f32;
                *acc.entry(p.doc).or_insert(0.0) +=
                    self.params.term_score(idf, p.tf as f32, len, avg);
            }
        }
        top_k(acc, k)
    }
}

/// Min-heap entry ordered so the heap keeps the k *best* hits.
struct HeapEntry(SearchHit);

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want to pop the worst.
        // total_cmp makes this a total order, which is what guarantees the
        // k survivors are insertion-order independent.
        other
            .0
            .score
            .total_cmp(&self.0.score)
            // On equal scores pop the *larger* doc id first, keeping lower ids.
            .then_with(|| self.0.doc.cmp(&other.0.doc))
    }
}

fn top_k(acc: HashMap<DocId, f32>, k: usize) -> Vec<SearchHit> {
    let mut heap: BinaryHeap<HeapEntry> = BinaryHeap::with_capacity(k + 1);
    #[expect(
        clippy::iter_over_hash_type,
        reason = "order-insensitive: HeapEntry's Ord is total (total_cmp, then doc id), so a size-bounded heap keeps exactly the k greatest entries whatever order they arrive in; the final sort below fixes the emitted order"
    )]
    for (doc, score) in acc {
        heap.push(HeapEntry(SearchHit { doc, score }));
        if heap.len() > k {
            heap.pop();
        }
    }
    let mut hits: Vec<SearchHit> = heap.into_iter().map(|e| e.0).collect();
    hits.sort_unstable_by(|a, b| b.score.total_cmp(&a.score).then_with(|| a.doc.cmp(&b.doc)));
    hits
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_index() -> InvertedIndex {
        let mut idx = InvertedIndex::new(Bm25Params::default());
        idx.add_document(0, "Peter Steele");
        idx.add_document(1, "Peter Steele American musician");
        idx.add_document(2, "Rust");
        idx.add_document(3, "Rust album by Peter Steele");
        idx.add_document(4, "Steeleville city");
        idx.finish();
        idx
    }

    #[test]
    fn exact_label_match_ranks_first() {
        let idx = small_index();
        let hits = idx.search("Peter Steele", 3);
        assert_eq!(hits[0].doc, 0, "shortest exact match wins: {hits:?}");
        assert!(hits[0].score > hits[1].score);
    }

    #[test]
    fn no_match_returns_empty() {
        let idx = small_index();
        assert!(idx.search("zzz qqq", 5).is_empty());
        assert!(idx.search("", 5).is_empty());
        assert!(idx.search("peter", 0).is_empty());
    }

    #[test]
    fn k_limits_results() {
        let idx = small_index();
        let hits = idx.search("peter", 2);
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn multi_field_documents_merge() {
        let mut idx = InvertedIndex::new(Bm25Params::default());
        idx.add_document(7, "Power forward");
        idx.add_document(7, "PF");
        idx.finish();
        assert_eq!(idx.doc_count(), 1);
        let hits = idx.search("pf", 5);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].doc, 7);
    }

    #[test]
    fn deterministic_tie_break_by_doc_id() {
        let mut idx = InvertedIndex::new(Bm25Params::default());
        idx.add_document(10, "alpha");
        idx.add_document(3, "alpha");
        idx.add_document(25, "alpha");
        idx.finish();
        let hits = idx.search("alpha", 2);
        assert_eq!(hits.iter().map(|h| h.doc).collect::<Vec<_>>(), vec![3, 10]);
    }

    #[test]
    fn corpus_statistics() {
        let idx = small_index();
        assert_eq!(idx.doc_count(), 5);
        assert!(idx.avg_doc_len() > 1.0);
        assert_eq!(idx.doc_freq("peter"), 3);
        assert_eq!(idx.doc_freq("nonexistent"), 0);
    }

    #[test]
    fn doc_len_distinguishes_missing_and_sparse_ids() {
        let mut idx = InvertedIndex::new(Bm25Params::default());
        idx.add_document(2, "alpha beta");
        idx.add_document(2, "gamma");
        idx.add_document(9, "delta");
        idx.finish();
        // Multi-field lengths accumulate; gaps in the id space and ids past
        // the table's extent are both "no such document".
        assert_eq!(idx.doc_len(2), Some(3));
        assert_eq!(idx.doc_len(9), Some(1));
        assert_eq!(idx.doc_len(0), None);
        assert_eq!(idx.doc_len(5), None);
        assert_eq!(idx.doc_len(100), None);
        assert_eq!(idx.doc_count(), 2);
        assert!((idx.avg_doc_len() - 2.0).abs() < 1e-6);
    }
}
