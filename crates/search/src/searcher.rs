//! Entity-level retrieval over a knowledge graph.

use crate::backend::{Deadline, KgBackend, RetrievalError, SearchOutcome};
use crate::bm25::Bm25Params;
use crate::index::{InvertedIndex, SearchHit};
use kglink_kg::{EntityId, KnowledgeGraph};

/// A BM25 searcher over the entities of a knowledge graph.
///
/// This is the reproduction's stand-in for the Elasticsearch deployment in
/// the paper's experimental setup ("We used Elasticsearch … to index the
/// WikiData KG and generate the BM25 entity linking scores for the KG entity
/// callback"). Labels and aliases are indexed, as in the disk world's
/// BM25 segment; descriptions are not (WikiData linking in the paper
/// matches against entity labels, and indexing long descriptions dilutes
/// length normalization). Pipelines read `kglink-store`'s `DiskBackend`;
/// this index is the reference the store is proven bit-identical to.
#[derive(Debug)]
pub struct EntitySearcher {
    index: InvertedIndex,
}

impl EntitySearcher {
    /// Index every entity of `graph` (labels + aliases).
    pub fn build(graph: &KnowledgeGraph) -> Self {
        let mut index = InvertedIndex::new(Bm25Params::default());
        for (id, entity) in graph.entities() {
            for text in entity.searchable_texts() {
                index.add_document(id.0, text);
            }
        }
        index.finish();
        EntitySearcher { index }
    }

    /// Retrieve up to `k` candidate entities for a cell mention, with BM25
    /// linking scores, best first.
    pub fn link_mention(&self, mention: &str, k: usize) -> Vec<(EntityId, f32)> {
        self.index
            .search(mention, k)
            .into_iter()
            .map(|SearchHit { doc, score }| (EntityId(doc), score))
            .collect()
    }

    /// The underlying index (for statistics).
    pub fn index(&self) -> &InvertedIndex {
        &self.index
    }
}

/// The in-process searcher is an infallible backend: the local BM25 lookup
/// cannot time out or drop a shard. Fault behaviour is layered on by the
/// wrappers in [`crate::resilience`].
impl KgBackend for EntitySearcher {
    // kglink-lint: allow(deadline-drop) — the in-process BM25 lookup is
    // synchronous and zero-latency by construction; there is no wait for a
    // deadline to bound, which is why the parameter is `_deadline`.
    fn search_entities(
        &self,
        query: &str,
        top_k: usize,
        _deadline: Deadline,
    ) -> Result<SearchOutcome, RetrievalError> {
        Ok(SearchOutcome {
            hits: self.link_mention(query, top_k),
            truncated: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kglink_kg::{Entity, KgBuilder, NeSchema};

    fn graph() -> (KnowledgeGraph, EntityId, EntityId, EntityId) {
        let mut b = KgBuilder::new();
        let musician = b.add_type("Musician", None);
        let steele = b.add_instance(
            Entity::new("Peter Steele", NeSchema::Person).with_alias("P. Steele"),
            musician,
        );
        let album_ty = b.add_type("Album", None);
        let rust_album = b.add_instance(Entity::new("Rust", NeSchema::Work), album_ty);
        (b.build(), musician, steele, rust_album)
    }

    #[test]
    fn link_mention_finds_exact_entity() {
        let (g, _, steele, _) = graph();
        let s = EntitySearcher::build(&g);
        let hits = s.link_mention("Peter Steele", 5);
        assert_eq!(hits[0].0, steele);
        assert!(hits[0].1 > 0.0);
    }

    #[test]
    fn aliases_are_searchable() {
        let (g, _, steele, _) = graph();
        let s = EntitySearcher::build(&g);
        let hits = s.link_mention("P. Steele", 5);
        assert!(hits.iter().any(|&(e, _)| e == steele));
    }

    #[test]
    fn unrelated_mentions_return_empty() {
        let (g, ..) = graph();
        let s = EntitySearcher::build(&g);
        assert!(s.link_mention("cucumber sandwich", 5).is_empty());
    }
}
