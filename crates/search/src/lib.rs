//! Full-text entity retrieval for KGLink.
//!
//! The original system indexes WikiData in Elasticsearch and uses its BM25
//! scores as *linking scores* between table cell mentions and KG entities
//! (paper Eq. 1–2). This crate is the drop-in substrate:
//!
//! * [`tokenize()`] — the analyzer (lowercasing, alphanumeric word splitting);
//! * [`InvertedIndex`] — term → postings with term frequencies, document
//!   lengths, and corpus statistics;
//! * [`Bm25Params`] / scoring — Okapi BM25 exactly as in the paper, with the
//!   `ln(1 + (N - n + 0.5)/(n + 0.5))` IDF variant (Eq. 2);
//! * [`EntitySearcher`] — the convenience layer that indexes a
//!   [`kglink_kg::KnowledgeGraph`] (labels + aliases, optionally
//!   descriptions) and returns scored entity candidates for a mention.

//!
//! Production-scale retrieval is *fallible*: [`KgBackend`] is the
//! deadline-aware trait the pipeline consumes, and [`resilience`] provides
//! deterministic fault injection around any backend. A failed retrieval
//! degrades its column to the no-linkage path; nothing retries. [`cache`]
//! adds a sharded-LRU memoization decorator ([`CachingBackend`]) that both
//! the serving layer and training-time preprocessing stack over any of the
//! above.

#![deny(deprecated)]
#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::allow_attributes,
        clippy::allow_attributes_without_reason,
        clippy::disallowed_methods,
        clippy::iter_over_hash_type
    )
)]

pub mod backend;
pub mod bm25;
pub mod cache;
pub mod index;
pub mod resilience;
pub mod searcher;
pub mod tokenize;

pub use backend::{Deadline, KgBackend, RetrievalError, SearchOutcome};
pub use bm25::Bm25Params;
pub use cache::{normalize_mention, CacheConfig, CacheStats, CachingBackend, Lru};
pub use index::{DocId, InvertedIndex, SearchHit};
pub use resilience::{
    FaultConfig, FaultyBackend, MetricsSnapshot, PanickingBackend, ResilienceConfig,
    ResilientBackend,
};
pub use searcher::EntitySearcher;
pub use tokenize::tokenize;
