//! # kglink-store — disk-backed knowledge-graph and retrieval segments
//!
//! The in-memory [`kglink_kg::KnowledgeGraph`] and
//! `kglink_search::InvertedIndex` top out around the low millions of
//! entities before resident memory becomes the binding constraint. This
//! crate scales the world 100–1000× by moving both structures to disk
//! behind the same traits the pipeline already consumes:
//!
//! - **Entity shards** (`entities-NNNNN.kges`, [`segment`]): fixed-range
//!   sharding by entity id, length-prefixed records in CRC'd blocks, each
//!   followed by its records' one-hop lists in a CRC'd adjacency block, a
//!   binary-searchable block index in the file tail. [`DiskGraph`]
//!   implements [`kglink_kg::GraphAccess`] over them through a bounded
//!   [`BlockCache`], with a tier of one-hop answers in front.
//! - **BM25 segment** (`index.kgbm`, [`bm25seg`]): delta-varint
//!   compressed postings with per-block max-score metadata for rank-safe
//!   block-max top-k skipping, built in bounded memory via spill-and-merge
//!   runs. [`DiskBackend`] implements `kglink_search::KgBackend` over it
//!   and is *bit-identical* to `InvertedIndex::search` — same idf, same
//!   f32 summation order, same tie-breaks.
//! - **Manifest** (`world.kgsm`, [`manifest`]): written last through the
//!   atomic temp → fsync → rename writer, it is the directory-level commit
//!   point. A crashed build leaves no manifest and the world does not
//!   open.
//!
//! Every decoder returns a typed [`StoreError`] — corruption, truncation,
//! foreign magic and future versions are all distinguishable and none of
//! the library paths panic on bad bytes. The service facades
//! ([`GraphAccess`](kglink_kg::GraphAccess) /
//! [`KgBackend`](kglink_search::KgBackend)) degrade to neutral values and
//! count errors instead of propagating, so one corrupt block cannot take
//! down an annotation service; the `try_*` twins expose the typed errors
//! for tools that want them.

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

pub mod atomic;
pub mod backend;
pub mod blockcache;
pub mod bm25seg;
pub mod error;
mod hoptier;
pub mod manifest;
pub mod segment;
pub mod varint;
pub mod world;

pub use atomic::{atomic_write_segment, AtomicFile};
pub use backend::{
    BackendStats, DiskBackend, DiskGraph, DEFAULT_BM25_CACHE_BYTES, DEFAULT_GRAPH_CACHE_BYTES,
};
pub use blockcache::{BlockCache, BlockCacheStats};
pub use bm25seg::{Bm25SegBuilder, Bm25Segment, QueryStats, BM25_FILE, DEFAULT_SPILL_POSTINGS};
pub use error::StoreError;
pub use manifest::{Bm25Stats, Manifest, MANIFEST_FILE};
pub use segment::{shard_file_name, EntityRecord, Segment, SegmentWriter};
pub use world::{write_graph, DiskWorld, WorldWriter, WorldWriterConfig};
