//! KGLink: column type annotation combining a knowledge graph with a
//! pre-trained language model (ICDE 2024 reproduction).
//!
//! The pipeline has two parts, mirroring the paper's Figure 3:
//!
//! **Part 1 — KG candidate type extraction** (modules [`linking`],
//! [`filter`], [`candidates`], [`feature`], orchestrated by [`preprocess`]):
//!
//! 1. *Table cell mention linking* — every linkable (non-numeric, non-date)
//!    cell is matched against the KG with BM25; the best-matching entities
//!    and their linking scores are retained (Eq. 1–2).
//! 2. *Filters on rows and entities* — candidate entity sets are pruned by
//!    intersecting with one-hop neighborhoods of the other columns' entities
//!    (Eq. 3); cell and row linking scores (Eq. 4–5) drive a top-k row
//!    filter; overlapping scores (Eq. 6) grade entity reliability.
//! 3. *Candidate type generation* — candidate type scores accumulate
//!    overlapping scores over one-hop type entities (Eq. 8), with a
//!    PERSON/DATE label filter; numeric columns get mean/variance/median
//!    statistics instead; a feature sequence `S(e)` (Eq. 9) serializes the
//!    best-linked entity's neighborhood per column.
//!
//! **Part 2 — deep-learning annotator** (modules [`serialize`], [`model`],
//! [`train`]):
//!
//! 1. *Table serialization* — Doduo-style multi-column serialization with a
//!    per-column `[CLS]` (Eq. 11), extended with the `[MASK]`/ground-truth
//!    label slot and the candidate types.
//! 2. *Column-type representation generation* — the DMLM sub-task
//!    (Eq. 13–14) recovers the label's vocabulary distribution from the
//!    `[MASK]` token, using the ground-truth table as a detached teacher.
//! 3. *Adaptive combined loss* — classification cross-entropy (Eq. 16) and
//!    the DMLM loss are merged with trainable uncertainty weights (Eq. 17).
//!
//! The user-facing entry point is [`pipeline::KgLink`]. A
//! [`memo::FeatureMemo`] passed with a request lets feature sequences the
//! same weights have already encoded skip the encoder.

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

pub mod candidates;
pub mod config;
pub mod error;
pub mod feature;
pub mod filter;
pub mod linking;
pub mod memo;
pub mod model;
pub mod pipeline;
pub mod preprocess;
pub mod serialize;
pub mod stats;
pub mod train;

pub use config::{KgLinkConfig, RowFilter};
pub use error::KgLinkError;
pub use linking::{CellLink, LinkedTable};
pub use memo::{FeatureMemo, FeatureMemoStats};
pub use model::KgLinkModel;
pub use pipeline::{
    req, AnnotateOutcome, AnnotateRequest, DegradationRung, FitOptions, GuardPolicy, KgLink,
    Resources, ResourcesBuilder, TrainReport,
};
pub use preprocess::{preprocess_table, preprocess_table_traced, Preprocessor, ProcessedTable};
pub use stats::{DegradationStats, LinkStatistics, LinkageClass};
