//! Tabular data model for the KGLink reproduction.
//!
//! Column type annotation (CTA) operates on relational web tables whose
//! columns carry semantic-type labels. This crate holds everything the
//! pipeline and every baseline share:
//!
//! * [`CellValue`] — typed cells with the rule-based *named entity schema*
//!   detector that decides which cells are numbers/dates (never linked to
//!   the KG, linking score 0 — paper §IV intro);
//! * [`Table`] — a table with headers, column-major cells, and per-column
//!   ground-truth labels;
//! * [`Dataset`] — a labeled corpus with a shared label vocabulary and the
//!   paper's stratified 7:1:2 train/validation/test split;
//! * [`metrics`] — accuracy, weighted/macro F1 and per-class reports, the
//!   evaluation metrics of every table in the paper.

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

pub mod cell;
pub mod csv;
pub mod dataset;
pub mod metrics;
pub mod table;

pub use cell::{CellValue, MentionKind};
pub use csv::{table_from_csv, CsvError};
pub use dataset::{Dataset, LabelId, LabelVocab, Split, SplitSpec};
pub use metrics::{per_class_report, ClassReport, EvalSummary};
pub use table::{ColumnRef, Table, TableId};
