//! Benchmark dataset generators.
//!
//! The paper evaluates on two corpora whose raw data cannot be shipped here,
//! so this crate generates synthetic datasets out of the synthetic knowledge
//! graph with the same *phenomenology*:
//!
//! * [`semtab`] — SemTab-like: KG-derived tables, **fine-grained** labels
//!   that are KG type entities (275 classes in the paper), no numeric
//!   columns, high KG linkage. This dataset exhibits the *type granularity*
//!   structure: candidate types retrieved from the KG sit at several
//!   hierarchy levels around each label.
//! * [`viznet`] — VizNet-like: web-table flavor, **coarse** labels
//!   (77 classes in the paper), ≈12.8% numeric columns, plus text columns
//!   with no KG linkage at all (addresses, abbreviation codes) — the
//!   *valuable context missing* regime.
//! * [`corpus`] — verbalized KG triples used as the MLM pre-training corpus
//!   (the stand-in for BERT's prior knowledge).
//! * [`noise`] — cell-level noise: typos, casing damage, alias substitution.
//!
//! Both generators return a [`GeneratedBenchmark`], which couples the
//! dataset with the label→KG-type mapping that the MTab baseline needs (the
//! paper: "We translate the label on VizNet dataset to WikiData KG entities
//! to make MTab work").

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

pub mod bigworld;
pub mod common;
pub mod corpus;
pub mod noise;
pub mod semtab;
pub mod viznet;

use kglink_kg::EntityId;
use kglink_table::{Dataset, LabelId};
use std::collections::HashMap;

pub use bigworld::{generate_big_world, BigWorld, BigWorldConfig};
pub use corpus::pretrain_corpus;
pub use semtab::{semtab_like, SemTabConfig};
pub use viznet::{viznet_like, VizNetConfig};

/// A generated dataset plus its label → KG-type-entity mapping.
#[derive(Debug, Clone)]
pub struct GeneratedBenchmark {
    pub dataset: Dataset,
    /// For each dataset label, the KG type entity it corresponds to (if
    /// any). SemTab labels map exactly; VizNet labels map partially, and
    /// numeric-ish labels (`year`, `rank`, …) map to nothing.
    pub label_to_type: HashMap<LabelId, EntityId>,
}
