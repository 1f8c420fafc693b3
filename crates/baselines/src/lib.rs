//! Baseline CTA methods for the paper's comparisons (Table I / IV, Fig. 7).
//!
//! Each module is an *algorithmic skeleton* of the corresponding published
//! system: it keeps the defining design decision while running on the same
//! substrates (synthetic KG, BM25 search, MiniLM encoder) as KGLink, so that
//! Table I measures method differences rather than checkpoint differences.
//!
//! | Module        | System                 | Defining design decision |
//! |---------------|------------------------|---------------------------|
//! | [`mtab`]      | MTab (SemTab winner)   | pure KG voting over linked entity types; no learning |
//! | [`sherlock`]  | Sherlock (KDD'19)      | hand-crafted per-column statistics + MLP; single-column |
//! | [`tabert`]    | TaBERT (ACL'20)        | PLM over row-major table linearization, span pooling |
//! | [`doduo`]     | Doduo (SIGMOD'22)      | PLM over column-major serialization with per-column `[CLS]` |
//! | [`hnn`]       | HNN (IJCAI'19)         | first-cell KG `type` attribute + shallow network |
//! | [`reca`]      | RECA (VLDB'23)         | single-column PLM + most-similar *inter-table* column |
//! | [`sudowoodo`] | Sudowoodo (ICDE'23)    | label-free contrastive column encoder + light head |
//!
//! All models implement [`CtaModel`], the harness-facing trait.

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

pub mod doduo;
pub mod env;
pub mod hnn;
pub mod mlp;
pub mod mtab;
pub mod plm;
pub mod reca;
pub mod sherlock;
pub mod sudowoodo;
pub mod tabert;

pub use env::{BenchEnv, CtaModel};
