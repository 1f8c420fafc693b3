//! # kglink-registry — versioned model registry with atomic publishes
//!
//! The zero-downtime model lifecycle (DESIGN.md §15) starts here: trained
//! [`KgLink`](kglink_core::pipeline::KgLink) models are *published* into
//! CRC'd, atomically committed version directories, and the serving layer
//! *loads* fully validated versions to hot-swap between. The invariants:
//!
//! - **One codec.** Both artifacts are [`kglink_nn::frame`]s, read with
//!   its reader and written with its atomic publish (temp → fsync →
//!   rename → directory fsync), the same code a training checkpoint goes
//!   through.
//! - **Manifest-last commit point.** A version's weights are published
//!   before the manifest that vouches for them; a crash anywhere leaves
//!   either a committed version or an invisible, id-burning husk.
//! - **Typed corruption, no panics.** Truncated manifests, bit-flipped
//!   weights, transplanted manifests, and foreign format generations all
//!   surface as distinct [`RegistryError`] variants.
//! - **Quarantine over deletion.** [`ModelRegistry::load_or_quarantine`]
//!   moves damaged versions into `quarantine/` so evidence survives and
//!   retry loops stop re-tripping.
//! - **No NaN ever reaches serving.** Loads scan every parameter and
//!   reject non-finite weights before the model is handed out.

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

mod codec;
mod error;
mod registry;

pub use error::{Artifact, RegistryError};
pub use registry::{LoadedModel, ModelRegistry, PublishedModel, FORMAT_VERSION};
