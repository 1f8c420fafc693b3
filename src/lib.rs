//! Facade crate: re-exports the whole KGLink workspace under one name.
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

pub use kglink_baselines as baselines;
pub use kglink_core as core;
pub use kglink_datagen as datagen;
pub use kglink_kg as kg;
pub use kglink_nn as nn;
pub use kglink_obs as obs;
pub use kglink_registry as registry;
pub use kglink_search as search;
pub use kglink_serve as serve;
pub use kglink_store as store;
pub use kglink_table as table;
