//! Facade crate: re-exports the whole KGLink workspace under one name.
#![deny(deprecated)]
#![forbid(unsafe_code)]

pub use kglink_baselines as baselines;
pub use kglink_core as core;
pub use kglink_datagen as datagen;
pub use kglink_kg as kg;
pub use kglink_nn as nn;
pub use kglink_obs as obs;
pub use kglink_registry as registry;
pub use kglink_search as search;
pub use kglink_serve as serve;
pub use kglink_table as table;
