//! Typed errors for the KGLink pipeline.
//!
//! Data-dependent failure modes (degenerate tables, invalid configurations,
//! retrieval faults) surface as [`KgLinkError`] instead of panics: callers
//! choose between propagating (`try_*` APIs) and skipping (the annotator
//! falls back to a default label rather than crash on one bad table).

use kglink_nn::checkpoint::CheckpointError;
use kglink_nn::kernels::MissingCpuFeature;
use kglink_search::RetrievalError;
use kglink_table::TableId;
use std::fmt;

/// Everything that can go wrong while preprocessing or annotating.
#[derive(Debug, Clone, PartialEq)]
pub enum KgLinkError {
    /// A table that cannot be meaningfully annotated (e.g. zero columns).
    DegenerateTable { table: TableId, reason: String },
    /// A configuration value outside its valid domain.
    InvalidConfig { reason: String },
    /// A required resource (KG, retrieval backend, tokenizer) was not
    /// supplied to [`ResourcesBuilder`](crate::pipeline::ResourcesBuilder).
    MissingResource { what: &'static str },
    /// KG retrieval failed and no degraded path was applicable.
    Retrieval(RetrievalError),
    /// A training checkpoint could not be written, read, or applied.
    Checkpoint(CheckpointError),
    /// The running CPU lacks a feature this build was compiled to use
    /// (x86-64-v3 by default), as its `/proc/cpuinfo` flags show; checked
    /// by [`ResourcesBuilder::build`](crate::pipeline::ResourcesBuilder::build)
    /// before any model work. A best effort: code that runs earlier is
    /// compiled for the same CPU and can still fault with `SIGILL`.
    UnsupportedCpu(MissingCpuFeature),
}

impl KgLinkError {
    pub fn degenerate(table: TableId, reason: impl Into<String>) -> Self {
        KgLinkError::DegenerateTable {
            table,
            reason: reason.into(),
        }
    }

    pub fn invalid_config(reason: impl Into<String>) -> Self {
        KgLinkError::InvalidConfig {
            reason: reason.into(),
        }
    }

    pub fn missing_resource(what: &'static str) -> Self {
        KgLinkError::MissingResource { what }
    }
}

impl fmt::Display for KgLinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KgLinkError::DegenerateTable { table, reason } => {
                write!(f, "degenerate table {table:?}: {reason}")
            }
            KgLinkError::InvalidConfig { reason } => write!(f, "invalid config: {reason}"),
            KgLinkError::MissingResource { what } => {
                write!(f, "missing resource: no {what} was provided")
            }
            KgLinkError::Retrieval(e) => write!(f, "retrieval failed: {e}"),
            KgLinkError::Checkpoint(e) => write!(f, "checkpoint failed: {e}"),
            KgLinkError::UnsupportedCpu(e) => write!(f, "unsupported CPU: {e}"),
        }
    }
}

impl std::error::Error for KgLinkError {}

impl From<RetrievalError> for KgLinkError {
    fn from(e: RetrievalError) -> Self {
        KgLinkError::Retrieval(e)
    }
}

impl From<CheckpointError> for KgLinkError {
    fn from(e: CheckpointError) -> Self {
        KgLinkError::Checkpoint(e)
    }
}

impl From<MissingCpuFeature> for KgLinkError {
    fn from(e: MissingCpuFeature) -> Self {
        KgLinkError::UnsupportedCpu(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_format_and_convert() {
        let e = KgLinkError::degenerate(TableId(7), "no columns");
        assert!(e.to_string().contains("no columns"));
        let e: KgLinkError = RetrievalError::Transient.into();
        assert!(matches!(
            e,
            KgLinkError::Retrieval(RetrievalError::Transient)
        ));
        assert!(e.to_string().contains("transient"));
        let e: KgLinkError = MissingCpuFeature { feature: "fma" }.into();
        assert!(matches!(
            e,
            KgLinkError::UnsupportedCpu(MissingCpuFeature { feature: "fma" })
        ));
        assert!(e.to_string().contains("unsupported CPU") && e.to_string().contains("`fma`"));
    }
}
