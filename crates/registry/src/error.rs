//! Typed registry errors.
//!
//! Every way a published model can be damaged on disk maps to a distinct
//! variant: loaders and the serving swap path branch on *what* broke, and
//! nothing in this crate panics on foreign bytes. The framing variants are
//! [`kglink_nn::checkpoint::CheckpointError`]'s — both artifacts are
//! [`kglink_nn::frame`]s — with the registry version and artifact attached
//! so a quarantine report names the exact file.

use std::fmt;

/// Which on-disk artifact of a version directory an error refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Artifact {
    /// `manifest.kgmf` — the commit point, written last.
    Manifest,
    /// `weights.kgck` — the framed model payload, written first.
    Weights,
}

impl fmt::Display for Artifact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Artifact::Manifest => write!(f, "manifest"),
            Artifact::Weights => write!(f, "weights"),
        }
    }
}

/// Everything that can go wrong opening, publishing, or loading a version.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// The version directory does not exist or was never committed (no
    /// manifest): the publish either never happened or was torn before its
    /// commit point, in which case the leftovers are invisible by design.
    Missing { version: u64 },
    /// An artifact does not start with its magic — not ours, or overwritten.
    BadMagic { version: u64, artifact: Artifact },
    /// An artifact was written by a different format generation than this
    /// reader understands (a foreign or future version of the code).
    ForeignFormat {
        version: u64,
        artifact: Artifact,
        found: u32,
        expected: u32,
    },
    /// An artifact is shorter than its own framing claims.
    Truncated { version: u64, artifact: Artifact },
    /// An artifact's payload does not hash to its recorded CRC.
    CrcMismatch {
        version: u64,
        artifact: Artifact,
        expected: u32,
        found: u32,
    },
    /// Framing is intact but the payload does not parse, or the manifest
    /// and the weights disagree (e.g. a manifest transplanted from another
    /// version directory).
    Malformed {
        version: u64,
        artifact: Artifact,
        detail: String,
    },
    /// The weights decode cleanly but contain NaN/Inf values — the model
    /// would serve garbage, so it is rejected at load, before any Arc
    /// hand-off to serving.
    NonFiniteWeights { version: u64, bad_values: u64 },
    /// Filesystem-level failure (`version` 0 = registry root).
    Io { version: u64, detail: String },
}

impl RegistryError {
    /// True for damage classes that justify quarantining the version
    /// directory (as opposed to transient I/O or a plain missing version).
    pub fn is_corruption(&self) -> bool {
        !matches!(
            self,
            RegistryError::Missing { .. } | RegistryError::Io { .. }
        )
    }

    /// Short stable tag used in quarantine directory names.
    pub fn kind(&self) -> &'static str {
        match self {
            RegistryError::Missing { .. } => "missing",
            RegistryError::BadMagic { .. } => "bad-magic",
            RegistryError::ForeignFormat { .. } => "foreign-format",
            RegistryError::Truncated { .. } => "truncated",
            RegistryError::CrcMismatch { .. } => "crc-mismatch",
            RegistryError::Malformed { .. } => "malformed",
            RegistryError::NonFiniteWeights { .. } => "non-finite",
            RegistryError::Io { .. } => "io",
        }
    }
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::Missing { version } => {
                write!(f, "model version {version} is not in the registry")
            }
            RegistryError::BadMagic { version, artifact } => {
                write!(f, "version {version}: {artifact} has a bad magic number")
            }
            RegistryError::ForeignFormat {
                version,
                artifact,
                found,
                expected,
            } => write!(
                f,
                "version {version}: {artifact} is format generation {found}, \
                 this reader understands {expected}"
            ),
            RegistryError::Truncated { version, artifact } => {
                write!(f, "version {version}: {artifact} is truncated")
            }
            RegistryError::CrcMismatch {
                version,
                artifact,
                expected,
                found,
            } => write!(
                f,
                "version {version}: {artifact} CRC mismatch \
                 (recorded {expected:#010x}, computed {found:#010x})"
            ),
            RegistryError::Malformed {
                version,
                artifact,
                detail,
            } => write!(f, "version {version}: {artifact} malformed: {detail}"),
            RegistryError::NonFiniteWeights {
                version,
                bad_values,
            } => write!(
                f,
                "version {version}: weights contain {bad_values} non-finite value(s)"
            ),
            RegistryError::Io { version, detail } => {
                write!(f, "version {version}: I/O error: {detail}")
            }
        }
    }
}

impl std::error::Error for RegistryError {}
