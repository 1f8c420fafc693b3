//! Typed errors for the on-disk store.
//!
//! Mirrors the corruption model of `kglink_nn::checkpoint::CheckpointError`:
//! every distinct way a segment file can be damaged yields a distinct
//! variant, so tests (and operators) can tell a truncated download from a
//! flipped bit from a file written by a different build. No store API
//! panics on bad bytes — the [`crate::DiskGraph`]'s `GraphAccess` facade
//! *degrades* these errors to empty results behind an error counter, but
//! the inherent `try_*` methods always surface them typed.

use std::fmt;

/// Why a segment could not be read, decoded, or written.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The file does not start with the expected segment magic.
    BadMagic {
        /// The four-byte magic this reader expected (e.g. `"KGES"`).
        expected: &'static str,
    },
    /// The format version does not match what this build reads. Checked
    /// *before* any CRC, because a different version implies a different
    /// layout.
    WrongVersion { found: u32, expected: u32 },
    /// The file ends before its declared contents do (short read, crash
    /// while a non-atomic writer ran, truncated copy).
    Truncated,
    /// A CRC32-guarded section does not hash to its header value (bit rot,
    /// torn write, in-flight corruption).
    CrcMismatch { expected: u32, found: u32 },
    /// The bytes pass their CRC but decode to something structurally
    /// impossible (an offset past the file, an out-of-range enum tag, an
    /// edge to an entity the world never wrote). Only a writer bug or a
    /// hand-forged file produces this.
    Corrupt(String),
    /// A lookup named an entity id outside the world.
    UnknownEntity { id: u32, n_entities: u64 },
    /// The underlying filesystem operation failed.
    Io(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::BadMagic { expected } => {
                write!(f, "not a {expected} segment (bad magic)")
            }
            StoreError::WrongVersion { found, expected } => {
                write!(f, "segment version {found}, this build reads {expected}")
            }
            StoreError::Truncated => write!(f, "segment is truncated"),
            StoreError::CrcMismatch { expected, found } => write!(
                f,
                "segment CRC mismatch: header says {expected:#010x}, bytes hash to {found:#010x}"
            ),
            StoreError::Corrupt(what) => write!(f, "segment is structurally corrupt: {what}"),
            StoreError::UnknownEntity { id, n_entities } => {
                write!(
                    f,
                    "entity Q{id} is outside this world ({n_entities} entities)"
                )
            }
            StoreError::Io(e) => write!(f, "store I/O failed: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        // An unexpected EOF from a positional read is a short file, which
        // is the Truncated corruption class, not an environment failure.
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            StoreError::Truncated
        } else {
            StoreError::Io(e.to_string())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_failure() {
        assert!(StoreError::BadMagic { expected: "KGES" }
            .to_string()
            .contains("KGES"));
        let e = StoreError::WrongVersion {
            found: 9,
            expected: 1,
        };
        assert!(e.to_string().contains('9'));
        let e = StoreError::CrcMismatch {
            expected: 1,
            found: 2,
        };
        assert!(e.to_string().contains("CRC"));
        assert!(StoreError::UnknownEntity {
            id: 3,
            n_entities: 2
        }
        .to_string()
        .contains("Q3"));
    }

    #[test]
    fn io_eof_maps_to_truncated() {
        let eof = std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "short");
        assert_eq!(StoreError::from(eof), StoreError::Truncated);
        let perm = std::io::Error::new(std::io::ErrorKind::PermissionDenied, "no");
        assert!(matches!(StoreError::from(perm), StoreError::Io(_)));
    }
}
