//! The versioned on-disk model registry.
//!
//! Layout under the registry root:
//!
//! ```text
//! root/
//!   versions/v000001/
//!     weights.kgck    # a TrainCheckpoint (KGCK frame):
//!                     #   extra = KGMX model metadata (config/labels/vocab)
//!                     #   train_state = KGLT weights + optimizer moments
//!     manifest.kgmf   # commit point (KGMF frame) — written LAST, names the
//!                     #   weights length/CRC/architecture it vouches for
//!   quarantine/
//!     v000007-crc-mismatch/   # damaged versions are moved, never deleted
//! ```
//!
//! A version exists iff its manifest parses: publishes write weights first
//! and the manifest last through [`frame::publish`], so a crash mid-publish
//! leaves an uncommitted directory the registry treats as free space. Every
//! way the artifacts can be damaged surfaces as a typed
//! [`RegistryError`] — loading never panics on foreign bytes — and
//! [`ModelRegistry::load_or_quarantine`] moves damaged versions aside so a
//! retrying caller stops tripping on them.

use crate::codec;
use crate::error::{Artifact, RegistryError};
use kglink_core::pipeline::KgLink;
use kglink_core::KgLinkModel;
use kglink_nn::checkpoint::save_train_state;
use kglink_nn::frame::{self, crc32, Reader, Writer};
use kglink_nn::layers::param::HasParams;
use kglink_nn::{CheckpointError, TrainCheckpoint};
use std::fs;
use std::io;
use std::path::PathBuf;

/// Format generation of the manifest framing. Bump on layout changes.
pub const FORMAT_VERSION: u32 = 1;

const MANIFEST_MAGIC: &[u8; 4] = b"KGMF";
const MANIFEST_FILE: &str = "manifest.kgmf";
const WEIGHTS_FILE: &str = "weights.kgck";

/// A versioned, crash-safe store of published models.
pub struct ModelRegistry {
    root: PathBuf,
}

/// Receipt for a successful publish.
#[derive(Debug, Clone)]
pub struct PublishedModel {
    pub version: u64,
    pub dir: PathBuf,
    pub weights_len: u64,
    pub weights_crc: u32,
}

/// A fully validated model, ready to wrap in an `Arc` and serve.
pub struct LoadedModel {
    pub version: u64,
    pub model: KgLink,
    /// Tokenizer vocabulary size the encoder was built against.
    pub vocab_size: usize,
    /// Free-form provenance string recorded at publish time.
    pub tag: String,
}

impl ModelRegistry {
    /// Open (creating if needed) a registry rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> Result<Self, RegistryError> {
        let root = root.into();
        for sub in ["versions", "quarantine"] {
            fs::create_dir_all(root.join(sub)).map_err(|e| root_io(&e))?;
        }
        Ok(ModelRegistry { root })
    }

    fn versions_dir(&self) -> PathBuf {
        self.root.join("versions")
    }

    fn version_dir(&self, version: u64) -> PathBuf {
        self.versions_dir().join(format!("v{version:06}"))
    }

    /// Publish `model` as the next version and return its receipt.
    ///
    /// `model` is `&mut` only because parameter traversal
    /// ([`HasParams::visit_params`]) is `&mut`; weights are not modified.
    /// The weights artifact is written first, the manifest last: the
    /// version is invisible until the manifest rename commits it.
    pub fn publish(
        &self,
        model: &mut KgLink,
        vocab_size: usize,
        tag: &str,
    ) -> Result<PublishedModel, RegistryError> {
        let version = self.next_version()?;
        let dir = self.version_dir(version);
        let weights = TrainCheckpoint {
            opt_step: 0,
            rng_state: 0,
            epoch: 0,
            step: 0,
            extra: codec::encode_model_meta(&model.config, &model.labels, vocab_size),
            train_state: save_train_state(&mut model.model),
        }
        .encode();
        frame::publish(&dir.join(WEIGHTS_FILE), &weights).map_err(|e| io_err(version, &e))?;

        let weights_len = weights.len() as u64;
        let weights_crc = crc32(&weights);
        let manifest = Manifest {
            version,
            weights_len,
            weights_crc,
            n_labels: model.labels.len() as u64,
            vocab_size: vocab_size as u64,
            param_count: model.model.param_count() as u64,
            tag: tag.to_string(),
        };
        frame::publish(&dir.join(MANIFEST_FILE), &manifest.encode())
            .map_err(|e| io_err(version, &e))?;

        Ok(PublishedModel {
            version,
            dir,
            weights_len,
            weights_crc,
        })
    }

    /// Committed versions in ascending order. Uncommitted (manifest-less)
    /// and quarantined directories are invisible.
    pub fn list(&self) -> Vec<u64> {
        let mut out = Vec::new();
        let Ok(entries) = fs::read_dir(self.versions_dir()) else {
            return out;
        };
        for entry in entries.flatten() {
            if let Some(v) = parse_version_dir(&entry.file_name().to_string_lossy()) {
                if entry.path().join(MANIFEST_FILE).is_file() {
                    out.push(v);
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Load and fully validate a version: manifest CRC, weights length +
    /// CRC against the manifest, KGCK/KGLT decode, architecture
    /// consistency, and a non-finite weight scan — all before the model is
    /// handed out. Never panics on damaged input.
    pub fn load(&self, version: u64) -> Result<LoadedModel, RegistryError> {
        let dir = self.version_dir(version);
        let manifest_path = dir.join(MANIFEST_FILE);
        if !manifest_path.is_file() {
            return Err(RegistryError::Missing { version });
        }
        let manifest_bytes = fs::read(&manifest_path).map_err(|e| io_err(version, &e))?;
        let manifest = Manifest::decode(&manifest_bytes)
            .map_err(|e| artifact_err(version, Artifact::Manifest, e))?;
        if manifest.version != version {
            return Err(RegistryError::Malformed {
                version,
                artifact: Artifact::Manifest,
                detail: format!(
                    "manifest vouches for version {} but lives in v{version:06} — \
                     transplanted from another directory",
                    manifest.version
                ),
            });
        }

        let weights_path = dir.join(WEIGHTS_FILE);
        let weights = match fs::read(&weights_path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                return Err(RegistryError::Malformed {
                    version,
                    artifact: Artifact::Weights,
                    detail: "weights artifact missing despite a committed manifest".into(),
                })
            }
            Err(e) => return Err(io_err(version, &e)),
        };
        if (weights.len() as u64) < manifest.weights_len {
            return Err(RegistryError::Truncated {
                version,
                artifact: Artifact::Weights,
            });
        }
        if weights.len() as u64 != manifest.weights_len {
            return Err(RegistryError::Malformed {
                version,
                artifact: Artifact::Weights,
                detail: format!(
                    "weights artifact is {} bytes, manifest recorded {}",
                    weights.len(),
                    manifest.weights_len
                ),
            });
        }
        let found_crc = crc32(&weights);
        if found_crc != manifest.weights_crc {
            return Err(RegistryError::CrcMismatch {
                version,
                artifact: Artifact::Weights,
                expected: manifest.weights_crc,
                found: found_crc,
            });
        }

        let ckpt = TrainCheckpoint::decode(&weights)
            .map_err(|e| artifact_err(version, Artifact::Weights, e))?;
        let (config, labels, vocab_size) =
            codec::decode_model_meta(&ckpt.extra).map_err(|e| RegistryError::Malformed {
                version,
                artifact: Artifact::Weights,
                detail: format!("model metadata: {e}"),
            })?;
        if labels.len() as u64 != manifest.n_labels || vocab_size as u64 != manifest.vocab_size {
            return Err(RegistryError::Malformed {
                version,
                artifact: Artifact::Weights,
                detail: format!(
                    "architecture disagrees with manifest: {} labels / vocab {} in \
                     weights vs {} / {} in manifest",
                    labels.len(),
                    vocab_size,
                    manifest.n_labels,
                    manifest.vocab_size
                ),
            });
        }

        let mut model = KgLinkModel::new(&config, vocab_size, labels.len());
        ckpt.restore(&mut model)
            .map_err(|e| artifact_err(version, Artifact::Weights, e))?;
        let params = model.param_count() as u64;
        if params != manifest.param_count {
            return Err(RegistryError::Malformed {
                version,
                artifact: Artifact::Weights,
                detail: format!(
                    "parameter count {params} does not match manifest's {}",
                    manifest.param_count
                ),
            });
        }
        let bad_values = count_non_finite(&mut model);
        if bad_values > 0 {
            return Err(RegistryError::NonFiniteWeights {
                version,
                bad_values,
            });
        }

        Ok(LoadedModel {
            version,
            model: KgLink {
                config,
                model,
                labels,
            },
            vocab_size,
            tag: manifest.tag,
        })
    }

    /// [`load`](Self::load), but damaged versions are moved to
    /// `quarantine/` (best effort) before the typed error is returned, so
    /// they stop being load candidates.
    pub fn load_or_quarantine(&self, version: u64) -> Result<LoadedModel, RegistryError> {
        match self.load(version) {
            Ok(m) => Ok(m),
            Err(e) => {
                if e.is_corruption() {
                    let _ = self.quarantine(version, e.kind());
                }
                Err(e)
            }
        }
    }

    /// Move a version directory into `quarantine/`, tagged with `reason`.
    /// Returns the quarantine path.
    pub fn quarantine(&self, version: u64, reason: &str) -> Result<PathBuf, RegistryError> {
        let src = self.version_dir(version);
        if !src.is_dir() {
            return Err(RegistryError::Missing { version });
        }
        let safe: String = reason
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || c == '-' {
                    c
                } else {
                    '-'
                }
            })
            .collect();
        let qdir = self.root.join("quarantine");
        for attempt in 0..u32::MAX {
            let name = if attempt == 0 {
                format!("v{version:06}-{safe}")
            } else {
                format!("v{version:06}-{safe}-{attempt}")
            };
            let dst = qdir.join(name);
            if dst.exists() {
                continue;
            }
            return match fs::rename(&src, &dst) {
                Ok(()) => Ok(dst),
                Err(e) => Err(io_err(version, &e)),
            };
        }
        Err(RegistryError::Io {
            version,
            detail: "quarantine namespace exhausted".into(),
        })
    }

    /// Delete the oldest committed versions until at most `keep` remain.
    /// Returns the versions removed, oldest first.
    pub fn gc(&self, keep: usize) -> Result<Vec<u64>, RegistryError> {
        let versions = self.list();
        let excess = versions.len().saturating_sub(keep);
        let mut removed = Vec::with_capacity(excess);
        for &v in versions.iter().take(excess) {
            fs::remove_dir_all(self.version_dir(v)).map_err(|e| io_err(v, &e))?;
            removed.push(v);
        }
        Ok(removed)
    }

    /// Next free version id: one past the highest directory present,
    /// committed or not — an uncommitted (torn) publish never gets its id
    /// reused, so a later retry cannot resurrect its leftovers.
    fn next_version(&self) -> Result<u64, RegistryError> {
        let mut max = 0;
        let entries = fs::read_dir(self.versions_dir()).map_err(|e| root_io(&e))?;
        for entry in entries.flatten() {
            if let Some(v) = parse_version_dir(&entry.file_name().to_string_lossy()) {
                max = max.max(v);
            }
        }
        Ok(max + 1)
    }
}

/// Count non-finite scalars across a model's parameters.
fn count_non_finite(model: &mut dyn HasParams) -> u64 {
    let mut bad = 0u64;
    model.visit_params(&mut |p| {
        bad += p.value.data().iter().filter(|v| !v.is_finite()).count() as u64;
    });
    bad
}

/// The commit point of a version directory: a [`frame`] under
/// `"KGMF"` whose payload vouches for the weights artifact.
struct Manifest {
    version: u64,
    weights_len: u64,
    weights_crc: u32,
    n_labels: u64,
    vocab_size: u64,
    param_count: u64,
    tag: String,
}

impl Manifest {
    fn encode(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(44 + self.tag.len());
        w.u64(self.version)
            .u64(self.weights_len)
            .u32(self.weights_crc)
            .u64(self.n_labels)
            .u64(self.vocab_size)
            .u64(self.param_count)
            .u32(self.tag.len() as u32)
            .bytes(self.tag.as_bytes());
        frame::encode(MANIFEST_MAGIC, FORMAT_VERSION, &w.into_vec())
    }

    fn decode(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let mut r = Reader::new(frame::decode(bytes, MANIFEST_MAGIC, FORMAT_VERSION)?);
        // Struct fields evaluate in the order written: the wire order.
        let m = Manifest {
            version: r.u64()?,
            weights_len: r.u64()?,
            weights_crc: r.u32()?,
            n_labels: r.u64()?,
            vocab_size: r.u64()?,
            param_count: r.u64()?,
            tag: {
                let n = r.u32()? as usize;
                String::from_utf8_lossy(r.take(n)?).into_owned()
            },
        };
        r.finish()?;
        Ok(m)
    }
}

fn parse_version_dir(name: &str) -> Option<u64> {
    let digits = name.strip_prefix('v')?;
    if digits.len() != 6 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

fn io_err(version: u64, e: &io::Error) -> RegistryError {
    RegistryError::Io {
        version,
        detail: e.to_string(),
    }
}

fn root_io(e: &io::Error) -> RegistryError {
    RegistryError::Io {
        version: 0,
        detail: e.to_string(),
    }
}

/// Attach the version and artifact to a frame or checkpoint error.
fn artifact_err(version: u64, artifact: Artifact, e: CheckpointError) -> RegistryError {
    match e {
        CheckpointError::BadMagic => RegistryError::BadMagic { version, artifact },
        CheckpointError::WrongVersion { found, expected } => RegistryError::ForeignFormat {
            version,
            artifact,
            found,
            expected,
        },
        CheckpointError::Truncated => RegistryError::Truncated { version, artifact },
        CheckpointError::CrcMismatch { expected, found } => RegistryError::CrcMismatch {
            version,
            artifact,
            expected,
            found,
        },
        CheckpointError::Malformed(detail) => RegistryError::Malformed {
            version,
            artifact,
            detail,
        },
        CheckpointError::WrongArchitecture(e) => RegistryError::Malformed {
            version,
            artifact,
            detail: format!("wrong architecture: {e}"),
        },
        CheckpointError::Io(detail) => RegistryError::Io { version, detail },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_is_the_documented_kgmf_frame() {
        let manifest = Manifest {
            version: 3,
            weights_len: 1234,
            weights_crc: 0xdead_beef,
            n_labels: 4,
            vocab_size: 64,
            param_count: 99,
            tag: "nightly".into(),
        };
        let mut payload = Vec::new();
        for v in [3u64, 1234] {
            payload.extend(v.to_le_bytes());
        }
        payload.extend(0xdead_beef_u32.to_le_bytes());
        for v in [4u64, 64, 99] {
            payload.extend(v.to_le_bytes());
        }
        payload.extend(7u32.to_le_bytes());
        payload.extend(b"nightly");
        let bytes = manifest.encode();
        assert_eq!(bytes, frame::encode(b"KGMF", 1, &payload));
        assert_eq!(Manifest::decode(&bytes).map(|m| m.encode()), Ok(bytes));

        payload.push(0);
        let padded = frame::encode(MANIFEST_MAGIC, FORMAT_VERSION, &payload);
        assert!(matches!(
            Manifest::decode(&padded),
            Err(CheckpointError::Malformed(_))
        ));
    }
}
