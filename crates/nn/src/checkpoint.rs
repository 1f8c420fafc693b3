//! Crash-safe training checkpoints.
//!
//! [`serialize`](crate::serialize) round-trips bare parameter *values* for
//! sharing pre-trained weights in memory. This module is the on-disk,
//! integrity-checked sibling that a long `fit` run survives crashes with:
//! a [`TrainCheckpoint`] captures everything the training loop mutates —
//! parameter values, AdamW moment buffers, the optimizer step counter, the
//! RNG stream position, and the epoch/step cursor (plus an opaque `extra`
//! section for caller loop state) — so kill-at-any-step followed by resume
//! replays to a **bit-identical** final model.
//!
//! ## Format (`KGCK`, version 1)
//!
//! A [`crate::frame`] with magic `"KGCK"` whose payload is:
//!
//! ```text
//! u64 opt_step | u64 rng_state | u64 epoch | u64 step
//! u32 extra_len    | extra bytes   (caller-opaque loop state)
//! u32 state_len    | train-state blob (below)
//! ```
//!
//! Train-state blob (`KGLT`): `magic | u32 n_params`, then per parameter
//! (in deterministic [`HasParams::visit_params`] order) `u32 rows |
//! u32 cols | u8 decay | rows·cols f32 value | rows·cols f32 m |
//! rows·cols f32 v`.
//!
//! Every way a file can be damaged is a distinct [`CheckpointError`] (the
//! frame's corruption model), plus [`WrongArchitecture`] when a
//! structurally valid checkpoint from a different model is applied.
//! [`Checkpointer::save`] writes through [`frame::publish`], so a crash
//! mid-save leaves the previous complete checkpoint or the new one.
//!
//! [`WrongArchitecture`]: CheckpointError::WrongArchitecture

use crate::frame::{self, Reader, Writer};
use crate::layers::param::HasParams;
use crate::serialize::{decode_params, encode_params, LoadError};
use bytes::Bytes;
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 4] = b"KGCK";
const STATE_MAGIC: &[u8; 4] = b"KGLT";

/// Current checkpoint format version.
pub const VERSION: u32 = 1;

/// Why a model artifact could not be decoded or applied. This is the error
/// of [`crate::frame`], so it also describes the registry's artifacts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The blob does not start with the expected magic.
    BadMagic,
    /// The format version does not match this build's.
    WrongVersion { found: u32, expected: u32 },
    /// The blob ends before its declared payload or fields do (short read,
    /// truncated download, crash while a non-atomic writer ran).
    Truncated,
    /// The payload's CRC32 does not match the header (bit rot, torn
    /// write, in-flight corruption).
    CrcMismatch { expected: u32, found: u32 },
    /// The frame is intact but a field inside it does not parse (an
    /// unknown tag, trailing bytes).
    Malformed(String),
    /// The checkpoint is internally valid but was written by a model with
    /// a different parameter count or shapes.
    WrongArchitecture(LoadError),
    /// The file could not be read or written.
    Io(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::BadMagic => write!(f, "bad magic number"),
            CheckpointError::WrongVersion { found, expected } => {
                write!(f, "format version {found}, this build reads {expected}")
            }
            CheckpointError::Truncated => write!(f, "input is truncated"),
            CheckpointError::CrcMismatch { expected, found } => write!(
                f,
                "CRC mismatch: header says {expected:#010x}, payload hashes to {found:#010x}"
            ),
            CheckpointError::Malformed(detail) => write!(f, "malformed payload: {detail}"),
            CheckpointError::WrongArchitecture(e) => {
                write!(f, "checkpoint is from a different architecture: {e}")
            }
            CheckpointError::Io(e) => write!(f, "I/O failed: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e.to_string())
    }
}

/// Serialize parameter values **and** AdamW moment buffers (the full
/// mutable training state of a model) into a `KGLT` blob.
///
/// Gradients are not captured: checkpoints are taken at optimizer-step
/// boundaries, where every gradient accumulator is zero by construction.
pub fn save_train_state(model: &mut dyn HasParams) -> Bytes {
    encode_params(model, STATE_MAGIC, true)
}

/// Load a `KGLT` blob produced by [`save_train_state`] into `model`
/// (values and moments; the architecture must match exactly, and a blob
/// that does not leaves `model` untouched).
pub fn load_train_state(model: &mut dyn HasParams, blob: &[u8]) -> Result<(), LoadError> {
    decode_params(model, blob, STATE_MAGIC, true)
}

/// Everything a training loop needs to resume bit-identically: model
/// values + moments, the optimizer step counter, the RNG stream position,
/// the epoch/step cursor, and an opaque caller section for loop state
/// (shuffle order, early-stopping bookkeeping, loss accumulators…).
#[derive(Debug, Clone, PartialEq)]
pub struct TrainCheckpoint {
    /// Optimizer steps taken so far ([`AdamW::steps`](crate::AdamW::steps)).
    pub opt_step: u64,
    /// Raw RNG state captured with `StdRng::state`.
    pub rng_state: u64,
    /// Epoch the cursor points into.
    pub epoch: u64,
    /// Global optimizer-step cursor (monotone across epochs).
    pub step: u64,
    /// Caller-opaque loop state, round-tripped verbatim.
    pub extra: Vec<u8>,
    /// `KGLT` train-state blob ([`save_train_state`]).
    pub train_state: Bytes,
}

impl TrainCheckpoint {
    /// Capture `model`'s full training state alongside the loop cursor.
    pub fn capture(
        model: &mut dyn HasParams,
        opt_step: u64,
        rng_state: u64,
        epoch: u64,
        step: u64,
        extra: Vec<u8>,
    ) -> Self {
        TrainCheckpoint {
            opt_step,
            rng_state,
            epoch,
            step,
            extra,
            train_state: save_train_state(model),
        }
    }

    /// Apply the captured values + moments to `model`.
    pub fn restore(&self, model: &mut dyn HasParams) -> Result<(), CheckpointError> {
        load_train_state(model, &self.train_state).map_err(CheckpointError::WrongArchitecture)
    }

    /// Encode into the `KGCK` wire format (header + CRC'd payload).
    pub fn encode(&self) -> Bytes {
        let mut w = Writer::with_capacity(40 + self.extra.len() + self.train_state.len());
        w.u64(self.opt_step)
            .u64(self.rng_state)
            .u64(self.epoch)
            .u64(self.step)
            .u32(self.extra.len() as u32)
            .bytes(&self.extra)
            .u32(self.train_state.len() as u32)
            .bytes(&self.train_state);
        Bytes::from(frame::encode(MAGIC, VERSION, &w.into_vec()))
    }

    /// Decode a `KGCK` blob, verifying magic, version, and CRC.
    pub fn decode(blob: &[u8]) -> Result<Self, CheckpointError> {
        let mut r = Reader::new(frame::decode(blob, MAGIC, VERSION)?);
        // Struct fields evaluate in the order written: the wire order.
        let ckpt = TrainCheckpoint {
            opt_step: r.u64()?,
            rng_state: r.u64()?,
            epoch: r.u64()?,
            step: r.u64()?,
            extra: {
                let n = r.u32()? as usize;
                r.take(n)?.to_vec()
            },
            train_state: {
                let n = r.u32()? as usize;
                Bytes::copy_from_slice(r.take(n)?)
            },
        };
        r.finish()?;
        Ok(ckpt)
    }
}

/// Periodic atomic checkpoint writer.
#[derive(Debug)]
pub struct Checkpointer {
    path: PathBuf,
    every: u64,
}

impl Checkpointer {
    /// Write checkpoints to `path`, due every `every_n_steps` optimizer
    /// steps (`0` means "never due" — save only on explicit calls).
    pub fn new(path: impl Into<PathBuf>, every_n_steps: u64) -> Self {
        Checkpointer {
            path: path.into(),
            every: every_n_steps,
        }
    }

    /// Whether global step `step` is a checkpoint boundary.
    pub fn is_due(&self, step: u64) -> bool {
        self.every > 0 && step > 0 && step.is_multiple_of(self.every)
    }

    /// Atomically persist `ckpt` through [`frame::publish`].
    pub fn save(&self, ckpt: &TrainCheckpoint) -> Result<(), CheckpointError> {
        Ok(frame::publish(&self.path, &ckpt.encode())?)
    }

    /// Read and decode a checkpoint file.
    pub fn load(path: impl AsRef<Path>) -> Result<TrainCheckpoint, CheckpointError> {
        let blob = std::fs::read(path)?;
        TrainCheckpoint::decode(&blob)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::{Encoder, EncoderConfig};

    fn cfg() -> EncoderConfig {
        EncoderConfig {
            vocab_size: 16,
            d_model: 8,
            n_heads: 2,
            d_ff: 16,
            n_layers: 1,
            max_len: 8,
            seed: 3,
        }
    }

    fn dirty_encoder(seed: u64) -> Encoder {
        let mut e = Encoder::new(EncoderConfig { seed, ..cfg() });
        // Give the moment buffers non-trivial content so the round trip
        // actually checks them.
        let mut k = 0.0f32;
        e.visit_params(&mut |p| {
            for x in p.m.data_mut() {
                k += 0.25;
                *x = k;
            }
            for x in p.v.data_mut() {
                *x = k * 0.5;
            }
        });
        e
    }

    #[test]
    fn train_state_round_trips_values_and_moments() {
        let mut a = dirty_encoder(1);
        let blob = save_train_state(&mut a);
        let mut b = Encoder::new(EncoderConfig { seed: 99, ..cfg() });
        load_train_state(&mut b, &blob).unwrap();
        let collect = |e: &mut Encoder| {
            let mut out: Vec<(Vec<f32>, Vec<f32>, Vec<f32>)> = Vec::new();
            e.visit_params(&mut |p| {
                out.push((
                    p.value.data().to_vec(),
                    p.m.data().to_vec(),
                    p.v.data().to_vec(),
                ))
            });
            out
        };
        assert_eq!(collect(&mut a), collect(&mut b));
    }

    #[test]
    fn checkpoint_encode_decode_round_trip() {
        let mut e = dirty_encoder(2);
        let ckpt = TrainCheckpoint::capture(&mut e, 41, 0xdead_beef, 3, 17, vec![9, 8, 7]);
        let decoded = TrainCheckpoint::decode(&ckpt.encode()).unwrap();
        assert_eq!(decoded, ckpt);
    }

    #[test]
    fn corruption_yields_distinct_typed_errors() {
        let mut e = dirty_encoder(4);
        let blob = TrainCheckpoint::capture(&mut e, 1, 2, 0, 1, Vec::new()).encode();

        // Wrong magic.
        let mut bad = blob.to_vec();
        bad[0] = b'X';
        assert_eq!(TrainCheckpoint::decode(&bad), Err(CheckpointError::BadMagic));

        // Wrong version (checked before the CRC).
        let mut bad = blob.to_vec();
        bad[4] = 42;
        assert!(matches!(
            TrainCheckpoint::decode(&bad),
            Err(CheckpointError::WrongVersion { found: 42, expected: VERSION })
        ));

        // Truncation, at several cut points.
        for cut in [0, 3, 10, blob.len() / 2, blob.len() - 1] {
            assert_eq!(
                TrainCheckpoint::decode(&blob[..cut]),
                Err(CheckpointError::Truncated),
                "cut at {cut}"
            );
        }

        // A flipped payload bit fails the CRC.
        let mut bad = blob.to_vec();
        *bad.last_mut().unwrap() ^= 0x10;
        assert!(matches!(
            TrainCheckpoint::decode(&bad),
            Err(CheckpointError::CrcMismatch { .. })
        ));
    }

    #[test]
    fn a_payload_with_bytes_left_over_is_malformed_not_misread() {
        let mut e = dirty_encoder(3);
        let ckpt = TrainCheckpoint::capture(&mut e, 1, 2, 0, 1, vec![4]);
        let framed = ckpt.encode();
        let mut payload = frame::decode(&framed, MAGIC, VERSION).unwrap().to_vec();
        payload.push(0);
        assert!(matches!(
            TrainCheckpoint::decode(&frame::encode(MAGIC, VERSION, &payload)),
            Err(CheckpointError::Malformed(_))
        ));
    }

    #[test]
    fn wrong_architecture_is_typed_on_restore() {
        let mut a = dirty_encoder(5);
        let ckpt = TrainCheckpoint::capture(&mut a, 1, 2, 0, 1, Vec::new());
        let mut bigger = Encoder::new(EncoderConfig { n_layers: 2, ..cfg() });
        assert!(matches!(
            ckpt.restore(&mut bigger),
            Err(CheckpointError::WrongArchitecture(LoadError::CountMismatch { .. }))
        ));
    }

    #[test]
    fn checkpointer_writes_atomically_and_loads_back() {
        let dir = std::env::temp_dir().join(format!("kgck-test-{}", std::process::id()));
        let path = dir.join("model.kgck");
        let cp = Checkpointer::new(&path, 2);
        assert!(!cp.is_due(0) && !cp.is_due(1) && cp.is_due(2) && cp.is_due(4));
        let mut e = dirty_encoder(6);
        let ckpt = TrainCheckpoint::capture(&mut e, 7, 8, 1, 4, vec![1]);
        cp.save(&ckpt).unwrap();
        // Overwrite with a newer checkpoint; the old one must be replaced.
        let newer = TrainCheckpoint::capture(&mut e, 9, 10, 2, 6, vec![2]);
        cp.save(&newer).unwrap();
        let loaded = Checkpointer::load(&path).unwrap();
        assert_eq!(loaded, newer);
        assert!(
            !path.with_extension("kgck.tmp").exists(),
            "temp file must not survive a successful save"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn loading_a_missing_file_is_io_not_panic() {
        assert!(matches!(
            Checkpointer::load("/nonexistent/dir/nope.kgck"),
            Err(CheckpointError::Io(_))
        ));
    }
}
