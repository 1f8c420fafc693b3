//! Weight serialization.
//!
//! A tiny self-describing binary format so one pre-trained encoder can be
//! reused across the experiment grid instead of re-running MLM pre-training
//! for every table/figure binary:
//!
//! ```text
//! magic "KGLW" | u32 n_params | for each: u32 rows | u32 cols | f32 data…
//! ```
//!
//! The checkpoint's `KGLT` train-state blob is the same layout with the
//! optimizer moments added per parameter (`u8 decay | value | m | v`), and
//! both are written and read by the one pair of functions here, through
//! [`crate::frame`]'s writer and reader.
//!
//! Parameters are identified positionally via the deterministic
//! [`HasParams::visit_params`] order, so the loading model must have the
//! exact same architecture.

use crate::frame::{Reader, Writer};
use crate::layers::param::HasParams;
use crate::tensor::Tensor;
use crate::CheckpointError;
use bytes::Bytes;

const MAGIC: &[u8; 4] = b"KGLW";

/// Serialization failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadError {
    BadMagic,
    Truncated,
    CountMismatch { expected: usize, found: usize },
    ShapeMismatch { index: usize },
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::BadMagic => write!(f, "not a KGLW weight blob"),
            LoadError::Truncated => write!(f, "weight blob is truncated"),
            LoadError::CountMismatch { expected, found } => {
                write!(f, "parameter count mismatch: model has {expected}, blob has {found}")
            }
            LoadError::ShapeMismatch { index } => {
                write!(f, "shape mismatch at parameter {index}")
            }
        }
    }
}

impl std::error::Error for LoadError {}

/// Serialize every parameter value of `model` into a byte blob.
pub fn save_params(model: &mut dyn HasParams) -> Bytes {
    encode_params(model, MAGIC, false)
}

/// Load a blob produced by [`save_params`] into `model` (same architecture).
pub fn load_params(model: &mut dyn HasParams, blob: &[u8]) -> Result<(), LoadError> {
    decode_params(model, blob, MAGIC, false)
}

/// `magic | u32 n_params`, then per parameter `u32 rows | u32 cols` and
/// either its values or, with `moments`, `u8 decay | value | m | v`.
pub(crate) fn encode_params(model: &mut dyn HasParams, magic: &[u8; 4], moments: bool) -> Bytes {
    let mut n_params = 0u32;
    model.visit_params(&mut |_| n_params += 1);
    let mut w = Writer::new();
    w.bytes(magic).u32(n_params);
    model.visit_params(&mut |p| {
        w.u32(p.value.rows() as u32).u32(p.value.cols() as u32);
        if moments {
            w.u8(u8::from(p.decay));
        }
        let sections = if moments { 3 } else { 1 };
        for t in [&p.value, &p.m, &p.v].into_iter().take(sections) {
            for &x in t.data() {
                w.f32(x);
            }
        }
    });
    Bytes::from(w.into_vec())
}

/// One parameter as read back: its value and, in a `KGLT` blob, `(m, v)`.
struct Saved {
    value: Tensor,
    moments: Option<(Tensor, Tensor)>,
}

/// Load an [`encode_params`] blob into `model`. The whole blob is parsed
/// and every shape checked before the first parameter is overwritten.
pub(crate) fn decode_params(
    model: &mut dyn HasParams,
    blob: &[u8],
    magic: &[u8; 4],
    moments: bool,
) -> Result<(), LoadError> {
    if blob.len() < 8 || &blob[..4] != magic {
        return Err(LoadError::BadMagic);
    }
    let saved = read_params(Reader::new(&blob[4..]), moments).map_err(|_| LoadError::Truncated)?;
    let mut shapes = Vec::with_capacity(saved.len());
    model.visit_params(&mut |p| shapes.push(p.value.shape()));
    if shapes.len() != saved.len() {
        return Err(LoadError::CountMismatch {
            expected: shapes.len(),
            found: saved.len(),
        });
    }
    if let Some(index) = shapes
        .iter()
        .zip(&saved)
        .position(|(&shape, s)| shape != s.value.shape())
    {
        return Err(LoadError::ShapeMismatch { index });
    }
    let mut saved = saved.into_iter();
    model.visit_params(&mut |p| {
        if let Some(s) = saved.next() {
            p.value = s.value;
            if let Some((m, v)) = s.moments {
                p.m = m;
                p.v = v;
                p.grad.fill_zero();
            }
        }
    });
    Ok(())
}

fn read_params(mut r: Reader<'_>, moments: bool) -> Result<Vec<Saved>, CheckpointError> {
    let n_params = r.u32()?;
    let mut out = Vec::new();
    for _ in 0..n_params {
        let rows = r.u32()? as usize;
        let cols = r.u32()? as usize;
        if moments {
            r.u8()?; // decay is a property of the architecture, not state
        }
        let mut tensor = || -> Result<Tensor, CheckpointError> {
            let bytes = rows
                .checked_mul(cols)
                .and_then(|n| n.checked_mul(4))
                .ok_or(CheckpointError::Truncated)?;
            let data = r
                .take(bytes)?
                .chunks_exact(4)
                .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
                .collect();
            Ok(Tensor::from_vec(rows, cols, data))
        };
        let value = tensor()?;
        let moments = if moments {
            Some((tensor()?, tensor()?))
        } else {
            None
        };
        out.push(Saved { value, moments });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::{Encoder, EncoderConfig};
    use crate::Param;

    fn cfg() -> EncoderConfig {
        EncoderConfig {
            vocab_size: 16,
            d_model: 8,
            n_heads: 2,
            d_ff: 16,
            n_layers: 1,
            max_len: 8,
            seed: 1,
        }
    }

    #[test]
    fn save_load_round_trip() {
        let mut a = Encoder::new(cfg());
        let blob = save_params(&mut a);
        let mut b = Encoder::new(EncoderConfig { seed: 999, ..cfg() });
        assert_ne!(a.infer(&[2, 5, 3]), b.infer(&[2, 5, 3]), "different seeds differ");
        load_params(&mut b, &blob).unwrap();
        assert_eq!(a.infer(&[2, 5, 3]), b.infer(&[2, 5, 3]));
    }

    #[test]
    fn bad_magic_rejected() {
        let mut e = Encoder::new(cfg());
        assert_eq!(load_params(&mut e, b"NOPE1234"), Err(LoadError::BadMagic));
        assert_eq!(load_params(&mut e, b""), Err(LoadError::BadMagic));
    }

    #[test]
    fn truncation_rejected() {
        let mut e = Encoder::new(cfg());
        let blob = save_params(&mut e);
        let cut = &blob[..blob.len() / 2];
        assert_eq!(load_params(&mut e, cut), Err(LoadError::Truncated));
    }

    #[test]
    fn architecture_mismatch_rejected() {
        let mut a = Encoder::new(cfg());
        let blob = save_params(&mut a);
        let mut bigger = Encoder::new(EncoderConfig {
            n_layers: 2,
            ..cfg()
        });
        assert!(matches!(
            load_params(&mut bigger, &blob),
            Err(LoadError::CountMismatch { .. })
        ));
        let mut wider = Encoder::new(EncoderConfig {
            d_model: 16,
            d_ff: 32,
            ..cfg()
        });
        assert!(matches!(
            load_params(&mut wider, &blob),
            Err(LoadError::ShapeMismatch { .. }) | Err(LoadError::Truncated)
        ));
    }

    struct Bag(Vec<Param>);

    impl HasParams for Bag {
        fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
            self.0.iter_mut().for_each(f);
        }
    }

    #[test]
    fn a_rejected_blob_leaves_the_model_untouched() {
        let bag = |shape_b: (usize, usize), fill: f32| {
            Bag(vec![
                Param::new(Tensor::from_vec(1, 2, vec![fill; 2])),
                Param::new(Tensor::from_vec(shape_b.0, shape_b.1, vec![fill; 2])),
            ])
        };
        let blob = save_params(&mut bag((1, 2), 1.0));
        // Same count, the *second* shape differs: the first parameter must
        // not be overwritten before the mismatch is found.
        let mut dst = bag((2, 1), 9.0);
        assert_eq!(
            load_params(&mut dst, &blob),
            Err(LoadError::ShapeMismatch { index: 1 })
        );
        assert_eq!(dst.0[0].value.data(), &[9.0, 9.0]);
        let blob = encode_params(&mut bag((1, 2), 1.0), b"KGLT", true);
        assert!(decode_params(&mut dst, &blob, b"KGLT", true).is_err());
        assert_eq!(dst.0[0].value.data(), &[9.0, 9.0]);
    }
}
