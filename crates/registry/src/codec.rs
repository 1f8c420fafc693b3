//! Binary codec for the model metadata blob.
//!
//! The vendored `serde` stub is derive-markers only (nothing serializes
//! through it), so the registry encodes the [`KgLinkConfig`], the label
//! vocabulary, and the tokenizer vocab size explicitly, with
//! [`kglink_nn::frame`]'s writer and reader. The blob rides in the `extra`
//! field of a [`kglink_nn::TrainCheckpoint`], so it inherits the outer
//! KGCK CRC; its own magic + version only guard against the *meaning* of
//! the fields drifting between code generations.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! "KGMX" | u16 codec version (=1) | u64 vocab_size | config fields (fixed
//! order, see `encode`) | u32 n_labels | n_labels × (u32 len | utf-8 name)
//! ```

use kglink_core::config::{EncoderSize, KgLinkConfig, RowFilter};
use kglink_nn::frame::{Reader, Writer};
use kglink_nn::{AdamWConfig, CheckpointError};
use kglink_table::LabelVocab;

const MAGIC: &[u8; 4] = b"KGMX";
const CODEC_VERSION: u16 = 1;

/// Encode the pieces needed to rebuild a `KgLink` around a weights blob.
pub(crate) fn encode_model_meta(
    config: &KgLinkConfig,
    labels: &LabelVocab,
    vocab_size: usize,
) -> Vec<u8> {
    let mut w = Writer::with_capacity(256);
    w.bytes(MAGIC).u16(CODEC_VERSION).u64(vocab_size as u64);

    w.u64(config.max_entities_per_mention as u64)
        .u64(config.max_candidate_types as u64)
        .u64(config.top_k_rows as u64)
        .u8(match config.row_filter {
            RowFilter::LinkScore => 0,
            RowFilter::Original => 1,
        })
        .u64(config.max_columns as u64)
        .u64(config.retrieval_deadline_us)
        .u64(config.tokens_per_column as u64)
        .u64(config.feature_seq_tokens as u64)
        .u8(match config.encoder {
            EncoderSize::Mini => 0,
            EncoderSize::Large => 1,
        })
        .f32(config.temperature)
        .f32(config.dropout)
        .u8(config.use_mask_task as u8)
        .u8(config.use_candidate_types as u8)
        .u8(config.use_feature_vector as u8)
        .u64(config.epochs as u64)
        .u64(config.batch_size as u64)
        .u64(config.patience as u64);
    let o = &config.optimizer;
    for v in [o.lr, o.beta1, o.beta2, o.eps, o.weight_decay, o.clip_norm] {
        w.f32(v);
    }
    match config.fixed_log_sigmas {
        None => w.u8(0),
        Some((a, b)) => w.u8(1).f32(a).f32(b),
    };
    w.u64(config.seed);

    w.u32(labels.len() as u32);
    for (_, name) in labels.iter() {
        w.u32(name.len() as u32).bytes(name.as_bytes());
    }
    w.into_vec()
}

/// Decode [`encode_model_meta`] output; every byte must be accounted for.
pub(crate) fn decode_model_meta(
    buf: &[u8],
) -> Result<(KgLinkConfig, LabelVocab, usize), CheckpointError> {
    let malformed = CheckpointError::Malformed;
    let mut r = Reader::new(buf);
    if r.take(4)? != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let found = r.u16()?;
    if found != CODEC_VERSION {
        return Err(CheckpointError::WrongVersion {
            found: found.into(),
            expected: CODEC_VERSION.into(),
        });
    }
    let vocab_size = r.u64()? as usize;

    // Struct fields evaluate in the order written: the wire order.
    let config = KgLinkConfig {
        max_entities_per_mention: r.u64()? as usize,
        max_candidate_types: r.u64()? as usize,
        top_k_rows: r.u64()? as usize,
        row_filter: match r.u8()? {
            0 => RowFilter::LinkScore,
            1 => RowFilter::Original,
            n => return Err(malformed(format!("unknown row filter tag {n}"))),
        },
        max_columns: r.u64()? as usize,
        retrieval_deadline_us: r.u64()?,
        tokens_per_column: r.u64()? as usize,
        feature_seq_tokens: r.u64()? as usize,
        encoder: match r.u8()? {
            0 => EncoderSize::Mini,
            1 => EncoderSize::Large,
            n => return Err(malformed(format!("unknown encoder size tag {n}"))),
        },
        temperature: r.f32()?,
        dropout: r.f32()?,
        use_mask_task: r.u8()? != 0,
        use_candidate_types: r.u8()? != 0,
        use_feature_vector: r.u8()? != 0,
        epochs: r.u64()? as usize,
        batch_size: r.u64()? as usize,
        patience: r.u64()? as usize,
        optimizer: AdamWConfig {
            lr: r.f32()?,
            beta1: r.f32()?,
            beta2: r.f32()?,
            eps: r.f32()?,
            weight_decay: r.f32()?,
            clip_norm: r.f32()?,
        },
        fixed_log_sigmas: match r.u8()? {
            0 => None,
            1 => Some((r.f32()?, r.f32()?)),
            n => return Err(malformed(format!("unknown fixed-sigma tag {n}"))),
        },
        seed: r.u64()?,
    };

    let n_labels = r.u32()? as usize;
    let mut labels = LabelVocab::new();
    for i in 0..n_labels {
        let len = r.u32()? as usize;
        let name = std::str::from_utf8(r.take(len)?)
            .map_err(|_| malformed(format!("label {i} is not valid UTF-8")))?;
        labels.intern(name);
    }
    if labels.len() != n_labels {
        return Err(malformed(format!(
            "label vocabulary collapsed on decode: {n_labels} recorded, {} distinct",
            labels.len()
        )));
    }
    r.finish()?;
    Ok((config, labels, vocab_size))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_meta_round_trips_bit_exactly() {
        let mut labels = LabelVocab::new();
        for name in ["person", "place", "work of art"] {
            labels.intern(name);
        }
        let config = KgLinkConfig {
            retrieval_deadline_us: 12_345,
            fixed_log_sigmas: Some((-0.25, 0.5)),
            seed: 0xdead_beef,
            ..KgLinkConfig::fast_test()
        };
        let blob = encode_model_meta(&config, &labels, 6000);
        let (c2, l2, vocab) = decode_model_meta(&blob).expect("round trip");
        assert_eq!(vocab, 6000);
        assert_eq!(l2.len(), labels.len());
        for (id, name) in labels.iter() {
            assert_eq!(l2.name(id), name);
        }
        // `KgLinkConfig` has no `PartialEq`; bit-exact re-encoding is the
        // stronger statement anyway.
        assert_eq!(encode_model_meta(&c2, &l2, vocab), blob);
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let mut labels = LabelVocab::new();
        labels.intern("only");
        let blob = encode_model_meta(&KgLinkConfig::fast_test(), &labels, 64);
        for cut in 0..blob.len() {
            assert!(
                decode_model_meta(&blob[..cut]).is_err(),
                "prefix of {cut} bytes decoded successfully"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut labels = LabelVocab::new();
        labels.intern("only");
        let mut blob = encode_model_meta(&KgLinkConfig::fast_test(), &labels, 64);
        blob.push(0);
        assert!(decode_model_meta(&blob).is_err());
    }
}
