//! `KGSM` world manifest: the commit point of a disk world.
//!
//! A world directory holds N entity shards, one BM25 segment, and this one
//! small file. The manifest is written **last**, through the atomic
//! writer, so its existence certifies that every other segment it names
//! was fully written and fsync'd first: a build that crashes half-way
//! leaves shards but no manifest, and `DiskWorld::open` fails typed
//! instead of serving a partial world. This is the same
//! "rename-is-the-commit" argument the checkpoint store makes, lifted
//! from one file to a directory.
//!
//! Being small, the manifest uses the full `KGCK`-style frame (magic,
//! version, whole-payload CRC, length) rather than per-block CRCs:
//!
//! ```text
//! magic "KGSM" | u32 version | u32 crc32(payload) | u64 payload_len | payload
//! ```
//!
//! The payload carries everything a reader needs before touching a shard:
//! entity count, sharding geometry, the predicate vocabulary in id order,
//! the `instance of` / `subclass of` predicate ids, and the BM25 corpus
//! statistics (doc count, total length, k1/b) that scoring needs and that
//! must match what the index was built with.

use crate::atomic::atomic_write_segment;
use crate::error::StoreError;
use crate::varint::{crc32, get_count, get_str, get_uv, put_str, put_uv};
use kglink_kg::PredicateId;
use std::path::Path;

pub(crate) const MAGIC: &[u8; 4] = b"KGSM";
pub(crate) const VERSION: u32 = 1;
const FRAME_LEN: usize = 20;

/// File name of the manifest inside a world directory.
pub const MANIFEST_FILE: &str = "world.kgsm";

/// Corpus statistics the BM25 segment was built with.
#[derive(Debug, Clone, PartialEq)]
pub struct Bm25Stats {
    /// Number of indexed documents (label + alias texts, not entities).
    pub n_docs: u64,
    /// Sum of document lengths in tokens.
    pub total_len: u64,
    /// Okapi k1 parameter.
    pub k1: f32,
    /// Okapi b parameter.
    pub b: f32,
}

/// The decoded world manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Total entities across all shards.
    pub n_entities: u64,
    /// Entities per shard (the last shard may hold fewer).
    pub per_shard: u32,
    /// Number of entity shards.
    pub n_shards: u32,
    /// Predicate names in id order (id `i` ↔ `predicates[i]`).
    pub predicates: Vec<String>,
    /// Predicate id of `instance of`, if the vocabulary registered it.
    pub instance_of: Option<PredicateId>,
    /// Predicate id of `subclass of`, if registered.
    pub subclass_of: Option<PredicateId>,
    /// BM25 corpus statistics.
    pub bm25: Bm25Stats,
}

fn put_opt_pred(buf: &mut Vec<u8>, p: Option<PredicateId>) {
    match p {
        Some(id) => {
            buf.push(1);
            put_uv(buf, u64::from(id.0));
        }
        None => buf.push(0),
    }
}

fn get_opt_pred(bytes: &[u8], pos: &mut usize) -> Result<Option<PredicateId>, StoreError> {
    let &flag = bytes.get(*pos).ok_or(StoreError::Truncated)?;
    *pos += 1;
    match flag {
        0 => Ok(None),
        1 => {
            let v = get_uv(bytes, pos)?;
            let id = u16::try_from(v)
                .map_err(|_| StoreError::Corrupt(format!("predicate id {v} overflows u16")))?;
            Ok(Some(PredicateId(id)))
        }
        other => Err(StoreError::Corrupt(format!(
            "option flag must be 0 or 1, found {other}"
        ))),
    }
}

impl Manifest {
    fn encode_payload(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(&self.n_entities.to_le_bytes());
        buf.extend_from_slice(&self.per_shard.to_le_bytes());
        buf.extend_from_slice(&self.n_shards.to_le_bytes());
        put_uv(&mut buf, self.predicates.len() as u64);
        for p in &self.predicates {
            put_str(&mut buf, p);
        }
        put_opt_pred(&mut buf, self.instance_of);
        put_opt_pred(&mut buf, self.subclass_of);
        buf.extend_from_slice(&self.bm25.n_docs.to_le_bytes());
        buf.extend_from_slice(&self.bm25.total_len.to_le_bytes());
        buf.extend_from_slice(&self.bm25.k1.to_le_bytes());
        buf.extend_from_slice(&self.bm25.b.to_le_bytes());
        buf
    }

    fn decode_payload(bytes: &[u8]) -> Result<Self, StoreError> {
        fn take<const N: usize>(bytes: &[u8], pos: &mut usize) -> Result<[u8; N], StoreError> {
            let end = pos.checked_add(N).ok_or(StoreError::Truncated)?;
            let slice = bytes.get(*pos..end).ok_or(StoreError::Truncated)?;
            *pos = end;
            let mut out = [0u8; N];
            out.copy_from_slice(slice);
            Ok(out)
        }
        let mut pos = 0;
        let n_entities = u64::from_le_bytes(take(bytes, &mut pos)?);
        let per_shard = u32::from_le_bytes(take(bytes, &mut pos)?);
        let n_shards = u32::from_le_bytes(take(bytes, &mut pos)?);
        if per_shard == 0 {
            return Err(StoreError::Corrupt("per_shard must be positive".into()));
        }
        // n_shards must cover exactly n_entities.
        let expect_shards = n_entities.div_ceil(u64::from(per_shard));
        if u64::from(n_shards) != expect_shards {
            return Err(StoreError::Corrupt(format!(
                "{n_entities} entities at {per_shard}/shard needs {expect_shards} shards, manifest says {n_shards}"
            )));
        }
        // Predicate ids are u16, bounding the vocabulary.
        let n_preds = get_count(bytes, &mut pos, usize::from(u16::MAX))?;
        let mut predicates = Vec::with_capacity(n_preds);
        for _ in 0..n_preds {
            predicates.push(get_str(bytes, &mut pos)?);
        }
        let instance_of = get_opt_pred(bytes, &mut pos)?;
        let subclass_of = get_opt_pred(bytes, &mut pos)?;
        for p in [instance_of, subclass_of].into_iter().flatten() {
            if usize::from(p.0) >= predicates.len() {
                return Err(StoreError::Corrupt(format!(
                    "special predicate {p} outside the {}-entry vocabulary",
                    predicates.len()
                )));
            }
        }
        let n_docs = u64::from_le_bytes(take(bytes, &mut pos)?);
        let total_len = u64::from_le_bytes(take(bytes, &mut pos)?);
        let k1 = f32::from_le_bytes(take(bytes, &mut pos)?);
        let b = f32::from_le_bytes(take(bytes, &mut pos)?);
        if !(k1.is_finite() && b.is_finite()) {
            return Err(StoreError::Corrupt("BM25 parameters must be finite".into()));
        }
        if pos != bytes.len() {
            return Err(StoreError::Corrupt(format!(
                "{} trailing bytes after manifest payload",
                bytes.len() - pos
            )));
        }
        Ok(Manifest {
            n_entities,
            per_shard,
            n_shards,
            predicates,
            instance_of,
            subclass_of,
            bm25: Bm25Stats {
                n_docs,
                total_len,
                k1,
                b,
            },
        })
    }

    /// Atomically write the manifest — the world's commit point.
    pub fn write(&self, dir: &Path) -> Result<(), StoreError> {
        let payload = self.encode_payload();
        let mut frame = Vec::with_capacity(FRAME_LEN + payload.len());
        frame.extend_from_slice(MAGIC);
        frame.extend_from_slice(&VERSION.to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        frame.extend_from_slice(&payload);
        atomic_write_segment(&dir.join(MANIFEST_FILE), &frame)
    }

    /// Read and validate the manifest of a world directory.
    pub fn read(dir: &Path) -> Result<Self, StoreError> {
        let bytes = std::fs::read(dir.join(MANIFEST_FILE))?;
        if bytes.len() < FRAME_LEN {
            return Err(StoreError::Truncated);
        }
        if &bytes[0..4] != MAGIC {
            return Err(StoreError::BadMagic { expected: "KGSM" });
        }
        let version = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
        if version != VERSION {
            return Err(StoreError::WrongVersion {
                found: version,
                expected: VERSION,
            });
        }
        let crc = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
        let len = u64::from_le_bytes([
            bytes[12], bytes[13], bytes[14], bytes[15], bytes[16], bytes[17], bytes[18], bytes[19],
        ]);
        let payload = bytes
            .get(FRAME_LEN..)
            .filter(|p| p.len() as u64 == len)
            .ok_or(StoreError::Truncated)?;
        let found = crc32(payload);
        if found != crc {
            return Err(StoreError::CrcMismatch {
                expected: crc,
                found,
            });
        }
        Self::decode_payload(payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "kglink-store-manifest-{tag}-{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn sample() -> Manifest {
        Manifest {
            n_entities: 1_000_003,
            per_shard: 65_536,
            n_shards: 16,
            predicates: vec!["instance of".into(), "performer".into()],
            instance_of: Some(PredicateId(0)),
            subclass_of: None,
            bm25: Bm25Stats {
                n_docs: 1_400_000,
                total_len: 4_200_000,
                k1: 1.2,
                b: 0.75,
            },
        }
    }

    #[test]
    fn manifest_round_trips() {
        let dir = tmpdir("roundtrip");
        let m = sample();
        m.write(&dir).unwrap();
        assert_eq!(Manifest::read(&dir).unwrap(), m);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_manifest_is_not_a_world() {
        let dir = tmpdir("missing");
        assert!(matches!(Manifest::read(&dir), Err(StoreError::Io(_))));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corruption_classes_are_distinguished() {
        let dir = tmpdir("corrupt");
        sample().write(&dir).unwrap();
        let path = dir.join(MANIFEST_FILE);
        let orig = std::fs::read(&path).unwrap();

        let mut bad = orig.clone();
        bad[2] = b'!';
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(
            Manifest::read(&dir),
            Err(StoreError::BadMagic { expected: "KGSM" })
        ));

        let mut bad = orig.clone();
        bad[4] = 42;
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(
            Manifest::read(&dir),
            Err(StoreError::WrongVersion {
                found: 42,
                expected: VERSION
            })
        ));

        std::fs::write(&path, &orig[..orig.len() - 3]).unwrap();
        assert!(matches!(Manifest::read(&dir), Err(StoreError::Truncated)));

        let mut bad = orig.clone();
        let n = bad.len();
        bad[n - 1] ^= 0x80;
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(
            Manifest::read(&dir),
            Err(StoreError::CrcMismatch { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn inconsistent_geometry_is_corrupt() {
        let dir = tmpdir("geometry");
        let mut m = sample();
        m.n_shards = 2; // 1M entities at 65536/shard needs 16.
        m.write(&dir).unwrap();
        assert!(matches!(Manifest::read(&dir), Err(StoreError::Corrupt(_))));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
