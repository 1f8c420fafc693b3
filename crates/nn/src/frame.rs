//! The one codec for model artifacts.
//!
//! Training checkpoints (`KGCK`, [`crate::checkpoint`]), the registry's
//! manifest (`KGMF`) and everything nested inside them — the `KGLT`
//! train-state and `KGLW` weight blobs, the registry's model metadata, the
//! training loop's resume state — are written and read through this module
//! and nothing else:
//!
//! - [`encode`] / [`decode`]: one integrity frame;
//! - [`Writer`] / [`Reader`]: little-endian fields, where every short read
//!   is a typed [`Truncated`] instead of a slice panic;
//! - [`publish`]: the only way a model artifact reaches disk.
//!
//! ## Frame (little-endian)
//!
//! ```text
//! offset  size  field
//! 0       4     magic (names the artifact: "KGCK", "KGMF", …)
//! 4       4     u32 format version
//! 8       4     u32 CRC32 (IEEE) over the payload
//! 12      8     u64 payload length
//! 20      …     payload
//! ```
//!
//! ## Corruption model
//!
//! [`decode`] checks in this order, and every failure is a distinct
//! [`CheckpointError`]: fewer than 4 bytes → [`Truncated`]; a foreign magic
//! → [`BadMagic`]; a header cut short → [`Truncated`]; another format
//! version → [`WrongVersion`] (before the CRC: a different version implies
//! a different layout, so it is not corruption); a payload shorter than its
//! length → [`Truncated`]; a payload that does not hash to its CRC →
//! [`CrcMismatch`]. Fields that do not parse inside an intact frame are
//! [`Truncated`] (ran out) or [`Malformed`] (unknown tag, trailing bytes).
//!
//! ## Atomic publish
//!
//! [`publish`] never exposes a torn file: the bytes go to `<path>.tmp` in
//! the same directory, are fsync'd, renamed over `path` (atomic within one
//! POSIX directory), and the directory is fsync'd so the rename itself is
//! durable. A crash at any instant leaves the old complete artifact or the
//! new complete artifact; a failed publish removes its temporary. Clippy's
//! raw-write ban (the workspace `clippy.toml`) rejects any other in lib code.
//!
//! [`Truncated`]: CheckpointError::Truncated
//! [`BadMagic`]: CheckpointError::BadMagic
//! [`WrongVersion`]: CheckpointError::WrongVersion
//! [`CrcMismatch`]: CheckpointError::CrcMismatch
//! [`Malformed`]: CheckpointError::Malformed

use crate::checkpoint::CheckpointError;
use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Bytes before the payload: magic, version, CRC, length.
const HEADER_LEN: usize = 20;

/// Byte-at-a-time CRC32 table (IEEE 802.3, reflected polynomial).
static CRC_TABLE: [u32; 256] = crc_table();

const fn crc_table() -> [u32; 256] {
    let mut t = [0u32; 256];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xedb8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[b] = crc;
        b += 1;
    }
    t
}

/// CRC32 (IEEE 802.3, reflected) over `data`.
pub fn crc32(data: &[u8]) -> u32 {
    !data.iter().fold(!0u32, |crc, &b| {
        (crc >> 8) ^ CRC_TABLE[((crc ^ u32::from(b)) & 0xff) as usize]
    })
}

/// Frame `payload` under `magic` and format `version`.
pub fn encode(magic: &[u8; 4], version: u32, payload: &[u8]) -> Vec<u8> {
    let mut w = Writer::with_capacity(HEADER_LEN + payload.len());
    w.bytes(magic)
        .u32(version)
        .u32(crc32(payload))
        .u64(payload.len() as u64)
        .bytes(payload);
    w.into_vec()
}

/// The payload of a frame written by [`encode`] with the same `magic` and
/// `version`, once its CRC checks. Bytes after the payload are ignored.
pub fn decode<'a>(
    blob: &'a [u8],
    magic: &[u8; 4],
    version: u32,
) -> Result<&'a [u8], CheckpointError> {
    let mut r = Reader::new(blob);
    if r.take(4)? != magic {
        return Err(CheckpointError::BadMagic);
    }
    if blob.len() < HEADER_LEN {
        return Err(CheckpointError::Truncated);
    }
    let found = r.u32()?;
    if found != version {
        return Err(CheckpointError::WrongVersion {
            found,
            expected: version,
        });
    }
    let expected = r.u32()?;
    let len = r.count()?;
    let payload = r.take(len)?;
    let found = crc32(payload);
    if found != expected {
        return Err(CheckpointError::CrcMismatch { expected, found });
    }
    Ok(payload)
}

/// Little-endian field writer; the encoding half of [`Reader`].
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn with_capacity(bytes: usize) -> Self {
        Writer {
            buf: Vec::with_capacity(bytes),
        }
    }

    pub fn bytes(&mut self, b: &[u8]) -> &mut Self {
        self.buf.extend_from_slice(b);
        self
    }

    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.bytes(&[v])
    }

    pub fn u16(&mut self, v: u16) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// The exact bits, NaN payloads included.
    pub fn f32(&mut self, v: f32) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// The exact bits, NaN payloads included.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }
}

/// Bounds-checked little-endian reader over a borrowed slice: running out
/// is [`CheckpointError::Truncated`], never a panic.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        let rest = &self.buf[self.pos..];
        let head = rest.get(..n).ok_or(CheckpointError::Truncated)?;
        self.pos += n;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], CheckpointError> {
        let (head, _) = self.buf[self.pos..]
            .split_first_chunk::<N>()
            .ok_or(CheckpointError::Truncated)?;
        self.pos += N;
        Ok(*head)
    }

    pub fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.array::<1>()?[0])
    }

    pub fn u16(&mut self) -> Result<u16, CheckpointError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    pub fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    pub fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    pub fn f32(&mut self) -> Result<f32, CheckpointError> {
        Ok(f32::from_le_bytes(self.array()?))
    }

    pub fn f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_le_bytes(self.array()?))
    }

    /// A `u64` length or count that must fit in memory: a value too large
    /// to be real is reported as running out of input.
    pub fn count(&mut self) -> Result<usize, CheckpointError> {
        usize::try_from(self.u64()?).map_err(|_| CheckpointError::Truncated)
    }

    /// End of input: every byte must have been consumed.
    pub fn finish(self) -> Result<(), CheckpointError> {
        match self.buf.len() - self.pos {
            0 => Ok(()),
            n => Err(CheckpointError::Malformed(format!(
                "{n} trailing byte(s) after offset {}",
                self.pos
            ))),
        }
    }
}

/// Atomically install `bytes` at `path`: `<path>.tmp` → fsync → rename →
/// fsync of the directory. Parent directories are created as needed.
pub fn publish(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    };
    fs::create_dir_all(dir)?;
    let tmp = tmp_path(path);
    #[expect(
        clippy::disallowed_methods,
        reason = "the sanctioned atomic writer: the create targets the temporary sibling only, and the bytes become visible solely at the fsync+rename below"
    )]
    let written = File::create(&tmp)
        .and_then(|mut f| {
            f.write_all(bytes)?;
            // Data must be durable *before* the rename publishes it.
            f.sync_all()
        })
        .and_then(|()| fs::rename(&tmp, path));
    if written.is_err() {
        // Never leave debris a later reader could mistake for an artifact.
        let _ = fs::remove_file(&tmp);
    }
    written?;
    // The rename is atomic either way; fsyncing the directory makes it
    // durable. Platforms that cannot open a directory skip that step.
    if let Ok(d) = File::open(dir) {
        d.sync_all()?;
    }
    Ok(())
}

/// Where [`publish`] stages the bytes for `path`: `<path>.tmp`.
fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_owned();
    name.push(".tmp");
    PathBuf::from(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &byte in data {
            crc ^= u32::from(byte);
            for _ in 0..8 {
                crc = (crc >> 1) ^ (0xedb8_8320 & (crc & 1).wrapping_neg());
            }
        }
        !crc
    }

    #[test]
    fn crc32_matches_known_vectors_and_the_bitwise_reference() {
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
        let data: Vec<u8> = (0..2048u32).map(|i| (i * 31 + i / 7) as u8).collect();
        for len in 0..data.len() {
            assert_eq!(
                crc32(&data[..len]),
                crc32_bitwise(&data[..len]),
                "len {len}"
            );
        }
    }

    #[test]
    fn frames_round_trip_and_ignore_trailing_bytes() {
        let blob = encode(b"TEST", 3, b"payload");
        assert_eq!(blob.len(), HEADER_LEN + 7);
        assert_eq!(decode(&blob, b"TEST", 3), Ok(&b"payload"[..]));
        let mut longer = blob.clone();
        longer.extend_from_slice(b"junk");
        assert_eq!(decode(&longer, b"TEST", 3), Ok(&b"payload"[..]));
        assert_eq!(decode(&encode(b"TEST", 3, b""), b"TEST", 3), Ok(&b""[..]));
    }

    #[test]
    fn each_damage_class_is_its_own_error() {
        let blob = encode(b"TEST", 3, b"some payload bytes");
        assert_eq!(decode(&blob, b"ELSE", 3), Err(CheckpointError::BadMagic));
        // The version is checked before the CRC, which is clobbered too.
        let mut foreign = blob.clone();
        foreign[4] = 9;
        foreign[8] ^= 0xff;
        assert_eq!(
            decode(&foreign, b"TEST", 3),
            Err(CheckpointError::WrongVersion {
                found: 9,
                expected: 3
            })
        );
        for cut in 0..blob.len() {
            assert_eq!(
                decode(&blob[..cut], b"TEST", 3),
                Err(CheckpointError::Truncated),
                "cut at {cut}"
            );
        }
        for pos in HEADER_LEN..blob.len() {
            let mut bad = blob.clone();
            bad[pos] ^= 0x04;
            assert!(
                matches!(
                    decode(&bad, b"TEST", 3),
                    Err(CheckpointError::CrcMismatch { .. })
                ),
                "flip at {pos}"
            );
        }
        // A length beyond the input is truncation, not an allocation.
        let mut huge = blob.clone();
        huge[12..20].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(decode(&huge, b"TEST", 3), Err(CheckpointError::Truncated));
    }

    #[test]
    fn reader_reads_what_the_writer_wrote_and_types_every_shortfall() {
        let mut w = Writer::new();
        w.u8(7)
            .u16(0xbeef)
            .u32(0xdead_beef)
            .u64(u64::MAX - 1)
            .f32(f32::from_bits(0x7fc0_0001))
            .f64(-0.0)
            .bytes(b"xyz");
        let bytes = w.into_vec();
        assert_eq!(bytes.len(), 1 + 2 + 4 + 8 + 4 + 8 + 3);
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8(), Ok(7));
        assert_eq!(r.u16(), Ok(0xbeef));
        assert_eq!(r.u32(), Ok(0xdead_beef));
        assert_eq!(r.u64(), Ok(u64::MAX - 1));
        assert_eq!(r.f32().map(f32::to_bits), Ok(0x7fc0_0001));
        assert_eq!(r.f64().map(f64::to_bits), Ok((-0.0f64).to_bits()));
        assert!(r.clone().finish().is_err(), "three bytes are left");
        assert_eq!(r.take(3), Ok(&b"xyz"[..]));
        assert_eq!(r.clone().u8(), Err(CheckpointError::Truncated));
        assert_eq!(r.clone().take(1), Err(CheckpointError::Truncated));
        assert_eq!(r.finish(), Ok(()));
        for cut in 0..8 {
            assert_eq!(
                Reader::new(&bytes[..cut]).u64(),
                Err(CheckpointError::Truncated)
            );
        }
    }

    #[test]
    fn publish_replaces_whole_files_and_leaves_no_temporary() {
        let dir = std::env::temp_dir().join(format!("kglink-frame-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let path = dir.join("nested").join("artifact.bin");
        publish(&path, b"old-old-old").unwrap();
        publish(&path, b"new").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"new");
        assert!(!tmp_path(&path).exists(), "temporary must not survive");
        // A publish that cannot rename (the target is a directory) fails
        // typed and cleans its temporary up.
        let blocked = dir.join("blocked");
        fs::create_dir_all(blocked.join("child")).unwrap();
        assert!(publish(&blocked, b"bytes").is_err());
        assert!(
            !tmp_path(&blocked).exists(),
            "failed publish left its temporary"
        );
        fs::remove_dir_all(&dir).unwrap();
    }
}
