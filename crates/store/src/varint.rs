//! LEB128 variable-length integers and length-prefixed strings.
//!
//! Posting lists and entity records are dominated by small integers (doc-id
//! gaps, term frequencies, edge targets near their source), so the store
//! encodes every integer as a little-endian base-128 varint: 7 payload bits
//! per byte, high bit = continuation. Decoding is bounds-checked and returns
//! typed [`StoreError`]s — corrupt bytes must never panic a reader.
//!
//! The CRC32 every segment section carries lives here too, with
//! `read_verified`, the one read-then-check every CRC'd section goes
//! through.

use crate::error::StoreError;
use std::fs::File;
use std::os::unix::fs::FileExt;

/// Maximum encoded length of a `u64` (`ceil(64 / 7)`).
pub const MAX_VARINT_LEN: usize = 10;

/// Append `v` to `buf` as a LEB128 varint.
#[inline]
pub fn put_uv(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push((v as u8) | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// Decode a varint at `*pos`, advancing `*pos` past it.
#[inline]
pub fn get_uv(bytes: &[u8], pos: &mut usize) -> Result<u64, StoreError> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let &b = bytes.get(*pos).ok_or(StoreError::Truncated)?;
        *pos += 1;
        if shift == 63 && b > 1 {
            return Err(StoreError::Corrupt("varint overflows u64".into()));
        }
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(StoreError::Corrupt("varint longer than 10 bytes".into()));
        }
    }
}

/// Decode a varint that must fit a `u32`.
#[inline]
pub fn get_uv32(bytes: &[u8], pos: &mut usize) -> Result<u32, StoreError> {
    let v = get_uv(bytes, pos)?;
    u32::try_from(v).map_err(|_| StoreError::Corrupt(format!("varint {v} overflows u32")))
}

/// Decode a varint bounded by `limit` (record counts, lengths): anything
/// larger is structurally impossible and fails typed instead of driving an
/// allocation from attacker-controlled bytes.
#[inline]
pub fn get_count(bytes: &[u8], pos: &mut usize, limit: usize) -> Result<usize, StoreError> {
    let v = get_uv(bytes, pos)?;
    if v > limit as u64 {
        return Err(StoreError::Corrupt(format!(
            "count {v} exceeds bound {limit}"
        )));
    }
    Ok(v as usize)
}

/// Append a length-prefixed UTF-8 string.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_uv(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

/// Decode a length-prefixed UTF-8 string.
pub fn get_str(bytes: &[u8], pos: &mut usize) -> Result<String, StoreError> {
    borrow_str(bytes, pos).map(str::to_string)
}

/// [`get_str`] without the allocation: the same bounds and UTF-8 checks,
/// the string borrowed from `bytes`.
pub fn borrow_str<'a>(bytes: &'a [u8], pos: &mut usize) -> Result<&'a str, StoreError> {
    let len = get_count(bytes, pos, bytes.len())?;
    let end = pos
        .checked_add(len)
        .filter(|&e| e <= bytes.len())
        .ok_or(StoreError::Truncated)?;
    let s = std::str::from_utf8(&bytes[*pos..end])
        .map_err(|_| StoreError::Corrupt("string is not UTF-8".into()))?;
    *pos = end;
    Ok(s)
}

/// Skip a length-prefixed string without allocating.
pub fn skip_str(bytes: &[u8], pos: &mut usize) -> Result<(), StoreError> {
    let len = get_count(bytes, pos, bytes.len())?;
    let end = pos
        .checked_add(len)
        .filter(|&e| e <= bytes.len())
        .ok_or(StoreError::Truncated)?;
    *pos = end;
    Ok(())
}

/// IEEE 802.3 polynomial, reflected.
const CRC_POLY: u32 = 0xedb8_8320;

/// Slice-by-8 tables: `CRC_TABLES[0]` is the classic byte table, and
/// `CRC_TABLES[k][b]` is the CRC state after byte `b` and `k` zero bytes,
/// so eight input bytes fold into the state with eight independent loads.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (CRC_POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            b += 1;
        }
        k += 1;
    }
    t
}

/// Bytes in one of [`Crc32::update`]'s three independent lanes.
const LANE: usize = 512;

/// `LANE_SHIFT[j][b]` is the CRC state `b << 8j` advanced over [`LANE`]
/// zero bytes. Advancing is linear over GF(2), so a whole state advances
/// with four loads, one per byte.
static LANE_SHIFT: [[u32; 256]; 4] = lane_shift_table();

const fn lane_shift_table() -> [[u32; 256]; 4] {
    // Each of the 32 single-bit states advanced over LANE zero bytes, one
    // byte-table step per byte…
    let mut bit_shift = [0u32; 32];
    let mut i = 0;
    while i < 32 {
        let mut crc = 1u32 << i;
        let mut n = 0;
        while n < LANE {
            crc = (crc >> 8) ^ CRC_TABLES[0][(crc & 0xff) as usize];
            n += 1;
        }
        bit_shift[i] = crc;
        i += 1;
    }
    // …and every byte value at every position as the XOR of its bits.
    let mut t = [[0u32; 256]; 4];
    let mut j = 0;
    while j < 4 {
        let mut b = 0;
        while b < 256 {
            let mut bit = 0;
            while bit < 8 {
                if (b >> bit) & 1 == 1 {
                    t[j][b] ^= bit_shift[8 * j + bit];
                }
                bit += 1;
            }
            b += 1;
        }
        j += 1;
    }
    t
}

/// `crc` advanced over [`LANE`] zero bytes.
#[inline]
fn shift_lane(crc: u32) -> u32 {
    let t = &LANE_SHIFT;
    t[0][(crc & 0xff) as usize]
        ^ t[1][((crc >> 8) & 0xff) as usize]
        ^ t[2][((crc >> 16) & 0xff) as usize]
        ^ t[3][(crc >> 24) as usize]
}

/// Fold eight bytes into `crc`: eight independent slice-by-8 loads.
#[inline]
fn step8(crc: u32, w: &[u8; 8]) -> u32 {
    let t = &CRC_TABLES;
    let v = u64::from_le_bytes(*w) ^ u64::from(crc);
    let (lo, hi) = (v as u32, (v >> 32) as u32);
    t[7][(lo & 0xff) as usize]
        ^ t[6][((lo >> 8) & 0xff) as usize]
        ^ t[5][((lo >> 16) & 0xff) as usize]
        ^ t[4][(lo >> 24) as usize]
        ^ t[3][(hi & 0xff) as usize]
        ^ t[2][((hi >> 8) & 0xff) as usize]
        ^ t[1][((hi >> 16) & 0xff) as usize]
        ^ t[0][(hi >> 24) as usize]
}

/// Incremental CRC32 (IEEE 802.3, reflected) — the same polynomial and test
/// vectors as `kglink_nn::frame::crc32`, restated here in streaming
/// form so segment writers can hash multi-megabyte sections as they go
/// instead of buffering them. Every block-cache miss and every byte the
/// world writer emits passes through [`Crc32::update`], so it is
/// table-driven, and runs three lanes at once: each 1 536-byte group is
/// three 512-byte slice-by-8 chains with no data dependence between them
/// (the second and third start from state 0), joined by linearity as
/// `shift(shift(a) ^ b) ^ c`, `shift` advancing a state over 512 zero
/// bytes through a 4 KiB table. Shorter input and the tail go eight bytes
/// per step through one chain; the tables are 12 KiB.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    pub fn new() -> Self {
        Crc32 { state: !0u32 }
    }

    pub fn update(&mut self, data: &[u8]) {
        let mut crc = self.state;
        let (groups, tail) = data.as_chunks::<{ 3 * LANE }>();
        for g in groups {
            // Word i of each lane: i, i + 64 and i + 128 of the group.
            let (words, _) = g.as_chunks::<8>();
            let (mut x, mut y, mut z) = (crc, 0, 0);
            for i in 0..LANE / 8 {
                x = step8(x, &words[i]);
                y = step8(y, &words[i + LANE / 8]);
                z = step8(z, &words[i + 2 * LANE / 8]);
            }
            crc = shift_lane(shift_lane(x) ^ y) ^ z;
        }
        let (words, bytes) = tail.as_chunks::<8>();
        for w in words {
            crc = step8(crc, w);
        }
        for &byte in bytes {
            crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ u32::from(byte)) & 0xff) as usize];
        }
        self.state = crc;
    }

    pub fn finish(&self) -> u32 {
        !self.state
    }
}

/// One-shot CRC32 of a slice.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(data);
    c.finish()
}

/// The `len` bytes at `off` of `file`, in a buffer of exactly that
/// capacity, once their CRC32 equals `crc`.
pub(crate) fn read_verified(
    file: &File,
    off: u64,
    len: usize,
    crc: u32,
) -> Result<Vec<u8>, StoreError> {
    let mut buf = vec![0u8; len];
    file.read_exact_at(&mut buf, off)?;
    let found = crc32(&buf);
    if found != crc {
        return Err(StoreError::CrcMismatch {
            expected: crc,
            found,
        });
    }
    Ok(buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varints_round_trip() {
        let mut buf = Vec::new();
        let values = [
            0u64,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX,
        ];
        for &v in &values {
            put_uv(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(get_uv(&buf, &mut pos).unwrap(), v);
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn truncated_and_overlong_varints_fail_typed() {
        let mut pos = 0;
        assert_eq!(get_uv(&[0x80], &mut pos), Err(StoreError::Truncated));
        let overlong = [0x80u8; 11];
        let mut pos = 0;
        assert!(matches!(
            get_uv(&overlong, &mut pos),
            Err(StoreError::Corrupt(_))
        ));
        // 10-byte varint whose last byte sets bits beyond 64 overflows.
        let mut too_big = vec![0xffu8; 9];
        too_big.push(0x02);
        let mut pos = 0;
        assert!(matches!(
            get_uv(&too_big, &mut pos),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn strings_round_trip_and_reject_bad_bytes() {
        let mut buf = Vec::new();
        put_str(&mut buf, "Peter Steele");
        put_str(&mut buf, "");
        let mut pos = 0;
        assert_eq!(get_str(&buf, &mut pos).unwrap(), "Peter Steele");
        assert_eq!(get_str(&buf, &mut pos).unwrap(), "");
        assert_eq!(pos, buf.len());
        // Declared length running past the buffer is truncation.
        let mut bad = Vec::new();
        put_uv(&mut bad, 100);
        bad.extend_from_slice(b"short");
        let mut pos = 0;
        assert!(get_str(&bad, &mut pos).is_err());
        // Invalid UTF-8 is corruption, not a panic.
        let mut bad = Vec::new();
        put_uv(&mut bad, 2);
        bad.extend_from_slice(&[0xff, 0xfe]);
        let mut pos = 0;
        assert!(matches!(
            get_str(&bad, &mut pos),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn skip_matches_get() {
        let mut buf = Vec::new();
        put_str(&mut buf, "alpha");
        put_uv(&mut buf, 7);
        let mut p1 = 0;
        let mut p2 = 0;
        get_str(&buf, &mut p1).unwrap();
        skip_str(&buf, &mut p2).unwrap();
        assert_eq!(p1, p2);
    }

    /// The bit-at-a-time loop the tables were derived from — kept as the
    /// reference the table path is checked against.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        crc32_bitwise_from(!0u32, data)
    }

    /// [`crc32_bitwise`] resumed from register state `crc`.
    fn crc32_bitwise_from(mut crc: u32, data: &[u8]) -> u32 {
        for &byte in data {
            crc ^= u32::from(byte);
            for _ in 0..8 {
                crc = (crc >> 1) ^ (CRC_POLY & (crc & 1).wrapping_neg());
            }
        }
        !crc
    }

    #[test]
    fn crc_matches_the_checkpoint_implementation() {
        // Standard IEEE test vector, same as checkpoint.rs pins.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
        // Streaming in pieces equals one-shot.
        let mut c = Crc32::new();
        c.update(b"1234");
        c.update(b"56789");
        assert_eq!(c.finish(), 0xcbf4_3926);
    }

    #[test]
    fn table_crc_equals_the_bitwise_reference_at_every_length_and_split() {
        // splitmix64 bytes: every length 0..=4099 crosses the 8-byte stride
        // at every alignment of head and tail.
        let buf: Vec<u8> = (1..=4099u64)
            .map(|i| {
                let z = i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
                let z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                ((z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb) >> 56) as u8
            })
            .collect();
        for len in 0..=buf.len() {
            let want = crc32_bitwise(&buf[..len]);
            assert_eq!(crc32(&buf[..len]), want, "one-shot, len {len}");
            // Streaming over an arbitrary three-way split equals one-shot.
            let a = len * 3 / 7;
            let b = a + (len - a) * 5 / 11;
            let mut c = Crc32::new();
            c.update(&buf[..a]);
            c.update(&buf[a..b]);
            c.update(&buf[b..len]);
            assert_eq!(c.finish(), want, "split {a}/{b}, len {len}");
        }
    }

    #[test]
    fn lane_crc_equals_the_bitwise_reference_over_whole_blocks_and_random_splits() {
        // 16 KiB: ten full lane groups and a tail, the size of a real
        // entity block. The reference state is carried byte by byte, so
        // every prefix length is checked against it.
        let mut seed = 0x5eed_u64;
        let mut next = move || {
            seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (seed ^ (seed >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let buf: Vec<u8> = (0..16_384).map(|_| next() as u8).collect();
        let mut reference = Vec::with_capacity(buf.len() + 1);
        reference.push(crc32_bitwise(&[]));
        for len in 1..=buf.len() {
            let prev = !reference[len - 1];
            reference.push(crc32_bitwise_from(prev, &buf[len - 1..len]));
        }
        for (len, &want) in reference.iter().enumerate() {
            assert_eq!(crc32(&buf[..len]), want, "one-shot, len {len}");
            if len % 5 != 0 {
                continue;
            }
            // Two to seven random cuts: chunks that start and end inside
            // lane groups, span several, or are empty.
            let mut cuts: Vec<usize> = (0..2 + next() % 6)
                .map(|_| (next() % (len as u64 + 1)) as usize)
                .collect();
            cuts.push(len);
            cuts.sort_unstable();
            let (mut c, mut at) = (Crc32::new(), 0);
            for &cut in &cuts {
                c.update(&buf[at..cut]);
                at = cut;
            }
            assert_eq!(c.finish(), want, "cuts {cuts:?}, len {len}");
        }
    }

    #[test]
    fn lane_shift_is_512_zero_bytes_bit_by_bit() {
        for (j, row) in LANE_SHIFT.iter().enumerate() {
            for (b, &entry) in row.iter().enumerate() {
                let mut crc = (b as u32) << (8 * j);
                for _ in 0..LANE * 8 {
                    crc = (crc >> 1) ^ (CRC_POLY & (crc & 1).wrapping_neg());
                }
                assert_eq!(entry, crc, "byte position {j}, value {b}");
            }
        }
    }

    #[test]
    fn count_guard_bounds_allocations() {
        let mut buf = Vec::new();
        put_uv(&mut buf, 1_000_000);
        let mut pos = 0;
        assert!(matches!(
            get_count(&buf, &mut pos, 1024),
            Err(StoreError::Corrupt(_))
        ));
    }
}
