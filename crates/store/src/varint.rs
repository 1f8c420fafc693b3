//! LEB128 variable-length integers and length-prefixed strings.
//!
//! Posting lists and entity records are dominated by small integers (doc-id
//! gaps, term frequencies, edge targets near their source), so the store
//! encodes every integer as a little-endian base-128 varint: 7 payload bits
//! per byte, high bit = continuation. Decoding is bounds-checked and returns
//! typed [`StoreError`]s — corrupt bytes must never panic a reader.

use crate::error::StoreError;

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
        return Err(StoreError::Corrupt(format!("count {v} exceeds bound {limit}")));
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

/// Incremental CRC32 (IEEE 802.3, reflected) — the same polynomial and test
/// vectors as `kglink_nn::checkpoint::crc32`, restated here in streaming
/// form so segment writers can hash multi-megabyte sections as they go
/// instead of buffering them. Every block-cache miss and every byte the
/// world writer emits passes through [`Crc32::update`], so it is
/// table-driven (eight bytes per step); the tables are 8 KiB.
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
        let t = &CRC_TABLES;
        let mut crc = self.state;
        let mut words = data.chunks_exact(8);
        for w in &mut words {
            let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
            crc = t[7][(lo & 0xff) as usize]
                ^ t[6][((lo >> 8) & 0xff) as usize]
                ^ t[5][((lo >> 16) & 0xff) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xff) as usize]
                ^ t[2][((hi >> 8) & 0xff) as usize]
                ^ t[1][((hi >> 16) & 0xff) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &byte in words.remainder() {
            crc = (crc >> 8) ^ t[0][((crc ^ u32::from(byte)) & 0xff) as usize];
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varints_round_trip() {
        let mut buf = Vec::new();
        let values = [0u64, 1, 127, 128, 300, 16_383, 16_384, u32::MAX as u64, u64::MAX];
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
        assert!(matches!(get_uv(&overlong, &mut pos), Err(StoreError::Corrupt(_))));
        // 10-byte varint whose last byte sets bits beyond 64 overflows.
        let mut too_big = vec![0xffu8; 9];
        too_big.push(0x02);
        let mut pos = 0;
        assert!(matches!(get_uv(&too_big, &mut pos), Err(StoreError::Corrupt(_))));
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
        assert!(matches!(get_str(&bad, &mut pos), Err(StoreError::Corrupt(_))));
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
        let mut crc = !0u32;
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
