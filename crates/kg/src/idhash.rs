//! One fixed hash for [`EntityId`] keys.
//!
//! Entity ids are dense `u32`s chosen by the graph, not by a client, so a
//! keyed SipHash buys no protection on the paths that probe id-keyed maps
//! per candidate (the candidate filter, `kglink-store`'s neighbourhood
//! tier) and costs more than the probe itself. [`IdHasher`] is one
//! multiply and one fold: the product's high bits spread a run of
//! consecutive ids, and folding them into the low half gives tables that
//! index by the low bits the same spread.

use crate::entity::EntityId;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// 2⁶⁴ / φ, odd: Fibonacci hashing's multiplier.
const K: u64 = 0x9e37_79b9_7f4a_7c15;

fn mix(x: u64) -> u64 {
    let h = x.wrapping_mul(K);
    h ^ (h >> 32)
}

/// A [`Hasher`] for maps keyed by [`EntityId`]: deterministic across runs
/// and processes, so use it only where keys are ids, and probe those maps
/// rather than iterate them.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher(u64);

impl IdHasher {
    /// The hash an [`IdMap`] computes for `id`. Its top bits and its low
    /// bits are both well spread, so callers may index with either.
    #[inline]
    pub fn hash_id(id: EntityId) -> u64 {
        mix(u64::from(id.0))
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.0 = mix(self.0 ^ u64::from(n));
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = mix(self.0.rotate_left(8) ^ u64::from(b));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` keyed by entity id under [`IdHasher`].
pub type IdMap<V> = HashMap<EntityId, V, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn a_map_hashes_an_id_as_hash_id_does() {
        let build = BuildHasherDefault::<IdHasher>::default();
        for id in [0, 1, 7, 4096, u32::MAX].map(EntityId) {
            assert_eq!(build.hash_one(id), IdHasher::hash_id(id));
        }
    }

    #[test]
    fn consecutive_ids_spread_over_low_and_high_bits() {
        // 4 096 consecutive ids into 64 buckets by the low bits and by the
        // top bits: every bucket gets its share within a factor of two.
        let (mut low, mut high) = ([0u32; 64], [0u32; 64]);
        for i in 1_000_000..1_004_096 {
            let h = IdHasher::hash_id(EntityId(i));
            low[(h & 63) as usize] += 1;
            high[(h >> 58) as usize] += 1;
        }
        for counts in [low, high] {
            assert!(
                counts.iter().all(|&c| (32..=128).contains(&c)),
                "{counts:?}"
            );
        }
    }
}
