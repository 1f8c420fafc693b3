//! A byte-budgeted cache of decoded segment data.
//!
//! Disk reads come in blocks (entity-shard data blocks, BM25 posting
//! lists); the hot set is far smaller than the segment files, and the whole
//! point of the store is that the *cold* set never has to be resident. The
//! cache reuses [`kglink_search::Lru`] for O(1) recency bookkeeping but
//! bounds **bytes, not entries** — a single giant posting list must not be
//! able to mean "128 MiB cached" just because the entry count allows it.
//! Every entry is charged its payload **plus** [`ENTRY_OVERHEAD_BYTES`], so
//! the budget also holds when the values are small.
//!
//! Keys are `(file, block)` ordinal pairs assigned by the owner (shard
//! index + block index for entity segments; a reserved file id + term
//! ordinal for posting lists). Values are `Arc<Vec<u8>>` so a hit hands out
//! a cheap clone and eviction cannot invalidate data a reader is still
//! decoding.
//!
//! The lock is never held across a disk read: `get_or_try_load` drops the
//! shard lock, runs the loader, then re-locks to insert. Two threads may
//! race to load the same block; both loads are correct (segments are
//! immutable once published) and the second insert simply replaces the
//! first, so the race never yields wrong bytes. It is not cheap, though:
//! both threads read, CRC and count a miss. When a cold table's one-hop
//! batch runs on two workers, traced `cold_exact` runs measured the graph
//! cache's hit rate falling from 0.796 to 0.710–0.731. One loader per
//! missing block is ROADMAP item 15.

use crate::error::StoreError;
use kglink_search::Lru;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Cache key: `(file ordinal, block ordinal)` as assigned by the owner.
pub type BlockKey = (u32, u32);

/// What one entry costs beyond its payload, charged against the budget:
/// the LRU slab node (32 B, in a doubling `Vec`), its map slot (17 B a
/// bucket, 19–39 B an entry at the map's load factors), the `Arc<Vec<_>>`
/// allocation (40 B + header) and the payload allocation's header and
/// rounding — 107 to 174 B by growth phase. A fixed figure in that range.
pub const ENTRY_OVERHEAD_BYTES: usize = 144;

#[derive(Debug)]
struct Shard {
    lru: Lru<BlockKey, Arc<Vec<u8>>>,
    /// Bytes this shard's entries are charged for.
    bytes: usize,
}

/// Point-in-time counters of a [`BlockCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockCacheStats {
    /// Lookups answered without touching the loader.
    pub hits: u64,
    /// Lookups that ran the loader.
    pub misses: u64,
    /// Entries evicted to stay under the byte budget.
    pub evictions: u64,
    /// Bytes charged across all shards right now (payload plus
    /// [`ENTRY_OVERHEAD_BYTES`] an entry).
    pub resident_bytes: usize,
}

/// A sharded, byte-budgeted LRU over immutable blocks of bytes.
#[derive(Debug)]
pub struct BlockCache {
    shards: Vec<Mutex<Shard>>,
    /// Per-shard byte budget (total budget / shard count).
    shard_budget: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

fn charge(value: &[u8]) -> usize {
    ENTRY_OVERHEAD_BYTES + value.len()
}

impl BlockCache {
    /// A cache charged at most `budget_bytes` across `shards` independently
    /// locked shards. An entry that alone exceeds a shard's budget is
    /// served but never kept, so `resident_bytes <= budget_bytes` always.
    pub fn new(budget_bytes: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let shard_budget = (budget_bytes / shards).max(1);
        // Every entry is charged at least the overhead, so the byte budget
        // binds before this entry count can.
        let per_shard_entries = (shard_budget / ENTRY_OVERHEAD_BYTES).max(1);
        BlockCache {
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(Shard {
                        lru: Lru::new(per_shard_entries),
                        bytes: 0,
                    })
                })
                .collect(),
            shard_budget,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: BlockKey) -> MutexGuard<'_, Shard> {
        // Cheap deterministic spread; keys are small dense ordinals, so a
        // multiplicative mix avoids putting all of one file in one shard.
        let h = (key.0 as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (key.1 as u64);
        self.shards[(h % self.shards.len() as u64) as usize]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// The value cached for `key`, counted as a hit; `None` counts nothing.
    pub fn get(&self, key: BlockKey) -> Option<Arc<Vec<u8>>> {
        let value = self.shard(key).lru.get(&key).map(Arc::clone)?;
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(value)
    }

    /// Cache `value` under `key`, evicting least-recent entries until the
    /// shard is back under its budget.
    pub fn insert(&self, key: BlockKey, value: Arc<Vec<u8>>) {
        if charge(&value) > self.shard_budget {
            return;
        }
        let mut shard = self.shard(key);
        let mut evicted = 0u64;
        // A racing loader may have inserted while we read; replacing is
        // harmless (immutable data) but the byte accounting must see it.
        if let Some(old) = shard.lru.peek(&key) {
            shard.bytes -= charge(old);
        }
        shard.bytes += charge(&value);
        if let Some((_, old)) = shard.lru.put(key, value) {
            shard.bytes -= charge(&old);
            evicted += 1;
        }
        while shard.bytes > self.shard_budget {
            let Some((_, old)) = shard.lru.pop_lru() else {
                break;
            };
            shard.bytes -= charge(&old);
            evicted += 1;
        }
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
    }

    /// Fetch the value for `key`, running `load` on a miss. The shard lock
    /// is not held while `load` runs, and a failed load caches nothing.
    pub fn get_or_try_load<F>(&self, key: BlockKey, load: F) -> Result<Arc<Vec<u8>>, StoreError>
    where
        F: FnOnce() -> Result<Vec<u8>, StoreError>,
    {
        if let Some(value) = self.get(key) {
            return Ok(value);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let value = Arc::new(load()?);
        self.insert(key, Arc::clone(&value));
        Ok(value)
    }

    /// Current counters across all shards.
    pub fn stats(&self) -> BlockCacheStats {
        let resident = self
            .shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(PoisonError::into_inner).bytes)
            .sum();
        BlockCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            resident_bytes: resident,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_miss_returns_same_bytes() {
        let cache = BlockCache::new(1 << 20, 4);
        let a = cache
            .get_or_try_load((0, 1), || Ok(vec![1u8, 2, 3]))
            .unwrap();
        let b = cache
            .get_or_try_load((0, 1), || panic!("must not reload a cached block"))
            .unwrap();
        assert_eq!(a, b);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!(s.resident_bytes, ENTRY_OVERHEAD_BYTES + 3);
    }

    #[test]
    fn loader_errors_pass_through_and_are_not_cached() {
        let cache = BlockCache::new(1 << 20, 1);
        let err = cache
            .get_or_try_load((7, 7), || Err(StoreError::Truncated))
            .unwrap_err();
        assert_eq!(err, StoreError::Truncated);
        // The failed load left nothing behind; a retry runs the loader again.
        let ok = cache.get_or_try_load((7, 7), || Ok(vec![9u8])).unwrap();
        assert_eq!(*ok, vec![9]);
    }

    #[test]
    fn byte_budget_evicts_least_recent() {
        // One shard with room for two 40-byte blocks and their overhead:
        // the third insert must evict the least recently used first block.
        let budget = 2 * (ENTRY_OVERHEAD_BYTES + 40) + 20;
        let cache = BlockCache::new(budget, 1);
        cache.get_or_try_load((0, 0), || Ok(vec![0u8; 40])).unwrap();
        cache.get_or_try_load((0, 1), || Ok(vec![1u8; 40])).unwrap();
        cache.get_or_try_load((0, 2), || Ok(vec![2u8; 40])).unwrap();
        let s = cache.stats();
        assert!(
            s.resident_bytes <= budget,
            "resident {} over budget",
            s.resident_bytes
        );
        assert_eq!(s.evictions, 1);
        // Block 2 (most recent) is still a hit.
        cache
            .get_or_try_load((0, 2), || panic!("block 2 should be resident"))
            .unwrap();
        // Block 0 was evicted: the loader runs again.
        let mut reloaded = false;
        cache
            .get_or_try_load((0, 0), || {
                reloaded = true;
                Ok(vec![0u8; 40])
            })
            .unwrap();
        assert!(reloaded);
    }

    #[test]
    fn small_values_are_bounded_by_bytes_not_by_an_entry_cap() {
        // 24-byte values, e.g. short posting lists: the overhead is most
        // of each entry's charge, and the cache must hold budget / charge
        // of them, no fewer, no more.
        let per_entry = ENTRY_OVERHEAD_BYTES + 24;
        let cache = BlockCache::new(1000 * per_entry, 1);
        for i in 0..3000 {
            cache.insert((0, i), Arc::new(vec![i as u8; 24]));
        }
        let s = cache.stats();
        assert_eq!(s.resident_bytes, 1000 * per_entry);
        assert_eq!(s.evictions, 2000);
        assert!(cache.get((0, 2999)).is_some() && cache.get((0, 2000)).is_some());
        assert!(cache.get((0, 1999)).is_none());
    }

    #[test]
    fn oversized_value_is_served_but_never_resident() {
        let cache = BlockCache::new(ENTRY_OVERHEAD_BYTES + 64, 1);
        cache.get_or_try_load((0, 1), || Ok(vec![1u8; 32])).unwrap();
        let big = cache
            .get_or_try_load((0, 0), || Ok(vec![7u8; 500]))
            .unwrap();
        assert_eq!(big.len(), 500);
        let s = cache.stats();
        assert_eq!(
            (s.resident_bytes, s.evictions),
            (ENTRY_OVERHEAD_BYTES + 32, 0)
        );
        // It displaced nothing: the small block is still a hit.
        cache
            .get_or_try_load((0, 1), || panic!("the small block should be resident"))
            .unwrap();
    }
}
