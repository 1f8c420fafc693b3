//! Sharded LRU caching for KG entity retrieval.
//!
//! The paper's entity callback is the dominant per-column cost of Part 1,
//! and real table corpora repeat cell mentions heavily (the same city,
//! person, or team appears in thousands of tables). [`CachingBackend`]
//! memoizes successful [`KgBackend`] retrievals behind a sharded
//! [`Lru`] keyed by the *normalized* mention text plus `top_k`, so both
//! the serving layer (`kglink-serve`) and training-time preprocessing
//! reuse retrievals instead of re-running BM25.
//!
//! Correctness argument: the cache key normalizes a query with the same
//! analyzer both indexes apply ([`for_each_token`]), so two queries that
//! normalize equal are guaranteed to produce identical BM25 results —
//! a cache hit returns bit-for-bit what the miss path would have computed.
//! Errors are never cached (a transient fault must not poison the key), so
//! over a [`FaultyBackend`](crate::resilience::FaultyBackend) the cache
//! holds only what the inner backend actually served.

use crate::backend::{Deadline, KgBackend, RetrievalError, SearchOutcome};
use crate::tokenize::for_each_token;
use kglink_kg::EntityId;
use kglink_obs::Tracer;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

const NIL: usize = usize::MAX;

/// A fixed-capacity least-recently-used map.
///
/// Classic slab + intrusive doubly-linked list: every operation is O(1).
/// `get` and `put` both count as a *use*; `peek` does not. Eviction removes
/// the least recently used entry and returns it to the caller.
#[derive(Debug)]
pub struct Lru<K, V> {
    map: HashMap<K, usize>,
    slab: Vec<Option<LruNode<K, V>>>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    capacity: usize,
}

#[derive(Debug)]
struct LruNode<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

impl<K: Eq + Hash + Clone, V> Lru<K, V> {
    /// An empty cache holding at most `capacity` entries.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "LRU capacity must be positive");
        Lru {
            map: HashMap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    #[expect(
        clippy::expect_used,
        reason = "structural slab invariant: every index stored in `map` or the recency list points at an occupied slot; a None here is a linked-list bug, not a condition"
    )]
    fn node(&self, idx: usize) -> &LruNode<K, V> {
        self.slab[idx].as_ref().expect("live node")
    }

    #[expect(clippy::expect_used, reason = "same slab invariant as `node`")]
    fn node_mut(&mut self, idx: usize) -> &mut LruNode<K, V> {
        self.slab[idx].as_mut().expect("live node")
    }

    /// Unlink `idx` from the recency list.
    fn detach(&mut self, idx: usize) {
        let (prev, next) = {
            let n = self.node(idx);
            (n.prev, n.next)
        };
        if prev != NIL {
            self.node_mut(prev).next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.node_mut(next).prev = prev;
        } else {
            self.tail = prev;
        }
    }

    /// Link `idx` as the most recently used entry.
    fn attach_front(&mut self, idx: usize) {
        let old_head = self.head;
        {
            let n = self.node_mut(idx);
            n.prev = NIL;
            n.next = old_head;
        }
        if old_head != NIL {
            self.node_mut(old_head).prev = idx;
        } else {
            self.tail = idx;
        }
        self.head = idx;
    }

    /// Look up `key` and mark it most recently used.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let idx = *self.map.get(key)?;
        self.detach(idx);
        self.attach_front(idx);
        Some(&self.node(idx).value)
    }

    /// Look up `key` without touching recency.
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.map.get(key).map(|&idx| &self.node(idx).value)
    }

    /// The key that would be evicted next (least recently used).
    pub fn lru_key(&self) -> Option<&K> {
        (self.tail != NIL).then(|| &self.node(self.tail).key)
    }

    /// Remove and return the least recently used entry, or `None` when the
    /// cache is empty. Weight-bounded caches (the store's block cache keeps
    /// *bytes*, not entries, under a budget) evict through this in a loop
    /// after each insert.
    pub fn pop_lru(&mut self) -> Option<(K, V)> {
        if self.tail == NIL {
            return None;
        }
        let tail = self.tail;
        self.detach(tail);
        #[expect(
            clippy::expect_used,
            reason = "same slab invariant as `node`: a non-NIL tail always points at an occupied slot"
        )]
        let node = self.slab[tail].take().expect("live tail");
        self.map.remove(&node.key);
        self.free.push(tail);
        Some((node.key, node.value))
    }

    /// Insert or replace `key`, marking it most recently used. Returns the
    /// evicted `(key, value)` when the insert pushed out the LRU entry.
    pub fn put(&mut self, key: K, value: V) -> Option<(K, V)> {
        if let Some(&idx) = self.map.get(&key) {
            self.node_mut(idx).value = value;
            self.detach(idx);
            self.attach_front(idx);
            return None;
        }
        let evicted = if self.map.len() == self.capacity {
            let tail = self.tail;
            self.detach(tail);
            #[expect(
                clippy::expect_used,
                reason = "`map` is non-empty here, so the list has a live tail; same structural invariant as `node`"
            )]
            let node = self.slab[tail].take().expect("live tail");
            self.map.remove(&node.key);
            self.free.push(tail);
            Some((node.key, node.value))
        } else {
            None
        };
        let node = LruNode {
            key: key.clone(),
            value,
            prev: NIL,
            next: NIL,
        };
        let idx = match self.free.pop() {
            Some(i) => {
                self.slab[i] = Some(node);
                i
            }
            None => {
                self.slab.push(Some(node));
                self.slab.len() - 1
            }
        };
        self.map.insert(key, idx);
        self.attach_front(idx);
        evicted
    }
}

/// Tuning for a [`CachingBackend`].
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Total entries across all shards.
    pub capacity: usize,
    /// Number of independently locked shards (≥ 1). More shards means less
    /// lock contention between concurrent workers.
    pub shards: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            capacity: 4096,
            shards: 8,
        }
    }
}

/// Point-in-time counters of a [`CachingBackend`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that went to the inner backend.
    pub misses: u64,
    /// Successful retrievals stored.
    pub insertions: u64,
    /// Entries pushed out by capacity pressure.
    pub evictions: u64,
    /// Live entries across all shards.
    pub entries: usize,
    /// Configured total capacity.
    pub capacity: usize,
}

impl CacheStats {
    /// Total lookups (always `hits + misses`).
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups served from the cache, in [0, 1].
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups() as f64
        }
    }
}

/// Normalize a mention with the index analyzer: two mentions that normalize
/// equal are guaranteed identical BM25 results, which makes them safe to
/// share a cache entry. The result is the mention's tokens joined by one
/// space, written straight into the key without a `String` per token.
pub fn normalize_mention(query: &str) -> String {
    let mut key = String::with_capacity(query.len());
    for_each_token(query, &mut String::new(), |t| {
        if !key.is_empty() {
            key.push(' ');
        }
        key.push_str(t);
    });
    key
}

type CacheKey = (String, usize);
type Shard = Mutex<Lru<CacheKey, CachedEntry>>;

#[derive(Debug, Clone)]
struct CachedEntry {
    hits: Vec<(EntityId, f32)>,
    truncated: bool,
}

/// A [`KgBackend`] decorator that memoizes successful retrievals in a
/// sharded LRU keyed by `(normalized mention, top_k)`.
///
/// * A hit returns the stored hit list without calling the inner backend.
/// * A miss delegates to the inner backend under the caller's deadline and
///   stores only successful outcomes — errors pass through uncached.
/// * Shards are locked independently and never held across the inner call,
///   so concurrent workers only contend on the key they share.
#[derive(Debug)]
pub struct CachingBackend<B> {
    inner: B,
    shards: Vec<Shard>,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
    capacity: usize,
    tracer: Tracer,
}

impl<B: KgBackend> CachingBackend<B> {
    pub fn new(inner: B, config: CacheConfig) -> Self {
        let shards = config.shards.max(1);
        let per_shard = config.capacity.div_ceil(shards).max(1);
        CachingBackend {
            inner,
            shards: (0..shards)
                .map(|_| Mutex::new(Lru::new(per_shard)))
                .collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            capacity: per_shard * shards,
            tracer: Tracer::disabled(),
        }
    }

    /// Attach a tracer: every lookup increments the `cache.hit` or
    /// `cache.miss` counter (and emits the matching event).
    pub fn with_tracer(mut self, tracer: &Tracer) -> Self {
        self.tracer = tracer.clone();
        self
    }

    pub fn inner(&self) -> &B {
        &self.inner
    }

    fn shard_for(&self, key: &CacheKey) -> &Shard {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    /// Cache-only lookup: answer from a stored entry or return `None`
    /// without ever consulting the inner backend. This is the serving
    /// layer's brownout rung 1 — under overload it keeps serving whatever
    /// the cache already holds (bit-identical to the miss path that
    /// populated it) and lets misses degrade to the no-linkage path
    /// instead of spending backend capacity. Counts as a normal hit or
    /// miss in [`stats`](Self::stats).
    pub fn lookup_cached(&self, query: &str, top_k: usize) -> Option<SearchOutcome> {
        let key = (normalize_mention(query), top_k);
        self.lookup_in(self.shard_for(&key), &key)
    }

    /// The one keyed lookup: clone the stored entry out under the shard
    /// lock, then account the hit or miss with the lock released.
    ///
    /// Shard locks are never held across the inner backend call, so a
    /// panicking backend cannot poison them mid-mutation; any poison came
    /// from a panic elsewhere on a worker's stack, and the LRU is
    /// consistent at every lock release. Recover instead of cascading.
    fn lookup_in(&self, shard: &Shard, key: &CacheKey) -> Option<SearchOutcome> {
        let found = shard
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(key)
            .map(|entry| SearchOutcome {
                hits: entry.hits.clone(),
                truncated: entry.truncated,
            });
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.tracer.incr("cache.hit", 1);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            self.tracer.incr("cache.miss", 1);
        }
        found
    }

    /// Counter snapshot. `entries` walks every shard, so don't call it on a
    /// hot path.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self
                .shards
                .iter()
                .map(|s| s.lock().unwrap_or_else(PoisonError::into_inner).len())
                .sum(),
            capacity: self.capacity,
        }
    }
}

impl<B: KgBackend> KgBackend for CachingBackend<B> {
    fn search_entities(
        &self,
        query: &str,
        top_k: usize,
        deadline: Deadline,
    ) -> Result<SearchOutcome, RetrievalError> {
        let key = (normalize_mention(query), top_k);
        let shard = self.shard_for(&key);
        if let Some(hit) = self.lookup_in(shard, &key) {
            return Ok(hit);
        }
        // The shard lock is *not* held across the inner call: a slow or
        // faulty backend must not serialize unrelated lookups. Two workers
        // racing on the same fresh key both miss; the second insert is a
        // no-op value replacement with an identical result.
        let outcome = self.inner.search_entities(query, top_k, deadline)?;
        let entry = CachedEntry {
            hits: outcome.hits.clone(),
            truncated: outcome.truncated,
        };
        if shard
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .put(key, entry)
            .is_some()
        {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        self.insertions.fetch_add(1, Ordering::Relaxed);
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resilience::{FaultConfig, FaultyBackend};
    use crate::EntitySearcher;
    use kglink_kg::{Entity, KgBuilder, NeSchema};

    fn searcher() -> EntitySearcher {
        let mut b = KgBuilder::new();
        let ty = b.add_type("Musician", None);
        for name in [
            "Peter Steele",
            "Anna Kovacs",
            "Peter Banks",
            "Peter Gabriel",
        ] {
            b.add_instance(Entity::new(name, NeSchema::Person), ty);
        }
        EntitySearcher::build(&b.build())
    }

    #[test]
    fn lru_basic_get_put_evict() {
        let mut lru = Lru::new(2);
        assert!(lru.is_empty());
        assert_eq!(lru.put("a", 1), None);
        assert_eq!(lru.put("b", 2), None);
        assert_eq!(lru.get(&"a"), Some(&1)); // "b" is now LRU
        assert_eq!(lru.lru_key(), Some(&"b"));
        assert_eq!(lru.put("c", 3), Some(("b", 2)));
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.get(&"b"), None);
        assert_eq!(lru.peek(&"a"), Some(&1));
        // Replacing a key touches it but never evicts.
        assert_eq!(lru.put("a", 9), None);
        assert_eq!(lru.get(&"a"), Some(&9));
    }

    #[test]
    fn pop_lru_drains_in_recency_order() {
        let mut lru = Lru::new(3);
        lru.put("a", 1);
        lru.put("b", 2);
        lru.put("c", 3);
        lru.get(&"a"); // order (oldest first): b, c, a
        assert_eq!(lru.pop_lru(), Some(("b", 2)));
        assert_eq!(lru.pop_lru(), Some(("c", 3)));
        assert_eq!(lru.pop_lru(), Some(("a", 1)));
        assert_eq!(lru.pop_lru(), None);
        assert!(lru.is_empty());
        // The slab slots are recycled: inserting after a drain works.
        lru.put("d", 4);
        assert_eq!(lru.get(&"d"), Some(&4));
    }

    #[test]
    fn cache_hit_returns_identical_candidates() {
        let s = searcher();
        let cached = CachingBackend::new(&s, CacheConfig::default());
        let direct = s.search_entities("Peter", 5, Deadline::UNBOUNDED).unwrap();
        let miss = cached
            .search_entities("Peter", 5, Deadline::UNBOUNDED)
            .unwrap();
        let hit = cached
            .search_entities("Peter", 5, Deadline::UNBOUNDED)
            .unwrap();
        assert_eq!(miss.hits, direct.hits);
        assert_eq!(
            hit.hits, direct.hits,
            "hit must be bit-identical to the miss path"
        );
        let stats = cached.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn normalized_mentions_share_an_entry() {
        let s = searcher();
        let cached = CachingBackend::new(&s, CacheConfig::default());
        let a = cached
            .search_entities("Peter Steele", 5, Deadline::UNBOUNDED)
            .unwrap();
        let b = cached
            .search_entities("  PETER   steele ", 5, Deadline::UNBOUNDED)
            .unwrap();
        assert_eq!(a.hits, b.hits);
        let stats = cached.stats();
        assert_eq!(
            (stats.hits, stats.misses),
            (1, 1),
            "case/whitespace variants hit"
        );
        // Different top_k is a different key: the hit list may differ.
        cached
            .search_entities("Peter Steele", 2, Deadline::UNBOUNDED)
            .unwrap();
        assert_eq!(cached.stats().misses, 2);
    }

    #[test]
    fn errors_are_never_cached() {
        let s = searcher();
        // Fails every call until call index 8, then recovers.
        let flaky = FaultyBackend::new(&s, FaultConfig::healthy(3).with_outage(0, 8));
        let cached = CachingBackend::new(&flaky, CacheConfig::default());
        for _ in 0..8 {
            assert!(cached
                .search_entities("Peter", 3, Deadline::UNBOUNDED)
                .is_err());
        }
        assert_eq!(
            cached.stats().entries,
            0,
            "failures must not poison the cache"
        );
        let ok = cached
            .search_entities("Peter", 3, Deadline::UNBOUNDED)
            .expect("backend recovered");
        assert!(!ok.hits.is_empty());
        assert_eq!(cached.stats().entries, 1);
        // Now served from cache even if the backend dies again.
        let hit = cached
            .search_entities("Peter", 3, Deadline::UNBOUNDED)
            .unwrap();
        assert_eq!(hit.hits, ok.hits);
    }

    #[test]
    fn cache_only_lookup_serves_hits_and_never_calls_the_backend() {
        let s = searcher();
        // A backend that is down for good: only pre-warmed keys can work.
        let flaky = FaultyBackend::new(&s, FaultConfig::healthy(3).with_outage(1, u64::MAX));
        let cached = CachingBackend::new(&flaky, CacheConfig::default());
        let warm = cached
            .search_entities("Peter", 3, Deadline::UNBOUNDED)
            .expect("first call precedes the outage");
        let calls_after_warm = flaky.calls();
        // Warm key: served from the cache, identical hits.
        let hit = cached.lookup_cached("  PETER ", 3).expect("warm key");
        assert_eq!(hit.hits, warm.hits);
        // Cold key: a miss, not a backend call — the outage is never seen.
        assert!(cached.lookup_cached("Anna", 3).is_none());
        assert_eq!(
            flaky.calls(),
            calls_after_warm,
            "lookup never hits the backend"
        );
        let stats = cached.stats();
        assert_eq!((stats.hits, stats.misses), (1, 2));
    }

    #[test]
    fn capacity_is_respected_across_shards() {
        let s = searcher();
        let cached = CachingBackend::new(
            &s,
            CacheConfig {
                capacity: 4,
                shards: 2,
            },
        );
        for q in ["a", "b", "c", "d", "e", "f", "g", "h", "i", "j"] {
            let _ = cached.search_entities(q, 3, Deadline::UNBOUNDED);
        }
        let stats = cached.stats();
        assert!(stats.entries <= stats.capacity);
        assert!(stats.evictions > 0);
        assert_eq!(stats.lookups(), 10);
    }
}
