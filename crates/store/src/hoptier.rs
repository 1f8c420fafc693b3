//! The neighbourhood tier: [`DiskGraph::try_one_hop`]'s answers, kept per
//! entity id in flat arrays, in front of the adjacency blocks a miss reads.
//!
//! A one-hop list is a few `u32` ids (3 on average in the benchmark's
//! world), so any per-entry node, map slot or `Arc` would outweigh it. Each
//! of the tier's eight shards instead holds two **generations**, young and
//! old, and each generation is two allocations made once: an
//! open-addressed index (entity id → arena extent, 12 B a slot, linear
//! probing on [`IdHasher`]'s low bits) and one arena of ids holding every
//! list back to back. `resident_bytes` is what those allocations hold, not
//! an estimate per entry, and it never exceeds the budget.
//!
//! A lookup tries the young generation, then the old one; a list found in
//! the old generation is copied forward into the young one. An insert the
//! young generation has no room for *flips*: the old generation is dropped
//! wholesale (its allocations are cleared and reused), and the young one
//! becomes old. There is no recency list and nothing is evicted one entry
//! at a time — a list survives a flip if it was read or written since the
//! previous one.
//!
//! [`DiskGraph::try_one_hop`]: crate::DiskGraph::try_one_hop

use crate::blockcache::BlockCacheStats;
use kglink_kg::{EntityId, IdHasher};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// An id's shard is the top `SHARD_BITS` of its hash.
const SHARD_BITS: u32 = 3;
const SHARDS: usize = 1 << SHARD_BITS;

/// One index entry: the list of `id` is `arena[start..start + len]`.
#[derive(Debug, Clone, Copy)]
struct Slot {
    id: u32,
    start: u32,
    len: u32,
}

const SLOT_BYTES: usize = std::mem::size_of::<Slot>();
const ID_BYTES: usize = std::mem::size_of::<EntityId>();

impl Slot {
    const VACANT: Slot = Slot {
        id: 0,
        start: 0,
        len: u32::MAX,
    };

    fn is_vacant(self) -> bool {
        self.len == u32::MAX
    }
}

/// The shape every generation of one tier shares.
#[derive(Debug, Clone, Copy)]
struct Geometry {
    /// Index slots: a power of two, or 0 when the generation is too small
    /// to hold any list.
    slots: usize,
    /// Lists a generation holds: ⅞ of `slots`, so a probe always ends at a
    /// vacant slot.
    max_lists: usize,
    /// Ids the arena holds.
    arena_ids: usize,
}

impl Geometry {
    /// The index gets the largest power of two of slots that fits in ⅜ of
    /// `bytes`, the arena the rest: at the ⅞ load cap that leaves room for
    /// lists averaging 5.7 ids, nearly twice the measured mean. 128 KiB
    /// makes 4 096 slots (3 584 lists) and 20 480 ids. Offsets are `u32`,
    /// so the arena stops at 2³² ids whatever the budget.
    fn for_bytes(bytes: usize) -> Self {
        let fit = bytes / 8 * 3 / SLOT_BYTES;
        let slots = if fit == 0 { 0 } else { 1 << fit.ilog2() };
        let max_lists = slots * 7 / 8;
        if max_lists == 0 {
            return Geometry {
                slots: 0,
                max_lists: 0,
                arena_ids: 0,
            };
        }
        Geometry {
            slots,
            max_lists,
            arena_ids: ((bytes - slots * SLOT_BYTES) / ID_BYTES).min(u32::MAX as usize),
        }
    }
}

#[derive(Debug, Default)]
struct Generation {
    /// Empty until the generation's first insert, then `slots` long.
    index: Vec<Slot>,
    /// Allocated with the index, `arena_ids` of capacity; never grows.
    arena: Vec<EntityId>,
    /// Occupied slots.
    lists: usize,
    /// Lists read from here and copied into the younger generation.
    moved: usize,
}

impl Generation {
    /// Index of `id`'s slot, or of the vacant slot ending its probe.
    fn probe(&self, id: EntityId, hash: u64) -> usize {
        let mask = self.index.len() - 1;
        let mut i = hash as usize & mask;
        while !self.index[i].is_vacant() && self.index[i].id != id.0 {
            i = (i + 1) & mask;
        }
        i
    }

    fn find(&self, id: EntityId, hash: u64) -> Option<&[EntityId]> {
        if self.index.is_empty() {
            return None;
        }
        let slot = self.index[self.probe(id, hash)];
        if slot.is_vacant() {
            return None;
        }
        let start = slot.start as usize;
        self.arena.get(start..start + slot.len as usize)
    }

    fn has_room(&self, geo: &Geometry, len: usize) -> bool {
        self.lists < geo.max_lists && self.arena.len() + len <= geo.arena_ids
    }

    /// Record `list` as `id`'s; the caller checked [`Self::has_room`]. A
    /// list already here under `id` is superseded, its ids left dead in
    /// the arena until the next clear.
    fn put(&mut self, geo: &Geometry, id: EntityId, hash: u64, list: &[EntityId]) {
        if self.index.is_empty() {
            self.index = vec![Slot::VACANT; geo.slots];
            self.arena = Vec::with_capacity(geo.arena_ids);
        }
        let i = self.probe(id, hash);
        if self.index[i].is_vacant() {
            self.lists += 1;
        }
        self.index[i] = Slot {
            id: id.0,
            start: self.arena.len() as u32,
            len: list.len() as u32,
        };
        self.arena.extend_from_slice(list);
    }

    /// Drop every list, keeping both allocations.
    fn clear(&mut self) {
        self.index.fill(Slot::VACANT);
        self.arena.clear();
        self.lists = 0;
        self.moved = 0;
    }

    /// Bytes allocated (`Vec` allocates exactly the capacity asked for).
    fn bytes(&self) -> usize {
        self.index.capacity() * SLOT_BYTES + self.arena.capacity() * ID_BYTES
    }
}

#[derive(Debug, Default)]
struct Shard {
    young: Generation,
    old: Generation,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl Shard {
    /// Put `list` in the young generation, flipping first if it has no
    /// room. The caller checked that an empty generation holds it.
    fn add(&mut self, geo: &Geometry, id: EntityId, hash: u64, list: &[EntityId]) {
        if !self.young.has_room(geo, list.len()) {
            self.evictions += (self.old.lists - self.old.moved) as u64;
            std::mem::swap(&mut self.young, &mut self.old);
            self.young.clear();
        }
        self.young.put(geo, id, hash, list);
    }
}

/// A byte-budgeted map from entity id to its one-hop list, in two
/// generations per shard (see the module doc).
#[derive(Debug)]
pub(crate) struct HopTier {
    shards: Vec<Mutex<Shard>>,
    geometry: Geometry,
    /// Longest list kept: ⅛ of a shard's bytes, so one hub cannot flush a
    /// shard (always within a generation's arena).
    max_list_ids: usize,
}

impl HopTier {
    /// A tier of eight shards whose two generations each take half of a
    /// shard's `budget_bytes / 8`. A generation too small for a two-slot
    /// index holds nothing and allocates nothing.
    pub(crate) fn new(budget_bytes: usize) -> Self {
        let shard_budget = budget_bytes / SHARDS;
        let geometry = Geometry::for_bytes(shard_budget / 2);
        HopTier {
            shards: (0..SHARDS).map(|_| Mutex::default()).collect(),
            geometry,
            max_list_ids: (shard_budget / 8 / ID_BYTES).min(geometry.arena_ids),
        }
    }

    fn shard(&self, hash: u64) -> MutexGuard<'_, Shard> {
        self.shards[(hash >> (64 - SHARD_BITS)) as usize]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// The list last inserted for `id`, counted as a hit, or `None`,
    /// counted as a miss. A list found in the old generation is copied
    /// forward into the young one.
    pub(crate) fn get(&self, id: EntityId) -> Option<Vec<EntityId>> {
        let hash = IdHasher::hash_id(id);
        let mut guard = self.shard(hash);
        let shard = &mut *guard;
        if let Some(list) = shard.young.find(id, hash) {
            shard.hits += 1;
            return Some(list.to_vec());
        }
        let Some(list) = shard.old.find(id, hash).map(<[EntityId]>::to_vec) else {
            shard.misses += 1;
            return None;
        };
        shard.hits += 1;
        shard.old.moved += 1;
        shard.add(&self.geometry, id, hash, &list);
        Some(list)
    }

    /// Keep `list` as `id`'s answer. A list above ⅛ of a shard's bytes
    /// is not kept and displaces nothing — nor does it retract an earlier
    /// answer for `id`, which the one caller never changes.
    pub(crate) fn insert(&self, id: EntityId, list: &[EntityId]) {
        if self.geometry.max_lists == 0 || list.len() > self.max_list_ids {
            return;
        }
        let hash = IdHasher::hash_id(id);
        self.shard(hash).add(&self.geometry, id, hash, list);
    }

    /// Current counters: `hits` and `misses` of [`Self::get`], lists
    /// dropped by flips, and bytes allocated.
    pub(crate) fn stats(&self) -> BlockCacheStats {
        let mut s = BlockCacheStats::default();
        for shard in &self.shards {
            let shard = shard.lock().unwrap_or_else(PoisonError::into_inner);
            s.hits += shard.hits;
            s.misses += shard.misses;
            s.evictions += shard.evictions;
            s.resident_bytes += shard.young.bytes() + shard.old.bytes();
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    fn ids(v: &[u32]) -> Vec<EntityId> {
        v.iter().copied().map(EntityId).collect()
    }

    /// The first `n` ids at or above `from` that hash to shard 0.
    fn shard0_ids(from: u32, n: usize) -> Vec<EntityId> {
        (from..)
            .map(EntityId)
            .filter(|&id| IdHasher::hash_id(id) >> (64 - SHARD_BITS) == 0)
            .take(n)
            .collect()
    }

    const BUDGETS: [usize; 5] = [0, 2 << 10, 8 << 10, 256 << 10, 2 << 20];

    #[test]
    fn a_full_budget_is_charged_exactly() {
        // The benchmark's 8 MiB graph cache gives this tier 2 MiB: eight
        // shards × two generations × (4 096 slots + 20 480 ids).
        let tier = HopTier::new(2 << 20);
        assert_eq!(
            (
                tier.geometry.slots,
                tier.geometry.max_lists,
                tier.geometry.arena_ids,
                tier.max_list_ids
            ),
            (4096, 3584, 20480, 8192)
        );
        // Two flips in every shard allocate both generations.
        for i in 0..200_000u32 {
            tier.insert(EntityId(i), &ids(&[i, i + 1, i + 2]));
        }
        assert_eq!(tier.stats().resident_bytes, 2 << 20);
    }

    #[test]
    fn a_generation_too_small_for_an_index_holds_and_charges_nothing() {
        // 256 B over 8 shards × 2 generations is 16 B a generation.
        let tier = HopTier::new(256);
        tier.insert(EntityId(1), &[]);
        tier.insert(EntityId(2), &ids(&[3]));
        assert_eq!(tier.get(EntityId(1)), None);
        assert_eq!(tier.get(EntityId(2)), None);
        assert_eq!(tier.stats().resident_bytes, 0);
        // 2 KiB (the transparency tests' tiny tier) is 128 B a generation:
        // a 4-slot index and a 20-id arena, 3 lists of up to 8 ids.
        let tier = HopTier::new(2 << 10);
        assert_eq!(
            (
                tier.geometry.slots,
                tier.geometry.max_lists,
                tier.geometry.arena_ids,
                tier.max_list_ids
            ),
            (4, 3, 20, 8)
        );
    }

    #[test]
    fn an_oversized_list_is_served_never_kept_and_displaces_nothing() {
        // 1 KiB a shard: lists above 128 B (32 ids) are not kept.
        let tier = HopTier::new(8 << 10);
        let max = tier.max_list_ids;
        assert_eq!(max, 32);
        let small = shard0_ids(0, 1)[0];
        tier.insert(small, &ids(&[7]));
        let before = tier.stats();
        let big = shard0_ids(small.0 + 1, 1)[0];
        tier.insert(big, &vec![EntityId(9); max + 1]);
        assert_eq!(tier.get(big), None);
        tier.insert(big, &vec![EntityId(9); max]);
        assert_eq!(tier.get(big).map(|l| l.len()), Some(max));
        let after = tier.stats();
        assert_eq!(after.evictions, before.evictions);
        assert!(after.resident_bytes <= 8 << 10);
        assert_eq!(tier.get(small), Some(ids(&[7])));
    }

    #[test]
    fn a_flip_evicts_exactly_the_old_generation() {
        let tier = HopTier::new(8 << 10);
        let n = tier.geometry.max_lists;
        let all = shard0_ids(0, 2 * n + 1);
        let (first, rest) = all.split_at(n);
        let (second, last) = rest.split_at(n);
        for &id in first {
            tier.insert(id, &[id]);
        }
        assert_eq!(tier.stats().evictions, 0);
        // The first of `second` flips: `first` becomes old, nothing goes.
        for &id in second {
            tier.insert(id, &[id]);
        }
        assert_eq!(tier.stats().evictions, 0);
        // The next flip drops `first`, all of it and nothing else.
        tier.insert(last[0], &[last[0]]);
        let s = tier.stats();
        assert_eq!(s.evictions, n as u64);
        for &id in first {
            assert_eq!(tier.get(id), None, "{id} should be gone");
        }
        for &id in second.iter().chain(last) {
            assert_eq!(tier.get(id), Some(vec![id]));
        }
    }

    #[test]
    fn a_list_read_from_the_old_generation_survives_the_next_flip() {
        let tier = HopTier::new(8 << 10);
        let n = tier.geometry.max_lists;
        let all = shard0_ids(0, 2 * n);
        let (first, rest) = all.split_at(n);
        let (second, third) = rest.split_at(n / 2);
        // The first of `second` flips, so `first` is old.
        for &id in first.iter().chain(second) {
            tier.insert(id, &[id]);
        }
        // Reading one of `first` copies it forward.
        let kept = first[3];
        assert_eq!(tier.get(kept), Some(vec![kept]));
        // `third` fills the young generation, and its last insert flips,
        // dropping `first`.
        for &id in third {
            tier.insert(id, &[id]);
        }
        assert_eq!(tier.get(kept), Some(vec![kept]));
        assert_eq!(tier.get(first[4]), None);
        assert_eq!(
            tier.stats().evictions,
            n as u64 - 1,
            "the copied list was not evicted"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Random inserts and lookups against a map of the last list
        /// inserted per id: a lookup returns exactly that list or `None`,
        /// and the charge stays within the budget after every operation.
        /// Lists stay within the smallest kept size (8 ids at 2 KiB); the
        /// oversized case has its own test.
        #[test]
        fn every_get_is_the_last_insert_or_none(
            budget in 0usize..BUDGETS.len(),
            ops in proptest::collection::vec(
                (0u8..2, 0u32..300, proptest::collection::vec(0u32..1000, 0..9)),
                1..600,
            ),
        ) {
            let budget = BUDGETS[budget];
            let tier = HopTier::new(budget);
            let mut model: HashMap<u32, Vec<EntityId>> = HashMap::new();
            for (op, id, list) in ops {
                if op == 0 {
                    let list = ids(&list);
                    tier.insert(EntityId(id), &list);
                    model.insert(id, list);
                } else if let Some(got) = tier.get(EntityId(id)) {
                    prop_assert_eq!(Some(&got), model.get(&id));
                }
                let s = tier.stats();
                prop_assert!(s.resident_bytes <= budget, "{:?} over {}", s, budget);
            }
        }
    }
}
