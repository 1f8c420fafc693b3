//! The answer tier: [`DiskGraph`]'s per-entity answers — one-hop lists,
//! labels, schemas and predicate neighbourhoods — kept in flat arrays in
//! front of the blocks a miss reads.
//!
//! An answer is a few words (a one-hop list is 3 ids on average in the
//! benchmark's world, a label ≈ 20 bytes, a schema one word), so any
//! per-entry node, map slot or `Arc` would outweigh it. Each of the tier's
//! eight shards instead holds two **generations**, young and old, and each
//! generation is two allocations: an open-addressed index ((entity id,
//! kind) → arena extent, 12 B a slot, linear probing on [`IdHasher`]'s low
//! bits) and one arena of `u32` words holding every answer back to back.
//! `resident_bytes` is what those allocations hold, not an estimate per
//! entry, and it never exceeds the budget. Both are allocated when the
//! tier is created, at the graph's open, and written as answers arrive: a
//! read never allocates in the tier, and a graph opened after another is
//! dropped on the same thread gets that one's freed memory back from the
//! allocator instead of adding to the process's footprint.
//!
//! Each [`AnswerKind`] has one [`Answer`] with one word form: a one-hop
//! list is its ids; a label is its byte length, then its UTF-8 bytes four
//! to a word; a schema is one word; a predicate neighbourhood is its
//! `(predicate, target)` pairs, two words each, in the order the graph
//! answers them. A read decodes straight from the words it borrows.
//!
//! A lookup tries the young generation, then the old one; an answer found
//! in the old generation is copied forward into the young one. An insert
//! the young generation has no room for *flips*: the old generation is
//! dropped wholesale (its allocations are cleared and reused), and the
//! young one becomes old. There is no recency list and nothing is evicted
//! one entry at a time — an answer survives a flip if it was read or
//! written since the previous one.
//!
//! [`DiskGraph`]: crate::DiskGraph

use crate::blockcache::BlockCacheStats;
use crate::segment::{schema_tag, SCHEMAS};
use kglink_kg::{EntityId, IdHasher, NeSchema, PredicateId};
use std::hash::Hasher;
use std::ops::Range;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// An id's shard is the top `SHARD_BITS` of its key's hash.
const SHARD_BITS: u32 = 3;
const SHARDS: usize = 1 << SHARD_BITS;

/// What a tier entry answers. The kind is part of the key, so one id's
/// answers of two kinds are two entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AnswerKind {
    /// [`DiskGraph::try_one_hop`](crate::DiskGraph::try_one_hop).
    OneHop,
    /// [`DiskGraph::try_label`](crate::DiskGraph::try_label).
    Label,
    /// [`DiskGraph::try_schema`](crate::DiskGraph::try_schema).
    Schema,
    /// [`DiskGraph::try_one_hop_with_predicates`](crate::DiskGraph::try_one_hop_with_predicates).
    Predicates,
}

/// One kind of kept answer: its value type and that value's word form (see
/// the module doc). The implementors are marker types, one a kind.
pub(crate) trait Answer {
    const KIND: AnswerKind;
    type Value;
    /// Words [`Self::write`] appends.
    fn words(value: &Self::Value) -> usize;
    fn write(value: &Self::Value, arena: &mut Vec<u32>);
    /// The value whose [`Self::write`] appended `words`.
    fn read(words: &[u32]) -> Self::Value;
}

/// [`AnswerKind::OneHop`]: the ids.
pub(crate) struct OneHop;
/// [`AnswerKind::Label`]: the byte length, then the bytes four to a word.
pub(crate) struct Label;
/// [`AnswerKind::Schema`]: the schema's tag, with `is_type` in bit 8.
pub(crate) struct Schema;
/// [`AnswerKind::Predicates`]: `(predicate, target)`, two words a pair.
pub(crate) struct Predicates;

impl Answer for OneHop {
    const KIND: AnswerKind = AnswerKind::OneHop;
    type Value = Vec<EntityId>;

    fn words(value: &Self::Value) -> usize {
        value.len()
    }

    fn write(value: &Self::Value, arena: &mut Vec<u32>) {
        arena.extend(value.iter().map(|id| id.0));
    }

    fn read(words: &[u32]) -> Self::Value {
        words.iter().copied().map(EntityId).collect()
    }
}

impl Answer for Label {
    const KIND: AnswerKind = AnswerKind::Label;
    type Value = String;

    fn words(value: &Self::Value) -> usize {
        1 + value.len().div_ceil(4)
    }

    fn write(value: &Self::Value, arena: &mut Vec<u32>) {
        arena.push(value.len() as u32);
        arena.extend(value.as_bytes().chunks(4).map(|chunk| {
            let mut word = [0; 4];
            word[..chunk.len()].copy_from_slice(chunk);
            u32::from_le_bytes(word)
        }));
    }

    fn read(words: &[u32]) -> Self::Value {
        let Some((&len, packed)) = words.split_first() else {
            return String::new();
        };
        let mut bytes = Vec::with_capacity(len as usize);
        bytes.extend(
            packed
                .iter()
                .flat_map(|w| w.to_le_bytes())
                .take(len as usize),
        );
        // The bytes are a `str`'s, so the lossy branch is never taken.
        String::from_utf8(bytes)
            .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
    }
}

impl Answer for Schema {
    const KIND: AnswerKind = AnswerKind::Schema;
    type Value = (NeSchema, bool);

    fn words(_: &Self::Value) -> usize {
        1
    }

    fn write(&(schema, is_type): &Self::Value, arena: &mut Vec<u32>) {
        arena.push(u32::from(schema_tag(schema)) | u32::from(is_type) << 8);
    }

    fn read(words: &[u32]) -> Self::Value {
        let word = words.first().copied().unwrap_or_default();
        (SCHEMAS[(word & 7) as usize], word >> 8 == 1)
    }
}

impl Answer for Predicates {
    const KIND: AnswerKind = AnswerKind::Predicates;
    type Value = Vec<(PredicateId, EntityId)>;

    fn words(value: &Self::Value) -> usize {
        2 * value.len()
    }

    fn write(value: &Self::Value, arena: &mut Vec<u32>) {
        for &(p, target) in value {
            arena.push(u32::from(p.0));
            arena.push(target.0);
        }
    }

    fn read(words: &[u32]) -> Self::Value {
        words
            .chunks_exact(2)
            .map(|pt| (PredicateId(pt[0] as u16), EntityId(pt[1])))
            .collect()
    }
}

/// Where a slot's kind starts in its `tag`; the bits below are its length.
const KIND_SHIFT: u32 = 30;
const LEN_MASK: u32 = (1 << KIND_SHIFT) - 1;
/// Longest answer a slot describes: below `LEN_MASK`, so no kept answer's
/// tag is the all-ones of [`Slot::VACANT`].
const MAX_WORDS: usize = LEN_MASK as usize - 1;

/// One index entry: the answer of kind `tag >> KIND_SHIFT` for `id` is
/// `arena[start..start + (tag & LEN_MASK)]`.
#[derive(Debug, Clone, Copy)]
struct Slot {
    id: u32,
    start: u32,
    tag: u32,
}

const SLOT_BYTES: usize = std::mem::size_of::<Slot>();
const WORD_BYTES: usize = std::mem::size_of::<u32>();

impl Slot {
    const VACANT: Slot = Slot {
        id: 0,
        start: 0,
        tag: u32::MAX,
    };

    fn is_vacant(self) -> bool {
        self.tag == u32::MAX
    }

    fn kind(self) -> usize {
        (self.tag >> KIND_SHIFT) as usize
    }

    fn words(self) -> Range<usize> {
        let start = self.start as usize;
        start..start + (self.tag & LEN_MASK) as usize
    }
}

/// An (entity, kind) key and its hash.
#[derive(Debug, Clone, Copy)]
struct Key {
    id: u32,
    kind: usize,
    hash: u64,
}

impl Key {
    fn new(id: EntityId, kind: AnswerKind) -> Self {
        let mut h = IdHasher::default();
        h.write_u32(id.0);
        h.write_u32(kind as u32);
        Key {
            id: id.0,
            kind: kind as usize,
            hash: h.finish(),
        }
    }
}

/// The shape every generation of one tier shares.
#[derive(Debug, Clone, Copy)]
struct Geometry {
    /// Index slots: a power of two, or 0 when the generation is too small
    /// to hold any answer.
    slots: usize,
    /// Answers a generation holds: ⅞ of `slots`, so a probe always ends at
    /// a vacant slot.
    max_entries: usize,
    /// Words the arena holds.
    arena_words: usize,
}

impl Geometry {
    /// The index gets the largest power of two of slots that fits in ⅜ of
    /// `bytes`, the arena the rest: at the ⅞ load cap that leaves room for
    /// answers averaging 5.7 words. 128 KiB makes 4 096 slots (3 584
    /// answers) and 20 480 words. Offsets are `u32`, so the arena stops at
    /// 2³² words whatever the budget.
    fn for_bytes(bytes: usize) -> Self {
        let fit = bytes / 8 * 3 / SLOT_BYTES;
        let slots = if fit == 0 { 0 } else { 1 << fit.ilog2() };
        let max_entries = slots * 7 / 8;
        if max_entries == 0 {
            return Geometry {
                slots: 0,
                max_entries: 0,
                arena_words: 0,
            };
        }
        Geometry {
            slots,
            max_entries,
            arena_words: ((bytes - slots * SLOT_BYTES) / WORD_BYTES).min(u32::MAX as usize),
        }
    }
}

#[derive(Debug)]
struct Generation {
    /// `slots` of capacity from the start; empty until the generation's
    /// first entry, then `slots` long.
    index: Vec<Slot>,
    /// `arena_words` of capacity from the start; never grows.
    arena: Vec<u32>,
    /// Occupied slots.
    entries: usize,
    /// Answers read from here and copied into the younger generation.
    moved: usize,
}

impl Generation {
    /// Both allocations, whole, with nothing written to them yet.
    fn new(geo: &Geometry) -> Self {
        Generation {
            index: Vec::with_capacity(geo.slots),
            arena: Vec::with_capacity(geo.arena_words),
            entries: 0,
            moved: 0,
        }
    }

    /// Index of `key`'s slot, or of the vacant slot ending its probe.
    fn probe(&self, key: Key) -> usize {
        let mask = self.index.len() - 1;
        let mut i = key.hash as usize & mask;
        loop {
            let slot = self.index[i];
            if slot.is_vacant() || (slot.id == key.id && slot.kind() == key.kind) {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    /// The arena extent of `key`'s answer.
    fn locate(&self, key: Key) -> Option<Range<usize>> {
        if self.index.is_empty() {
            return None;
        }
        let slot = self.index[self.probe(key)];
        let words = slot.words();
        (!slot.is_vacant() && words.end <= self.arena.len()).then_some(words)
    }

    fn has_room(&self, geo: &Geometry, words: usize) -> bool {
        self.entries < geo.max_entries && self.arena.len() + words <= geo.arena_words
    }

    /// Lay out the index in its allocation, if this is the generation's
    /// first entry.
    fn ready(&mut self, geo: &Geometry) {
        if self.index.is_empty() {
            self.index.resize(geo.slots, Slot::VACANT);
        }
    }

    /// Point `key`'s slot at the words appended since `start`. An answer
    /// already here under `key` is superseded, its words left dead in the
    /// arena until the next clear.
    fn link(&mut self, key: Key, start: usize) {
        let i = self.probe(key);
        if self.index[i].is_vacant() {
            self.entries += 1;
        }
        self.index[i] = Slot {
            id: key.id,
            start: start as u32,
            tag: (key.kind as u32) << KIND_SHIFT | (self.arena.len() - start) as u32,
        };
    }

    /// Drop every answer, keeping both allocations.
    fn clear(&mut self) {
        self.index.fill(Slot::VACANT);
        self.arena.clear();
        self.entries = 0;
        self.moved = 0;
    }

    /// Bytes allocated (`Vec` allocates exactly the capacity asked for).
    fn bytes(&self) -> usize {
        self.index.capacity() * SLOT_BYTES + self.arena.capacity() * WORD_BYTES
    }
}

#[derive(Debug)]
struct Shard {
    young: Generation,
    old: Generation,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl Shard {
    fn new(geo: &Geometry) -> Self {
        Shard {
            young: Generation::new(geo),
            old: Generation::new(geo),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Put `value` in the young generation, flipping first if it has no
    /// room: the old generation's answers are dropped and the young one
    /// becomes old. The caller checked that an empty generation holds it.
    fn keep<A: Answer>(&mut self, geo: &Geometry, key: Key, value: &A::Value) {
        if !self.young.has_room(geo, A::words(value)) {
            self.evictions += (self.old.entries - self.old.moved) as u64;
            std::mem::swap(&mut self.young, &mut self.old);
            self.young.clear();
        }
        self.young.ready(geo);
        let start = self.young.arena.len();
        A::write(value, &mut self.young.arena);
        self.young.link(key, start);
    }
}

/// A byte-budgeted map from (entity id, kind) to an answer, in two
/// generations per shard (see the module doc).
#[derive(Debug)]
pub(crate) struct AnswerTier {
    shards: Vec<Mutex<Shard>>,
    geometry: Geometry,
    /// Longest answer kept: ⅛ of a shard's bytes, so one hub cannot flush a
    /// shard (always within a generation's arena).
    max_words: usize,
}

impl AnswerTier {
    /// A tier of eight shards whose two generations each take half of a
    /// shard's `budget_bytes / 8`, allocated here. A generation too small
    /// for a two-slot index holds nothing and allocates nothing.
    pub(crate) fn new(budget_bytes: usize) -> Self {
        let shard_budget = budget_bytes / SHARDS;
        let geometry = Geometry::for_bytes(shard_budget / 2);
        AnswerTier {
            shards: (0..SHARDS)
                .map(|_| Mutex::new(Shard::new(&geometry)))
                .collect(),
            geometry,
            max_words: (shard_budget / 8 / WORD_BYTES)
                .min(geometry.arena_words)
                .min(MAX_WORDS),
        }
    }

    fn shard(&self, hash: u64) -> MutexGuard<'_, Shard> {
        self.shards[(hash >> (64 - SHARD_BITS)) as usize]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// The answer last inserted for `id` of `A`'s kind, read from the words
    /// it borrows and counted as a hit, or `None`, counted as a miss. An
    /// answer found in the old generation is copied forward into the young
    /// one.
    pub(crate) fn get<A: Answer>(&self, id: EntityId) -> Option<A::Value> {
        let key = Key::new(id, A::KIND);
        let mut guard = self.shard(key.hash);
        let shard = &mut *guard;
        if let Some(at) = shard.young.locate(key) {
            shard.hits += 1;
            return Some(A::read(&shard.young.arena[at]));
        }
        let Some(at) = shard.old.locate(key) else {
            shard.misses += 1;
            return None;
        };
        shard.hits += 1;
        shard.old.moved += 1;
        let answer = A::read(&shard.old.arena[at]);
        shard.keep::<A>(&self.geometry, key, &answer);
        Some(answer)
    }

    /// Keep `value` as `id`'s answer of `A`'s kind. One above ⅛ of a
    /// shard's bytes is not kept and displaces nothing — nor does it
    /// retract an earlier answer, which the one caller never changes.
    pub(crate) fn insert<A: Answer>(&self, id: EntityId, value: &A::Value) {
        if self.geometry.max_entries == 0 || A::words(value) > self.max_words {
            return;
        }
        let key = Key::new(id, A::KIND);
        self.shard(key.hash).keep::<A>(&self.geometry, key, value);
    }

    /// Counters over every kind: `hits` and `misses` of [`Self::get`],
    /// answers dropped by flips, and bytes allocated.
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

    fn hop(tier: &AnswerTier, id: EntityId) -> Option<Vec<EntityId>> {
        tier.get::<OneHop>(id)
    }

    /// The first `n` ids at or above `from` whose one-hop key hashes to
    /// shard 0.
    fn shard0_ids(from: u32, n: usize) -> Vec<EntityId> {
        (from..)
            .map(EntityId)
            .filter(|&id| Key::new(id, AnswerKind::OneHop).hash >> (64 - SHARD_BITS) == 0)
            .take(n)
            .collect()
    }

    const BUDGETS: [usize; 5] = [0, 2 << 10, 8 << 10, 256 << 10, 2 << 20];

    #[test]
    fn a_full_budget_is_charged_exactly() {
        // The benchmark's 8 MiB graph cache gives this tier 2 MiB: eight
        // shards × two generations × (4 096 slots + 20 480 words).
        let tier = AnswerTier::new(2 << 20);
        assert_eq!(
            (
                tier.geometry.slots,
                tier.geometry.max_entries,
                tier.geometry.arena_words,
                tier.max_words
            ),
            (4096, 3584, 20480, 8192)
        );
        // Both generations are allocated up front and never grow.
        assert_eq!(tier.stats().resident_bytes, 2 << 20);
        for i in 0..200_000u32 {
            tier.insert::<OneHop>(EntityId(i), &ids(&[i, i + 1, i + 2]));
        }
        assert_eq!(tier.stats().resident_bytes, 2 << 20);
    }

    #[test]
    fn a_generation_too_small_for_an_index_holds_and_charges_nothing() {
        // 256 B over 8 shards × 2 generations is 16 B a generation.
        let tier = AnswerTier::new(256);
        tier.insert::<OneHop>(EntityId(1), &ids(&[]));
        tier.insert::<OneHop>(EntityId(2), &ids(&[3]));
        tier.insert::<Label>(EntityId(2), &"x".to_string());
        assert_eq!(hop(&tier, EntityId(1)), None);
        assert_eq!(hop(&tier, EntityId(2)), None);
        assert_eq!(tier.get::<Label>(EntityId(2)), None);
        assert_eq!(tier.stats().resident_bytes, 0);
        // 2 KiB (the transparency tests' tiny tier) is 128 B a generation:
        // a 4-slot index and a 20-word arena, 3 answers of up to 8 words.
        let tier = AnswerTier::new(2 << 10);
        assert_eq!(
            (
                tier.geometry.slots,
                tier.geometry.max_entries,
                tier.geometry.arena_words,
                tier.max_words
            ),
            (4, 3, 20, 8)
        );
    }

    #[test]
    fn every_kind_round_trips_bit_exactly() {
        let tier = AnswerTier::new(2 << 20);
        let labels = [
            "",
            "a",
            "abc",
            "abcd",
            "abcde",
            "Peter Steele",
            "Zürich",
            "東京都",
            "🦀 crab",
            "e\u{301}",
        ];
        for (i, label) in labels.iter().enumerate() {
            let id = EntityId(i as u32);
            tier.insert::<Label>(id, &label.to_string());
            assert_eq!(tier.get::<Label>(id).as_deref(), Some(*label));
        }
        let mut id = 100;
        for schema in SCHEMAS {
            for is_type in [false, true] {
                tier.insert::<Schema>(EntityId(id), &(schema, is_type));
                assert_eq!(tier.get::<Schema>(EntityId(id)), Some((schema, is_type)));
                id += 1;
            }
        }
        for list in [vec![], ids(&[0]), ids(&[1, 5, u32::MAX])] {
            tier.insert::<OneHop>(EntityId(id), &list);
            assert_eq!(hop(&tier, EntityId(id)), Some(list));
            id += 1;
        }
        let pairs = |v: &[(u16, u32)]| -> Vec<(PredicateId, EntityId)> {
            v.iter()
                .map(|&(p, t)| (PredicateId(p), EntityId(t)))
                .collect()
        };
        for list in [
            pairs(&[]),
            pairs(&[(0, 0)]),
            pairs(&[(u16::MAX, 3), (2, u32::MAX)]),
        ] {
            tier.insert::<Predicates>(EntityId(id), &list);
            assert_eq!(tier.get::<Predicates>(EntityId(id)), Some(list));
            id += 1;
        }
        assert_eq!(tier.stats().misses, 0);
    }

    #[test]
    fn one_id_under_every_kind_is_four_entries() {
        let tier = AnswerTier::new(8 << 10);
        let id = EntityId(7);
        // An empty one-hop list and an empty predicate list are both zero
        // words, and a schema is one word like an empty label: only the
        // kind tells them apart.
        tier.insert::<OneHop>(id, &Vec::new());
        assert_eq!(tier.get::<Predicates>(id), None);
        tier.insert::<Predicates>(id, &Vec::new());
        tier.insert::<Label>(id, &String::new());
        assert_eq!(tier.get::<Schema>(id), None);
        tier.insert::<Schema>(id, &(NeSchema::Place, true));
        assert_eq!(hop(&tier, id), Some(vec![]));
        assert_eq!(tier.get::<Predicates>(id), Some(vec![]));
        assert_eq!(tier.get::<Label>(id), Some(String::new()));
        assert_eq!(tier.get::<Schema>(id), Some((NeSchema::Place, true)));
        let entries: usize = tier
            .shards
            .iter()
            .map(|s| s.lock().unwrap().young.entries)
            .sum();
        assert_eq!(entries, 4);
        assert_eq!((tier.stats().hits, tier.stats().misses), (4, 2));
    }

    #[test]
    fn an_oversized_list_is_served_never_kept_and_displaces_nothing() {
        // 1 KiB a shard: answers above 128 B (32 words) are not kept.
        let tier = AnswerTier::new(8 << 10);
        let max = tier.max_words;
        assert_eq!(max, 32);
        let small = shard0_ids(0, 1)[0];
        tier.insert::<OneHop>(small, &ids(&[7]));
        let before = tier.stats();
        let big = shard0_ids(small.0 + 1, 1)[0];
        tier.insert::<OneHop>(big, &vec![EntityId(9); max + 1]);
        assert_eq!(hop(&tier, big), None);
        tier.insert::<OneHop>(big, &vec![EntityId(9); max]);
        assert_eq!(hop(&tier, big).map(|l| l.len()), Some(max));
        // A label of 4 × 31 bytes is 32 words with its length; one more
        // byte makes 33.
        tier.insert::<Label>(big, &"x".repeat(4 * 31 + 1));
        assert_eq!(tier.get::<Label>(big), None);
        tier.insert::<Label>(big, &"x".repeat(4 * 31));
        assert_eq!(tier.get::<Label>(big).map(|l| l.len()), Some(4 * 31));
        let after = tier.stats();
        assert_eq!(after.evictions, before.evictions);
        assert!(after.resident_bytes <= 8 << 10);
        assert_eq!(hop(&tier, small), Some(ids(&[7])));
    }

    #[test]
    fn a_flip_evicts_exactly_the_old_generation() {
        let tier = AnswerTier::new(8 << 10);
        let n = tier.geometry.max_entries;
        let all = shard0_ids(0, 2 * n + 1);
        let (first, rest) = all.split_at(n);
        let (second, last) = rest.split_at(n);
        for &id in first {
            tier.insert::<OneHop>(id, &vec![id]);
        }
        assert_eq!(tier.stats().evictions, 0);
        // The first of `second` flips: `first` becomes old, nothing goes.
        for &id in second {
            tier.insert::<OneHop>(id, &vec![id]);
        }
        assert_eq!(tier.stats().evictions, 0);
        // The next flip drops `first`, all of it and nothing else.
        tier.insert::<OneHop>(last[0], &vec![last[0]]);
        let s = tier.stats();
        assert_eq!(s.evictions, n as u64);
        for &id in first {
            assert_eq!(hop(&tier, id), None, "{id} should be gone");
        }
        for &id in second.iter().chain(last) {
            assert_eq!(hop(&tier, id), Some(vec![id]));
        }
    }

    #[test]
    fn a_flip_drops_every_kind_of_the_old_generation() {
        let tier = AnswerTier::new(8 << 10);
        let n = tier.geometry.max_entries;
        // One entry of each kind, all in shard 0, fill the young generation
        // with filler one-hop lists behind them.
        let in_shard0 =
            |kind| move |id: &EntityId| Key::new(*id, kind).hash >> (64 - SHARD_BITS) == 0;
        let label = (0..)
            .map(EntityId)
            .find(in_shard0(AnswerKind::Label))
            .unwrap();
        let schema = (0..)
            .map(EntityId)
            .find(in_shard0(AnswerKind::Schema))
            .unwrap();
        let pairs = (0..)
            .map(EntityId)
            .find(in_shard0(AnswerKind::Predicates))
            .unwrap();
        let filler = shard0_ids(1000, 3 * n);
        tier.insert::<Label>(label, &"Zürich".to_string());
        tier.insert::<Schema>(schema, &(NeSchema::Work, false));
        tier.insert::<Predicates>(pairs, &vec![(PredicateId(1), EntityId(2))]);
        tier.insert::<OneHop>(filler[0], &vec![EntityId(1)]);
        // Fill up the young generation, flip (all four become old), then
        // fill and flip again: the old generation goes.
        for &id in &filler[1..2 * n - 2] {
            tier.insert::<OneHop>(id, &vec![id]);
        }
        assert_eq!(tier.get::<Label>(label), None);
        assert_eq!(tier.get::<Schema>(schema), None);
        assert_eq!(tier.get::<Predicates>(pairs), None);
        assert_eq!(hop(&tier, filler[0]), None);
        // The dropped generation held the three and `n - 3` one-hop lists.
        assert_eq!(tier.stats().evictions, n as u64);
    }

    #[test]
    fn a_full_arena_flips_before_the_entry_cap() {
        // 8 KiB: a generation holds 14 answers in 80 words, and a label of
        // 28 bytes is 8 words, so ten labels fill the arena.
        let tier = AnswerTier::new(8 << 10);
        assert_eq!(
            (tier.geometry.max_entries, tier.geometry.arena_words),
            (14, 80)
        );
        let label = |id: EntityId| format!("{:>28}", id.0);
        let all: Vec<EntityId> = (0..)
            .map(EntityId)
            .filter(|&id| Key::new(id, AnswerKind::Label).hash >> (64 - SHARD_BITS) == 0)
            .take(21)
            .collect();
        let (first, rest) = all.split_at(10);
        let (second, last) = rest.split_at(10);
        // The first of `second` flips with ten entries young: `first` is
        // old, nothing goes.
        for &id in first.iter().chain(second) {
            tier.insert::<Label>(id, &label(id));
        }
        assert_eq!(tier.stats().evictions, 0);
        // The 21st insert flips again and drops `first`, where an entry
        // cap alone would flip first at the 15th and next at the 29th.
        tier.insert::<Label>(last[0], &label(last[0]));
        assert_eq!(tier.stats().evictions, 10);
        for &id in first {
            assert_eq!(tier.get::<Label>(id), None, "{id} should be gone");
        }
        for &id in second.iter().chain(last) {
            assert_eq!(tier.get::<Label>(id), Some(label(id)));
        }
        assert!(tier.stats().resident_bytes <= 8 << 10);
    }

    #[test]
    fn a_list_read_from_the_old_generation_survives_the_next_flip() {
        let tier = AnswerTier::new(8 << 10);
        let n = tier.geometry.max_entries;
        let all = shard0_ids(0, 2 * n);
        let (first, rest) = all.split_at(n);
        let (second, third) = rest.split_at(n / 2);
        // The first of `second` flips, so `first` is old.
        for &id in first.iter().chain(second) {
            tier.insert::<OneHop>(id, &vec![id]);
        }
        // Reading one of `first` copies it forward.
        let kept = first[3];
        assert_eq!(hop(&tier, kept), Some(vec![kept]));
        // `third` fills the young generation, and its last insert flips,
        // dropping `first`.
        for &id in third {
            tier.insert::<OneHop>(id, &vec![id]);
        }
        assert_eq!(hop(&tier, kept), Some(vec![kept]));
        assert_eq!(hop(&tier, first[4]), None);
        assert_eq!(
            tier.stats().evictions,
            n as u64 - 1,
            "the copied list was not evicted"
        );
    }

    #[test]
    fn an_old_answer_read_into_a_full_young_generation_is_kept_alone() {
        let tier = AnswerTier::new(8 << 10);
        let n = tier.geometry.max_entries;
        let all = shard0_ids(0, 2 * n);
        let (first, second) = all.split_at(n);
        // `first` is old and `second` fills the young generation.
        for &id in first.iter().chain(second) {
            tier.insert::<OneHop>(id, &vec![id, EntityId(5)]);
        }
        let kept = first[2];
        assert_eq!(hop(&tier, kept), Some(vec![kept, EntityId(5)]));
        // That read flipped: `first` went but for `kept`, `second` is old.
        assert_eq!(tier.stats().evictions, n as u64 - 1);
        assert_eq!(hop(&tier, kept), Some(vec![kept, EntityId(5)]));
        assert_eq!(hop(&tier, first[3]), None);
        assert_eq!(hop(&tier, second[0]), Some(vec![second[0], EntityId(5)]));
    }

    /// One value of any kind, for the model the proptest checks against.
    #[derive(Debug, Clone, PartialEq)]
    enum Value {
        Hop(Vec<EntityId>),
        Label(String),
        Schema((NeSchema, bool)),
        Pairs(Vec<(PredicateId, EntityId)>),
    }

    impl Value {
        /// A value of `kind` from up to 8 raw numbers, at most 8 words: a
        /// one-hop list of up to 8 ids, a label of up to 7 characters
        /// (≤ 28 bytes), a predicate list of up to 4 pairs.
        fn of(kind: u8, raw: &[u32]) -> Self {
            const CHARS: [char; 4] = ['a', 'é', '東', '🦀'];
            match kind {
                0 => Value::Hop(ids(raw)),
                1 => Value::Label(raw.iter().take(7).map(|&r| CHARS[r as usize % 4]).collect()),
                2 => Value::Schema((SCHEMAS[raw.len() % 8], raw.len().is_multiple_of(3))),
                _ => Value::Pairs(
                    raw.iter()
                        .take(4)
                        .map(|&r| (PredicateId(r as u16 % 7), EntityId(r)))
                        .collect(),
                ),
            }
        }

        fn insert(&self, tier: &AnswerTier, id: EntityId) {
            match self {
                Value::Hop(v) => tier.insert::<OneHop>(id, v),
                Value::Label(v) => tier.insert::<Label>(id, v),
                Value::Schema(v) => tier.insert::<Schema>(id, v),
                Value::Pairs(v) => tier.insert::<Predicates>(id, v),
            }
        }

        fn get(kind: u8, tier: &AnswerTier, id: EntityId) -> Option<Self> {
            match kind {
                0 => tier.get::<OneHop>(id).map(Value::Hop),
                1 => tier.get::<Label>(id).map(Value::Label),
                2 => tier.get::<Schema>(id).map(Value::Schema),
                _ => tier.get::<Predicates>(id).map(Value::Pairs),
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Random inserts and lookups of every kind against a map of the
        /// last answer inserted per (id, kind): a lookup returns exactly
        /// that answer or `None`, and the charge stays within the budget
        /// after every operation. Answers stay within the smallest kept
        /// size (8 words at 2 KiB, where three of them can fill the
        /// 20-word arena before the 3-entry cap); the oversized case has
        /// its own test.
        #[test]
        fn every_get_is_the_last_insert_or_none(
            budget in 0usize..BUDGETS.len(),
            ops in proptest::collection::vec(
                (0u8..2, 0u8..4, 0u32..300, proptest::collection::vec(0u32..1000, 0..9)),
                1..600,
            ),
        ) {
            let budget = BUDGETS[budget];
            let tier = AnswerTier::new(budget);
            let mut model: HashMap<(u32, u8), Value> = HashMap::new();
            for (op, kind, id, raw) in ops {
                if op == 0 {
                    let value = Value::of(kind, &raw);
                    value.insert(&tier, EntityId(id));
                    model.insert((id, kind), value);
                } else if let Some(got) = Value::get(kind, &tier, EntityId(id)) {
                    prop_assert_eq!(Some(&got), model.get(&(id, kind)));
                }
                let s = tier.stats();
                prop_assert!(s.resident_bytes <= budget, "{:?} over {}", s, budget);
            }
        }
    }
}
