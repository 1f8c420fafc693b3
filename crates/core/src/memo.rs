//! The feature-row memo: the encoder's row 0 of a feature sequence, kept
//! per token-id sequence.
//!
//! KGLink's feature vector `Y_fv` (Eq. 9 and 15) is row 0 of the PLM's
//! encoding of `S(e)`, the serialised neighbourhood of a column's
//! best-linked entity. On repeated traffic the same entities, and so the
//! same feature sequences, come back table after table. Row 0 of a feature
//! segment is a pure function of the encoder's weights and the segment's
//! token ids: attention stays inside a segment, and
//! [`Encoder::infer_batch_rows`] is bit-identical, row for row, to
//! [`Encoder::infer`]. So the key is exactly the token slice the forward
//! would encode, and under fixed weights a remembered row is the row a
//! forward would compute, bit for bit. A memo is valid for one set of
//! weights only; the serving layer keeps one per model epoch.
//!
//! The bound is two generations, young and old, each holding at most
//! [`FEATURE_MEMO_ENTRIES`] rows. A lookup tries the young generation, then
//! the old one; a row found in the old generation is moved forward into
//! the young one. An insert into a full young generation *flips*: the old
//! generation is dropped wholesale and the young one becomes old. There is
//! no recency list and no knob — a row survives a flip if it was read or
//! written since the previous one.
//!
//! [`Encoder::infer_batch_rows`]: kglink_nn::Encoder::infer_batch_rows
//! [`Encoder::infer`]: kglink_nn::Encoder::infer

use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Rows a generation holds. At the default configuration (`d_model` 48,
/// `feature_seq_tokens` 24) a row is at most a 100 B key and a 192 B value
/// (≈ 320 B allocated), and a full generation's table has 4 096 slots of
/// 33 B, so the two generations together come to ≈ 1.5 MiB.
pub const FEATURE_MEMO_ENTRIES: usize = 2048;

type Rows = HashMap<Box<[u32]>, Box<[f32]>>;

#[derive(Default)]
struct Generations {
    young: Rows,
    old: Rows,
    hits: u64,
    misses: u64,
}

impl Generations {
    /// Put a row in the young generation, flipping first when it is full.
    /// The emptied map keeps its allocation for the next generation.
    fn add(&mut self, ids: Box<[u32]>, row: Box<[f32]>) {
        if self.young.len() >= FEATURE_MEMO_ENTRIES {
            std::mem::swap(&mut self.young, &mut self.old);
            self.young.clear();
        }
        self.young.insert(ids, row);
    }
}

/// Counters of a [`FeatureMemo`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FeatureMemoStats {
    /// Lookups that found a row.
    pub hits: u64,
    /// Lookups that found none.
    pub misses: u64,
    /// Rows held across both generations.
    pub entries: usize,
}

impl FeatureMemoStats {
    /// Share of lookups that hit, or 0.0 before the first lookup.
    pub fn hit_share(&self) -> f64 {
        let lookups = self.hits + self.misses;
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }
}

/// A bounded map from a feature segment's token ids to its encoder row 0,
/// in two generations (see the module doc). Shared by every thread serving
/// one model; one mutex guards it, and the map is never iterated.
#[derive(Default)]
pub struct FeatureMemo {
    gens: Mutex<Generations>,
}

impl FeatureMemo {
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> MutexGuard<'_, Generations> {
        // Every operation leaves both maps consistent before it can panic,
        // so a poisoned lock holds nothing half-written.
        self.gens.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The row last inserted for `ids`, counted as a hit, or `None`,
    /// counted as a miss.
    pub fn get(&self, ids: &[u32]) -> Option<Vec<f32>> {
        let mut gens = self.lock();
        if let Some(row) = gens.young.get(ids) {
            let row = row.to_vec();
            gens.hits += 1;
            return Some(row);
        }
        let Some((ids, row)) = gens.old.remove_entry(ids) else {
            gens.misses += 1;
            return None;
        };
        gens.hits += 1;
        let out = row.to_vec();
        gens.add(ids, row);
        Some(out)
    }

    /// Remember `row` as the encoding of `ids`.
    pub fn insert(&self, ids: &[u32], row: &[f32]) {
        let mut gens = self.lock();
        if let Some(kept) = gens.young.get_mut(ids) {
            *kept = row.into();
            return;
        }
        gens.add(ids.into(), row.into());
    }

    /// Current counters.
    pub fn stats(&self) -> FeatureMemoStats {
        let gens = self.lock();
        FeatureMemoStats {
            hits: gens.hits,
            misses: gens.misses,
            entries: gens.young.len() + gens.old.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const N: usize = FEATURE_MEMO_ENTRIES;

    /// A distinct key per `k`, one to three ids long.
    fn key(k: u32) -> Vec<u32> {
        (0..=k % 3).map(|i| k * 4 + i).collect()
    }

    fn row(k: u32) -> Vec<f32> {
        vec![k as f32; 1 + k as usize % 5]
    }

    fn bits(row: &[f32]) -> Vec<u32> {
        row.iter().map(|x| x.to_bits()).collect()
    }

    fn fill(memo: &FeatureMemo, keys: std::ops::Range<u32>) {
        for k in keys {
            memo.insert(&key(k), &row(k));
        }
    }

    #[test]
    fn a_flip_drops_exactly_the_old_generation() {
        let memo = FeatureMemo::new();
        let n = N as u32;
        fill(&memo, 0..n);
        // The first of the second batch flips: the first batch is old.
        fill(&memo, n..2 * n);
        assert_eq!(memo.stats().entries, 2 * N);
        // The next insert drops the first batch, all of it and nothing else.
        fill(&memo, 2 * n..2 * n + 1);
        assert_eq!(memo.stats().entries, N + 1);
        for k in 0..n {
            assert_eq!(memo.get(&key(k)), None, "{k} should be gone");
        }
        for k in n..2 * n + 1 {
            assert_eq!(memo.get(&key(k)), Some(row(k)));
        }
        assert_eq!(memo.stats().misses, N as u64);
        assert_eq!(memo.stats().hits, N as u64 + 1);
    }

    #[test]
    fn a_row_read_from_the_old_generation_survives_the_next_flip() {
        let memo = FeatureMemo::new();
        let n = N as u32;
        // The first of the second batch flips, so the first batch is old.
        fill(&memo, 0..n + n / 2);
        // Reading one of the first batch moves it forward.
        let kept = 3;
        assert_eq!(memo.get(&key(kept)), Some(row(kept)));
        // Half a generation plus one more insert flips again, dropping the
        // first batch, whether or not the read moved a row forward.
        fill(&memo, n + n / 2..2 * n + 1);
        assert_eq!(memo.get(&key(kept)), Some(row(kept)));
        assert_eq!(memo.get(&key(4)), None);
    }

    #[test]
    fn an_insert_supersedes_the_row_it_replaces() {
        let memo = FeatureMemo::new();
        memo.insert(&[1, 2], &[1.0, 2.0]);
        memo.insert(&[1, 2], &[3.0]);
        assert_eq!(memo.get(&[1, 2]), Some(vec![3.0]));
        assert_eq!(memo.get(&[1]), None);
        assert_eq!(
            memo.stats(),
            FeatureMemoStats {
                hits: 1,
                misses: 1,
                entries: 1
            }
        );
        assert_eq!(memo.stats().hit_share(), 0.5);
        assert_eq!(FeatureMemoStats::default().hit_share(), 0.0);
    }

    #[test]
    fn threads_never_read_a_row_that_was_not_inserted_for_its_key() {
        let memo = FeatureMemo::new();
        // 3 000 keys over two threads flip the memo while both read.
        std::thread::scope(|s| {
            for t in 0..2u32 {
                let memo = &memo;
                s.spawn(move || {
                    for i in 0..6_000u32 {
                        let k = (i * 7 + t * 1_501) % 3_000;
                        if let Some(got) = memo.get(&key(k)) {
                            // Length and every bit.
                            assert_eq!(bits(&got), bits(&row(k)), "key {k}");
                        } else {
                            memo.insert(&key(k), &row(k));
                        }
                    }
                });
            }
        });
        let s = memo.stats();
        assert!(s.hits > 0 && s.entries <= 2 * N, "{s:?}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Random inserts and lookups against a map of the last row
        /// inserted per key, over enough keys to flip at least once: a
        /// lookup returns exactly that row or a miss, and the memo never
        /// holds more than two generations.
        #[test]
        fn every_get_is_the_last_insert_or_a_miss(
            ops in proptest::collection::vec((0u8..3, 0u32..5_000, 0u32..4), 6_000..12_000),
        ) {
            let memo = FeatureMemo::new();
            let mut model: HashMap<Vec<u32>, Vec<f32>> = HashMap::new();
            for (op, k, v) in ops {
                let ids = key(k);
                if op < 2 {
                    let value = row(k + v);
                    memo.insert(&ids, &value);
                    model.insert(ids, value);
                } else if let Some(got) = memo.get(&ids) {
                    prop_assert_eq!(Some(&got), model.get(&ids));
                }
                prop_assert!(memo.stats().entries <= 2 * N);
            }
        }
    }
}
