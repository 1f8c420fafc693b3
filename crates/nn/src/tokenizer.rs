//! Word-level tokenizer with BERT-style special tokens.
//!
//! A full WordPiece implementation is unnecessary at this scale: the
//! synthetic corpus has a closed vocabulary, so a word-level tokenizer with
//! an `[UNK]` fallback plus numeric bucketing tokens reproduces everything
//! the pipeline needs. Special token ids are fixed constants so serialized
//! sequences are interpretable without the vocabulary at hand.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Fixed ids of the special tokens.
pub mod special {
    /// Padding (unused in practice — sequences are unpadded — but reserved).
    pub const PAD: u32 = 0;
    /// Unknown word.
    pub const UNK: u32 = 1;
    /// Sequence / column start marker whose encoding represents the column.
    pub const CLS: u32 = 2;
    /// End of sequence.
    pub const SEP: u32 = 3;
    /// Mask token for the column-type representation generation task.
    pub const MASK: u32 = 4;
    /// Numeric cell bucket tokens: `NUM_SMALL..=NUM_HUGE` cover magnitudes.
    pub const NUM_NEG: u32 = 5;
    pub const NUM_SMALL: u32 = 6;
    pub const NUM_MID: u32 = 7;
    pub const NUM_LARGE: u32 = 8;
    pub const NUM_HUGE: u32 = 9;
    /// Year-like token.
    pub const YEAR: u32 = 10;
    /// First id available for real words.
    pub const FIRST_WORD: u32 = 11;

    /// Human-readable names, indexed by id.
    pub const NAMES: [&str; 11] = [
        "[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]", "[NUM-]", "[NUM<100]", "[NUM<10K]",
        "[NUM<1M]", "[NUM>=1M]", "[YEAR]",
    ];
}

/// An immutable vocabulary mapping words to ids.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Vocab {
    words: Vec<String>,
    by_word: HashMap<String, u32>,
}

impl Vocab {
    /// Build from an iterator of texts, keeping words with at least
    /// `min_count` occurrences (and capping at `max_size` total entries,
    /// keeping the most frequent).
    pub fn build<'a, I: IntoIterator<Item = &'a str>>(
        texts: I,
        min_count: usize,
        max_size: usize,
    ) -> Self {
        let mut counts: HashMap<String, usize> = HashMap::new();
        for text in texts {
            for w in split_words(text) {
                *counts.entry(w).or_insert(0) += 1;
            }
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "order-insensitive: the filter is per-entry and the sort below totally orders by (count, word)"
        )]
        let mut items: Vec<(String, usize)> = counts
            .drain()
            .filter(|&(_, c)| c >= min_count)
            .collect();
        // Most frequent first; ties alphabetical for determinism.
        items.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        items.truncate(max_size.saturating_sub(special::FIRST_WORD as usize));

        let mut words: Vec<String> = special::NAMES.iter().map(|s| s.to_string()).collect();
        let mut by_word = HashMap::with_capacity(items.len());
        for (w, _) in items {
            by_word.insert(w.clone(), words.len() as u32);
            words.push(w);
        }
        Vocab { words, by_word }
    }

    /// Total vocabulary size including special tokens.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    pub fn is_empty(&self) -> bool {
        false // always contains the special tokens
    }

    /// Id of a (lowercased) word, or `UNK`.
    pub fn id(&self, word: &str) -> u32 {
        self.by_word
            .get(word)
            .copied()
            .unwrap_or(special::UNK)
    }

    /// Word for an id.
    pub fn word(&self, id: u32) -> &str {
        &self.words[id as usize]
    }
}

/// Lowercased alphanumeric word split (same analyzer as the search crate).
fn split_words(text: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut current = String::new();
    for ch in text.chars() {
        if ch.is_alphanumeric() {
            for lower in ch.to_lowercase() {
                current.push(lower);
            }
        } else if !current.is_empty() {
            tokens.push(std::mem::take(&mut current));
        }
    }
    if !current.is_empty() {
        tokens.push(current);
    }
    tokens
}

/// Tokenizer over a fixed vocabulary.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Tokenizer {
    pub vocab: Vocab,
}

impl Tokenizer {
    pub fn new(vocab: Vocab) -> Self {
        Tokenizer { vocab }
    }

    /// Tokenize free text into word ids (no special tokens added).
    pub fn encode_text(&self, text: &str) -> Vec<u32> {
        split_words(text).iter().map(|w| self.vocab.id(w)).collect()
    }

    /// Token for a numeric value: sign/magnitude bucket.
    pub fn encode_number(&self, value: f64) -> u32 {
        if value < 0.0 {
            special::NUM_NEG
        } else if (1000.0..2400.0).contains(&value) && value.fract() == 0.0 {
            special::YEAR
        } else if value < 100.0 {
            special::NUM_SMALL
        } else if value < 10_000.0 {
            special::NUM_MID
        } else if value < 1_000_000.0 {
            special::NUM_LARGE
        } else {
            special::NUM_HUGE
        }
    }

    /// Decode ids to a readable string (diagnostics only).
    pub fn decode(&self, ids: &[u32]) -> String {
        ids.iter()
            .map(|&i| self.vocab.word(i))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vocab() -> Vocab {
        Vocab::build(
            ["peter steele musician", "peter plays bass", "rust album"],
            1,
            1000,
        )
    }

    #[test]
    fn special_ids_are_stable() {
        let v = vocab();
        assert_eq!(v.word(special::CLS), "[CLS]");
        assert_eq!(v.word(special::MASK), "[MASK]");
        assert_eq!(v.word(special::UNK), "[UNK]");
        assert!(v.len() > special::FIRST_WORD as usize);
    }

    #[test]
    fn known_words_round_trip() {
        let t = Tokenizer::new(vocab());
        let ids = t.encode_text("Peter Steele");
        assert!(ids.iter().all(|&i| i >= special::FIRST_WORD));
        assert_eq!(t.decode(&ids), "peter steele");
    }

    #[test]
    fn unknown_words_map_to_unk() {
        let t = Tokenizer::new(vocab());
        let ids = t.encode_text("zyzzyva");
        assert_eq!(ids, vec![special::UNK]);
    }

    #[test]
    fn min_count_filters_rare_words() {
        let v = Vocab::build(["a a a b"], 2, 1000);
        assert_ne!(v.id("a"), special::UNK);
        assert_eq!(v.id("b"), special::UNK);
    }

    #[test]
    fn max_size_caps_vocabulary() {
        let v = Vocab::build(["a a a b b c"], 1, special::FIRST_WORD as usize + 2);
        assert_eq!(v.len(), special::FIRST_WORD as usize + 2);
        // Most frequent words survive.
        assert_ne!(v.id("a"), special::UNK);
        assert_ne!(v.id("b"), special::UNK);
        assert_eq!(v.id("c"), special::UNK);
    }

    #[test]
    fn numeric_buckets() {
        let t = Tokenizer::new(vocab());
        assert_eq!(t.encode_number(-5.0), special::NUM_NEG);
        assert_eq!(t.encode_number(42.0), special::NUM_SMALL);
        assert_eq!(t.encode_number(1990.0), special::YEAR);
        assert_eq!(t.encode_number(1990.5), special::NUM_MID);
        assert_eq!(t.encode_number(500_000.0), special::NUM_LARGE);
        assert_eq!(t.encode_number(5e9), special::NUM_HUGE);
    }

    #[test]
    fn build_is_deterministic() {
        let v1 = vocab();
        let v2 = vocab();
        assert_eq!(v1.words, v2.words);
    }
}
