//! The index/query analyzer.
//!
//! Matches what Elasticsearch's `standard` analyzer does to entity labels:
//! Unicode-aware lowercasing and splitting on non-alphanumeric boundaries.
//! Digits are kept as tokens so gene symbols like `BRC1` survive (split into
//! `brc` + `1` would lose retrieval precision, so alphanumeric runs stay
//! together).
//!
//! There is one token walk, [`for_each_token`], and it borrows: each token
//! is built in a caller-owned buffer and lent to a callback, so ingest
//! (the BM25 segment builder) and query normalisation allocate nothing per
//! token. [`tokenize`], [`tokenize_unique`] and
//! [`crate::normalize_mention`] are its callers.

/// Hand each token of `text` to `f`, in input order, duplicates included.
///
/// A token is a maximal run of alphanumeric characters, lowercased;
/// everything else is a separator. The token is built in `scratch` (its
/// previous contents are discarded), so a caller that reuses one buffer
/// allocates nothing once it has grown to the longest token. ASCII takes
/// `is_ascii_alphanumeric`/`to_ascii_lowercase`, which agree with the
/// Unicode predicates on ASCII; everything else takes
/// `char::is_alphanumeric`/`char::to_lowercase`, which may lowercase one
/// char to several (`'İ'` → `"i̇"`).
pub fn for_each_token(text: &str, scratch: &mut String, mut f: impl FnMut(&str)) {
    scratch.clear();
    for ch in text.chars() {
        if ch.is_ascii() {
            if ch.is_ascii_alphanumeric() {
                scratch.push(ch.to_ascii_lowercase());
                continue;
            }
        } else if ch.is_alphanumeric() {
            scratch.extend(ch.to_lowercase());
            continue;
        }
        if !scratch.is_empty() {
            f(scratch);
            scratch.clear();
        }
    }
    if !scratch.is_empty() {
        f(scratch);
        scratch.clear();
    }
}

/// Split `text` into lowercase alphanumeric tokens.
///
/// Output preserves input order and may contain duplicates.
pub fn tokenize(text: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    for_each_token(text, &mut String::new(), |t| tokens.push(t.to_owned()));
    tokens
}

/// Tokenize and deduplicate, preserving first-occurrence order. Queries use
/// this so a repeated word does not double-count BM25 contributions. Only a
/// first occurrence is copied out; a query holds a handful of tokens, so
/// the duplicate check is a scan of the ones already kept.
pub fn tokenize_unique(text: &str) -> Vec<String> {
    let mut tokens: Vec<String> = Vec::new();
    for_each_token(text, &mut String::new(), |t| {
        if !tokens.iter().any(|u| u == t) {
            tokens.push(t.to_owned());
        }
    });
    tokens
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::normalize_mention;
    use proptest::prelude::*;

    /// The char-by-char analyzer `for_each_token` replaced, kept as the
    /// parity oracle.
    fn reference_tokenize(text: &str) -> Vec<String> {
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

    fn reference_unique(text: &str) -> Vec<String> {
        let mut tokens = reference_tokenize(text);
        let mut seen = std::collections::HashSet::new();
        tokens.retain(|t| seen.insert(t.clone()));
        tokens
    }

    fn assert_matches_reference(text: &str) {
        assert_eq!(tokenize(text), reference_tokenize(text), "{text:?}");
        assert_eq!(tokenize_unique(text), reference_unique(text), "{text:?}");
        assert_eq!(
            normalize_mention(text),
            reference_tokenize(text).join(" "),
            "{text:?}"
        );
    }

    /// Chars whose case mapping or class is easy to get wrong.
    const TRICKY: &[char] = &[
        'İ', 'ǅ', 'Σ', 'ς', 'ß', 'ẞ', 'ﬁ', 'Ⅻ', '²', '٣', '中', 'É', 'é', '\u{301}', '\u{a0}', '🄰',
        'K', 'Å',
    ];

    #[test]
    fn seeded_cases_match_the_reference() {
        for text in [
            "",
            " ",
            "--- !!! ---",
            "0",
            "42-17 3.14 1,000",
            "BRC1 alpha-2",
            "Österreich vs Osterreich",
            "İ",
            "İstanbul",
            "xİy İİ iİ",
            "Straße STRASSE",
            "Peter Steele-Jones, Jr.",
            "ǅemal ΣΑΣ Ⅻ²",
            "a\u{301}b e\u{301}",
            "中文 mixed ASCII",
            "tab\tnew\nline\r\n",
            "🄰🄱 emoji 🙂 sep",
        ] {
            assert_matches_reference(text);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Each char is drawn from one of four pools — any scalar value,
        /// printable ASCII, ASCII alphanumerics, or `TRICKY` — so both
        /// walk paths and their boundaries are hit in one string.
        #[test]
        fn analyzer_matches_the_reference_on_unicode(
            picks in proptest::collection::vec(
                (0u8..4, '\0'..char::MAX, ' '..'\u{7f}', 0usize..TRICKY.len()),
                0..40,
            ),
        ) {
            let text: String = picks
                .iter()
                .map(|&(pool, any, ascii, tricky)| match pool {
                    0 => any,
                    1 => ascii,
                    2 if ascii.is_ascii_alphanumeric() => ascii,
                    2 => 'Q',
                    _ => TRICKY[tricky],
                })
                .collect();
            prop_assert_eq!(tokenize(&text), reference_tokenize(&text));
            prop_assert_eq!(tokenize_unique(&text), reference_unique(&text));
            prop_assert_eq!(normalize_mention(&text), reference_tokenize(&text).join(" "));
        }
    }

    #[test]
    fn splits_on_punctuation_and_lowercases() {
        assert_eq!(tokenize("Peter Steele"), vec!["peter", "steele"]);
        assert_eq!(tokenize("P. Steele-Jones"), vec!["p", "steele", "jones"]);
    }

    #[test]
    fn keeps_alphanumeric_runs_together() {
        assert_eq!(tokenize("BRC1"), vec!["brc1"]);
        assert_eq!(tokenize("alpha-2 synthase"), vec!["alpha", "2", "synthase"]);
    }

    #[test]
    fn empty_and_symbol_only_inputs_yield_nothing() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("--- !!! ---").is_empty());
    }

    #[test]
    fn unicode_lowercasing() {
        assert_eq!(tokenize("Österreich"), vec!["österreich"]);
    }

    #[test]
    fn unique_preserves_order() {
        assert_eq!(
            tokenize_unique("the cat and the hat"),
            vec!["the", "cat", "and", "hat"]
        );
    }

    #[test]
    fn one_scratch_buffer_serves_every_token() {
        let mut scratch = String::from("stale");
        let mut seen = Vec::new();
        for_each_token("Ab, CD ef", &mut scratch, |t| seen.push(t.to_owned()));
        assert_eq!(seen, ["ab", "cd", "ef"]);
        assert!(scratch.is_empty());
    }
}
