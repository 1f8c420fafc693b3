//! The linter's self-test: lint the fixture corpus and require every
//! declared finding to fire and nothing undeclared to appear. This is the
//! same check CI runs as `kglink-lint --self-test` — if a rule silently
//! goes blind (the failure mode that killed the old grep gates), this
//! test and the CI meta-gate both fail.

use kglink_lint::fixtures::{corpus_files, parse_fixture, run_corpus};
use kglink_lint::rules::{all_rules, META_RULES};
use std::collections::BTreeSet;
use std::fs;
use std::path::PathBuf;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

#[test]
fn corpus_matches_declared_expectations() {
    let outcome = run_corpus(&corpus_dir());
    assert!(
        outcome.ok(),
        "{}\n{}",
        outcome.summary(),
        outcome.mismatches.join("\n")
    );
}

/// Every rule — including the suppression-hygiene meta-rules — must have at
/// least one positive expectation in the corpus, so "rule went blind" is
/// detectable for all of them, not just the ones someone remembered to
/// write a fixture for.
#[test]
fn every_rule_has_corpus_coverage() {
    let mut covered: BTreeSet<String> = BTreeSet::new();
    for path in corpus_files(&corpus_dir()) {
        let text = fs::read_to_string(&path).expect("fixture readable");
        let fixture = parse_fixture(&path, text).expect("fixture parses");
        covered.extend(fixture.expect.iter().map(|e| e.rule.clone()));
    }
    let mut missing: Vec<&str> = all_rules()
        .iter()
        .map(|r| r.id())
        .chain(META_RULES.iter().map(|(id, _)| *id))
        .filter(|id| !covered.contains(*id))
        .collect();
    missing.sort_unstable();
    assert!(
        missing.is_empty(),
        "rules with no corpus expectation (add an .rsfix): {missing:?}"
    );
}

/// Suppressions must be exercised too: at least one fixture declares a
/// nonzero suppressed count, proving allow-comments actually silence.
#[test]
fn corpus_exercises_suppressions() {
    let total: usize = corpus_files(&corpus_dir())
        .into_iter()
        .map(|path| {
            let text = fs::read_to_string(&path).expect("fixture readable");
            parse_fixture(&path, text)
                .expect("fixture parses")
                .suppressed
        })
        .sum();
    assert!(total > 0, "no fixture exercises the suppression path");
}
