//! Fixture-corpus harness: the linter's self-test.
//!
//! The corpus under `crates/lint/tests/corpus/` holds known-bad (and
//! known-suppressed) snippets as `.rsfix` files — a non-`.rs` extension so
//! the workspace walk never lints them as product code. Directives are
//! ordinary `//@` comments:
//!
//! ```text
//! //@ file: crates/kg/src/io.rs        — virtual path used for scoping
//! //@ expect: single-percentile @ 7     — a finding this file must produce
//! //@ suppressed: 2                     — exact count of suppressed findings
//! ```
//!
//! A fixture may bundle **several virtual files** — the shape call-chain
//! findings need, since they only exist once a call graph spans files. Each
//! `//@ file: <virtual-path>` directive starts a new section running to the
//! next `//@ file:` or end of fixture; the directive line itself is line 1
//! of that section. `//@ expect:` lines bind to the section that contains
//! them, with section-relative line numbers, and `//@ suppressed:` is a
//! bundle-wide total.
//!
//! [`run_corpus`] lints every fixture (all of a bundle's sections in one
//! engine run, so calls resolve across them) against its declared
//! expectations and reports mismatches in both directions: a finding that
//! stopped firing means a rule silently went blind (the failure mode that
//! killed the old grep gates); an undeclared finding means a rule grew a
//! false positive. CI runs this via `kglink-lint --self-test` as a
//! meta-gate: an empty or finding-free corpus is itself a failure.

use crate::engine::lint_inputs;
use crate::engine::Input;
use std::fs;
use std::path::{Path, PathBuf};

/// One `//@ expect: <rule> @ <line>` directive, bound to the virtual file
/// whose section contains it.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Expectation {
    pub rule: String,
    /// Virtual path of the section the directive sits in.
    pub path: String,
    /// Line number relative to the section.
    pub line: u32,
}

/// A parsed `.rsfix` corpus file: one or more virtual files plus the
/// expectations they must (and must not) produce.
#[derive(Debug)]
pub struct Fixture {
    /// The on-disk file (for error messages).
    pub real_path: PathBuf,
    /// `(virtual path, text)` sections, in declaration order.
    pub files: Vec<(String, String)>,
    pub expect: Vec<Expectation>,
    /// Exact number of findings `allow(...)`s must silence across the bundle.
    pub suppressed: usize,
}

/// Parse directives out of a fixture's text. Directives are ordinary `//@`
/// comments, so they are invisible to the rules themselves.
pub fn parse_fixture(real_path: &Path, text: String) -> Result<Fixture, String> {
    let lines: Vec<&str> = text.lines().collect();
    // (starting line index, virtual path) of each `//@ file:` section.
    let mut bounds: Vec<(usize, String)> = Vec::new();
    // (line index of the directive, rule, declared line).
    let mut raw_expect: Vec<(usize, String, u32)> = Vec::new();
    let mut suppressed = 0usize;
    for (idx, line) in lines.iter().enumerate() {
        let Some(rest) = line.trim().strip_prefix("//@") else {
            continue;
        };
        let rest = rest.trim();
        if let Some(p) = rest.strip_prefix("file:") {
            bounds.push((idx, p.trim().to_string()));
        } else if let Some(e) = rest.strip_prefix("expect:") {
            let Some((rule, at)) = e.split_once('@') else {
                return Err(format!(
                    "{}:{}: malformed expect directive (want `//@ expect: <rule> @ <line>`)",
                    real_path.display(),
                    idx + 1
                ));
            };
            let Ok(line_no) = at.trim().parse::<u32>() else {
                return Err(format!(
                    "{}:{}: expect line number is not an integer",
                    real_path.display(),
                    idx + 1
                ));
            };
            raw_expect.push((idx, rule.trim().to_string(), line_no));
        } else if let Some(n) = rest.strip_prefix("suppressed:") {
            suppressed = n.trim().parse::<usize>().map_err(|_| {
                format!(
                    "{}:{}: suppressed count is not an integer",
                    real_path.display(),
                    idx + 1
                )
            })?;
        } else {
            return Err(format!(
                "{}:{}: unknown directive `//@ {rest}`",
                real_path.display(),
                idx + 1
            ));
        }
    }

    // Materialize sections as (path, start, end) half-open line ranges.
    if bounds.is_empty() {
        return Err(format!(
            "{}: missing `//@ file:` directive",
            real_path.display()
        ));
    }
    let mut sections: Vec<(String, usize, usize)> = Vec::new();
    for (bi, (start, p)) in bounds.iter().enumerate() {
        let end = bounds.get(bi + 1).map_or(lines.len(), |(i, _)| *i);
        sections.push((p.clone(), *start, end));
    }

    let mut expect = Vec::new();
    for (idx, rule, line_no) in raw_expect {
        let Some((path, _, _)) = sections.iter().find(|(_, s, e)| *s <= idx && idx < *e) else {
            return Err(format!(
                "{}:{}: expect directive outside any `//@ file:` section",
                real_path.display(),
                idx + 1
            ));
        };
        expect.push(Expectation {
            rule,
            path: path.clone(),
            line: line_no,
        });
    }

    let files = sections
        .into_iter()
        .map(|(p, s, e)| {
            let mut t = lines[s..e].join("\n");
            t.push('\n');
            (p, t)
        })
        .collect();
    Ok(Fixture {
        real_path: real_path.to_path_buf(),
        files,
        expect,
        suppressed,
    })
}

/// All `.rsfix` files directly under `dir`, sorted for determinism.
pub fn corpus_files(dir: &Path) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "rsfix"))
        .collect();
    out.sort();
    out
}

/// Outcome of a corpus run. `ok()` is the CI meta-gate: every expectation
/// matched, nothing unexpected fired, and the corpus is non-trivial.
#[derive(Debug, Default)]
pub struct CorpusOutcome {
    pub files: usize,
    /// Total findings the corpus is declared to produce.
    pub expected_findings: usize,
    /// Total suppressions the corpus is declared to exercise.
    pub expected_suppressed: usize,
    /// Human-readable mismatch descriptions; empty on success.
    pub mismatches: Vec<String>,
}

impl CorpusOutcome {
    pub fn ok(&self) -> bool {
        self.mismatches.is_empty()
            && self.files > 0
            && self.expected_findings > 0
            && self.expected_suppressed > 0
    }

    pub fn summary(&self) -> String {
        format!(
            "{} fixture(s): {} expected finding(s), {} expected suppression(s), {} mismatch(es)",
            self.files,
            self.expected_findings,
            self.expected_suppressed,
            self.mismatches.len()
        )
    }
}

/// Lint every fixture in `dir` (each fixture in isolation, its sections
/// together under their virtual paths) and compare against its declared
/// expectations.
pub fn run_corpus(dir: &Path) -> CorpusOutcome {
    let mut outcome = CorpusOutcome::default();
    let files = corpus_files(dir);
    if files.is_empty() {
        outcome
            .mismatches
            .push(format!("no .rsfix fixtures found under {}", dir.display()));
        return outcome;
    }
    for path in files {
        let text = match fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                outcome
                    .mismatches
                    .push(format!("{}: unreadable: {e}", path.display()));
                continue;
            }
        };
        let fixture = match parse_fixture(&path, text) {
            Ok(f) => f,
            Err(e) => {
                outcome.mismatches.push(e);
                continue;
            }
        };
        outcome.files += 1;
        outcome.expected_findings += fixture.expect.len();
        outcome.expected_suppressed += fixture.suppressed;
        check_fixture(&fixture, &mut outcome.mismatches);
    }
    outcome
}

fn check_fixture(fixture: &Fixture, mismatches: &mut Vec<String>) {
    let report = lint_inputs(
        fixture
            .files
            .iter()
            .map(|(path, text)| Input {
                path: path.clone(),
                text: text.clone(),
            })
            .collect(),
    );
    let mut got: Vec<Expectation> = report
        .findings
        .iter()
        .map(|f| Expectation {
            rule: f.rule.to_string(),
            path: f.path.clone(),
            line: f.line,
        })
        .collect();
    let mut want = fixture.expect.clone();
    got.sort();
    want.sort();
    let name = fixture.real_path.display();
    for e in &want {
        if !got.contains(e) {
            mismatches.push(format!(
                "{name}: expected `{}` at {}:{} did not fire — the rule went blind",
                e.rule, e.path, e.line
            ));
        }
    }
    for e in &got {
        if !want.contains(e) {
            mismatches.push(format!(
                "{name}: undeclared finding `{}` at {}:{} — false positive or stale corpus",
                e.rule, e.path, e.line
            ));
        }
    }
    if report.suppressed != fixture.suppressed {
        mismatches.push(format!(
            "{name}: {} finding(s) suppressed, fixture declares {}",
            report.suppressed, fixture.suppressed
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_directives() {
        let text = "//@ file: crates/x/src/a.rs\n//@ expect: single-percentile @ 4\n//@ suppressed: 1\nfn f() {}\n";
        let f = parse_fixture(Path::new("a.rsfix"), text.into()).expect("parses");
        assert_eq!(f.files.len(), 1);
        assert_eq!(f.files[0].0, "crates/x/src/a.rs");
        assert_eq!(
            f.expect,
            vec![Expectation {
                rule: "single-percentile".into(),
                path: "crates/x/src/a.rs".into(),
                line: 4
            }]
        );
        assert_eq!(f.suppressed, 1);
    }

    #[test]
    fn parses_multi_file_bundles_with_section_relative_expectations() {
        let text = "\
//@ file: crates/a/src/lib.rs
//@ expect: single-percentile @ 3
fn f() {
    g();
}
//@ file: crates/b/src/lib.rs
fn g() {}
";
        let f = parse_fixture(Path::new("m.rsfix"), text.into()).expect("parses");
        assert_eq!(
            f.files.iter().map(|(p, _)| p.as_str()).collect::<Vec<_>>(),
            vec!["crates/a/src/lib.rs", "crates/b/src/lib.rs"]
        );
        // Section text starts at its `//@ file:` line, so declared line
        // numbers count from the directive.
        assert!(f.files[0].1.starts_with("//@ file:"));
        assert_eq!(f.files[0].1.lines().count(), 5);
        assert_eq!(f.files[1].1.lines().count(), 2);
        assert_eq!(
            f.expect,
            vec![Expectation {
                rule: "single-percentile".into(),
                path: "crates/a/src/lib.rs".into(),
                line: 3
            }]
        );
    }

    #[test]
    fn rejects_missing_path_and_bad_directives() {
        assert!(parse_fixture(Path::new("a.rsfix"), "fn f() {}\n".into()).is_err());
        assert!(
            parse_fixture(Path::new("a.rsfix"), "//@ file: x\n//@ expect: r\n".into()).is_err()
        );
        assert!(parse_fixture(Path::new("a.rsfix"), "//@ file: x\n//@ bogus: y\n".into()).is_err());
        // An expect with no enclosing section is a directive error, not a
        // silent mis-binding.
        assert!(parse_fixture(
            Path::new("a.rsfix"),
            "//@ expect: r @ 1\n//@ file: x\nfn f() {}\n".into()
        )
        .is_err());
    }
}
