//! Orchestration: walk the workspace, build the workspace model, run every
//! rule over it, apply `allow(...)` suppressions, and run the
//! suppression-hygiene meta-checks.

use crate::diag::{Finding, Report};
use crate::rules::{all_rules, META_RULES};
use crate::source::SourceFile;
use crate::workspace::Workspace;
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

/// The one ignore list: directories never descended into during a workspace
/// walk. Build output, vendored stubs, VCS metadata, and exported results
/// are all skipped here and nowhere else — rules and the walker share it.
pub const IGNORED_DIRS: &[&str] = &["target", "third_party", ".git", "results"];

/// Minimum justification length for an `allow(...)`; long enough to force a
/// reason, short enough not to fight anyone writing a real one.
const MIN_JUSTIFICATION: usize = 10;

/// Find the workspace root: the closest ancestor of `start` whose
/// `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d.to_path_buf());
            }
        }
        dir = d.parent();
    }
    None
}

/// All `.rs` files under `root`, skipping build output, vendored stubs, and
/// exported results. Sorted for deterministic reports.
pub fn workspace_files(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if !IGNORED_DIRS.contains(&name.as_ref()) && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

/// An input to a lint run: a path for scoping/reporting plus its contents.
/// Fixtures pass a virtual path to pretend to live anywhere in the tree.
pub struct Input {
    pub path: String,
    pub text: String,
}

/// Read real files into [`Input`]s, with repo-relative forward-slash paths.
/// Unreadable files become findings rather than aborting the run.
fn load_inputs(root: &Path, files: &[PathBuf], errors: &mut Vec<Finding>) -> Vec<Input> {
    let mut inputs = Vec::new();
    for file in files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(file)
            .to_string_lossy()
            .replace('\\', "/");
        match fs::read_to_string(file) {
            Ok(text) => inputs.push(Input { path: rel, text }),
            // Non-UTF-8 or unreadable: lex what we can via lossy decode, or
            // report the I/O failure.
            Err(_) => match fs::read(file) {
                Ok(bytes) => inputs.push(Input {
                    path: rel,
                    text: String::from_utf8_lossy(&bytes).into_owned(),
                }),
                Err(e) => errors.push(Finding::new(
                    "io-error",
                    &rel,
                    0,
                    format!("unreadable: {e}"),
                )),
            },
        }
    }
    inputs
}

/// Build the workspace model (items, call graph, summaries propagated to
/// fixpoint), run the rule set over it, and apply suppressions.
pub fn lint_inputs(inputs: Vec<Input>) -> Report {
    let rules = all_rules();
    let known_rule_ids: Vec<&'static str> = rules
        .iter()
        .map(|r| r.id())
        .chain(META_RULES.iter().map(|(id, _)| *id))
        .collect();

    let ws = Workspace::build(
        inputs
            .into_iter()
            .map(|input| SourceFile::new(input.path, input.text))
            .collect(),
    );
    let mut raw: Vec<Finding> = Vec::new();
    // Findings are re-sorted later, so rule order is cosmetic.
    for rule in &rules {
        rule.check(&ws, &mut raw);
    }
    let files = &ws.files;

    // Suppression pass: a finding is silenced by an allow(...) naming its
    // rule whose target line matches the finding's line in the same file.
    let mut report = Report {
        files_scanned: files.len(),
        ..Report::default()
    };
    let mut by_rule: BTreeMap<&'static str, usize> = BTreeMap::new();
    for finding in raw {
        let suppressed = files
            .iter()
            .filter(|f| f.path == finding.path)
            .flat_map(|f| f.suppressions.iter())
            .filter(|s| s.target_line == finding.line)
            .filter(|s| s.rules.iter().any(|r| r == finding.rule))
            .inspect(|s| s.used.set(true))
            .count()
            > 0;
        if suppressed {
            report.suppressed += 1;
            *by_rule.entry(finding.rule).or_insert(0) += 1;
        } else {
            report.findings.push(finding);
        }
    }
    report.suppressed_by_rule = by_rule
        .into_iter()
        .map(|(rule, n)| (rule.to_string(), n))
        .collect();

    // Suppression hygiene.
    for f in files {
        for s in &f.suppressions {
            for r in &s.rules {
                if !known_rule_ids.iter().any(|k| k == r) {
                    report.findings.push(Finding::new(
                        "allow-unknown-rule",
                        &f.path,
                        s.comment_line,
                        format!("allow({r}) names an unknown rule; see --list-rules"),
                    ));
                }
            }
            if s.justification.chars().count() < MIN_JUSTIFICATION {
                report.findings.push(Finding::new(
                    "allow-missing-justification",
                    &f.path,
                    s.comment_line,
                    "allow(...) without a justification: state, after the closing \
                     paren, why the invariant holds here",
                ));
            }
            if !s.used.get() {
                report.findings.push(Finding::new(
                    "allow-unused",
                    &f.path,
                    s.comment_line,
                    format!(
                        "allow({}) suppressed nothing — the code it excused is gone \
                         or the comment is mis-anchored; delete or move it",
                        s.rules.join(", ")
                    ),
                ));
            }
        }
    }

    report.sort();
    report
}

/// Lint a set of real files (the CLI's and the determinism test's entry).
pub fn lint_files(root: &Path, files: &[PathBuf]) -> Report {
    let mut errors = Vec::new();
    let inputs = load_inputs(root, files, &mut errors);
    let mut report = lint_inputs(inputs);
    report.findings.extend(errors);
    report.sort();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_one(path: &str, src: &str) -> Report {
        lint_inputs(vec![Input {
            path: path.into(),
            text: src.into(),
        }])
    }

    #[test]
    fn justified_allow_suppresses_and_counts() {
        let src = "\
// kglink-lint: allow(single-percentile) — the one canonical implementation
fn p99_quantile(v: &[u64]) -> u64 { v[0] }
";
        let r = lint_one("crates/kg/src/graph.rs", src);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert_eq!(r.suppressed, 1);
    }

    #[test]
    fn bare_allow_still_suppresses_but_is_flagged_itself() {
        let src = "// kglink-lint: allow(single-percentile)\nfn p99_quantile(v: &[u64]) -> u64 { v[0] }\n";
        let r = lint_one("crates/kg/src/graph.rs", src);
        assert_eq!(r.suppressed, 1);
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].rule, "allow-missing-justification");
    }

    #[test]
    fn unused_and_unknown_allows_are_flagged() {
        let src = "\
fn f() {
    // kglink-lint: allow(single-percentile) — no quantile fn follows anymore
    let x = 1;
    // kglink-lint: allow(no-such-rule) — rule id typo'd
    let y = 2;
}
";
        let r = lint_one("crates/kg/src/graph.rs", src);
        let rules: Vec<&str> = r.findings.iter().map(|f| f.rule).collect();
        assert!(rules.contains(&"allow-unused"));
        assert!(rules.contains(&"allow-unknown-rule"));
    }
}
