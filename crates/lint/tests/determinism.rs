//! Two lint runs over the same workspace must produce byte-identical
//! `results/lint.jsonl` content. Clippy bans hash-order iteration in the
//! engine's lib code, but the exported artifact is the contract CI diffs,
//! so it gets its own end-to-end pin: findings and the suppression-audit
//! record are deterministic.

use kglink_lint::engine::{find_workspace_root, lint_files, workspace_files};
use kglink_lint::Report;
use std::path::PathBuf;

/// The exact bytes `kglink-lint --json` writes (see `write_jsonl` in the
/// CLI): one finding record per line, closed by the audit record.
fn jsonl(report: &Report) -> String {
    let mut out = String::new();
    for f in &report.findings {
        out.push_str(&f.to_json());
        out.push('\n');
    }
    out.push_str(&report.audit_json());
    out.push('\n');
    out
}

#[test]
fn two_workspace_runs_are_byte_identical() {
    let root = find_workspace_root(&PathBuf::from(env!("CARGO_MANIFEST_DIR")))
        .expect("test runs inside the workspace");
    let files = workspace_files(&root);
    assert!(
        files.len() > 50,
        "workspace walk found {} files",
        files.len()
    );
    let a = lint_files(&root, &files);
    let b = lint_files(&root, &files);
    assert_eq!(jsonl(&a), jsonl(&b), "lint.jsonl content must not vary");
}
