//! The per-site bans the compiler owns are crate-level settings, so a lib
//! root that lacks them is checked by nothing. This test holds every lib
//! root to them: a new crate without the lines fails here.

use kglink_lint::{classify_path, find_workspace_root, Scope, SourceFile};
use std::fs;
use std::path::{Path, PathBuf};

/// Every crate root, bench harness included.
const FORBID_UNSAFE: &str = "#![forbid(unsafe_code)]";

/// Every `Scope::Lib` root: clippy's panic family, and no lint suppression
/// without a reasoned `#[expect]`. Test builds are exempt.
const DENY_PANICS: &str = "#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, \
clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented, clippy::allow_attributes, \
clippy::allow_attributes_without_reason))]";

/// Crates whose lib code is a serving path: no unbounded channels.
const SERVING_CRATES: &[&str] = &["crates/serve", "crates/search"];

fn workspace_root() -> PathBuf {
    find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("inside the cargo workspace")
}

/// Repo-relative paths of every `lib.rs` crate root.
fn lib_roots(root: &Path) -> Vec<String> {
    let mut roots: Vec<String> = fs::read_dir(root.join("crates"))
        .expect("crates/ is readable")
        .flatten()
        .map(|e| format!("crates/{}/src/lib.rs", e.file_name().to_string_lossy()))
        .chain(["src/lib.rs".to_string()])
        .filter(|rel| root.join(rel).is_file())
        .collect();
    roots.sort();
    roots
}

/// True when `attr` appears in `file`'s code tokens, however it is
/// wrapped; comments and strings never count.
fn has_attr(file: &SourceFile, attr: &str) -> bool {
    let code: String = (0..file.code.len()).map(|i| file.code_text(i)).collect();
    let attr: String = attr.split_whitespace().collect();
    code.contains(&attr)
}

#[test]
fn every_lib_root_carries_the_compiler_owned_bans() {
    let root = workspace_root();
    let roots = lib_roots(&root);
    assert!(roots.len() >= 14, "found only {roots:?}");
    let mut missing = Vec::new();
    for rel in &roots {
        let text = fs::read_to_string(root.join(rel)).expect("lib root readable");
        let file = SourceFile::new(rel.clone(), text);
        if !has_attr(&file, FORBID_UNSAFE) {
            missing.push(format!("{rel}: {FORBID_UNSAFE}"));
        }
        if classify_path(rel) == Scope::Lib && !has_attr(&file, DENY_PANICS) {
            missing.push(format!("{rel}: {DENY_PANICS}"));
        }
    }
    assert!(
        missing.is_empty(),
        "lib roots missing a crate-level ban:\n{}",
        missing.join("\n")
    );
}

#[test]
fn serving_crates_ban_unbounded_channels() {
    let root = workspace_root();
    for krate in SERVING_CRATES {
        let path = root.join(krate).join("clippy.toml");
        let text = fs::read_to_string(&path).unwrap_or_default();
        let banned =
            text.contains("disallowed-methods") && text.contains("\"std::sync::mpsc::channel\"");
        assert!(
            banned,
            "{krate}/clippy.toml must list std::sync::mpsc::channel under disallowed-methods"
        );
    }
}
