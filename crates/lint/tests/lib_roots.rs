//! The per-site bans the compiler owns are crate-level settings, so a lib
//! root that lacks them is checked by nothing. This test holds every lib
//! root to them: a new crate without the lines fails here.

use kglink_lint::{classify_path, find_workspace_root, Scope, SourceFile};
use std::fs;
use std::path::{Path, PathBuf};

/// Every crate root, bench harness included.
const FORBID_UNSAFE: &str = "#![forbid(unsafe_code)]";

/// Every `Scope::Lib` root: clippy's panic family, no lint suppression
/// without a reasoned `#[expect]`, the root `clippy.toml` bans and no
/// `for` loop over a hash type. Test builds are exempt.
const DENY_PANICS: &str = "#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, \
clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented, clippy::allow_attributes, \
clippy::allow_attributes_without_reason, clippy::disallowed_methods, clippy::iter_over_hash_type))]";

/// What the root `clippy.toml` disallows: wall-clock reads, hash-order
/// iteration, raw file writes and unbounded channels.
const BANNED_PATHS: &[&str] = &[
    "std::time::Instant::now",
    "std::time::SystemTime::now",
    "std::collections::HashMap::iter",
    "std::collections::HashMap::iter_mut",
    "std::collections::HashMap::keys",
    "std::collections::HashMap::values",
    "std::collections::HashMap::values_mut",
    "std::collections::HashMap::into_keys",
    "std::collections::HashMap::into_values",
    "std::collections::HashMap::drain",
    "std::collections::HashSet::iter",
    "std::collections::HashSet::drain",
    "std::collections::HashSet::union",
    "std::collections::HashSet::intersection",
    "std::collections::HashSet::difference",
    "std::collections::HashSet::symmetric_difference",
    "std::fs::write",
    "std::fs::File::create",
    "std::fs::File::create_new",
    "std::fs::OpenOptions::open",
    "std::sync::mpsc::channel",
];

fn workspace_root() -> PathBuf {
    find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("inside the cargo workspace")
}

/// Repo-relative `rel` of every member package (`crates/*` and the root
/// package) where that file exists.
fn member_files(root: &Path, rel: &str) -> Vec<String> {
    let mut files: Vec<String> = fs::read_dir(root.join("crates"))
        .expect("crates/ is readable")
        .flatten()
        .map(|e| format!("crates/{}/{rel}", e.file_name().to_string_lossy()))
        .chain([rel.to_string()])
        .filter(|path| root.join(path).is_file())
        .collect();
    files.sort();
    files
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
    let roots = member_files(&root, "src/lib.rs");
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
fn root_clippy_toml_bans_every_path() {
    let root = workspace_root();
    let text = fs::read_to_string(root.join("clippy.toml")).expect("root clippy.toml readable");
    let missing: Vec<&str> = BANNED_PATHS
        .iter()
        .filter(|path| !text.contains(&format!("path = \"{path}\"")))
        .copied()
        .collect();
    assert!(
        text.contains("disallowed-methods") && missing.is_empty(),
        "clippy.toml must disallow {missing:?}"
    );
    // Clippy reads the nearest clippy.toml only, so a crate-level file
    // would silently drop every root ban for that crate.
    assert_eq!(member_files(&root, "clippy.toml"), ["clippy.toml"]);
}

/// True when `manifest` has a `[lints]` table holding `workspace = true`.
fn inherits_workspace_lints(manifest: &str) -> bool {
    let mut in_lints = false;
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_lints = line == "[lints]";
        } else if in_lints && line.split_whitespace().collect::<String>() == "workspace=true" {
            return true;
        }
    }
    false
}

/// The workspace allows `disallowed_methods` so that bins, benches and
/// tests may time runs and forge torn files; a manifest that does not
/// inherit that level warns on them instead, and `-D warnings` fails.
#[test]
fn every_member_manifest_inherits_the_workspace_lints() {
    let root = workspace_root();
    let manifests = member_files(&root, "Cargo.toml");
    assert!(manifests.len() >= 15, "found only {manifests:?}");
    let missing: Vec<&String> = manifests
        .iter()
        .filter(|rel| {
            !inherits_workspace_lints(&fs::read_to_string(root.join(rel)).unwrap_or_default())
        })
        .collect();
    assert!(
        missing.is_empty(),
        "manifests without `[lints] workspace = true`: {missing:?}"
    );
}
