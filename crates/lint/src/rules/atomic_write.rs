//! `atomic-write`: model artifacts and store segments reach disk only
//! through their codec's atomic temp→fsync→rename writer.
//!
//! Three crash-safety arguments share one shape. A torn checkpoint is what
//! the KGCK CRC exists to *detect*, not to *cause*; the disk world
//! (DESIGN.md §13) publishes every segment by rename and its manifest last;
//! a registry version (DESIGN.md §15) becomes visible only when its manifest
//! lands. All three collapse if any writer calls `fs::write(...)` /
//! `File::create(...)` on such a file directly — a crash mid-write leaves a
//! torn file that a manifest still vouches for or a load half-sees.
//! Checkpoints and registry artifacts share one writer,
//! `kglink_nn::frame::publish`; store segments have `kglink_store::atomic`.
//!
//! Port of the old `ci.sh` grep gate, made file-rename-robust: the rule
//! flags any raw write whose statement mentions an artifact family (an
//! identifier or string containing one of its [`ARTIFACTS`] markers,
//! case-insensitive) instead of exempting the writers by path. Each
//! sanctioned writer's own create statement carries none of the markers (or
//! an allow-comment); tests that forge corrupt bytes on purpose are exempt
//! by scope.

use super::{stmt_range, Rule};
use crate::diag::Finding;
use crate::lexer::TokKind;
use crate::source::Scope;
use crate::workspace::Workspace;

pub struct AtomicWrite;

/// `(statement markers, what the bytes are, the sanctioned writer)` — one
/// row per atomic writer; the first matching row names the writer.
const ARTIFACTS: &[(&[&str], &str, &str)] = &[
    (
        &["kges", "kgbm", "kgsm", "segment"],
        "segment data",
        "kglink_store::atomic",
    ),
    (
        &["kgck", "ckpt", "checkpoint", "kgmf", "manifest", "registry"],
        "model artifacts",
        "kglink_nn::frame::publish",
    ),
];

impl Rule for AtomicWrite {
    fn id(&self) -> &'static str {
        "atomic-write"
    }

    fn describe(&self) -> &'static str {
        "model artifacts (checkpoints, registry versions) and store segments are written only via their atomic writer (temp→fsync→rename)"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        // Product code only: lib and binaries. Tests forge torn files.
        for f in ws.files.iter().filter(|f| matches!(f.scope, Scope::Lib | Scope::Bin)) {
            for i in 0..f.code.len() {
                if f.code_kind(i) != Some(TokKind::Ident) || f.code_in_test(i) {
                    continue;
                }
                let path_call = f.code_text(i + 1) == ":" && f.code_text(i + 2) == ":";
                let call = match (f.code_text(i), f.code_text(i + 3)) {
                    ("fs", "write") if path_call => "fs::write",
                    ("File", "create" | "create_new") if path_call => "File::create",
                    _ => continue,
                };
                let (s, e) = stmt_range(f, i);
                let mentioned: Vec<String> = (s..e)
                    .filter(|&j| {
                        matches!(
                            f.code_kind(j),
                            Some(TokKind::Ident | TokKind::Str | TokKind::RawStr)
                        )
                    })
                    .map(|j| f.code_text(j).to_ascii_lowercase())
                    .collect();
                let row = ARTIFACTS.iter().find(|(markers, _, _)| {
                    mentioned.iter().any(|t| markers.iter().any(|m| t.contains(m)))
                });
                if let Some((_, what, writer)) = row {
                    out.push(Finding::new(
                        self.id(),
                        &f.path,
                        f.code_line(i),
                        format!(
                            "`{call}` of {what} outside the atomic writer: a crash \
                             mid-write leaves a torn file a reader may half-see; go \
                             through {writer}"
                        ),
                    ));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(path: &str, src: &str) -> Vec<u32> {
        let ws = Workspace::from_sources(vec![(path, src)]);
        let mut out = Vec::new();
        AtomicWrite.check(&ws, &mut out);
        out.into_iter().map(|x| x.line).collect()
    }

    #[test]
    fn flags_raw_writes_of_every_artifact_family_by_ident_or_string() {
        let src = "\
fn save(ckpt_path: &Path, segment_path: &Path, registry_dir: &Path, bytes: &[u8]) {
    fs::write(ckpt_path, bytes);
    let f = File::create(\"model.kgck\");
    fs::write(segment_path, bytes);
    let f = File::create(\"index.kgbm\");
    std::fs::write(\"world.kgsm\", data);
    fs::write(registry_dir.join(\"manifest.kgmf\"), bytes);
    let f = File::create(\"versions/v000001/manifest.kgmf\");
    std::fs::write(\"results/metrics.json\", bytes);
}
";
        assert_eq!(run("crates/core/src/train.rs", src), vec![2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(run("crates/bench/src/bin/exp.rs", src).len(), 7);
    }

    #[test]
    fn unrelated_writes_marker_free_writers_and_tests_are_exempt() {
        let src = "fn dump(p: &Path) { fs::write(p, \"results\"); }\n";
        assert!(run("crates/store/src/world.rs", src).is_empty());
        // The atomic publishers' own create statement carries no markers.
        let clean = "fn w(dir: &Path, name: &str) { let f = File::create(&tmp)?; }\n";
        assert!(run("crates/nn/src/frame.rs", clean).is_empty());
        let forged = "fn t() { fs::write(\"torn.kgck\", b\"junk\"); }\n";
        assert!(run("crates/nn/tests/checkpoint.rs", forged).is_empty());
        let inline = "#[cfg(test)]\nmod t { fn f() { fs::write(\"x.kgsm\", b\"j\"); } }\n";
        assert!(run("crates/store/src/manifest.rs", inline).is_empty());
    }
}
