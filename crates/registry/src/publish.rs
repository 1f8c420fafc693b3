//! The one sanctioned writer for registry artifacts.
//!
//! Same protocol as `kglink_store::atomic`: bytes land in a temp file in
//! the *same directory* as the target (rename is only atomic within a
//! filesystem), the temp file is fsync'd, then renamed over the target,
//! then the directory is fsync'd so the rename itself is durable. A crash
//! at any point leaves either the old artifact or the new one — never a
//! torn file — and a leftover `.tmp` is deleted on the next publish.
//!
//! The `atomic-write` lint rule flags any other
//! `fs::write`/`File::create` that mentions registry artifacts; this
//! module keeps the marker names out of its create statement so the
//! sanctioned writer itself stays clean (the same structure
//! `kglink_store::atomic` uses).

use std::fs::{self, File};
use std::io::{self, Write};
use std::path::Path;

const TMP_SUFFIX: &str = "pub.tmp";

/// Atomically install `bytes` as `dir/name`.
pub(crate) fn write_artifact(dir: &Path, name: &str, bytes: &[u8]) -> io::Result<()> {
    let target = dir.join(name);
    let tmp = dir.join(format!("{name}.{TMP_SUFFIX}"));
    let mut guard = TmpGuard { path: Some(&tmp) };
    let mut f = File::create(&tmp)?;
    f.write_all(bytes)?;
    f.sync_all()?;
    drop(f);
    fs::rename(&tmp, &target)?;
    guard.path = None; // renamed away — nothing to clean up
    fsync_dir(dir)?;
    Ok(())
}

/// Remove stale temp files from an interrupted publish in `dir`.
pub(crate) fn sweep_tmp(dir: &Path) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        if name.to_string_lossy().ends_with(TMP_SUFFIX) {
            let _ = fs::remove_file(entry.path());
        }
    }
}

fn fsync_dir(dir: &Path) -> io::Result<()> {
    // Directory fsync is how the rename becomes durable on Linux; on
    // platforms where opening a directory fails, the rename is still
    // atomic, just not durability-ordered.
    if let Ok(d) = File::open(dir) {
        d.sync_all()?;
    }
    Ok(())
}

/// Deletes the temp file if the publish never reached its rename.
struct TmpGuard<'a> {
    path: Option<&'a Path>,
}

impl Drop for TmpGuard<'_> {
    fn drop(&mut self) {
        if let Some(p) = self.path {
            let _ = fs::remove_file(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!(
            "kglink-registry-publish-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn artifact_lands_whole_and_tmp_is_gone() {
        let d = tmp_dir("whole");
        write_artifact(&d, "blob.bin", b"0123456789").unwrap();
        assert_eq!(fs::read(d.join("blob.bin")).unwrap(), b"0123456789");
        let leftovers: Vec<_> = fs::read_dir(&d)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.ends_with(TMP_SUFFIX))
            .collect();
        assert!(leftovers.is_empty(), "stale temp files: {leftovers:?}");
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn overwrite_is_all_or_nothing() {
        let d = tmp_dir("overwrite");
        write_artifact(&d, "blob.bin", b"old-old-old").unwrap();
        write_artifact(&d, "blob.bin", b"new").unwrap();
        assert_eq!(fs::read(d.join("blob.bin")).unwrap(), b"new");
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn sweep_removes_interrupted_temps() {
        let d = tmp_dir("sweep");
        fs::write(d.join(format!("blob.bin.{TMP_SUFFIX}")), b"torn").unwrap();
        sweep_tmp(&d);
        assert!(!d.join(format!("blob.bin.{TMP_SUFFIX}")).exists());
        let _ = fs::remove_dir_all(&d);
    }
}
