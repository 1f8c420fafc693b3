//! The store's one sanctioned segment writer: temp → fsync → rename.
//!
//! Same protocol as `kglink_nn::checkpoint::Checkpointer` (the module docs
//! there carry the full crash argument): bytes go to a temporary sibling,
//! are fsync'd, and only then renamed over the destination. On POSIX a
//! rename within one directory is atomic, so a crash at any point leaves
//! either the previous complete segment or the new complete segment, never
//! a torn hybrid. The `atomic-write` lint rule keeps every other
//! `fs::write`/`File::create` of segment data out of the workspace.
//!
//! Two shapes:
//!
//! * [`atomic_write_segment`] — buffer in, file out. For small segments
//!   (the manifest) that fit comfortably in memory.
//! * [`AtomicFile`] — a streaming handle for multi-megabyte segments
//!   (entity shards, the BM25 index) that are produced incrementally and
//!   must not be buffered whole. Supports the seek-back header patch:
//!   section offsets and CRCs are only known once the body is written.
//!
//! Dropping an [`AtomicFile`] without calling [`AtomicFile::commit`]
//! removes the temporary file: an aborted build never leaves debris that a
//! later open could mistake for a segment.

use crate::error::StoreError;
use std::fs::File;
use std::io::{BufWriter, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Extension appended to the destination name while writing. Distinct from
/// the checkpoint writer's `.kgck.tmp` so concurrent trainers and store
/// builds in one directory can never collide.
const TMP_SUFFIX: &str = "kgst.tmp";

/// Atomically replace `path` with `bytes` (temp → fsync → rename).
pub fn atomic_write_segment(path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    let mut f = AtomicFile::create(path)?;
    f.write_all(bytes)?;
    f.commit()
}

/// A streaming segment writer that only publishes complete files.
#[derive(Debug)]
pub struct AtomicFile {
    /// `Some` until commit/abort; buffered for throughput on varint-sized
    /// writes.
    writer: Option<BufWriter<File>>,
    tmp: PathBuf,
    dest: PathBuf,
    written: u64,
}

impl AtomicFile {
    /// Open a temporary sibling of `path` for writing. Parent directories
    /// are created as needed.
    pub fn create(path: &Path) -> Result<Self, StoreError> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let tmp = path.with_extension(TMP_SUFFIX);
        // This *is* the sanctioned atomic writer: the create targets the
        // temporary sibling only, and the bytes become a segment solely at
        // the fsync+rename in `commit`.
        let file = File::create(&tmp)?;
        Ok(AtomicFile {
            writer: Some(BufWriter::new(file)),
            tmp,
            dest: path.to_path_buf(),
            written: 0,
        })
    }

    /// Bytes written so far — section offsets are derived from this, so it
    /// also serves as the current file position during sequential writes.
    pub fn position(&self) -> u64 {
        self.written
    }

    /// Append bytes at the current position.
    pub fn write_all(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
        let w = self.writer.as_mut().ok_or_else(closed)?;
        w.write_all(bytes)?;
        self.written += bytes.len() as u64;
        Ok(())
    }

    /// Overwrite `bytes` at absolute `offset` (the header patch), then
    /// return to the end of the file. Does not extend the file.
    pub fn patch(&mut self, offset: u64, bytes: &[u8]) -> Result<(), StoreError> {
        if offset + bytes.len() as u64 > self.written {
            return Err(StoreError::Corrupt(format!(
                "patch at {offset}+{} runs past the {} bytes written",
                bytes.len(),
                self.written
            )));
        }
        let w = self.writer.as_mut().ok_or_else(closed)?;
        w.flush()?;
        let f = w.get_mut();
        f.seek(SeekFrom::Start(offset))?;
        f.write_all(bytes)?;
        f.seek(SeekFrom::End(0))?;
        Ok(())
    }

    /// Flush, fsync, and atomically rename over the destination.
    pub fn commit(mut self) -> Result<(), StoreError> {
        let w = self.writer.take().ok_or_else(closed)?;
        let file = w.into_inner().map_err(|e| StoreError::Io(e.to_string()))?;
        // Data must be durable *before* the rename publishes it.
        file.sync_all()?;
        drop(file);
        std::fs::rename(&self.tmp, &self.dest)?;
        Ok(())
    }
}

impl Drop for AtomicFile {
    fn drop(&mut self) {
        if self.writer.take().is_some() {
            // Uncommitted: remove the temporary so an aborted build leaves
            // nothing behind. Failure to remove is not actionable here.
            let _ = std::fs::remove_file(&self.tmp);
        }
    }
}

fn closed() -> StoreError {
    StoreError::Io("atomic file already committed".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("kglink-store-atomic-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn whole_buffer_write_replaces_atomically() {
        let dir = tmpdir("whole");
        let path = dir.join("m.kgsm");
        atomic_write_segment(&path, b"first").unwrap();
        atomic_write_segment(&path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        assert!(
            !path.with_extension(TMP_SUFFIX).exists(),
            "temp file must not survive a successful commit"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn streaming_patch_fixes_the_header() {
        let dir = tmpdir("patch");
        let path = dir.join("s.kges");
        let mut f = AtomicFile::create(&path).unwrap();
        f.write_all(&[0u8; 8]).unwrap(); // header placeholder
        f.write_all(b"payload").unwrap();
        let len = f.position();
        f.patch(0, &len.to_le_bytes()).unwrap();
        f.commit().unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(u64::from_le_bytes(bytes[..8].try_into().unwrap()), 15);
        assert_eq!(&bytes[8..], b"payload");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dropped_without_commit_leaves_no_debris() {
        let dir = tmpdir("abort");
        let path = dir.join("s.kges");
        {
            let mut f = AtomicFile::create(&path).unwrap();
            f.write_all(b"half a segment").unwrap();
        }
        assert!(!path.exists());
        assert!(!path.with_extension(TMP_SUFFIX).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn patch_past_end_is_rejected() {
        let dir = tmpdir("bound");
        let mut f = AtomicFile::create(&dir.join("x.kges")).unwrap();
        f.write_all(b"abc").unwrap();
        assert!(matches!(f.patch(2, b"zz"), Err(StoreError::Corrupt(_))));
        drop(f);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
