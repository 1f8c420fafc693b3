//! Golden digest of the bytes a world build writes.
//!
//! The store's writer promises that an ingest change — a new analyzer, a
//! new term table, a wider vector target — moves speed, not bytes. This
//! test pins that promise: one CRC32 over every file of two fixed-seed
//! worlds, in file-name order, each file contributing its name and then
//! its bytes. The big world is built under a posting budget small enough
//! that the BM25 builder spills several runs and `finish` merges them;
//! the synthetic world goes through `write_graph`, the in-memory graph
//! conversion. A change that moves one byte of either world changes a
//! constant here.

use kglink_datagen::{generate_big_world, BigWorldConfig};
use kglink_kg::{SyntheticWorld, WorldConfig};
use kglink_store::varint::Crc32;
use kglink_store::{write_graph, WorldWriterConfig};
use std::path::{Path, PathBuf};

/// Posting budget of the big world's BM25 builder.
const SPILL_POSTINGS: usize = 4_000;

fn world_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("kglink-golden-world-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// CRC32 over `(name, bytes)` of every file in `dir`, in name order.
fn dir_digest(dir: &Path) -> u32 {
    let mut files: Vec<(String, PathBuf)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            assert!(
                e.file_type().unwrap().is_file(),
                "{:?} is not a file",
                e.path()
            );
            (e.file_name().into_string().unwrap(), e.path())
        })
        .collect();
    files.sort();
    let mut crc = Crc32::new();
    for (name, path) in &files {
        crc.update(name.as_bytes());
        crc.update(&std::fs::read(path).unwrap());
    }
    crc.finish()
}

#[test]
fn world_bytes_match_the_golden_digest() {
    let big = world_dir("big");
    let cfg = BigWorldConfig {
        n_entities: 20_000,
        seed: 0x0060_1de2,
        ..BigWorldConfig::default()
    };
    let store = WorldWriterConfig {
        spill_postings: SPILL_POSTINGS,
        ..WorldWriterConfig::default()
    };
    let built = generate_big_world(&big, &cfg, store).unwrap();
    // Every document holds at least one posting and a run spills only
    // once it holds the budget, so this many documents mean at least
    // three spilled runs plus the in-memory tail through the merge.
    assert!(built.manifest.bm25.n_docs >= 4 * SPILL_POSTINGS as u64);

    let tiny = world_dir("tiny");
    let world = SyntheticWorld::generate(&WorldConfig::tiny(11));
    write_graph(&tiny, &world.graph, WorldWriterConfig::default()).unwrap();

    let digests = (dir_digest(&big), dir_digest(&tiny));
    std::fs::remove_dir_all(&big).unwrap();
    std::fs::remove_dir_all(&tiny).unwrap();
    assert_eq!(
        digests,
        (0x71F2_042B, 0x29F9_4F71),
        "(big world, tiny world) digests: {digests:#010X?}"
    );
}
