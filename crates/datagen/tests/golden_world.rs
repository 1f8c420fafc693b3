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
//! constant here. The big world's sampled mentions and skew queries are
//! not in any file, so a second digest pins those strings.

use kglink_datagen::{generate_big_world, BigWorld, BigWorldConfig};
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

/// The 20k-entity big world, built into `dir` under [`SPILL_POSTINGS`].
fn build_big_world(dir: &Path) -> BigWorld {
    let cfg = BigWorldConfig {
        n_entities: 20_000,
        seed: 0x0060_1de2,
        ..BigWorldConfig::default()
    };
    let store = WorldWriterConfig {
        spill_postings: SPILL_POSTINGS,
        ..WorldWriterConfig::default()
    };
    generate_big_world(dir, &cfg, store).unwrap()
}

#[test]
fn world_bytes_match_the_golden_digest() {
    let big = world_dir("big");
    let built = build_big_world(&big);
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

#[test]
fn sampled_mentions_match_the_golden_digest() {
    let dir = world_dir("mentions");
    let built = build_big_world(&dir);
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(built.mentions.len(), BigWorldConfig::default().mention_cap);
    // Each string contributes its byte length, then its bytes, so no two
    // different lists can concatenate to the same stream.
    let mut crc = Crc32::new();
    for s in built.mentions.iter().chain(&built.skew_queries) {
        crc.update(&(s.len() as u32).to_le_bytes());
        crc.update(s.as_bytes());
    }
    let digest = crc.finish();
    assert_eq!(digest, 0x0AFA_F4FF, "mentions digest: {digest:#010X}");
}
