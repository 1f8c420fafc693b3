//! End-to-end corruption drills: every damaged-file class must surface as
//! a *typed* [`StoreError`] — never a panic, never silently wrong data —
//! and the service facades must degrade to neutral values while counting.
//!
//! Open-time damage (magic, version, truncation, index CRC) fails the
//! `open` call itself; data-block damage is only detectable lazily and
//! must fail the first read that touches the block, leaving the rest of
//! the world servable.

use kglink_kg::{Entity, GraphAccess, KgBuilder, NeSchema};
use kglink_search::backend::{Deadline, KgBackend};
use kglink_store::{
    shard_file_name, write_graph, DiskBackend, DiskGraph, DiskWorld, StoreError,
    WorldWriterConfig, BM25_FILE, MANIFEST_FILE,
};
use std::path::PathBuf;

fn build_world(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "kglink-store-corruption-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut b = KgBuilder::new();
    let musician = b.add_type("Musician", None);
    for i in 0..10 {
        b.add_instance(
            Entity::new(format!("peter steele {i}"), NeSchema::Person).with_alias("pete"),
            musician,
        );
    }
    let g = b.build();
    let cfg = WorldWriterConfig {
        per_shard: 4,
        ..WorldWriterConfig::default()
    };
    write_graph(&dir, &g, cfg).unwrap();
    dir
}

fn corrupt(path: &PathBuf, f: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let orig = std::fs::read(path).unwrap();
    let mut bad = orig.clone();
    f(&mut bad);
    std::fs::write(path, &bad).unwrap();
    orig
}

#[test]
fn missing_or_damaged_manifest_refuses_to_open() {
    let dir = build_world("manifest");
    let path = dir.join(MANIFEST_FILE);

    let orig = corrupt(&path, |b| b[0] = b'x');
    assert!(matches!(
        DiskWorld::open(&dir),
        Err(StoreError::BadMagic { expected: "KGSM" })
    ));

    std::fs::write(&path, &orig[..10]).unwrap();
    assert!(matches!(DiskWorld::open(&dir), Err(StoreError::Truncated)));

    std::fs::write(&path, {
        let mut b = orig.clone();
        b[4] = 9;
        b
    })
    .unwrap();
    assert!(matches!(
        DiskWorld::open(&dir),
        Err(StoreError::WrongVersion {
            found: 9,
            expected: 1
        })
    ));

    std::fs::remove_file(&path).unwrap();
    assert!(matches!(DiskWorld::open(&dir), Err(StoreError::Io(_))));

    std::fs::write(&path, &orig).unwrap();
    assert!(DiskWorld::open(&dir).is_ok());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn shard_header_damage_fails_at_open() {
    let dir = build_world("shard-header");
    let path = dir.join(shard_file_name(1));

    let orig = corrupt(&path, |b| b[0] = b'Z');
    assert!(matches!(
        DiskGraph::open(&dir),
        Err(StoreError::BadMagic { expected: "KGES" })
    ));

    std::fs::write(&path, {
        let mut b = orig.clone();
        b[4] = 7;
        b
    })
    .unwrap();
    assert!(matches!(
        DiskGraph::open(&dir),
        Err(StoreError::WrongVersion {
            found: 7,
            expected: 1
        })
    ));

    // Chopping off the tail destroys the block index.
    std::fs::write(&path, &orig[..orig.len() - 7]).unwrap();
    assert!(matches!(
        DiskGraph::open(&dir),
        Err(StoreError::Truncated | StoreError::CrcMismatch { .. })
    ));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn shard_block_bitflip_fails_lazily_and_degrades_scoped() {
    let dir = build_world("shard-block");
    // Flip one byte inside shard 0's first data block (data starts after
    // the 44-byte header). Opening still succeeds — the damage is only
    // visible to reads that touch that block.
    corrupt(&dir.join(shard_file_name(0)), |b| b[50] ^= 0x40);
    let g = DiskGraph::open(&dir).unwrap();
    assert!(matches!(
        g.try_entity(kglink_kg::EntityId(0)),
        Err(StoreError::CrcMismatch { .. })
    ));
    // The facade degrades to a placeholder and counts, instead of failing.
    let before = g.error_count();
    assert_eq!(g.entity(kglink_kg::EntityId(0)).label, "");
    assert_eq!(g.error_count(), before + 1);
    // Entities in undamaged shards still read fine.
    assert_eq!(g.try_label(kglink_kg::EntityId(5)).unwrap(), "peter steele 4");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn bm25_header_damage_fails_at_open() {
    let dir = build_world("bm25-header");
    let path = dir.join(BM25_FILE);

    let orig = corrupt(&path, |b| b[0] = b'!');
    assert!(matches!(
        DiskBackend::open(&dir),
        Err(StoreError::BadMagic { expected: "KGBM" })
    ));

    std::fs::write(&path, {
        let mut b = orig.clone();
        b[4] = 3;
        b
    })
    .unwrap();
    assert!(matches!(
        DiskBackend::open(&dir),
        Err(StoreError::WrongVersion {
            found: 3,
            expected: 1
        })
    ));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn bm25_posting_bitflip_fails_typed_and_facade_degrades() {
    let dir = build_world("bm25-postings");
    // XOR the whole postings region (offset/length live at header bytes
    // [16..32)); the header, dictionary and doc-length CRCs stay intact so
    // the segment opens, but every posting-list CRC now mismatches.
    corrupt(&dir.join(BM25_FILE), |b| {
        let off = u64::from_le_bytes(b[16..24].try_into().unwrap()) as usize;
        let len = u64::from_le_bytes(b[24..32].try_into().unwrap()) as usize;
        for byte in &mut b[off..off + len] {
            *byte ^= 0xff;
        }
    });
    let backend = DiskBackend::open(&dir).unwrap();
    assert!(matches!(
        backend.try_search("peter", 5),
        Err(StoreError::CrcMismatch { .. })
    ));
    // Unknown terms never touch postings, so they still answer cleanly.
    assert!(backend.try_search("zzz", 5).unwrap().is_empty());
    // The KgBackend facade degrades to empty-truncated, not RetrievalError:
    // corruption is durable, so the circuit breaker must not trip on it.
    let out = backend
        .search_entities("peter", 5, Deadline::UNBOUNDED)
        .unwrap();
    assert!(out.hits.is_empty());
    assert!(out.truncated);
    assert_eq!(backend.error_count(), 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn neighbourhood_tier_remembers_answers_never_failures() {
    // 600 musicians under one type: shard 0 holds ids 0..512 in two full
    // 256-record blocks, shard 1 the rest. With a 32 KiB budget no block
    // fits a block-tier shard (3 KiB), so every block read goes to disk,
    // while each 512-byte neighbourhood-tier generation holds 14 lists.
    let dir = std::env::temp_dir().join(format!(
        "kglink-store-corruption-hop-tier-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut b = KgBuilder::new();
    let musician = b.add_type("Musician", None);
    for i in 0..600 {
        b.add_instance(Entity::new(format!("peter steele {i}"), NeSchema::Person), musician);
    }
    let cfg = WorldWriterConfig {
        per_shard: 512,
        ..WorldWriterConfig::default()
    };
    write_graph(&dir, &b.build(), cfg).unwrap();
    let g = DiskGraph::open_with_cache(&dir, 32 << 10).unwrap();
    let id = kglink_kg::EntityId;

    // Memoise entity 300's neighbourhood, then damage the block it came
    // from: the second data block of shard 0 ends where the 40-byte block
    // index begins.
    assert_eq!(g.try_one_hop(id(300)).unwrap(), vec![musician]);
    corrupt(&dir.join(shard_file_name(0)), |b| {
        let at = b.len() - 40 - 10;
        b[at] ^= 0x40;
    });

    // A neighbour in the damaged block fails typed on every attempt, each
    // attempt goes back to disk, and the facade counts every one.
    for attempt in 1..=3 {
        let misses = g.cache_stats().misses;
        assert!(matches!(
            g.try_one_hop(id(301)),
            Err(StoreError::CrcMismatch { .. })
        ));
        assert_eq!(g.cache_stats().misses, misses + 1, "attempt {attempt} re-read the block");
        assert!(g.one_hop(id(301)).is_empty());
        assert_eq!(g.error_count(), attempt);
    }
    // The list memoised before the damage still answers, from memory…
    let before = g.cache_stats();
    assert_eq!(g.try_one_hop(id(300)).unwrap(), vec![musician]);
    let after = g.cache_stats();
    assert_eq!((after.hits, after.misses), (before.hits + 1, before.misses));
    // …every other read of that block fails, and the undamaged block of
    // the same shard and the sibling shard keep answering.
    assert!(matches!(
        g.try_label(id(300)),
        Err(StoreError::CrcMismatch { .. })
    ));
    assert_eq!(g.try_one_hop(id(5)).unwrap(), vec![musician]);
    assert_eq!(g.try_one_hop(id(550)).unwrap(), vec![musician]);
    assert_eq!(g.error_count(), 3);
    std::fs::remove_dir_all(&dir).unwrap();
}
