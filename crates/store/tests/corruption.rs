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
    shard_file_name, write_graph, DiskBackend, DiskGraph, DiskWorld, StoreError, WorldWriterConfig,
    BM25_FILE, MANIFEST_FILE,
};
use std::ops::Range;
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

/// Where a shard's regions lie, read from its header fields and block
/// index rather than assumed: a layout change moves the ranges, not the
/// tests.
struct ShardLayout {
    version: u32,
    index: Range<usize>,
    /// Per block, its record block and its adjacency block.
    blocks: Vec<(Range<usize>, Range<usize>)>,
}

fn shard_layout(b: &[u8]) -> ShardLayout {
    let u32_at = |at: usize| u32::from_le_bytes(b[at..at + 4].try_into().unwrap()) as usize;
    let u64_at = |at: usize| u64::from_le_bytes(b[at..at + 8].try_into().unwrap()) as usize;
    // Header: magic, version, index CRC, index offset and length, shard
    // index, first id, record count, block count.
    let (index_off, index_len, n_blocks) = (u64_at(12), u64_at(20), u32_at(40));
    // Index entry: offset, length, CRC, first record, adjacency length,
    // adjacency CRC; the adjacency block follows the record block.
    let entry = index_len / n_blocks;
    let blocks = (0..n_blocks)
        .map(|i| {
            let at = index_off + i * entry;
            let (off, len, adj_len) = (u64_at(at), u32_at(at + 8), u32_at(at + 20));
            (off..off + len, off + len..off + len + adj_len)
        })
        .collect();
    ShardLayout {
        version: u32_at(4) as u32,
        index: index_off..index_off + index_len,
        blocks,
    }
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
    let version = shard_layout(&orig).version;
    assert!(matches!(
        DiskGraph::open(&dir),
        Err(StoreError::WrongVersion { found: 7, expected }) if expected == version
    ));

    // Chopping off the tail destroys the block index.
    std::fs::write(&path, &orig[..orig.len() - 7]).unwrap();
    assert!(matches!(
        DiskGraph::open(&dir),
        Err(StoreError::Truncated | StoreError::CrcMismatch { .. })
    ));

    // So does one flipped bit anywhere in it.
    let index = shard_layout(&orig).index;
    for at in [index.start, index.start + index.len() / 2, index.end - 1] {
        std::fs::write(&path, {
            let mut b = orig.clone();
            b[at] ^= 0x01;
            b
        })
        .unwrap();
        assert!(
            matches!(DiskGraph::open(&dir), Err(StoreError::CrcMismatch { .. })),
            "index byte {at}"
        );
    }
    std::fs::write(&path, &orig).unwrap();
    assert!(DiskGraph::open(&dir).is_ok());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_v1_shard_fails_with_wrong_version() {
    // A shard written before adjacency blocks existed says version 1 in
    // its header, and the version is read before anything else.
    let dir = build_world("shard-v1");
    corrupt(&dir.join(shard_file_name(0)), |b| {
        b[4..8].copy_from_slice(&1u32.to_le_bytes())
    });
    assert!(matches!(
        DiskGraph::open(&dir),
        Err(StoreError::WrongVersion {
            found: 1,
            expected: 2
        })
    ));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn shard_block_bitflip_fails_lazily_and_degrades_scoped() {
    let dir = build_world("shard-block");
    // Flip one byte inside shard 0's first record block. Opening still
    // succeeds — the damage is only visible to reads that touch that
    // block.
    corrupt(&dir.join(shard_file_name(0)), |b| {
        let at = shard_layout(b).blocks[0].0.start + 6;
        b[at] ^= 0x40;
    });
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
    assert_eq!(
        g.try_label(kglink_kg::EntityId(5)).unwrap(),
        "peter steele 4"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn adjacency_block_bitflip_fails_one_hop_lazily_and_spares_labels() {
    let dir = build_world("shard-adjacency");
    // Flip one byte inside shard 0's first adjacency block: it opens, and
    // only one-hop reads of that block's records see the damage.
    corrupt(&dir.join(shard_file_name(0)), |b| {
        let at = shard_layout(b).blocks[0].1.start + 1;
        b[at] ^= 0x40;
    });
    let g = DiskGraph::open(&dir).unwrap();
    let id = kglink_kg::EntityId;
    assert!(matches!(
        g.try_one_hop(id(1)),
        Err(StoreError::CrcMismatch { .. })
    ));
    // The facade degrades to an empty neighbourhood and counts it.
    let before = g.error_count();
    assert!(g.one_hop(id(1)).is_empty());
    assert_eq!(g.error_count(), before + 1);
    // The same records' labels come from their intact record block, and
    // the sibling shard's neighbourhoods from its own adjacency block.
    for i in 0..4 {
        assert!(g.try_label(id(i)).is_ok(), "record {i}");
    }
    assert_eq!(g.try_label(id(1)).unwrap(), "peter steele 0");
    assert_eq!(g.try_one_hop(id(5)).unwrap(), vec![id(0)]);
    assert_eq!(g.error_count(), before + 1);
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
    // 256-record blocks, shard 1 the rest. A 256-record adjacency block
    // of one-id lists is 512 B, charged 656 B; with a 6 KiB budget no
    // block fits a block-tier shard (576 B), so every block read goes to
    // disk, while each 96-byte neighbourhood-tier generation holds a
    // list.
    let dir = std::env::temp_dir().join(format!(
        "kglink-store-corruption-hop-tier-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut b = KgBuilder::new();
    let musician = b.add_type("Musician", None);
    for i in 0..600 {
        b.add_instance(
            Entity::new(format!("peter steele {i}"), NeSchema::Person),
            musician,
        );
    }
    let cfg = WorldWriterConfig {
        per_shard: 512,
        ..WorldWriterConfig::default()
    };
    write_graph(&dir, &b.build(), cfg).unwrap();
    let g = DiskGraph::open_with_cache(&dir, 6 << 10).unwrap();
    let id = kglink_kg::EntityId;

    // Memoise entity 300's neighbourhood, then damage the block it came
    // from, shard 0's second: its adjacency block and its record block.
    assert_eq!(g.try_one_hop(id(300)).unwrap(), vec![musician]);
    corrupt(&dir.join(shard_file_name(0)), |b| {
        let (records, adjacency) = shard_layout(b).blocks[1].clone();
        b[records.end - 10] ^= 0x40;
        b[adjacency.end - 10] ^= 0x40;
    });

    // A neighbour in the damaged block fails typed on every attempt, each
    // attempt goes back to disk, and the facade counts every one.
    for attempt in 1..=3 {
        let misses = g.cache_stats().misses;
        assert!(matches!(
            g.try_one_hop(id(301)),
            Err(StoreError::CrcMismatch { .. })
        ));
        assert_eq!(
            g.cache_stats().misses,
            misses + 1,
            "attempt {attempt} re-read the block"
        );
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
