//! Transparency property: a disk world is observationally identical to the
//! in-memory structures it was written from.
//!
//! For random small graphs, every [`GraphAccess`] method of [`DiskGraph`]
//! must agree with [`KnowledgeGraph`], and [`DiskBackend`] retrieval must
//! be **bit-identical** (`f32::to_bits` on every score) to
//! [`EntitySearcher`] — same hits, same order, same floats. Worlds are
//! written with tiny shards so the multi-shard paths are always exercised,
//! and read twice: through the default caches, and through caches so small
//! that the block tier evicts and the neighbourhood tier flips generations
//! constantly.

use kglink_kg::{Entity, EntityId, GraphAccess, KgBuilder, NeSchema};
use kglink_search::EntitySearcher;
use kglink_store::{write_graph, DiskGraph, DiskWorld, WorldWriterConfig};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static CASE: AtomicU64 = AtomicU64::new(0);

fn casedir() -> PathBuf {
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    let d = std::env::temp_dir().join(format!(
        "kglink-store-transparency-{}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

const SCHEMAS: [NeSchema; 4] = [
    NeSchema::Person,
    NeSchema::Place,
    NeSchema::Work,
    NeSchema::Other,
];
const EXTRA_PREDS: [&str; 2] = ["performer", "country"];

/// A cache budget under which each of the eight block-tier shards holds one
/// or two blocks of these worlds and each neighbourhood-tier generation
/// (128 B: a 4-slot index, a 20-id arena) holds three lists, so nearly
/// every read evicts or flips; the BM25 cache gets the same.
const TINY_CACHE: usize = 8 << 10;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random graph → disk → every observation matches the source.
    #[test]
    fn disk_world_is_bit_identical_to_memory(
        type_labels in proptest::collection::vec("[a-e]{1,4}", 1..4),
        instances in proptest::collection::vec(
            ("[a-e]{1,4}", "[a-e]{0,3}", 0usize..4, 0usize..4),
            1..20,
        ),
        edges in proptest::collection::vec((0usize..20, 0usize..20, 0usize..2), 0..15),
        queries in proptest::collection::vec("[a-e]{1,4}", 1..6),
        per_shard in 1u32..7,
    ) {
        let mut b = KgBuilder::new();
        let tys: Vec<_> = type_labels
            .iter()
            .enumerate()
            .map(|(i, l)| b.add_type(&format!("{l}{i}"), None))
            .collect();
        let mut ids = Vec::new();
        for (label, alias, ty, schema) in &instances {
            let mut e = Entity::new(label.clone(), SCHEMAS[*schema % SCHEMAS.len()]);
            if !alias.is_empty() {
                e = e.with_alias(alias.clone());
            }
            ids.push(b.add_instance(e, tys[*ty % tys.len()]));
        }
        let mut g = b.build();
        for (s, t, p) in &edges {
            let pred = g.intern_predicate(EXTRA_PREDS[*p % EXTRA_PREDS.len()]);
            g.add_edge(ids[*s % ids.len()], pred, ids[*t % ids.len()]);
        }

        let dir = casedir();
        let cfg = WorldWriterConfig { per_shard, ..WorldWriterConfig::default() };
        let manifest = write_graph(&dir, &g, cfg).unwrap();
        prop_assert_eq!(manifest.n_entities, g.len() as u64);
        let mem = EntitySearcher::build(&g);
        for world in [
            DiskWorld::open(&dir).unwrap(),
            DiskWorld::open_with_caches(&dir, TINY_CACHE, TINY_CACHE).unwrap(),
        ] {
            prop_assert_eq!(world.graph.entity_count(), g.len());
            for (id, entity) in g.entities() {
                let got = world.graph.entity(id);
                prop_assert_eq!(&got.label, &entity.label);
                prop_assert_eq!(&got.aliases, &entity.aliases);
                prop_assert_eq!(&got.description, &entity.description);
                prop_assert_eq!(got.schema, entity.schema);
                prop_assert_eq!(got.is_type, entity.is_type);
                prop_assert_eq!(world.graph.label(id), g.label(id));
                prop_assert_eq!(world.graph.schema_of(id), g.schema_of(id));
                prop_assert_eq!(world.graph.one_hop(id), g.one_hop(id));
                prop_assert_eq!(
                    world.graph.one_hop_with_predicates(id),
                    g.one_hop_with_predicates(id)
                );
                prop_assert_eq!(world.graph.types_of(id), g.types_of(id));
                prop_assert_eq!(world.graph.superclasses_of(id), g.superclasses_of(id));
            }
            for i in 0..g.predicate_count() {
                let p = kglink_kg::PredicateId(i as u16);
                prop_assert_eq!(world.graph.predicate_name(p), g.predicate_name(p));
            }

            for q in queries.iter().map(String::as_str).chain(["zzz", ""]) {
                for k in [1usize, 3, 10] {
                    let m = mem.link_mention(q, k);
                    let d = world.backend.try_search(q, k).unwrap();
                    prop_assert_eq!(m.len(), d.len(), "query {:?} k {}", q, k);
                    for (a, b) in m.iter().zip(&d) {
                        prop_assert_eq!(a.0, b.0, "query {:?} k {}", q, k);
                        prop_assert_eq!(
                            a.1.to_bits(),
                            b.1.to_bits(),
                            "query {:?} k {}",
                            q,
                            k
                        );
                    }
                }
            }
            prop_assert_eq!(world.graph.error_count(), 0);
            prop_assert_eq!(world.backend.error_count(), 0);
            // A second read is answered by whichever tier kept the first
            // one, or by neither: the answer is the same.
            for (id, _) in g.entities() {
                prop_assert_eq!(world.graph.one_hop(id), g.one_hop(id));
                prop_assert_eq!(world.graph.label(id), g.label(id));
            }
            prop_assert_eq!(world.graph.error_count(), 0);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Queries of one to four tokens over posting lists that span several
    /// blocks: the staged traversal (rarest list first, seeks into the
    /// others, bounds that cut lists off) must return what scoring every
    /// document returns, bit for bit, at every `k`.
    #[test]
    fn multi_term_queries_over_multi_block_lists_are_bit_identical(
        // Twelve possible tokens over 172+ labels: every token's list is
        // long, and three labels in four also carry `a`, so the commonest
        // list always exceeds the 128 postings of one block.
        labels in proptest::collection::vec(
            (proptest::collection::vec("[a-c]{1,2}", 1..4), "[a-c]{0,2}"),
            172..300,
        ),
        queries in proptest::collection::vec(
            proptest::collection::vec("[a-c]{1,2}", 1..5),
            1..8,
        ),
    ) {
        let mut b = KgBuilder::new();
        let ty = b.add_type("zz", None);
        for (i, (tokens, alias)) in labels.iter().enumerate() {
            let common = if i % 4 == 3 { "" } else { "a " };
            let mut e = Entity::new(format!("{common}{}", tokens.join(" ")), NeSchema::Other);
            if !alias.is_empty() {
                e = e.with_alias(alias.clone());
            }
            b.add_instance(e, ty);
        }
        let g = b.build();
        let dir = casedir();
        write_graph(&dir, &g, WorldWriterConfig::default()).unwrap();
        let mem = EntitySearcher::build(&g);
        prop_assert!(mem.index().doc_freq("a") > 128);
        for world in [
            DiskWorld::open(&dir).unwrap(),
            DiskWorld::open_with_caches(&dir, TINY_CACHE, TINY_CACHE).unwrap(),
        ] {
            for tokens in &queries {
                let q = tokens.join(" ");
                for k in [1usize, 3, 10, g.len() + 1] {
                    let m: Vec<_> = mem.link_mention(&q, k).iter().map(|h| (h.0, h.1.to_bits())).collect();
                    let d: Vec<_> = world.backend.try_search(&q, k).unwrap().iter().map(|h| (h.0, h.1.to_bits())).collect();
                    prop_assert_eq!(m, d, "query {:?} k {}", q, k);
                }
            }
            prop_assert_eq!(world.backend.error_count(), 0);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// 100 000 mixed reads — every read kind, pseudo-random ids, one hub whose
/// neighbour list is larger than the whole tier — never put the graph's two
/// tiers over the one budget they share, and never change an answer.
#[test]
fn cache_budget_holds_under_mixed_reads_with_a_hub() {
    let mut b = KgBuilder::new();
    let hub = b.add_type("hub", None);
    let n = 20_000u32;
    for i in 0..n {
        b.add_instance(Entity::new(format!("e{i}"), NeSchema::Other), hub);
    }
    let mut g = b.build();
    let pred = g.intern_predicate(EXTRA_PREDS[0]);
    for i in 1..n {
        g.add_edge(EntityId(i), pred, EntityId(i % 97 + 1));
    }
    let dir = casedir();
    let cfg = WorldWriterConfig {
        per_shard: 6000,
        ..WorldWriterConfig::default()
    };
    write_graph(&dir, &g, cfg).unwrap();
    let cache_bytes = 256 << 10;
    let world = DiskWorld::open_with_caches(&dir, cache_bytes, cache_bytes).unwrap();
    assert!(
        g.one_hop(hub).len() * 4 > cache_bytes / 4,
        "the hub outweighs the tier"
    );

    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..100_000u32 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        // Half the reads go to a hot set of 64 entities, so lists are reused.
        let pick = (state >> 33) as u32;
        let id = EntityId(if pick & 1 == 0 {
            pick / 2 % 64
        } else {
            pick / 2 % (n + 1)
        });
        let id = if i.is_multiple_of(1000) { hub } else { id };
        match i % 4 {
            0 | 1 => assert_eq!(world.graph.one_hop(id), g.one_hop(id)),
            2 => assert_eq!(world.graph.label(id), g.label(id)),
            _ => assert_eq!(
                world.graph.one_hop_with_predicates(id),
                g.one_hop_with_predicates(id)
            ),
        }
        if i.is_multiple_of(500) {
            let s = world.graph.cache_stats();
            assert!(s.resident_bytes <= cache_bytes, "read {i}: {s:?}");
        }
    }
    let s = world.graph.cache_stats();
    assert!(s.resident_bytes <= cache_bytes, "{s:?}");
    assert!(
        s.resident_bytes > cache_bytes / 2,
        "both tiers are in use: {s:?}"
    );
    assert!(s.evictions > 0 && s.hits > 0 && s.misses > 0, "{s:?}");
    assert_eq!(world.graph.error_count(), 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The hot set the candidate filter re-reads fits the neighbourhood tier:
/// 20 000 entities of three neighbours each, through an 8 MiB graph cache
/// (a 2 MiB tier), are read twice, and the second pass runs the block
/// loader zero times. Each record carries a 400-byte description, so the
/// world (≈ 9 MB of blocks) outgrows the 6 MiB block tier and blocks alone
/// cannot serve that pass.
#[test]
fn hot_set_that_fits_is_served_from_memory() {
    let mut b = KgBuilder::new();
    let ty = b.add_type("hot", None);
    let n = 20_000usize;
    let ids: Vec<EntityId> = (0..n)
        .map(|i| {
            let e = Entity::new(format!("e{i}"), NeSchema::Other)
                .with_description(format!("{i:0>400}"));
            b.add_instance(e, ty)
        })
        .collect();
    let mut g = b.build();
    // A ring: each entity's neighbours are its type and both ring sides.
    let pred = g.intern_predicate(EXTRA_PREDS[0]);
    for (i, &id) in ids.iter().enumerate() {
        g.add_edge(id, pred, ids[(i + 1) % n]);
    }
    let dir = casedir();
    write_graph(&dir, &g, WorldWriterConfig::default()).unwrap();
    let graph = DiskGraph::open_with_cache(&dir, 8 << 20).unwrap();

    for &id in &ids {
        assert_eq!(graph.one_hop(id), g.one_hop(id));
        assert_eq!(g.one_hop(id).len(), 3);
    }
    let (loads, tier) = (graph.cache_stats().misses, graph.hop_tier_stats());
    for &id in &ids {
        assert_eq!(graph.one_hop(id), g.one_hop(id));
    }
    assert_eq!(
        graph.cache_stats().misses,
        loads,
        "the second pass ran the block loader"
    );
    let s = graph.hop_tier_stats();
    assert_eq!((s.hits - tier.hits, s.misses - tier.misses), (n as u64, 0));
    assert!(graph.cache_stats().resident_bytes <= 8 << 20);
    assert_eq!(graph.error_count(), 0);
    std::fs::remove_dir_all(&dir).unwrap();
}
