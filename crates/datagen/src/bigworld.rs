//! Streaming big-world generator: multi-million-entity KGs straight to disk.
//!
//! [`SyntheticWorld`](kglink_kg::SyntheticWorld) builds its graph in
//! memory, which caps it at the low millions of entities. This module
//! targets the `kglink-store` scale experiments: it emits entities in id
//! order directly into a [`WorldWriter`], holding only **one block** of
//! adjacency state at a time, so a 10M-entity world builds in tens of
//! megabytes of resident memory.
//!
//! The world is deliberately block-structured so adjacency is computable
//! without global state:
//!
//! - Entities are generated in blocks of `block_entities`. Each block is
//!   `instances ++ block types`: instances carry `instance of` edges to a
//!   type *in their own block* plus a `related to` ring edge, so every
//!   incoming list an entity needs is known by the time it is written.
//! - A tiny set of core types lives at the **end** of the id space. Block
//!   types point at them with `subclass of` forward references (the
//!   [`WorldWriter`] validates forward references at finish), giving the
//!   ontology two levels like the paper's granularity experiments expect.
//! - Labels come from bounded combinatorial word pools plus a numeric
//!   disambiguator, so token document frequencies are realistic (a first
//!   name recurs across ~1/64 of the corpus) while labels stay unique.
//!
//! Everything derives from `splitmix64(seed, id)` — no RNG state is
//! carried between entities, so generation is reproducible and could be
//! resumed or parallelized per block.
//!
//! The instance loop allocates nothing per entity, so it keeps pace with
//! the writer's BM25 builder thread. One [`Entity`] serves every instance:
//! its label is rewritten in place, its alias `String`s go to a spare pool
//! and come back as the next aliases' buffers, edges live in stack arrays,
//! the per-type incoming lists are cleared rather than dropped after each
//! block, and a mention is cloned only for the ids that are sampled. The
//! bytes written are those of an entity built from scratch (the
//! `golden_world` test pins them, and the sampled mentions).

use kglink_kg::{predicates, Edge, Entity, EntityId, NeSchema, PredicateId};
use kglink_store::{Manifest, StoreError, WorldWriter, WorldWriterConfig};
use std::fmt::Write;
use std::path::Path;

/// Predicate used for the intra-block instance ring.
pub const RELATED_TO: &str = "related to";

const FIRST: [&str; 24] = [
    "alda", "boris", "carmen", "dmitri", "elena", "farid", "greta", "hugo", "ines", "jonas",
    "katya", "liam", "mira", "nadia", "otto", "priya", "quentin", "rosa", "stefan", "tomas",
    "ulrike", "vera", "wanda", "yusuf",
];
const SECOND: [&str; 24] = [
    "berg", "castillo", "duarte", "eriksen", "fontaine", "garcia", "holm", "ivanov", "jensen",
    "kowalski", "lindqvist", "moreau", "novak", "okafor", "petrov", "quirke", "rossi", "silva",
    "tanaka", "ueda", "vargas", "weber", "yamada", "zhang",
];
const SCHEMAS: [NeSchema; 8] = [
    NeSchema::Person,
    NeSchema::Date,
    NeSchema::Organization,
    NeSchema::Place,
    NeSchema::Work,
    NeSchema::Biology,
    NeSchema::Concept,
    NeSchema::Other,
];

/// Geometry of a generated big world.
#[derive(Debug, Clone)]
pub struct BigWorldConfig {
    /// Minimum total entity count; the actual world rounds up to whole
    /// blocks plus the core type set.
    pub n_entities: u64,
    /// Entities per block (instances + block types).
    pub block_entities: u32,
    /// Type entities at the end of each block.
    pub types_per_block: u32,
    /// Core (top-level) type entities at the end of the id space.
    pub core_types: u32,
    /// Seed for the splitmix64 derivations.
    pub seed: u64,
    /// Maximum number of sample mentions collected for query benchmarks.
    pub mention_cap: usize,
    /// Skewed "hub" term families (0 disables). Each family `f` plants a
    /// `skewhub{f}` token with a deliberately top-heavy posting list: a
    /// few high-tf, short-document *hot* carriers at the very start of
    /// the id space, then a long tail of low-tf, padded *cold* carriers.
    /// Postings are doc-id ordered, so the hot docs land in the first
    /// posting block and fill a top-k heap whose threshold no later
    /// block's max can beat — the workload BM25 block-max skipping
    /// exists for (see `Bm25Segment`'s `skipped_blocks`).
    pub skew_terms: u32,
}

impl Default for BigWorldConfig {
    fn default() -> Self {
        BigWorldConfig {
            n_entities: 1_000_000,
            block_entities: 10_000,
            types_per_block: 16,
            core_types: 8,
            seed: 0x01ba_db16_c0de,
            mention_cap: 256,
            skew_terms: 8,
        }
    }
}

/// What a finished generation run produced.
#[derive(Debug, Clone)]
pub struct BigWorld {
    /// The committed world manifest.
    pub manifest: Manifest,
    /// Entity labels/aliases sampled uniformly over the id space — ready
    /// to use as retrieval queries against the world.
    pub mentions: Vec<String>,
    /// One single-token query per skew family (`skewhub{f}`); running
    /// these against the world's BM25 index exercises block-max skipping.
    pub skew_queries: Vec<String>,
}

/// splitmix64: a strong, stateless mix of (seed, value).
fn mix(seed: u64, v: u64) -> u64 {
    let mut z = seed ^ v.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Overwrite `e` with instance `id`'s label, schema and initials alias,
/// moving its old aliases to `spare` and reusing their buffers. Returns
/// whether the initials alias (always `aliases[0]`) was written.
fn fill_instance(e: &mut Entity, spare: &mut Vec<String>, seed: u64, id: u64) -> bool {
    let h = mix(seed, id);
    let first = FIRST[(h % 24) as usize];
    let second = SECOND[((h >> 8) % 24) as usize];
    let tag = id / (24 * 24);
    e.schema = SCHEMAS[((h >> 16) % 8) as usize];
    e.label.clear();
    let _ = write!(e.label, "{first} {second} {tag}");
    spare.append(&mut e.aliases);
    // A quarter of instances carry an initials-style alias, so the alias
    // path of the index sees real traffic at scale.
    let initials = h & 0b11_0000_0000_0000 == 0;
    if initials {
        push_alias(e, spare, format_args!("{} {second}", &first[..1]));
    }
    initials
}

/// Append an alias to `e`, written into a spare buffer when one is left.
fn push_alias(e: &mut Entity, spare: &mut Vec<String>, text: std::fmt::Arguments<'_>) {
    let mut alias = spare.pop().unwrap_or_default();
    alias.clear();
    let _ = alias.write_fmt(text);
    e.aliases.push(alias);
}

/// Generate a world into `dir`. Returns the manifest and sampled
/// mentions. Peak memory is O(`block_entities` + `n_blocks ×
/// types_per_block`) regardless of total world size.
pub fn generate_big_world(
    dir: &Path,
    cfg: &BigWorldConfig,
    store: WorldWriterConfig,
) -> Result<BigWorld, StoreError> {
    if cfg.types_per_block == 0 || cfg.block_entities <= cfg.types_per_block {
        return Err(StoreError::Corrupt(
            "block_entities must exceed types_per_block (both positive)".into(),
        ));
    }
    if cfg.core_types == 0 {
        return Err(StoreError::Corrupt("core_types must be positive".into()));
    }
    let block = u64::from(cfg.block_entities);
    let insts = block - u64::from(cfg.types_per_block);
    let n_blocks = cfg.n_entities.saturating_sub(u64::from(cfg.core_types)).div_ceil(block).max(1);
    let total = n_blocks * block + u64::from(cfg.core_types);
    if total > u64::from(u32::MAX) {
        return Err(StoreError::Corrupt(format!(
            "{total} entities overflow u32 entity ids"
        )));
    }
    let core_base = n_blocks * block;
    let mention_stride = (n_blocks * insts / cfg.mention_cap.max(1) as u64).max(1);

    let mut w = WorldWriter::new(dir, store)?;
    let p31 = w.intern_predicate(predicates::INSTANCE_OF)?;
    let p279 = w.intern_predicate(predicates::SUBCLASS_OF)?;
    let rel = w.intern_predicate(RELATED_TO)?;
    let mut mentions = Vec::new();

    // One instance entity, its alias buffers and the type lists are reused
    // for the whole world: the loop allocates nothing per instance.
    let mut e = Entity::new(String::new(), SCHEMAS[0]);
    let mut spare: Vec<String> = Vec::new();
    // Incoming `instance of` lists for this block's types, filled as the
    // instances stream out.
    let mut type_in: Vec<Vec<Edge>> = vec![Vec::new(); cfg.types_per_block as usize];
    let mut ty = Entity::new_type(String::new());
    let hot_total = 16 * u64::from(cfg.skew_terms);
    for b in 0..n_blocks {
        let base = b * block;
        for j in 0..insts {
            let id = base + j;
            let h = mix(cfg.seed ^ 0xb10c, id);
            let t = (h % u64::from(cfg.types_per_block)) as usize;
            let type_id = EntityId((base + insts + t as u64) as u32);
            let initials = fill_instance(&mut e, &mut spare, cfg.seed, id);
            // Skew families: the first `16 × skew_terms` ids are hot
            // carriers (tf 4, short doc); a hashed ~`skew_terms`/97 slice
            // of the remaining ids are cold carriers (tf 1, padded doc).
            if cfg.skew_terms > 0 {
                if b == 0 && j < hot_total {
                    let fam = j / 16;
                    push_alias(
                        &mut e,
                        &mut spare,
                        format_args!("skewhub{fam} skewhub{fam} skewhub{fam} skewhub{fam}"),
                    );
                } else if id >= hot_total {
                    let fam = mix(cfg.seed ^ 0x5e3b, id) % 97;
                    if fam < u64::from(cfg.skew_terms) {
                        push_alias(
                            &mut e,
                            &mut spare,
                            format_args!("skewhub{fam} archive backfill record entry item note"),
                        );
                    }
                }
            }
            // The ring needs a second instance; arrays keep edges off the heap.
            let ring = usize::from(insts > 1);
            let out = [
                Edge {
                    predicate: p31,
                    target: type_id,
                },
                Edge {
                    predicate: rel,
                    target: EntityId((base + (j + 1) % insts) as u32),
                },
            ];
            let inc = [Edge {
                predicate: rel,
                target: EntityId((base + (j + insts - 1) % insts) as u32),
            }];
            let got = w.add_entity(&e, &out[..1 + ring], &inc[..ring])?;
            type_in[t].push(Edge {
                predicate: p31,
                target: got,
            });
            if mentions.len() < cfg.mention_cap && id % mention_stride == 0 {
                // Mentions sample the *organic* surface forms, never a
                // skew alias, so query benchmarks stay representative.
                let organic = if initials && h & 1 == 0 {
                    &e.aliases[0]
                } else {
                    &e.label
                };
                mentions.push(organic.clone());
            }
        }
        for (t, inc) in type_in.iter_mut().enumerate() {
            let core = (b * u64::from(cfg.types_per_block) + t as u64)
                % u64::from(cfg.core_types);
            let out = [Edge {
                predicate: p279,
                // Forward reference: core types are written last.
                target: EntityId((core_base + core) as u32),
            }];
            ty.label.clear();
            let _ = write!(ty.label, "category {b} {t}");
            w.add_entity(&ty, &out, inc)?;
            inc.clear();
        }
    }
    // Core types, with every block type that subclasses them incoming.
    for c in 0..u64::from(cfg.core_types) {
        let mut inc = Vec::new();
        for b in 0..n_blocks {
            for t in 0..u64::from(cfg.types_per_block) {
                if (b * u64::from(cfg.types_per_block) + t) % u64::from(cfg.core_types) == c {
                    inc.push(Edge {
                        predicate: p279,
                        target: EntityId((b * block + insts + t) as u32),
                    });
                }
            }
        }
        let e = Entity::new_type(format!("core domain {c}"));
        w.add_entity(&e, &[], &inc)?;
    }
    let manifest = w.finish()?;
    let skew_queries = (0..cfg.skew_terms)
        .map(|f| format!("skewhub{f}"))
        .collect();
    Ok(BigWorld {
        manifest,
        mentions,
        skew_queries,
    })
}

/// Predicate id of [`RELATED_TO`] in a generated world (interned third,
/// after the two ontology predicates).
pub fn related_to_id() -> PredicateId {
    PredicateId(2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kglink_kg::GraphAccess;
    use kglink_store::DiskWorld;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "kglink-bigworld-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn small_cfg() -> BigWorldConfig {
        BigWorldConfig {
            n_entities: 2_000,
            block_entities: 500,
            types_per_block: 8,
            core_types: 4,
            mention_cap: 32,
            ..BigWorldConfig::default()
        }
    }

    #[test]
    fn generated_world_opens_and_is_coherent() {
        let dir = tmpdir("coherent");
        let bw = generate_big_world(&dir, &small_cfg(), WorldWriterConfig::default()).unwrap();
        assert!(bw.manifest.n_entities >= 2_000);
        assert_eq!(bw.mentions.len(), 32);
        let world = DiskWorld::open(&dir).unwrap();
        // Every instance has exactly one type, inside its own block, and
        // that type subclasses a core type.
        let id = EntityId(123);
        let tys = world.graph.types_of(id);
        assert_eq!(tys.len(), 1);
        assert!(world.graph.entity(tys[0]).is_type);
        let supers = world.graph.superclasses_of(tys[0]);
        assert_eq!(supers.len(), 1);
        assert!(world.graph.label(supers[0]).starts_with("core domain"));
        // Ring edges are symmetric through the one-hop view.
        assert!(world.graph.one_hop(id).contains(&EntityId(124)));
        // Sampled mentions actually retrieve entities.
        let hits = world.backend.try_search(&bw.mentions[0], 3).unwrap();
        assert!(!hits.is_empty(), "mention {:?} found nothing", bw.mentions[0]);
        // Skew hub terms retrieve, and the top hit is a hot carrier from
        // the front of the id space (tf 4 beats the padded cold tail).
        let hits = world.backend.try_search(&bw.skew_queries[0], 3).unwrap();
        assert!(!hits.is_empty(), "skew term found nothing");
        assert!(hits[0].0 .0 < 128, "top skew hit {:?} is not a hot carrier", hits[0].0);
        assert_eq!(world.graph.error_count(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn generation_is_deterministic() {
        let (d1, d2) = (tmpdir("det1"), tmpdir("det2"));
        let a = generate_big_world(&d1, &small_cfg(), WorldWriterConfig::default()).unwrap();
        let b = generate_big_world(&d2, &small_cfg(), WorldWriterConfig::default()).unwrap();
        assert_eq!(a.manifest, b.manifest);
        assert_eq!(a.mentions, b.mentions);
        assert_eq!(a.skew_queries, b.skew_queries);
        std::fs::remove_dir_all(&d1).unwrap();
        std::fs::remove_dir_all(&d2).unwrap();
    }

    #[test]
    fn degenerate_geometry_is_rejected() {
        let dir = tmpdir("degenerate");
        let cfg = BigWorldConfig {
            block_entities: 8,
            types_per_block: 8,
            ..BigWorldConfig::default()
        };
        assert!(matches!(
            generate_big_world(&dir, &cfg, WorldWriterConfig::default()),
            Err(StoreError::Corrupt(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
