//! Disk-backed implementations of the pipeline's two abstraction seams:
//! [`DiskGraph`] behind [`kglink_kg::GraphAccess`] and [`DiskBackend`]
//! behind [`kglink_search::KgBackend`].
//!
//! Both follow the same two-tier error contract: inherent `try_*` methods
//! surface every [`StoreError`] typed, while the trait facades *degrade*
//! failures to the paper's no-linkage semantics (empty results, default
//! placeholders) and count them on an atomic — the pipeline never sees a
//! panic or an `Err` it has no recovery for, and `exp_scale` asserts the
//! counters stayed at zero on healthy worlds. This mirrors how
//! `KgBackend::link_mention` already treats retrieval failure.
//!
//! The trait facades make these drop-in replacements: an
//! `Arc<DiskGraph>` goes wherever an in-memory graph went, and a
//! `DiskBackend` composes under `CachingBackend` exactly like
//! `EntitySearcher` does. On small worlds the results are
//! bit-identical (the transparency proptests pin both seams); the only
//! observable difference is that the world no longer has to fit in RAM.

use crate::blockcache::{BlockCache, BlockCacheStats};
use crate::bm25seg::{Bm25Segment, QueryStats, BM25_FILE};
use crate::error::StoreError;
use crate::hoptier::{Answer, AnswerTier, Label, OneHop, Predicates, Schema};
use crate::manifest::Manifest;
use crate::segment::{shard_file_name, EntityRecord, Segment};
use kglink_kg::{Edge, Entity, EntityId, GraphAccess, NeSchema, PredicateId};
use kglink_search::backend::{Deadline, KgBackend, RetrievalError, SearchOutcome};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Default block-cache budget for a [`DiskGraph`]: enough for a hot
/// working set, far below any interesting world size.
pub const DEFAULT_GRAPH_CACHE_BYTES: usize = 64 << 20;
/// Default posting-cache budget for a [`DiskBackend`].
pub const DEFAULT_BM25_CACHE_BYTES: usize = 64 << 20;

/// The answer tier's share of a [`DiskGraph`]'s cache budget is
/// `1 / TIER_SHARE`. A quarter: a generation of the tier holds a wanted
/// answer in ≈ 37 bytes (128 KiB over 3 584 entries), where a block keeps
/// it only with the 255 records around it, while reads no tier kind
/// answers — which only blocks serve — lose a quarter of their reach.
const TIER_SHARE: usize = 4;

/// A sharded, disk-backed knowledge graph.
///
/// Entity id `i` lives in shard `i / per_shard` at local offset
/// `i % per_shard`. Resident memory is the manifest, the per-shard block
/// indexes and two tiers under one byte budget, whatever the world size:
/// `blocks` holds verified record and adjacency blocks, and `answers`, in
/// front of it, the `Ok` answers of [`try_one_hop`](Self::try_one_hop),
/// [`try_label`](Self::try_label), [`try_schema`](Self::try_schema) and
/// [`try_one_hop_with_predicates`](Self::try_one_hop_with_predicates),
/// each keyed by (entity, kind).
#[derive(Debug)]
pub struct DiskGraph {
    manifest: Manifest,
    shards: Vec<Segment>,
    blocks: BlockCache,
    answers: AnswerTier,
    errors: AtomicU64,
}

impl DiskGraph {
    /// Open a world directory with the default cache budget.
    pub fn open(dir: &Path) -> Result<Self, StoreError> {
        Self::open_with_cache(dir, DEFAULT_GRAPH_CACHE_BYTES)
    }

    /// Open a world directory, bounding cached data to `cache_bytes`: a
    /// quarter for the answer tier, the rest for blocks.
    pub fn open_with_cache(dir: &Path, cache_bytes: usize) -> Result<Self, StoreError> {
        let manifest = Manifest::read(dir)?;
        let mut shards = Vec::with_capacity(manifest.n_shards as usize);
        for i in 0..manifest.n_shards {
            let seg = Segment::open(&dir.join(shard_file_name(i)))?;
            if seg.shard_index() != i {
                return Err(StoreError::Corrupt(format!(
                    "shard file {i} claims index {}",
                    seg.shard_index()
                )));
            }
            let expect_first = i as u64 * u64::from(manifest.per_shard);
            if u64::from(seg.first_id()) != expect_first {
                return Err(StoreError::Corrupt(format!(
                    "shard {i} starts at entity {} instead of {expect_first}",
                    seg.first_id()
                )));
            }
            let expect_records =
                (manifest.n_entities - expect_first).min(u64::from(manifest.per_shard));
            if u64::from(seg.n_records()) != expect_records {
                return Err(StoreError::Corrupt(format!(
                    "shard {i} holds {} records, manifest implies {expect_records}",
                    seg.n_records()
                )));
            }
            shards.push(seg);
        }
        let tier_bytes = cache_bytes / TIER_SHARE;
        Ok(DiskGraph {
            manifest,
            shards,
            blocks: BlockCache::new(cache_bytes - tier_bytes, 8),
            answers: AnswerTier::new(tier_bytes),
            errors: AtomicU64::new(0),
        })
    }

    /// The world manifest.
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// Failures degraded by the `GraphAccess` facade so far.
    pub fn error_count(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }

    /// Counters over both tiers: `hits` are reads answered from memory by
    /// either, `misses` reads that went to disk, evictions and resident
    /// bytes are summed (`resident_bytes <= cache_bytes`).
    pub fn cache_stats(&self) -> BlockCacheStats {
        let (blocks, tier) = (self.blocks.stats(), self.answers.stats());
        BlockCacheStats {
            hits: blocks.hits + tier.hits,
            misses: blocks.misses,
            evictions: blocks.evictions + tier.evictions,
            resident_bytes: blocks.resident_bytes + tier.resident_bytes,
        }
    }

    /// Counters of the answer tier alone, summed over its four kinds
    /// (one-hop lists, labels, schemas, predicate lists): `hits` and
    /// `misses` are reads it answered and did not, evictions are answers
    /// dropped by generation flips, `resident_bytes` its allocation.
    pub fn hop_tier_stats(&self) -> BlockCacheStats {
        self.answers.stats()
    }

    /// `id`'s answer of `A`'s kind from the tier, or `load`ed and kept
    /// there if it is `Ok`.
    fn answer<A: Answer>(
        &self,
        id: EntityId,
        load: impl FnOnce() -> Result<A::Value, StoreError>,
    ) -> Result<A::Value, StoreError> {
        if let Some(value) = self.answers.get::<A>(id) {
            return Ok(value);
        }
        let value = load()?;
        self.answers.insert::<A>(id, &value);
        Ok(value)
    }

    fn locate(&self, id: EntityId) -> Result<(&Segment, u32), StoreError> {
        let idx = u64::from(id.0);
        if idx >= self.manifest.n_entities {
            return Err(StoreError::UnknownEntity {
                id: id.0,
                n_entities: self.manifest.n_entities,
            });
        }
        let shard = (idx / u64::from(self.manifest.per_shard)) as usize;
        let local = (idx % u64::from(self.manifest.per_shard)) as u32;
        Ok((&self.shards[shard], local))
    }

    /// Full record — entity plus both adjacency directions.
    pub fn try_record(&self, id: EntityId) -> Result<EntityRecord, StoreError> {
        let (seg, local) = self.locate(id)?;
        seg.read_record(local, &self.blocks)
    }

    /// Entity fields without the edge lists.
    pub fn try_entity(&self, id: EntityId) -> Result<Entity, StoreError> {
        let (seg, local) = self.locate(id)?;
        seg.read_entity(local, &self.blocks)
    }

    /// Label only, through the answer tier.
    pub fn try_label(&self, id: EntityId) -> Result<String, StoreError> {
        self.answer::<Label>(id, || {
            let (seg, local) = self.locate(id)?;
            seg.read_label(local, &self.blocks)
        })
    }

    /// `(schema, is_type)` only, through the answer tier.
    pub fn try_schema(&self, id: EntityId) -> Result<(NeSchema, bool), StoreError> {
        self.answer::<Schema>(id, || {
            let (seg, local) = self.locate(id)?;
            seg.read_schema(local, &self.blocks)
        })
    }

    /// Both edge lists of `id`, `visit(outgoing, edge)` in stored order.
    fn try_edges(&self, id: EntityId, visit: impl FnMut(bool, Edge)) -> Result<(), StoreError> {
        let (seg, local) = self.locate(id)?;
        seg.read_edges(local, &self.blocks, visit)
    }

    /// One-hop neighborhood, as `KnowledgeGraph::one_hop` answers it
    /// (either direction, deduplicated, sorted, self removed), through the
    /// answer tier; a miss reads the list the writer stored in the record's
    /// adjacency block. Lists above ⅛ of a tier shard are not kept, so one
    /// hub cannot flush it.
    pub fn try_one_hop(&self, id: EntityId) -> Result<Vec<EntityId>, StoreError> {
        self.answer::<OneHop>(id, || {
            let (seg, local) = self.locate(id)?;
            seg.read_one_hop(local, &self.blocks)
        })
    }

    /// One-hop neighborhood with predicates, replicating
    /// `KnowledgeGraph::one_hop_with_predicates` (outgoing then incoming,
    /// self-loops dropped, sorted by predicate *name* then target, deduped),
    /// through the answer tier.
    pub fn try_one_hop_with_predicates(
        &self,
        id: EntityId,
    ) -> Result<Vec<(PredicateId, EntityId)>, StoreError> {
        self.answer::<Predicates>(id, || self.read_one_hop_with_predicates(id))
    }

    fn read_one_hop_with_predicates(
        &self,
        id: EntityId,
    ) -> Result<Vec<(PredicateId, EntityId)>, StoreError> {
        let mut pairs = Vec::new();
        self.try_edges(id, |_, e| {
            if e.target != id {
                pairs.push((e.predicate, e.target));
            }
        })?;
        for &(p, _) in &pairs {
            if usize::from(p.0) >= self.manifest.predicates.len() {
                return Err(StoreError::Corrupt(format!(
                    "edge predicate {p} outside the vocabulary"
                )));
            }
        }
        pairs.sort_unstable_by(|a, b| {
            self.manifest.predicates[usize::from(a.0 .0)]
                .cmp(&self.manifest.predicates[usize::from(b.0 .0)])
                .then(a.1.cmp(&b.1))
        });
        pairs.dedup();
        Ok(pairs)
    }

    fn try_targets_of(
        &self,
        id: EntityId,
        predicate: Option<PredicateId>,
    ) -> Result<Vec<EntityId>, StoreError> {
        let Some(p) = predicate else {
            return Ok(Vec::new());
        };
        let mut targets = Vec::new();
        self.try_edges(id, |outgoing, e| {
            if outgoing && e.predicate == p {
                targets.push(e.target);
            }
        })?;
        Ok(targets)
    }

    /// Targets of `instance of` edges, in insertion order.
    pub fn try_types_of(&self, id: EntityId) -> Result<Vec<EntityId>, StoreError> {
        self.try_targets_of(id, self.manifest.instance_of)
    }

    /// Targets of `subclass of` edges, in insertion order.
    pub fn try_superclasses_of(&self, id: EntityId) -> Result<Vec<EntityId>, StoreError> {
        self.try_targets_of(id, self.manifest.subclass_of)
    }

    fn degrade<T>(&self, r: Result<T, StoreError>, default: T) -> T {
        match r {
            Ok(v) => v,
            Err(_) => {
                self.errors.fetch_add(1, Ordering::Relaxed);
                default
            }
        }
    }
}

impl GraphAccess for DiskGraph {
    fn entity_count(&self) -> usize {
        self.manifest.n_entities as usize
    }

    fn entity(&self, id: EntityId) -> Entity {
        let r = self.try_entity(id);
        self.degrade(r, Entity::new("", NeSchema::Other))
    }

    fn label(&self, id: EntityId) -> String {
        let r = self.try_label(id);
        self.degrade(r, String::new())
    }

    fn schema_of(&self, id: EntityId) -> NeSchema {
        let r = self.try_schema(id).map(|(s, _)| s);
        self.degrade(r, NeSchema::Other)
    }

    fn predicate_name(&self, p: PredicateId) -> String {
        match self.manifest.predicates.get(usize::from(p.0)) {
            Some(name) => name.clone(),
            None => {
                self.errors.fetch_add(1, Ordering::Relaxed);
                String::new()
            }
        }
    }

    fn one_hop(&self, id: EntityId) -> Vec<EntityId> {
        let r = self.try_one_hop(id);
        self.degrade(r, Vec::new())
    }

    fn one_hop_with_predicates(&self, id: EntityId) -> Vec<(PredicateId, EntityId)> {
        let r = self.try_one_hop_with_predicates(id);
        self.degrade(r, Vec::new())
    }

    fn types_of(&self, id: EntityId) -> Vec<EntityId> {
        let r = self.try_types_of(id);
        self.degrade(r, Vec::new())
    }

    fn superclasses_of(&self, id: EntityId) -> Vec<EntityId> {
        let r = self.try_superclasses_of(id);
        self.degrade(r, Vec::new())
    }
}

/// [`QueryStats`] accumulated across a backend's lifetime. `scored_docs +
/// skipped_docs` is the summed `df` of every term the queries opened.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BackendStats {
    /// Queries answered without a store error.
    pub queries: u64,
    /// Docs scored in full and offered to a top-k heap.
    pub scored_docs: u64,
    /// Postings never scored: in a skipped block, in a list cut off before
    /// its stage, or of a doc an earlier stage already handled.
    pub skipped_docs: u64,
    /// Posting blocks never decoded as their stage's own.
    pub skipped_blocks: u64,
    /// Queries degraded to empty results by the `KgBackend` facade.
    pub errors: u64,
}

/// The on-disk BM25 index as a retrieval backend.
///
/// `search_entities` succeeds like `EntitySearcher` does
/// (`truncated: false`); a [`StoreError`] degrades to an *empty,
/// truncated* outcome plus an error count rather than a `RetrievalError`,
/// because the trait's error vocabulary describes transient service
/// faults, not durable data corruption.
#[derive(Debug)]
pub struct DiskBackend {
    seg: Bm25Segment,
    cache: BlockCache,
    queries: AtomicU64,
    scored: AtomicU64,
    skipped: AtomicU64,
    skipped_blocks: AtomicU64,
    errors: AtomicU64,
}

impl DiskBackend {
    /// Open the BM25 segment of a world directory.
    pub fn open(dir: &Path) -> Result<Self, StoreError> {
        Self::open_with_cache(dir, DEFAULT_BM25_CACHE_BYTES)
    }

    /// Open with an explicit posting-cache budget.
    pub fn open_with_cache(dir: &Path, cache_bytes: usize) -> Result<Self, StoreError> {
        let seg = Bm25Segment::open(&dir.join(BM25_FILE))?;
        Ok(DiskBackend {
            seg,
            cache: BlockCache::new(cache_bytes, 8),
            queries: AtomicU64::new(0),
            scored: AtomicU64::new(0),
            skipped: AtomicU64::new(0),
            skipped_blocks: AtomicU64::new(0),
            errors: AtomicU64::new(0),
        })
    }

    /// The underlying segment.
    pub fn segment(&self) -> &Bm25Segment {
        &self.seg
    }

    /// Typed search: every store failure surfaces.
    pub fn try_search(
        &self,
        query: &str,
        top_k: usize,
    ) -> Result<Vec<(EntityId, f32)>, StoreError> {
        let (hits, stats) = self.seg.search_with_stats(query, top_k, &self.cache)?;
        self.record(stats);
        Ok(hits.into_iter().map(|(d, s)| (EntityId(d), s)).collect())
    }

    fn record(&self, s: QueryStats) {
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.scored.fetch_add(s.scored_docs, Ordering::Relaxed);
        self.skipped.fetch_add(s.skipped_docs, Ordering::Relaxed);
        self.skipped_blocks
            .fetch_add(s.skipped_blocks, Ordering::Relaxed);
    }

    /// Lifetime counters.
    pub fn stats(&self) -> BackendStats {
        BackendStats {
            queries: self.queries.load(Ordering::Relaxed),
            scored_docs: self.scored.load(Ordering::Relaxed),
            skipped_docs: self.skipped.load(Ordering::Relaxed),
            skipped_blocks: self.skipped_blocks.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
        }
    }

    /// Failures degraded by the `KgBackend` facade so far.
    pub fn error_count(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }

    /// Posting-cache counters.
    pub fn cache_stats(&self) -> BlockCacheStats {
        self.cache.stats()
    }
}

impl KgBackend for DiskBackend {
    fn search_entities(
        &self,
        query: &str,
        top_k: usize,
        _deadline: Deadline,
    ) -> Result<SearchOutcome, RetrievalError> {
        match self.try_search(query, top_k) {
            Ok(hits) => Ok(SearchOutcome {
                hits,
                truncated: false,
            }),
            Err(_) => {
                self.errors.fetch_add(1, Ordering::Relaxed);
                Ok(SearchOutcome {
                    hits: Vec::new(),
                    truncated: true,
                })
            }
        }
    }
}
