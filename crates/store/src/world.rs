//! Building and opening complete on-disk worlds.
//!
//! A *world directory* is the unit a pipeline opens: N entity shards
//! (`entities-NNNNN.kges`), one BM25 segment (`index.kgbm`), and the
//! manifest (`world.kgsm`) that commits them. [`WorldWriter`] streams a
//! world to disk in bounded memory — entities arrive once, in id order,
//! and are never all resident; [`write_graph`] converts an in-memory
//! [`KnowledgeGraph`] (the transparency baseline); [`DiskWorld`] opens the
//! result as the `GraphAccess` + `KgBackend` pair the pipeline consumes.
//!
//! Crash safety composes from the segment layer: every file is published
//! by temp → fsync → rename, the manifest is written last, and
//! [`WorldWriter::new`] deletes any *stale* manifest up front — so a crash
//! during a rebuild can never pair an old manifest with new shards.
//!
//! The BM25 segment builds on a thread of its own. [`WorldWriter`] packs
//! every label and alias into batches of `BATCH_DOCS` (4 096) documents
//! and hands full batches over a bounded channel; the builder thread
//! indexes them in arrival order, so the segment's bytes are those of an
//! inline build, and returns each emptied batch for reuse (at most three
//! exist at once).
//! [`WorldWriter::finish`] sends the commit signal and joins the thread.
//! Dropping an unfinished writer closes the channel without that signal
//! and joins the thread, whose builder then drops unpublished and removes
//! its spill runs. The builder's first error — or its panic, as a
//! [`StoreError::Corrupt`] — surfaces from the next `add_entity` that
//! hands over a batch, or from `finish`; after any error the writer
//! refuses every further call.
//!
//! Identifier discipline: entity ids are assigned densely in arrival
//! order (exactly like `KnowledgeGraph::add_entity`), and predicate ids in
//! interning order (exactly like `intern_predicate`, including `instance
//! of` / `subclass of` detection). Edges may reference entities not yet
//! written — block generators emit forward references to a core type set
//! at the end of the id space — and [`WorldWriter::finish`] verifies every
//! reference landed inside the world.

use crate::backend::{DiskBackend, DiskGraph};
use crate::bm25seg::{Bm25SegBuilder, Bm25Stats, BM25_FILE, DEFAULT_SPILL_POSTINGS};
use crate::error::StoreError;
use crate::manifest::{Manifest, MANIFEST_FILE};
use crate::segment::{shard_file_name, SegmentWriter};
use kglink_kg::{predicates, Edge, Entity, EntityId, KnowledgeGraph, PredicateId};
use kglink_search::Bm25Params;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Documents (labels and aliases) per batch handed to the BM25 builder
/// thread.
const BATCH_DOCS: usize = 4_096;

/// Geometry and indexing knobs for a world build.
#[derive(Debug, Clone)]
pub struct WorldWriterConfig {
    /// Entities per shard. 65 536 keeps shard files ≈ tens of MB at
    /// typical record sizes.
    pub per_shard: u32,
    /// BM25 parameters baked into the index segment.
    pub bm25: Bm25Params,
    /// Posting budget before the BM25 builder spills a run to disk.
    pub spill_postings: usize,
}

impl Default for WorldWriterConfig {
    fn default() -> Self {
        WorldWriterConfig {
            per_shard: 65_536,
            bm25: Bm25Params::default(),
            spill_postings: DEFAULT_SPILL_POSTINGS,
        }
    }
}

/// Index fields on their way to the builder thread: every text in one
/// arena, and per field its document id and end offset in the arena.
#[derive(Default)]
struct DocBatch {
    text: String,
    docs: Vec<(u32, usize)>,
}

impl std::fmt::Debug for DocBatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DocBatch({} docs)", self.docs.len())
    }
}

impl DocBatch {
    fn push(&mut self, doc: u32, field: &str) {
        self.text.push_str(field);
        self.docs.push((doc, self.text.len()));
    }
}

/// One hand-over to the builder thread: fields to index after every
/// earlier batch and, on the last one, the commit signal.
struct Handover {
    batch: DocBatch,
    commit: bool,
}

/// The BM25 builder's thread and both ends of its batch traffic.
#[derive(Debug)]
struct BuilderThread {
    /// Bound 1: one batch queued while one is indexed and one is filled.
    batches: SyncSender<Handover>,
    /// Emptied batches coming back for reuse.
    free: Receiver<DocBatch>,
    handle: JoinHandle<Result<Bm25Stats, StoreError>>,
}

impl BuilderThread {
    fn spawn(builder: Bm25SegBuilder) -> Result<Self, StoreError> {
        let (batches, rx) = sync_channel(1);
        let (free_tx, free) = sync_channel(2);
        let handle = std::thread::Builder::new()
            .name("kglink-bm25".into())
            .spawn(move || index_batches(builder, &rx, &free_tx))?;
        Ok(BuilderThread {
            batches,
            free,
            handle,
        })
    }

    /// Close the channel, wait for the thread and return what it
    /// returned; a panic becomes a typed error.
    fn join(self) -> Result<Bm25Stats, StoreError> {
        drop(self.batches);
        self.handle.join().unwrap_or_else(|panic| {
            let why = panic
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("non-string payload");
            Err(StoreError::Corrupt(format!(
                "BM25 builder thread panicked: {why}"
            )))
        })
    }
}

/// The builder thread's body: index batches in arrival order until the
/// commit signal (publish the segment) or a closed channel (drop the
/// builder unpublished, which removes its runs).
fn index_batches(
    mut builder: Bm25SegBuilder,
    batches: &Receiver<Handover>,
    free: &SyncSender<DocBatch>,
) -> Result<Bm25Stats, StoreError> {
    while let Ok(Handover { mut batch, commit }) = batches.recv() {
        let mut start = 0;
        for &(doc, end) in &batch.docs {
            builder.add_doc(doc, &batch.text[start..end])?;
            start = end;
        }
        if commit {
            return builder.finish();
        }
        batch.text.clear();
        batch.docs.clear();
        // Never blocks: a full queue or a gone writer just frees the batch.
        let _ = free.try_send(batch);
    }
    Err(StoreError::Corrupt(
        "world build dropped before finish".into(),
    ))
}

/// Streaming writer for a world directory.
#[derive(Debug)]
pub struct WorldWriter {
    dir: PathBuf,
    cfg: WorldWriterConfig,
    predicates: Vec<String>,
    instance_of: Option<PredicateId>,
    subclass_of: Option<PredicateId>,
    shard: Option<SegmentWriter>,
    next_shard: u32,
    next_id: u32,
    /// Highest entity id any edge referenced (forward references allowed).
    max_ref: Option<u32>,
    /// `None` once joined: after `finish`, or after the thread failed.
    builder: Option<BuilderThread>,
    batch: DocBatch,
    /// The first error any call returned; every later call returns it.
    failed: Option<StoreError>,
}

impl WorldWriter {
    /// Start a world build in `dir` (created if missing). Any manifest
    /// left by a previous build is removed immediately, so the directory
    /// cannot be opened as a world until [`WorldWriter::finish`] commits.
    pub fn new(dir: &Path, cfg: WorldWriterConfig) -> Result<Self, StoreError> {
        if cfg.per_shard == 0 {
            return Err(StoreError::Corrupt("per_shard must be positive".into()));
        }
        std::fs::create_dir_all(dir)?;
        let stale = dir.join(MANIFEST_FILE);
        if stale.exists() {
            std::fs::remove_file(&stale)?;
        }
        let bm25 = Bm25SegBuilder::create(&dir.join(BM25_FILE), cfg.bm25, cfg.spill_postings);
        let builder = BuilderThread::spawn(bm25)?;
        Ok(WorldWriter {
            dir: dir.to_path_buf(),
            cfg,
            predicates: Vec::new(),
            instance_of: None,
            subclass_of: None,
            shard: None,
            next_shard: 0,
            next_id: 0,
            max_ref: None,
            builder: Some(builder),
            batch: DocBatch::default(),
            failed: None,
        })
    }

    /// Register (or look up) a predicate by name — same id assignment and
    /// special-predicate detection as `KnowledgeGraph::intern_predicate`.
    pub fn intern_predicate(&mut self, name: &str) -> Result<PredicateId, StoreError> {
        if let Some(pos) = self.predicates.iter().position(|p| p == name) {
            return Ok(PredicateId(pos as u16));
        }
        let id = PredicateId(u16::try_from(self.predicates.len()).map_err(|_| {
            StoreError::Corrupt("more than u16::MAX predicates".into())
        })?);
        self.predicates.push(name.to_string());
        if name == predicates::INSTANCE_OF {
            self.instance_of = Some(id);
        } else if name == predicates::SUBCLASS_OF {
            self.subclass_of = Some(id);
        }
        Ok(id)
    }

    /// Append the next entity (ids are dense, in arrival order) together
    /// with both adjacency directions. Edge targets may point forward to
    /// ids not yet written; predicates must already be interned. After an
    /// error, this and [`WorldWriter::finish`] fail for good.
    pub fn add_entity(
        &mut self,
        entity: &Entity,
        outgoing: &[Edge],
        incoming: &[Edge],
    ) -> Result<EntityId, StoreError> {
        if let Some(e) = &self.failed {
            return Err(e.clone());
        }
        let added = self.try_add_entity(entity, outgoing, incoming);
        if let Err(e) = &added {
            self.failed = Some(e.clone());
        }
        added
    }

    fn try_add_entity(
        &mut self,
        entity: &Entity,
        outgoing: &[Edge],
        incoming: &[Edge],
    ) -> Result<EntityId, StoreError> {
        let id = self.next_id;
        for e in outgoing.iter().chain(incoming.iter()) {
            if usize::from(e.predicate.0) >= self.predicates.len() {
                return Err(StoreError::Corrupt(format!(
                    "edge on entity Q{id} uses uninterned predicate {}",
                    e.predicate
                )));
            }
            self.max_ref = Some(self.max_ref.map_or(e.target.0, |m| m.max(e.target.0)));
        }
        if self.shard.is_none() {
            let path = self.dir.join(shard_file_name(self.next_shard));
            self.shard = Some(SegmentWriter::create(
                &path,
                self.next_shard,
                self.next_id,
            )?);
        }
        #[expect(clippy::expect_used, reason = "just populated above")]
        let shard = self.shard.as_mut().expect("open shard");
        shard.push(entity, outgoing, incoming)?;
        self.batch.push(id, &entity.label);
        for alias in &entity.aliases {
            self.batch.push(id, alias);
        }
        if self.batch.docs.len() >= BATCH_DOCS {
            self.send_batch(false)?;
        }
        self.next_id = self.next_id.checked_add(1).ok_or_else(|| {
            StoreError::Corrupt("more than u32::MAX entities".into())
        })?;
        if self.next_id.is_multiple_of(self.cfg.per_shard) {
            #[expect(
                clippy::expect_used,
                reason = "a record was just pushed, so the shard writer exists"
            )]
            let full = self.shard.take().expect("open shard");
            full.finish()?;
            self.next_shard += 1;
        }
        Ok(EntityId(id))
    }

    /// Hand the open batch to the builder thread and start filling an
    /// emptied one. A closed channel means the thread stopped on an
    /// error: join it and return that error.
    fn send_batch(&mut self, commit: bool) -> Result<(), StoreError> {
        let thread = self.builder.as_ref().ok_or_else(joined)?;
        let next = thread.free.try_recv().unwrap_or_default();
        let batch = std::mem::replace(&mut self.batch, next);
        if thread.batches.send(Handover { batch, commit }).is_ok() {
            return Ok(());
        }
        match self.builder.take().map(BuilderThread::join) {
            Some(Err(e)) => Err(e),
            _ => Err(joined()),
        }
    }

    /// Number of entities written so far.
    pub fn entity_count(&self) -> u64 {
        u64::from(self.next_id)
    }

    /// Seal the world: close the open shard, commit the BM25 segment, and
    /// write the manifest (the commit point). Fails typed if any edge
    /// referenced an entity that was never written, or if any earlier call
    /// failed.
    pub fn finish(mut self) -> Result<Manifest, StoreError> {
        if let Some(e) = self.failed.take() {
            return Err(e);
        }
        if let Some(m) = self.max_ref {
            if m >= self.next_id {
                return Err(StoreError::Corrupt(format!(
                    "an edge references entity Q{m} but only {} entities were written",
                    self.next_id
                )));
            }
        }
        if let Some(shard) = self.shard.take() {
            shard.finish()?;
            self.next_shard += 1;
        }
        self.send_batch(true)?;
        let stats = self.builder.take().ok_or_else(joined)?.join()?;
        let manifest = Manifest {
            n_entities: u64::from(self.next_id),
            per_shard: self.cfg.per_shard,
            n_shards: self.next_shard,
            predicates: std::mem::take(&mut self.predicates),
            instance_of: self.instance_of,
            subclass_of: self.subclass_of,
            bm25: stats,
        };
        manifest.write(&self.dir)?;
        Ok(manifest)
    }
}

/// The error for a call that needs the builder thread after it was joined.
fn joined() -> StoreError {
    StoreError::Corrupt("BM25 builder thread is no longer running".into())
}

impl Drop for WorldWriter {
    /// An unfinished build closes the batch channel without the commit
    /// signal and waits for the builder thread, which drops its builder
    /// unpublished (removing `index.runs/`) before the drop returns.
    fn drop(&mut self) {
        if let Some(thread) = self.builder.take() {
            let _ = thread.join();
        }
    }
}

/// Convert an in-memory graph to a world directory. Entity and predicate
/// ids carry over unchanged (both stores assign them densely in order), so
/// results from the disk world are directly comparable to the source graph
/// — the transparency tests depend on this.
pub fn write_graph(
    dir: &Path,
    graph: &KnowledgeGraph,
    cfg: WorldWriterConfig,
) -> Result<Manifest, StoreError> {
    let mut w = WorldWriter::new(dir, cfg)?;
    for i in 0..graph.predicate_count() {
        let p = PredicateId(i as u16);
        let interned = w.intern_predicate(graph.predicate_name(p))?;
        if interned != p {
            return Err(StoreError::Corrupt(format!(
                "predicate {p} re-interned as {interned}"
            )));
        }
    }
    for (id, entity) in graph.entities() {
        let got = w.add_entity(entity, graph.outgoing(id), graph.incoming(id))?;
        if got != id {
            return Err(StoreError::Corrupt(format!(
                "entity {id} re-assigned as {got}"
            )));
        }
    }
    w.finish()
}

/// An opened world: the disk graph and the disk retrieval backend, shared
/// the way the pipeline consumes them.
#[derive(Debug, Clone)]
pub struct DiskWorld {
    pub graph: Arc<DiskGraph>,
    pub backend: Arc<DiskBackend>,
}

impl DiskWorld {
    /// Open a world directory with default cache budgets.
    pub fn open(dir: &Path) -> Result<Self, StoreError> {
        Ok(DiskWorld {
            graph: Arc::new(DiskGraph::open(dir)?),
            backend: Arc::new(DiskBackend::open(dir)?),
        })
    }

    /// Open with explicit block-cache budgets (graph bytes, BM25 bytes).
    pub fn open_with_caches(
        dir: &Path,
        graph_cache_bytes: usize,
        bm25_cache_bytes: usize,
    ) -> Result<Self, StoreError> {
        Ok(DiskWorld {
            graph: Arc::new(DiskGraph::open_with_cache(dir, graph_cache_bytes)?),
            backend: Arc::new(DiskBackend::open_with_cache(dir, bm25_cache_bytes)?),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kglink_kg::{GraphAccess, KgBuilder, NeSchema};
    use kglink_search::EntitySearcher;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "kglink-store-world-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn toy_graph() -> KnowledgeGraph {
        let mut b = KgBuilder::new();
        let musician = b.add_type("Musician", None);
        let album = b.add_type("Album", None);
        let steele = b.add_instance(
            Entity::new("Peter Steele", NeSchema::Person).with_alias("P. Steele"),
            musician,
        );
        let rust_album = b.add_instance(Entity::new("Rust", NeSchema::Work), album);
        let mut g = b.build();
        let performer = g.intern_predicate(predicates::PERFORMER);
        g.add_edge(rust_album, performer, steele);
        g
    }

    #[test]
    fn graph_round_trips_through_disk() {
        let dir = tmpdir("roundtrip");
        let g = toy_graph();
        // Tiny shards exercise the multi-shard path even on a toy world.
        let cfg = WorldWriterConfig {
            per_shard: 2,
            ..WorldWriterConfig::default()
        };
        let manifest = write_graph(&dir, &g, cfg).unwrap();
        assert_eq!(manifest.n_entities, g.len() as u64);
        assert_eq!(manifest.n_shards, g.len().div_ceil(2) as u32);
        let world = DiskWorld::open(&dir).unwrap();
        assert_eq!(world.graph.entity_count(), g.len());
        for (id, entity) in g.entities() {
            assert_eq!(world.graph.entity(id).label, entity.label);
            assert_eq!(world.graph.entity(id).aliases, entity.aliases);
            assert_eq!(world.graph.label(id), g.label(id));
            assert_eq!(world.graph.schema_of(id), entity.schema);
            assert_eq!(world.graph.one_hop(id), g.one_hop(id));
            assert_eq!(
                world.graph.one_hop_with_predicates(id),
                g.one_hop_with_predicates(id)
            );
            assert_eq!(world.graph.types_of(id), g.types_of(id));
            assert_eq!(world.graph.superclasses_of(id), g.superclasses_of(id));
        }
        // Retrieval parity against the in-memory searcher.
        let mem = EntitySearcher::build(&g);
        for q in ["Peter Steele", "P. Steele", "Rust", "Musician", "zzz"] {
            let m = mem.link_mention(q, 5);
            let d = world.backend.try_search(q, 5).unwrap();
            assert_eq!(m.len(), d.len(), "{q}");
            for (a, b) in m.iter().zip(&d) {
                assert_eq!(a.0, b.0, "{q}");
                assert_eq!(a.1.to_bits(), b.1.to_bits(), "{q}");
            }
        }
        assert_eq!(world.graph.error_count(), 0);
        assert_eq!(world.backend.error_count(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unfinished_build_is_not_openable() {
        let dir = tmpdir("crash");
        let g = toy_graph();
        write_graph(&dir, &g, WorldWriterConfig::default()).unwrap();
        assert!(DiskWorld::open(&dir).is_ok());
        // Restarting a build immediately invalidates the old manifest:
        // a crash right here must not leave an openable half-world.
        let w = WorldWriter::new(&dir, WorldWriterConfig::default()).unwrap();
        drop(w);
        assert!(matches!(DiskWorld::open(&dir), Err(StoreError::Io(_))));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Entity `i` of the bulk builds below: one single-token label.
    fn bulk_entity(i: usize) -> Entity {
        Entity::new(format!("entity{i}"), NeSchema::Other)
    }

    #[test]
    fn dropping_a_spilled_build_joins_the_builder_and_leaves_nothing() {
        let dir = tmpdir("abort");
        let cfg = WorldWriterConfig {
            spill_postings: 1,
            ..WorldWriterConfig::default()
        };
        let mut w = WorldWriter::new(&dir, cfg).unwrap();
        // Keep the builder thread's end of the free-batch queue observable:
        // it disconnects only once the thread's state has been dropped.
        let (_tx, unused) = sync_channel(1);
        let free = std::mem::replace(&mut w.builder.as_mut().unwrap().free, unused);
        for i in 0..BATCH_DOCS + 1 {
            w.add_entity(&bulk_entity(i), &[], &[]).unwrap();
        }
        // The first batch is out; wait until the builder has spilled.
        let runs = dir.join("index.runs");
        let t0 = std::time::Instant::now();
        while !runs.exists() {
            assert!(t0.elapsed().as_secs() < 30, "the builder never spilled");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        drop(w);
        loop {
            match free.try_recv() {
                Ok(_) => continue,
                Err(std::sync::mpsc::TryRecvError::Disconnected) => break,
                Err(std::sync::mpsc::TryRecvError::Empty) => {
                    panic!("the builder thread outlived the writer's drop")
                }
            }
        }
        assert!(!dir.join(BM25_FILE).exists());
        assert!(!runs.exists());
        assert!(!dir.join(MANIFEST_FILE).exists());
        write_graph(&dir, &toy_graph(), WorldWriterConfig::default()).unwrap();
        assert!(DiskWorld::open(&dir).is_ok());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_builder_error_comes_back_typed_and_sticks() {
        let dir = tmpdir("runs-blocked");
        // The first spill must create `index.runs/`, and a file is there.
        std::fs::write(dir.join("index.runs"), b"not a directory").unwrap();
        let cfg = WorldWriterConfig {
            spill_postings: 1,
            ..WorldWriterConfig::default()
        };
        let mut w = WorldWriter::new(&dir, cfg).unwrap();
        // The builder fails inside the first batch and never takes the
        // second, so handing over the third cannot succeed.
        let first = (0..3 * BATCH_DOCS)
            .find_map(|i| w.add_entity(&bulk_entity(i), &[], &[]).err())
            .expect("a blocked spill must fail the build");
        assert!(matches!(first, StoreError::Io(_)), "{first:?}");
        for i in 0..3 {
            assert_eq!(w.add_entity(&bulk_entity(i), &[], &[]), Err(first.clone()));
        }
        assert_eq!(w.finish().unwrap_err(), first);
        assert!(!dir.join(MANIFEST_FILE).exists());
        assert!(!dir.join(BM25_FILE).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dangling_forward_references_fail_at_finish() {
        let dir = tmpdir("dangling");
        let mut w = WorldWriter::new(&dir, WorldWriterConfig::default()).unwrap();
        let p = w.intern_predicate(predicates::INSTANCE_OF).unwrap();
        let e = Entity::new("loner", NeSchema::Other);
        let out = [Edge {
            predicate: p,
            target: EntityId(99),
        }];
        w.add_entity(&e, &out, &[]).unwrap();
        assert!(matches!(w.finish(), Err(StoreError::Corrupt(_))));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn uninterned_predicates_fail_immediately() {
        let dir = tmpdir("nopred");
        let mut w = WorldWriter::new(&dir, WorldWriterConfig::default()).unwrap();
        let e = Entity::new("x", NeSchema::Other);
        let out = [Edge {
            predicate: PredicateId(3),
            target: EntityId(0),
        }];
        assert!(matches!(
            w.add_entity(&e, &out, &[]),
            Err(StoreError::Corrupt(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_world_round_trips() {
        let dir = tmpdir("empty");
        let g = KnowledgeGraph::new();
        write_graph(&dir, &g, WorldWriterConfig::default()).unwrap();
        let world = DiskWorld::open(&dir).unwrap();
        assert_eq!(world.graph.entity_count(), 0);
        assert!(world.backend.try_search("anything", 5).unwrap().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
