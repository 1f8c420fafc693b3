//! Fixed set-up: the disk world, the model, and the stack handed to the
//! service. These are inputs of the benchmark, not things a change tunes.

use crate::stats::{dir_bytes, splitmix};
use crate::workload::{generate, Inputs, Workload};
use kglink_core::pipeline::{build_vocab, KgLink, Resources};
use kglink_core::KgLinkConfig;
use kglink_datagen::{
    generate_big_world, pretrain_corpus, semtab_like, BigWorldConfig, SemTabConfig,
};
use kglink_kg::{EntityId, GraphAccess, SyntheticWorld, WorldConfig};
use kglink_nn::Tokenizer;
use kglink_search::{EntitySearcher, ResilienceConfig, ResilientBackend};
use kglink_serve::{AdmissionPolicy, AnnotationService, ServiceConfig, SharedBackend};
use kglink_store::{DiskBackend, DiskGraph, WorldWriterConfig};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Sizes that differ between a full run and `--smoke`.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Entities in the disk world.
    pub entities: u64,
    /// Byte budget of each of the two block caches (graph, BM25). Both
    /// the entity segments and the BM25 index exceed it by design — the
    /// same regime as `exp_scale`'s 10M entities against 32 MB. A resource
    /// limit the benchmark imposes; `peak_rss_mb` prices it.
    pub cache_bytes: usize,
    /// Tables in the traced pass.
    pub traced_tables: usize,
    /// Cold tables materialised per second of run time. Cold tables are
    /// never reused, so this caps the rate a closed loop can reach (a
    /// window ends early when they run out); about 3× what the baseline
    /// machine sustains on this world.
    pub cold_tables_per_s: f64,
}

impl Scale {
    /// 1M entities: query cost is linear in world size (1.8 ms here, 4 ms
    /// at 2M, 20 ms at 10M), so retrieval dominates a cold table as it
    /// does in the big world, while a twelve-second window still holds
    /// some 250 cold tables — what makes a p95 reportable.
    pub const FULL: Scale = Scale {
        entities: 1_000_000,
        cache_bytes: 8 << 20,
        traced_tables: 64,
        cold_tables_per_s: 100.0,
    };
    pub const SMOKE: Scale = Scale {
        entities: 100_000,
        cache_bytes: 1 << 20,
        traced_tables: 8,
        cold_tables_per_s: 400.0,
    };
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Where worlds and traces go: `benchmark/target/`, inside the checkout
/// whatever `CARGO_TARGET_DIR` says.
pub fn scratch_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target")
}

/// A world built on disk, removed again by [`World::remove`].
pub struct World {
    pub dir: PathBuf,
    pub geometry: BigWorldConfig,
    pub entities: u64,
    pub build_s: f64,
    pub bytes: u64,
}

/// Build the world from scratch (any earlier build in the directory is
/// replaced), so that set-up time repeats. The process id keeps
/// concurrent runs apart.
pub fn build_world(tag: &str, seed: u64, entities: u64) -> World {
    let dir = scratch_dir().join(format!("world-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let geometry = BigWorldConfig {
        n_entities: entities,
        seed: splitmix(seed, 0xb16),
        ..BigWorldConfig::default()
    };
    let t0 = Instant::now();
    let built = generate_big_world(&dir, &geometry, WorldWriterConfig::default())
        .expect("world build needs a writable benchmark/target/");
    let build_s = t0.elapsed().as_secs_f64();
    World {
        bytes: dir_bytes(&dir),
        entities: built.manifest.n_entities,
        dir,
        geometry,
        build_s,
    }
}

impl World {
    pub fn remove(&self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// The trained annotator and the tokenizer it was trained with.
pub struct Model {
    pub kglink: Arc<KgLink>,
    pub tokenizer: Arc<Tokenizer>,
}

/// Fit the default MiniLM for two epochs on a small SemTab-like dataset,
/// without MLM pre-training: forward cost does not depend on the weights,
/// and answers are checked by replay, not by accuracy. `world_texts` puts
/// the disk world's name pools into the vocabulary so its mentions
/// tokenise to real ids.
fn fit_model(seed: u64, world_texts: &[String]) -> Model {
    let world = SyntheticWorld::generate(&WorldConfig {
        seed,
        scale: 0.15,
        ..WorldConfig::default()
    });
    let bench = semtab_like(
        &world,
        &SemTabConfig {
            seed: seed ^ 0x51,
            n_tables: 40,
            ..SemTabConfig::default()
        },
    );
    let searcher = EntitySearcher::build(&world.graph);
    let corpus = pretrain_corpus(&world, seed ^ 0x53);
    let vocab = build_vocab(
        corpus.iter().chain(world_texts).map(String::as_str),
        &[&bench.dataset],
        2600,
    );
    let tokenizer = Tokenizer::new(vocab);
    let resources = Resources::builder()
        .graph(&world.graph)
        .backend(&searcher)
        .tokenizer(&tokenizer)
        .build()
        .expect("graph, backend and tokenizer are all present");
    let config = KgLinkConfig {
        epochs: 2,
        seed: seed ^ 0x60,
        ..KgLinkConfig::default()
    };
    let (kglink, _) = KgLink::fit(&resources, &bench.dataset, config);
    Model {
        kglink: Arc::new(kglink),
        tokenizer: Arc::new(tokenizer),
    }
}

/// Alphabetic words of labels spread over the id space, plus the
/// predicate names: 512 samples miss one of the 24-name pools with
/// probability below 1e-9.
fn world_texts(graph: &DiskGraph, geometry: &BigWorldConfig) -> Vec<String> {
    const SAMPLES: u64 = 512;
    let total = graph.manifest().n_entities;
    let mut texts: Vec<String> = (0..SAMPLES)
        .map(|i| graph.label(EntityId((i * total / SAMPLES) as u32)))
        .chain(graph.manifest().predicates.iter().cloned())
        .collect();
    // The last ids are the block and core types ("category", "core domain").
    texts.push(graph.label(EntityId((total - 1) as u32)));
    texts.push(graph.label(EntityId(
        (total - 1 - u64::from(geometry.core_types)) as u32,
    )));
    for text in &mut texts {
        *text = text
            .split_whitespace()
            .filter(|t| t.chars().all(char::is_alphabetic))
            .collect::<Vec<_>>()
            .join(" ");
    }
    texts
}

/// The untraced stack: `ResilientBackend(DiskBackend)` plus the graph,
/// each behind its own bounded block cache.
pub struct Stack {
    pub graph: Arc<DiskGraph>,
    pub disk: Arc<DiskBackend>,
    pub resilient: Arc<ResilientBackend<Arc<DiskBackend>>>,
}

pub fn open_stack(world: &World, scale: Scale) -> Stack {
    let graph = Arc::new(
        DiskGraph::open_with_cache(&world.dir, scale.cache_bytes).expect("open entity shards"),
    );
    let disk = Arc::new(
        DiskBackend::open_with_cache(&world.dir, scale.cache_bytes).expect("open BM25 segment"),
    );
    let resilient = Arc::new(ResilientBackend::new(
        Arc::clone(&disk),
        ResilienceConfig::default(),
    ));
    Stack {
        graph,
        disk,
        resilient,
    }
}

/// The service under test: one worker per core, 64-deep queue, the
/// default 4096-entry retrieval LRU and micro-batch of 4, tracing off.
pub fn service(
    model: &Model,
    graph: Arc<dyn GraphAccess>,
    backend: SharedBackend,
    admission: AdmissionPolicy,
) -> AnnotationService {
    AnnotationService::new(
        Arc::clone(&model.kglink),
        graph,
        backend,
        Arc::clone(&model.tokenizer),
        ServiceConfig {
            workers: nproc(),
            queue_capacity: 64,
            admission,
            ..ServiceConfig::default()
        },
    )
}

/// Everything that exists before the first window can open.
pub struct Ready {
    pub world: World,
    pub model: Model,
    pub inputs: Inputs,
    pub stack: Stack,
    /// World build + open + fit + table generation, seconds.
    pub setup_s: f64,
}

pub fn set_up(workload: Workload, seed: u64, seconds: f64, scale: Scale) -> Ready {
    let t0 = Instant::now();
    let world = build_world(&seed.to_string(), seed, scale.entities);
    // Labels are read through a handle of their own, dropped here, so the
    // measured caches start cold and their counters start at zero.
    let label_graph =
        DiskGraph::open_with_cache(&world.dir, scale.cache_bytes).expect("open entity shards");
    let model = fit_model(seed, &world_texts(&label_graph, &world.geometry));
    let cold_cap = (seconds * scale.cold_tables_per_s).ceil() as usize;
    let inputs = generate(
        workload,
        seed,
        seconds,
        cold_cap,
        &label_graph,
        &world.geometry,
    );
    drop(label_graph);
    let stack = open_stack(&world, scale);
    Ready {
        world,
        model,
        inputs,
        stack,
        setup_s: t0.elapsed().as_secs_f64(),
    }
}
