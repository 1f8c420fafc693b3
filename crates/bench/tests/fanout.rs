//! `kglink-serve`'s fan-out of search batches over idle workers, on a
//! small disk world: a lone request's searches are shared with the idle
//! worker while every graph read stays on the owner, its labels stay
//! bit-identical to a single-threaded `annotate_request`, and a panic in a
//! helped search fails its request exactly once while the helper keeps
//! serving.
//!
//! Each request is sent once both workers are parked in the queue (the
//! `idle_workers` gauge), and the KG calls the tests watch sleep a little
//! each, so the owner is still draining its batch when the idle worker
//! wakes. (These tests live here because this crate already depends on
//! both the service and the disk store.)

use kglink_core::pipeline::{build_vocab, req, KgLink, Resources};
use kglink_core::KgLinkConfig;
use kglink_datagen::{pretrain_corpus, semtab_like, SemTabConfig};
use kglink_kg::{
    Entity, EntityId, GraphAccess, NeSchema, PredicateId, SyntheticWorld, WorldConfig,
};
use kglink_nn::Tokenizer;
use kglink_search::{Deadline, KgBackend, RetrievalError, SearchOutcome};
use kglink_serve::{AnnotationService, ServiceConfig, ServiceError, SharedBackend};
use kglink_store::DiskWorld;
use kglink_table::{LabelId, Table};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::{self, ThreadId};
use std::time::{Duration, Instant};

struct Fixture {
    model: Arc<KgLink>,
    tokenizer: Arc<Tokenizer>,
    world: DiskWorld,
    tables: Vec<Table>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let world = SyntheticWorld::generate(&WorldConfig::tiny(523));
        let bench = semtab_like(&world, &SemTabConfig::tiny(523));
        let disk = DiskWorld::from_graph(&world.graph).unwrap();
        let corpus = pretrain_corpus(&world, 523);
        let vocab = build_vocab(corpus.iter().map(String::as_str), &[&bench.dataset], 6000);
        let tokenizer = Tokenizer::new(vocab);
        let resources = Resources::builder()
            .graph(&disk.graph)
            .backend(&disk.backend)
            .tokenizer(&tokenizer)
            .build()
            .unwrap();
        // Two columns per chunk: a wider table is annotated chunk by chunk,
        // and the panic test needs a chunk after the first.
        let config = KgLinkConfig {
            epochs: 2,
            max_columns: 2,
            ..KgLinkConfig::fast_test()
        };
        let (model, _) = KgLink::fit(&resources, &bench.dataset, config);
        Fixture {
            model: Arc::new(model),
            tokenizer: Arc::new(tokenizer),
            world: disk,
            tables: bench.dataset.tables.iter().take(6).cloned().collect(),
        }
    })
}

/// The disk backend, slowed by a sleep per search.
struct SlowSearch(SharedBackend);

impl KgBackend for SlowSearch {
    fn search_entities(
        &self,
        query: &str,
        top_k: usize,
        deadline: Deadline,
    ) -> Result<SearchOutcome, RetrievalError> {
        thread::sleep(Duration::from_micros(300));
        self.0.search_entities(query, top_k, deadline)
    }
}

/// The disk graph, slowed by a sleep per one-hop read, noting which
/// threads read it since the test last cleared it: one-hop reads, and the
/// reads only a request's owner makes (labels, schemas and predicate
/// lists, after a chunk's searches).
struct Witness {
    inner: Arc<dyn GraphAccess>,
    hop_threads: Mutex<Vec<ThreadId>>,
    owner_threads: Mutex<Vec<ThreadId>>,
    hops: AtomicU64,
}

impl Witness {
    fn new(inner: Arc<dyn GraphAccess>) -> Self {
        Witness {
            inner,
            hop_threads: Mutex::new(Vec::new()),
            owner_threads: Mutex::new(Vec::new()),
            hops: AtomicU64::new(0),
        }
    }

    fn clear(&self) {
        self.hop_threads.lock().unwrap().clear();
        self.owner_threads.lock().unwrap().clear();
    }

    fn owner_read(&self) {
        note_thread(&self.owner_threads);
    }
}

/// Add the calling thread to `threads` once.
fn note_thread(threads: &Mutex<Vec<ThreadId>>) {
    let me = thread::current().id();
    let mut threads = threads.lock().unwrap();
    if !threads.contains(&me) {
        threads.push(me);
    }
}

impl GraphAccess for Witness {
    fn entity_count(&self) -> usize {
        self.inner.entity_count()
    }
    fn entity(&self, id: EntityId) -> Entity {
        self.owner_read();
        self.inner.entity(id)
    }
    fn label(&self, id: EntityId) -> String {
        self.owner_read();
        self.inner.label(id)
    }
    fn schema_of(&self, id: EntityId) -> NeSchema {
        self.owner_read();
        self.inner.schema_of(id)
    }
    fn predicate_name(&self, p: PredicateId) -> String {
        self.inner.predicate_name(p)
    }
    fn one_hop(&self, id: EntityId) -> Vec<EntityId> {
        note_thread(&self.hop_threads);
        self.hops.fetch_add(1, Ordering::SeqCst);
        thread::sleep(Duration::from_micros(300));
        self.inner.one_hop(id)
    }
    fn one_hop_with_predicates(&self, id: EntityId) -> Vec<(PredicateId, EntityId)> {
        self.owner_read();
        self.inner.one_hop_with_predicates(id)
    }
    fn types_of(&self, id: EntityId) -> Vec<EntityId> {
        self.inner.types_of(id)
    }
    fn superclasses_of(&self, id: EntityId) -> Vec<EntityId> {
        self.inner.superclasses_of(id)
    }
}

/// The slowed disk backend, panicking once on a helped search. A request's
/// owner is the thread that made the witness's first owner-only read,
/// after its first chunk's searches; the first search by any other thread
/// after that (a helper, in a later chunk's batch) panics.
struct Trap {
    backend: SlowSearch,
    graph: Arc<Witness>,
    fired: AtomicBool,
    /// The thread the injected panic landed on.
    panicked_on: Mutex<Option<ThreadId>>,
    /// Threads that searched after the panic.
    later: Mutex<Vec<ThreadId>>,
}

impl KgBackend for Trap {
    fn search_entities(
        &self,
        query: &str,
        top_k: usize,
        deadline: Deadline,
    ) -> Result<SearchOutcome, RetrievalError> {
        let me = thread::current().id();
        let owner = self.graph.owner_threads.lock().unwrap().first().copied();
        if self.fired.load(Ordering::SeqCst) {
            self.later.lock().unwrap().push(me);
        } else if owner.is_some_and(|o| o != me) && !self.fired.swap(true, Ordering::SeqCst) {
            *self.panicked_on.lock().unwrap() = Some(me);
            panic!("injected panic on a helped item");
        }
        self.backend.search_entities(query, top_k, deadline)
    }
}

fn service(graph: Arc<dyn GraphAccess>, backend: SharedBackend) -> AnnotationService {
    let fx = fixture();
    AnnotationService::new(
        Arc::clone(&fx.model),
        graph,
        backend,
        Arc::clone(&fx.tokenizer),
        ServiceConfig {
            workers: 2,
            // Every lookup reaches the source: the cold path.
            cache: None,
            ..ServiceConfig::default()
        },
    )
}

/// Wait until both workers are parked in the queue, so the next request's
/// owner finds an idle worker for its first batch.
fn wait_idle(svc: &AnnotationService) {
    let start = Instant::now();
    while svc.metrics().idle_workers < 2 {
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "the workers never parked"
        );
        thread::sleep(Duration::from_micros(100));
    }
}

#[test]
fn a_lone_cold_request_is_helped_and_bit_identical_to_single_threaded() {
    let fx = fixture();
    let resources = Resources::builder()
        .graph(&fx.world.graph)
        .backend(&fx.world.backend)
        .tokenizer(&fx.tokenizer)
        .build()
        .unwrap();
    let baseline: Vec<Vec<LabelId>> = fx
        .tables
        .iter()
        .map(|t| fx.model.annotate_request(&resources, req(t)).labels)
        .collect();
    let backend = SlowSearch(Arc::clone(&fx.world.backend) as SharedBackend);
    let mut svc = service(
        Arc::clone(&fx.world.graph) as Arc<dyn GraphAccess>,
        Arc::new(backend),
    );
    for (i, table) in fx.tables.iter().enumerate() {
        wait_idle(&svc);
        let annotation = svc.annotate(table.clone()).expect("service up");
        assert_eq!(annotation.labels, baseline[i], "table {i}");
    }
    svc.shutdown();
    let metrics = svc.metrics();
    assert!(metrics.help_items > 0, "the idle worker never ran an item");
    assert_eq!(metrics.completed, fx.tables.len() as u64);
    assert_eq!(metrics.worker_panics, 0);
}

#[test]
fn a_lone_request_shares_its_searches_and_reads_every_neighbourhood_on_its_owner() {
    let fx = fixture();
    let graph = Arc::new(Witness::new(Arc::clone(&fx.world.graph) as _));
    let backend = SlowSearch(Arc::clone(&fx.world.backend) as SharedBackend);
    let mut svc = service(
        Arc::clone(&graph) as Arc<dyn GraphAccess>,
        Arc::new(backend),
    );
    for (i, table) in fx.tables.iter().enumerate() {
        wait_idle(&svc);
        graph.clear();
        svc.annotate(table.clone()).expect("service up");
        let hop_threads = graph.hop_threads.lock().unwrap().clone();
        let owner_threads = graph.owner_threads.lock().unwrap().clone();
        assert!(owner_threads.len() <= 1, "table {i}: {owner_threads:?}");
        assert!(
            hop_threads.len() <= 1,
            "table {i}: one-hop reads on {hop_threads:?}"
        );
        assert!(
            owner_threads.is_empty() || hop_threads.iter().all(|t| owner_threads.contains(t)),
            "table {i}: one-hop reads on {hop_threads:?}, the owner is {owner_threads:?}"
        );
    }
    svc.shutdown();
    let metrics = svc.metrics();
    assert!(
        graph.hops.load(Ordering::SeqCst) > 0,
        "no table read a neighbourhood"
    );
    assert!(metrics.help_items > 0, "the idle worker never ran a search");
    assert_eq!(metrics.completed, fx.tables.len() as u64);
}

#[test]
fn a_panic_on_a_helped_item_fails_its_request_once_and_the_helper_serves_on() {
    let fx = fixture();
    assert!(
        fx.tables.iter().any(|t| t.n_cols() > 2),
        "no table has a second chunk"
    );
    let graph = Arc::new(Witness::new(Arc::clone(&fx.world.graph) as _));
    let trap = Arc::new(Trap {
        backend: SlowSearch(Arc::clone(&fx.world.backend) as SharedBackend),
        graph: Arc::clone(&graph),
        fired: AtomicBool::new(false),
        panicked_on: Mutex::new(None),
        later: Mutex::new(Vec::new()),
    });
    let mut svc = service(
        Arc::clone(&graph) as Arc<dyn GraphAccess>,
        Arc::clone(&trap) as SharedBackend,
    );
    // Lone requests until the panic has fired, then one more round.
    let mut outcomes = Vec::new();
    let mut after = 0;
    for table in fx.tables.iter().cycle().take(8 * fx.tables.len()) {
        wait_idle(&svc);
        graph.clear();
        outcomes.push(svc.annotate(table.clone()));
        after += usize::from(trap.fired.load(Ordering::SeqCst));
        if after > fx.tables.len() {
            break;
        }
    }
    let culprit = trap
        .panicked_on
        .lock()
        .unwrap()
        .expect("no helper ever ran a search item of a later chunk");
    let panicked = outcomes
        .iter()
        .filter(|o| matches!(o, Err(ServiceError::WorkerPanicked)))
        .count();
    assert_eq!(panicked, 1, "{outcomes:?}");
    assert!(
        outcomes
            .iter()
            .all(|o| matches!(o, Ok(_) | Err(ServiceError::WorkerPanicked))),
        "{outcomes:?}"
    );
    assert!(
        trap.later.lock().unwrap().contains(&culprit),
        "the helper that caught the panic served no later read"
    );
    svc.shutdown();
    let metrics = svc.metrics();
    assert_eq!(metrics.worker_panics, 1);
    assert_eq!(metrics.completed, outcomes.len() as u64 - 1);
    // The failed ticket is counted in `worker_panics`, not `completed`.
    assert_eq!(
        metrics.submitted,
        metrics.completed + metrics.shed + metrics.worker_panics
    );
    assert!(metrics.help_items > 0);
}
