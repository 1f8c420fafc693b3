//! `kglink-serve`'s fan-out of batched KG reads over idle workers, on a
//! small disk world: a lone request's search and one-hop batches are
//! shared with the idle worker and its labels stay bit-identical to a
//! single-threaded `annotate_request`, and a panic in a helped item fails
//! its request exactly once while the helper keeps serving.
//!
//! Each request is sent once both workers are parked in the queue (the
//! `idle_workers` gauge), and the KG calls the test shares out sleep a
//! little each, so the owner is still draining its batch when the idle
//! worker wakes. (These tests live here because this crate already depends
//! on both the service and the disk store.)

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
use std::sync::atomic::{AtomicBool, Ordering};
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

/// The disk graph, slowed by a sleep per one-hop read, that panics once on
/// a helped one-hop item. A request's owner is the thread that calls
/// `schema_of`: only a chunk's candidate types do, on the owner, after the
/// chunk's batches. The first one-hop read by any other thread after that
/// (a helper, in a later chunk's batch) panics.
struct Trap {
    inner: Arc<dyn GraphAccess>,
    /// The current request's owner; the test clears it per request.
    owner: Mutex<Option<ThreadId>>,
    fired: AtomicBool,
    /// The thread the injected panic landed on.
    panicked_on: Mutex<Option<ThreadId>>,
    /// Threads that read a neighbourhood after the panic.
    later: Mutex<Vec<ThreadId>>,
}

impl GraphAccess for Trap {
    fn entity_count(&self) -> usize {
        self.inner.entity_count()
    }
    fn entity(&self, id: EntityId) -> Entity {
        self.inner.entity(id)
    }
    fn label(&self, id: EntityId) -> String {
        self.inner.label(id)
    }
    fn schema_of(&self, id: EntityId) -> NeSchema {
        *self.owner.lock().unwrap() = Some(thread::current().id());
        self.inner.schema_of(id)
    }
    fn predicate_name(&self, p: PredicateId) -> String {
        self.inner.predicate_name(p)
    }
    fn one_hop(&self, id: EntityId) -> Vec<EntityId> {
        let me = thread::current().id();
        let owner = *self.owner.lock().unwrap();
        if self.fired.load(Ordering::SeqCst) {
            self.later.lock().unwrap().push(me);
        } else if owner.is_some_and(|o| o != me) && !self.fired.swap(true, Ordering::SeqCst) {
            *self.panicked_on.lock().unwrap() = Some(me);
            panic!("injected panic on a helped item");
        }
        thread::sleep(Duration::from_micros(300));
        self.inner.one_hop(id)
    }
    fn one_hop_with_predicates(&self, id: EntityId) -> Vec<(PredicateId, EntityId)> {
        self.inner.one_hop_with_predicates(id)
    }
    fn types_of(&self, id: EntityId) -> Vec<EntityId> {
        self.inner.types_of(id)
    }
    fn superclasses_of(&self, id: EntityId) -> Vec<EntityId> {
        self.inner.superclasses_of(id)
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
fn a_panic_on_a_helped_item_fails_its_request_once_and_the_helper_serves_on() {
    let fx = fixture();
    assert!(
        fx.tables.iter().any(|t| t.n_cols() > 2),
        "no table has a second chunk"
    );
    let graph = Arc::new(Trap {
        inner: Arc::clone(&fx.world.graph) as Arc<dyn GraphAccess>,
        owner: Mutex::new(None),
        fired: AtomicBool::new(false),
        panicked_on: Mutex::new(None),
        later: Mutex::new(Vec::new()),
    });
    let mut svc = service(
        Arc::clone(&graph) as Arc<dyn GraphAccess>,
        Arc::clone(&fx.world.backend) as SharedBackend,
    );
    // Lone requests until the panic has fired, then one more round.
    let mut outcomes = Vec::new();
    let mut after = 0;
    for table in fx.tables.iter().cycle().take(8 * fx.tables.len()) {
        wait_idle(&svc);
        *graph.owner.lock().unwrap() = None;
        outcomes.push(svc.annotate(table.clone()));
        after += usize::from(graph.fired.load(Ordering::SeqCst));
        if after > fx.tables.len() {
            break;
        }
    }
    let culprit = graph
        .panicked_on
        .lock()
        .unwrap()
        .expect("no helper ever ran a one-hop item of a later chunk");
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
        graph.later.lock().unwrap().contains(&culprit),
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
