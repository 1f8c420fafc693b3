//! Crash-safety integration tests: kill-and-resume training must be
//! bit-identical, divergence guards must contain injected NaNs, and the
//! serving layer must survive a panicking backend with zero hung tickets,
//! bounded restarts, and honest metrics.

use kglink::core::pipeline::{build_vocab, KgLink, Resources};
use kglink::core::{FitOptions, GuardPolicy, KgLinkConfig};
use kglink::datagen::{pretrain_corpus, semtab_like, SemTabConfig};
use kglink::table::Dataset;
use kglink::kg::{KnowledgeGraph, SyntheticWorld, WorldConfig};
use kglink::nn::checkpoint::save_train_state;
use kglink::nn::layers::param::HasParams;
use kglink::nn::Tokenizer;
use kglink::obs::{EventKind, Tracer};
use kglink::search::{EntitySearcher, PanickingBackend};
use kglink::serve::{
    AdmissionPolicy, AnnotationService, ServiceConfig, ServiceError, SharedBackend,
};
use kglink::table::Table;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

struct Fixture {
    graph: KnowledgeGraph,
    searcher: EntitySearcher,
    tokenizer: Tokenizer,
    dataset: Dataset,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let world = SyntheticWorld::generate(&WorldConfig::tiny(907));
        let bench = semtab_like(&world, &SemTabConfig::tiny(907));
        let searcher = EntitySearcher::build(&world.graph);
        let corpus = pretrain_corpus(&world, 907);
        let vocab = build_vocab(corpus.iter().map(String::as_str), &[&bench.dataset], 6000);
        Fixture {
            graph: world.graph.clone(),
            searcher,
            tokenizer: Tokenizer::new(vocab),
            dataset: bench.dataset,
        }
    })
}

fn resources(fx: &Fixture) -> Resources<'_> {
    Resources::builder()
        .graph(&fx.graph)
        .backend(&fx.searcher)
        .tokenizer(&fx.tokenizer)
        .build()
        .unwrap()
}

/// Small batches so the tiny dataset still yields several optimizer steps
/// per epoch (checkpoint/halt boundaries need steps to land between).
fn train_config() -> KgLinkConfig {
    KgLinkConfig {
        epochs: 2,
        batch_size: 4,
        ..KgLinkConfig::fast_test()
    }
}

fn temp_ckpt(tag: &str) -> PathBuf {
    std::env::temp_dir()
        .join(format!("kglink-crash-{}-{tag}", std::process::id()))
        .join("model.kgck")
}

/// Full mutable training state (values + AdamW moments) as bytes, for
/// bit-identity assertions.
fn state_bytes(model: &mut KgLink) -> Vec<u8> {
    save_train_state(&mut model.model).to_vec()
}

/// True iff no parameter value or AdamW moment is NaN. (Scanning the raw
/// state blob would be wrong: its shape headers misalign 4-byte windows,
/// so honest float data can alias to NaN bit patterns.)
fn state_is_nan_free(model: &mut KgLink) -> bool {
    let mut clean = true;
    model.model.visit_params(&mut |p| {
        for &v in p.value.data().iter().chain(p.m.data()).chain(p.v.data()) {
            clean &= !v.is_nan();
        }
    });
    clean
}

/// `Tracer::incr` logs a Counter event under the same name as the
/// matching `event_with`; count only the Instant events when asserting
/// "one event per occurrence".
fn instant_events(tracer: &Tracer, name: &str) -> usize {
    tracer
        .events_named(name)
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Instant))
        .count()
}

// ---------------------------------------------------------------------------
// Kill + resume
// ---------------------------------------------------------------------------

#[test]
fn kill_and_resume_is_bit_identical_at_every_sampled_step() {
    let fx = fixture();
    let res = resources(fx);
    let config = train_config();
    let (mut baseline, base_report) =
        KgLink::fit_with(&res, &fx.dataset, config.clone(), &FitOptions::new()).unwrap();
    assert!(!base_report.halted);
    let baseline_state = state_bytes(&mut baseline);

    // Kill after steps on both sides of an epoch boundary (the tiny run
    // has ~5 steps per epoch) and resume from the last atomic checkpoint.
    for kill_step in [2, 4, 6] {
        let path = temp_ckpt(&format!("resume-{kill_step}"));
        let halted_opts = FitOptions::new()
            .checkpoint_every(&path, 2)
            .halt_after_step(kill_step);
        let (_, halted_report) =
            KgLink::fit_with(&res, &fx.dataset, config.clone(), &halted_opts).unwrap();
        assert!(halted_report.halted, "kill at step {kill_step} must report");
        assert!(path.exists(), "checkpoint must exist before the kill");

        let resume_opts = FitOptions::new()
            .checkpoint_every(&path, 2)
            .resume_from(&path);
        let (mut resumed, resume_report) =
            KgLink::fit_with(&res, &fx.dataset, config.clone(), &resume_opts).unwrap();
        assert!(!resume_report.halted);
        assert_eq!(
            resume_report.resumed_from_step,
            Some(kill_step - (kill_step % 2)),
            "resume must start from the last checkpoint boundary"
        );
        assert_eq!(
            state_bytes(&mut resumed),
            baseline_state,
            "kill at step {kill_step} + resume diverged from the uninterrupted run"
        );
        assert_eq!(resume_report.val_accuracy, base_report.val_accuracy);
        assert_eq!(resume_report.best_epoch, base_report.best_epoch);
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }
}

/// A checkpoint written while every GEMM ran through the scalar reference
/// path must resume bit-identically on the fast kernel path. This is the
/// cross-path guarantee the kernel crate's parity policy buys: summation
/// order per output element is fixed, so the two paths are interchangeable
/// mid-run — an operator can roll a kernel change forward or back across a
/// restart without perturbing training.
#[test]
fn scalar_path_checkpoint_resumes_bit_identically_on_kernel_path() {
    let fx = fixture();
    let res = resources(fx);
    let config = train_config();
    // Baseline: uninterrupted run, entirely on the fast kernel path.
    let (mut baseline, _) =
        KgLink::fit_with(&res, &fx.dataset, config.clone(), &FitOptions::new()).unwrap();
    let baseline_state = state_bytes(&mut baseline);

    // Halted run on the scalar reference path. (Both paths are bit-identical
    // on finite data, so flipping the global mode cannot perturb tests that
    // happen to run concurrently.)
    let path = temp_ckpt("scalar-to-kernel");
    kglink::nn::kernels::set_reference_mode(true);
    let halted = KgLink::fit_with(
        &res,
        &fx.dataset,
        config.clone(),
        &FitOptions::new().checkpoint_every(&path, 2).halt_after_step(4),
    );
    kglink::nn::kernels::set_reference_mode(false);
    let (_, halted_report) = halted.unwrap();
    assert!(halted_report.halted);
    assert!(path.exists());

    // Resume on the fast kernel path: the checkpoint is path-agnostic.
    let (mut resumed, resume_report) = KgLink::fit_with(
        &res,
        &fx.dataset,
        config,
        &FitOptions::new().checkpoint_every(&path, 2).resume_from(&path),
    )
    .unwrap();
    assert!(!resume_report.halted);
    assert_eq!(
        state_bytes(&mut resumed),
        baseline_state,
        "scalar-path checkpoint diverged when resumed on the kernel path"
    );
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

#[test]
fn resume_from_corrupt_checkpoint_is_a_typed_error() {
    let fx = fixture();
    let res = resources(fx);
    let path = temp_ckpt("corrupt");
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    std::fs::write(&path, b"KGCKgarbage-that-is-not-a-checkpoint").unwrap();
    let err = match KgLink::fit_with(
        &res,
        &fx.dataset,
        train_config(),
        &FitOptions::new().resume_from(&path),
    ) {
        Ok(_) => panic!("corrupt checkpoint must not be silently ignored"),
        Err(e) => e,
    };
    assert!(
        err.to_string().contains("checkpoint"),
        "unexpected error: {err}"
    );
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

// ---------------------------------------------------------------------------
// Divergence guards
// ---------------------------------------------------------------------------

#[test]
fn skip_step_guard_contains_injected_nan_and_reports_it() {
    let fx = fixture();
    let tracer = Tracer::enabled();
    let res = Resources::builder()
        .graph(&fx.graph)
        .backend(&fx.searcher)
        .tokenizer(&fx.tokenizer)
        .tracer(&tracer)
        .build()
        .unwrap();
    let opts = FitOptions::new()
        .guard(GuardPolicy::SkipStep)
        .inject_nonfinite_at(&[2, 5]);
    let (mut model, report) = KgLink::fit_with(&res, &fx.dataset, train_config(), &opts).unwrap();
    assert_eq!(report.nonfinite_steps, 2);
    assert_eq!(report.rollbacks, 0);
    assert_eq!(tracer.counter("train.nonfinite"), 2);
    assert_eq!(instant_events(&tracer, "train.nonfinite"), 2);
    // The poison never reached the weights.
    assert!(
        state_is_nan_free(&mut model),
        "NaN leaked into the checkpointed state"
    );
    for acc in &report.val_accuracy {
        assert!(acc.is_finite());
    }
}

#[test]
fn unguarded_nan_poisons_the_run_proving_the_guard_matters() {
    let fx = fixture();
    let res = resources(fx);
    let opts = FitOptions::new().inject_nonfinite_at(&[1]); // GuardPolicy::Off
    let (mut model, report) = KgLink::fit_with(&res, &fx.dataset, train_config(), &opts).unwrap();
    assert_eq!(report.nonfinite_steps, 1);
    assert!(
        !state_is_nan_free(&mut model),
        "without a guard the injected NaN must propagate"
    );
}

#[test]
fn rollback_guard_restores_last_checkpoint_after_consecutive_bad_steps() {
    let fx = fixture();
    let tracer = Tracer::enabled();
    let res = Resources::builder()
        .graph(&fx.graph)
        .backend(&fx.searcher)
        .tokenizer(&fx.tokenizer)
        .tracer(&tracer)
        .build()
        .unwrap();
    let path = temp_ckpt("rollback");
    let opts = FitOptions::new()
        .checkpoint_every(&path, 2)
        .guard(GuardPolicy::Rollback { max_consecutive: 2 })
        .inject_nonfinite_at(&[3, 4, 5]);
    let (mut model, report) = KgLink::fit_with(&res, &fx.dataset, train_config(), &opts).unwrap();
    assert_eq!(report.nonfinite_steps, 3);
    assert!(report.rollbacks >= 1, "three consecutive bad steps with K=2");
    assert_eq!(tracer.counter("train.rollback"), report.rollbacks);
    assert!(
        state_is_nan_free(&mut model),
        "rollback must discard the poisoned state"
    );
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

// ---------------------------------------------------------------------------
// Serving under panics
// ---------------------------------------------------------------------------

struct ServeFixture {
    model: Arc<KgLink>,
    graph: Arc<KnowledgeGraph>,
    tokenizer: Arc<Tokenizer>,
    searcher: Arc<EntitySearcher>,
    tables: Vec<Table>,
}

fn serve_fixture() -> &'static ServeFixture {
    static FIXTURE: OnceLock<ServeFixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let fx = fixture();
        let res = resources(fx);
        let (model, _) = KgLink::fit(&res, &fx.dataset, train_config());
        ServeFixture {
            model: Arc::new(model),
            graph: Arc::new(fx.graph.clone()),
            tokenizer: Arc::new(fx.tokenizer.clone()),
            searcher: Arc::new(EntitySearcher::build(&fx.graph)),
            tables: fx.dataset.tables.iter().take(10).cloned().collect(),
        }
    })
}

fn panicking_service(
    fx: &ServeFixture,
    every: u64,
    config: ServiceConfig,
) -> (AnnotationService, Arc<PanickingBackend<Arc<EntitySearcher>>>) {
    let backend = Arc::new(PanickingBackend::new(Arc::clone(&fx.searcher), every));
    let svc = AnnotationService::new(
        Arc::clone(&fx.model),
        Arc::clone(&fx.graph) as Arc<dyn kglink::kg::GraphAccess>,
        Arc::clone(&backend) as SharedBackend,
        Arc::clone(&fx.tokenizer),
        config,
    );
    (svc, backend)
}

#[test]
fn panicking_backend_leaves_zero_hung_tickets_and_bounded_restarts() {
    let fx = serve_fixture();
    let budget = 32;
    let tracer = Tracer::enabled();
    let (mut svc, backend) = panicking_service(
        fx,
        5,
        ServiceConfig {
            workers: 2,
            cache: None, // every retrieval reaches the panicking backend
            admission: AdmissionPolicy::Block,
            restart_budget: budget,
            tracer: tracer.clone(),
            ..ServiceConfig::default()
        },
    );
    let tickets = svc.submit_batch(fx.tables.iter().cloned());
    let mut ok = 0u64;
    let mut panicked = 0u64;
    for ticket in tickets {
        // Every ticket must resolve — a hang here times the test out.
        match ticket.expect("queue has room").wait() {
            Ok(_) => ok += 1,
            Err(ServiceError::WorkerPanicked) => panicked += 1,
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    assert!(panicked > 0, "a panic every 5 retrievals must hit some request");
    assert_eq!(ok + panicked, fx.tables.len() as u64);
    // The pool survived: a fresh request still completes (or at worst
    // panics typed — but never hangs or reports a dead pool).
    match svc.annotate(fx.tables[0].clone()) {
        Ok(_) => ok += 1,
        Err(ServiceError::WorkerPanicked) => panicked += 1,
        Err(other) => panic!("pool should still serve, got {other}"),
    }
    // Quiesce before reconciling: shutdown joins the workers and the
    // supervisor, so every panic/restart is fully accounted.
    svc.shutdown();
    let metrics = svc.metrics();
    assert_eq!(metrics.completed, ok);
    assert_eq!(metrics.worker_panics, panicked);
    assert!(metrics.worker_restarts <= budget as u64);
    assert!(backend.panics() >= panicked);
    // Tracer events reconcile with the counters.
    assert_eq!(tracer.counter("worker.panic"), metrics.worker_panics);
    assert_eq!(
        instant_events(&tracer, "worker.panic") as u64,
        metrics.worker_panics
    );
    assert_eq!(tracer.counter("worker.restart"), metrics.worker_restarts);
}

#[test]
fn restart_budget_exhaustion_fails_queued_and_future_requests_typed() {
    let fx = serve_fixture();
    let (svc, _backend) = panicking_service(
        fx,
        1, // every retrieval panics: the pool can never make progress
        ServiceConfig {
            workers: 1,
            cache: None,
            admission: AdmissionPolicy::Block,
            restart_budget: 0,
            ..ServiceConfig::default()
        },
    );
    let tickets = svc.submit_batch(fx.tables.iter().take(4).cloned());
    let mut outcomes = Vec::new();
    for ticket in tickets {
        outcomes.push(ticket.expect("queue has room").wait());
    }
    assert!(
        outcomes
            .iter()
            .all(|o| matches!(
                o,
                Err(ServiceError::WorkerPanicked)
                    | Err(ServiceError::RestartBudgetExhausted { .. })
            )),
        "all tickets must fail typed, got {outcomes:?}"
    );
    assert!(
        outcomes
            .iter()
            .any(|o| matches!(o, Err(ServiceError::RestartBudgetExhausted { budget: 0 }))),
        "queued requests behind the dead pool must see the budget error"
    );
    // The failure latches: new submissions are refused with the same error.
    let refused = svc.submit(fx.tables[0].clone());
    assert!(matches!(
        refused,
        Err(ServiceError::RestartBudgetExhausted { budget: 0 })
    ));
    let metrics = svc.metrics();
    assert_eq!(metrics.worker_panics, 1, "one panic spent the pool");
    assert_eq!(metrics.worker_restarts, 0);
    assert_eq!(metrics.workers_alive, 0);
}

#[test]
fn supervisor_respawns_within_budget_and_keeps_serving() {
    let fx = serve_fixture();
    let tracer = Tracer::enabled();
    let (mut svc, _backend) = panicking_service(
        fx,
        4,
        ServiceConfig {
            workers: 1, // every panic kills the whole pool until respawn
            cache: None,
            admission: AdmissionPolicy::Block,
            restart_budget: 64,
            tracer: tracer.clone(),
            ..ServiceConfig::default()
        },
    );
    let tickets = svc.submit_batch(fx.tables.iter().cloned());
    let mut resolved = 0usize;
    for ticket in tickets {
        let _ = ticket.expect("queue has room").wait();
        resolved += 1;
    }
    assert_eq!(resolved, fx.tables.len());
    // Pre-shutdown the respawn path never decrements the alive count:
    // the lone worker is always either running or being replaced.
    assert_eq!(svc.metrics().workers_alive, 1, "respawned worker is alive");
    // Quiesce before reconciling counters (a final respawn may still be
    // in flight on the supervisor thread until shutdown joins it).
    svc.shutdown();
    let metrics = svc.metrics();
    assert!(
        metrics.worker_restarts >= 1,
        "with one worker, surviving panics requires respawns"
    );
    assert_eq!(tracer.counter("worker.restart"), metrics.worker_restarts);
}

#[test]
fn shutdown_is_idempotent_and_fails_leftovers_typed() {
    let fx = serve_fixture();
    // Admission-only service: nothing drains the queue, so submitted
    // requests are still queued at shutdown and must fail typed.
    let backend: SharedBackend = Arc::clone(&fx.searcher) as SharedBackend;
    let mut svc = AnnotationService::new(
        Arc::clone(&fx.model),
        Arc::clone(&fx.graph) as Arc<dyn kglink::kg::GraphAccess>,
        backend,
        Arc::clone(&fx.tokenizer),
        ServiceConfig {
            workers: 0,
            cache: None,
            admission: AdmissionPolicy::Reject,
            ..ServiceConfig::default()
        },
    );
    let tickets = svc.submit_batch(fx.tables.iter().take(3).cloned());
    svc.shutdown();
    svc.shutdown(); // second call must be a no-op, not a double-join/panic
    for ticket in tickets {
        assert!(matches!(
            ticket.expect("queue had room").wait(),
            Err(ServiceError::Closed)
        ));
    }
    assert!(matches!(
        svc.submit(fx.tables[0].clone()),
        Err(ServiceError::Closed)
    ));
    drop(svc); // drop also runs shutdown; third time must still be a no-op
}
