//! Integration tests for the `kglink-serve` annotation service: worker
//! pools must be bit-identical to single-threaded annotation, admission
//! policies must fail requests with typed errors, expired deadlines must
//! degrade (never panic), and the retrieval cache must be transparent.
//!
//! One trained fixture is shared across tests via `OnceLock` — training
//! even the tiny model dominates test time, and every test here only
//! *reads* the model.

use kglink::core::pipeline::{build_vocab, req, KgLink, Resources};
use kglink::core::{KgLinkConfig, Preprocessor};
use kglink::datagen::{pretrain_corpus, semtab_like, SemTabConfig};
use kglink::kg::{GraphAccess, SyntheticWorld, WorldConfig};
use kglink::nn::Tokenizer;
use kglink::search::{CacheConfig, CachingBackend, Deadline, FaultConfig, FaultyBackend};
use kglink::serve::{
    AdmissionPolicy, AimdConfig, AnnotationService, BrownoutConfig, DegradationRung,
    OverloadConfig, RetrievalCounts, ServiceConfig, ServiceError, SharedBackend,
};
use kglink::store::{DiskBackend, DiskGraph, DiskWorld};
use kglink::table::{LabelId, Table};
use std::sync::{Arc, OnceLock};

struct Fixture {
    model: Arc<KgLink>,
    graph: Arc<DiskGraph>,
    tokenizer: Arc<Tokenizer>,
    searcher: Arc<DiskBackend>,
    tables: Vec<Table>,
}

impl Fixture {
    /// Resources over an arbitrary backend, for single-threaded baselines.
    fn resources_with<'a>(
        &'a self,
        backend: &'a (dyn kglink::search::KgBackend + 'a),
    ) -> Resources<'a> {
        Resources::builder()
            .graph(&self.graph)
            .backend(backend)
            .tokenizer(&self.tokenizer)
            .build()
            .unwrap()
    }
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let world = SyntheticWorld::generate(&WorldConfig::tiny(411));
        let bench = semtab_like(&world, &SemTabConfig::tiny(411));
        let disk = DiskWorld::from_graph(&world.graph).unwrap();
        let corpus = pretrain_corpus(&world, 411);
        let vocab = build_vocab(corpus.iter().map(String::as_str), &[&bench.dataset], 6000);
        let tokenizer = Tokenizer::new(vocab);
        let (model, _) = {
            let resources = Resources::builder()
                .graph(&disk.graph)
                .backend(&disk.backend)
                .tokenizer(&tokenizer)
                .build()
                .unwrap();
            KgLink::fit(
                &resources,
                &bench.dataset,
                KgLinkConfig {
                    epochs: 2,
                    ..KgLinkConfig::fast_test()
                },
            )
        };
        Fixture {
            model: Arc::new(model),
            graph: disk.graph,
            tokenizer: Arc::new(tokenizer),
            searcher: disk.backend,
            tables: bench.dataset.tables.iter().take(8).cloned().collect(),
        }
    })
}

fn service(fx: &Fixture, config: ServiceConfig) -> AnnotationService {
    service_over(fx, Arc::clone(&fx.searcher) as SharedBackend, config)
}

fn service_over(fx: &Fixture, backend: SharedBackend, config: ServiceConfig) -> AnnotationService {
    AnnotationService::new(
        Arc::clone(&fx.model),
        Arc::clone(&fx.graph) as Arc<dyn GraphAccess>,
        backend,
        Arc::clone(&fx.tokenizer),
        config,
    )
}

#[test]
fn worker_pools_are_bit_identical_to_single_threaded_annotation() {
    let fx = fixture();
    let resources = fx.resources_with(fx.searcher.as_ref());
    let baseline: Vec<Vec<LabelId>> = fx
        .tables
        .iter()
        .map(|t| fx.model.annotate_request(&resources, req(t)).labels)
        .collect();
    for workers in [1, 3] {
        let svc = service(
            fx,
            ServiceConfig {
                workers,
                cache: Some(CacheConfig::default()),
                ..ServiceConfig::default()
            },
        );
        let tickets = svc.submit_batch(fx.tables.iter().cloned());
        for (i, ticket) in tickets.into_iter().enumerate() {
            let annotation = ticket.expect("queue has room").wait().expect("service up");
            assert_eq!(
                annotation.labels, baseline[i],
                "workers={workers}: table {i} diverged from single-threaded annotate"
            );
            assert!(!annotation.expired);
        }
        let m = svc.metrics();
        assert_eq!(m.completed, fx.tables.len() as u64);
        assert_eq!(m.submitted, fx.tables.len() as u64);
    }
}

#[test]
fn reject_policy_yields_typed_overload_error() {
    let fx = fixture();
    // workers = 0: admission-only mode — nothing drains the queue, so the
    // overflow behavior is deterministic.
    let svc = service(
        fx,
        ServiceConfig {
            workers: 0,
            queue_capacity: 2,
            admission: AdmissionPolicy::Reject,
            ..ServiceConfig::default()
        },
    );
    let t1 = svc.submit(fx.tables[0].clone()).expect("slot 1");
    let t2 = svc.submit(fx.tables[1].clone()).expect("slot 2");
    match svc.submit(fx.tables[2].clone()) {
        Err(ServiceError::Overloaded {
            queue_depth,
            capacity,
        }) => {
            assert_eq!(queue_depth, 2);
            assert_eq!(capacity, 2);
        }
        other => panic!("expected Overloaded, got {:?}", other.map(|t| t.id())),
    }
    let m = svc.metrics();
    assert_eq!(m.rejected, 1);
    assert_eq!(m.queue_depth, 2);
    // Shutdown fails the still-queued requests explicitly.
    drop(svc);
    assert_eq!(t1.wait(), Err(ServiceError::Closed));
    assert_eq!(t2.wait(), Err(ServiceError::Closed));
}

#[test]
fn adaptive_admission_clamps_below_the_physical_capacity() {
    // With overload protection on, admission happens at the AIMD limit,
    // not at `queue_capacity`: min_limit == max_limit pins the limit so
    // the behavior is deterministic with no workers draining.
    let fx = fixture();
    let svc = service(
        fx,
        ServiceConfig {
            workers: 0,
            queue_capacity: 8,
            admission: AdmissionPolicy::Reject,
            overload: Some(OverloadConfig {
                aimd: AimdConfig {
                    min_limit: 2,
                    max_limit: 2,
                    ..AimdConfig::default()
                },
                brownout: BrownoutConfig::default(),
            }),
            ..ServiceConfig::default()
        },
    );
    let _t1 = svc.submit(fx.tables[0].clone()).expect("slot 1");
    let _t2 = svc.submit(fx.tables[1].clone()).expect("slot 2");
    match svc.submit(fx.tables[2].clone()) {
        Err(ServiceError::Overloaded {
            queue_depth,
            capacity,
        }) => {
            assert_eq!(queue_depth, 2);
            assert_eq!(capacity, 2, "the reported bound is the dynamic limit");
        }
        other => panic!(
            "expected Overloaded at the clamped limit, got {:?}",
            other.map(|t| t.id())
        ),
    }
    let m = svc.metrics();
    assert_eq!(m.admission_limit, 2);
    assert_eq!(m.rejected, 1);
}

#[test]
fn pinned_no_linkage_rung_is_bit_identical_to_the_dead_backend_baseline() {
    let fx = fixture();
    let svc = service(
        fx,
        ServiceConfig {
            workers: 2,
            cache: None,
            overload: Some(OverloadConfig {
                brownout: BrownoutConfig::pinned(DegradationRung::NoLinkage),
                ..OverloadConfig::default()
            }),
            ..ServiceConfig::default()
        },
    );
    let dead = FaultyBackend::new(fx.searcher.as_ref(), FaultConfig::with_fault_rate(411, 1.0));
    let dead_resources = fx.resources_with(&dead);
    let tickets = svc.submit_batch(fx.tables.iter().cloned());
    for (i, ticket) in tickets.into_iter().enumerate() {
        let annotation = ticket
            .expect("admitted")
            .wait()
            .expect("degraded, not failed");
        assert_eq!(annotation.rung, DegradationRung::NoLinkage);
        assert!(!annotation.expired, "brownout is not a deadline expiry");
        assert_eq!(
            annotation.labels,
            fx.model
                .annotate_request(&dead_resources, req(&fx.tables[i]))
                .labels,
            "table {i}: rung-2 output must equal the no-linkage baseline"
        );
    }
    let m = svc.metrics();
    assert_eq!(m.served_no_linkage, fx.tables.len() as u64);
    assert_eq!(m.served_full, 0);
    assert_eq!(m.rung, DegradationRung::NoLinkage);
}

#[test]
fn cold_cache_only_rung_matches_no_linkage_and_records_its_rung() {
    let fx = fixture();
    let pinned = |cache| {
        service(
            fx,
            ServiceConfig {
                workers: 1,
                cache,
                overload: Some(OverloadConfig {
                    brownout: BrownoutConfig::pinned(DegradationRung::CacheOnly),
                    ..OverloadConfig::default()
                }),
                ..ServiceConfig::default()
            },
        )
    };
    // With a (stone-cold) cache: every lookup misses, every column takes
    // the degraded path — bit-identical to rung 2, but recorded as rung 1.
    let svc = pinned(Some(CacheConfig::default()));
    let dead = FaultyBackend::new(fx.searcher.as_ref(), FaultConfig::with_fault_rate(411, 1.0));
    let dead_resources = fx.resources_with(&dead);
    let table = &fx.tables[0];
    let annotation = svc.annotate(table.clone()).expect("degraded, not failed");
    assert_eq!(annotation.rung, DegradationRung::CacheOnly);
    assert_eq!(
        annotation.labels,
        fx.model
            .annotate_request(&dead_resources, req(table))
            .labels
    );
    assert_eq!(svc.metrics().served_cache_only, 1);
    // Without a cache there is nothing to serve hits from: the rung folds
    // into no-linkage and is recorded as what actually happened.
    let svc = pinned(None);
    let annotation = svc.annotate(table.clone()).expect("degraded, not failed");
    assert_eq!(annotation.rung, DegradationRung::NoLinkage);
    assert_eq!(svc.metrics().served_no_linkage, 1);
}

#[test]
fn default_config_serves_everything_at_full_retrieval() {
    let fx = fixture();
    let svc = service(
        fx,
        ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
    );
    let annotation = svc.annotate(fx.tables[0].clone()).expect("served");
    assert_eq!(annotation.rung, DegradationRung::Full);
    let m = svc.metrics();
    assert_eq!(m.served_full, 1);
    assert_eq!(m.rung, DegradationRung::Full);
    assert_eq!(
        m.admission_limit,
        ServiceConfig::default().queue_capacity,
        "without overload protection the limit is the physical capacity"
    );
}

#[test]
fn expired_deadline_degrades_gracefully_instead_of_panicking() {
    let fx = fixture();
    let svc = service(
        fx,
        ServiceConfig {
            workers: 1,
            cache: None,
            ..ServiceConfig::default()
        },
    );
    let table = &fx.tables[0];
    // A zero budget is already expired when the worker picks it up: the
    // request must complete through the degraded no-linkage path.
    let annotation = svc
        .submit_with_deadline(table.clone(), Deadline::from_us(0))
        .expect("admitted")
        .wait()
        .expect("expired requests complete, they do not error");
    assert!(annotation.expired);
    assert_eq!(annotation.labels.len(), table.n_cols());
    assert!(
        annotation.failed_cells > 0,
        "every retrieval short-circuits"
    );
    // The degraded output equals annotating through an always-failing
    // backend: the no-linkage path does not depend on *why* retrieval
    // failed.
    let dead = FaultyBackend::new(fx.searcher.as_ref(), FaultConfig::with_fault_rate(411, 1.0));
    let dead_resources = fx.resources_with(&dead);
    assert_eq!(
        annotation.labels,
        fx.model
            .annotate_request(&dead_resources, req(table))
            .labels
    );
    assert!(svc.metrics().expired >= 1);
}

#[test]
fn repeated_tables_hit_the_cache_and_metrics_reconcile() {
    let fx = fixture();
    let workload: Vec<Table> = fx.tables.iter().chain(&fx.tables).cloned().collect();
    let run = |svc: &AnnotationService| -> Vec<Vec<LabelId>> {
        svc.submit_batch(workload.iter().cloned())
            .into_iter()
            .map(|t| t.expect("admitted").wait().expect("completed").labels)
            .collect()
    };
    let pinned = |rung| ServiceConfig {
        workers: 2,
        cache: Some(CacheConfig::default()),
        overload: Some(OverloadConfig {
            brownout: BrownoutConfig::pinned(rung),
            ..OverloadConfig::default()
        }),
        ..ServiceConfig::default()
    };

    // All-`Full` traffic over a flaky source: every counted lookup is one
    // cache lookup, and every failed lookup is one failed cell.
    let faults = FaultConfig {
        transient_rate: 0.3,
        ..FaultConfig::healthy(411)
    };
    let flaky = Arc::new(FaultyBackend::new(Arc::clone(&fx.searcher), faults));
    let svc = service_over(fx, flaky, pinned(DegradationRung::Full));
    run(&svc);
    let m = svc.metrics();
    assert_eq!(m.completed, workload.len() as u64);
    assert_eq!(m.queue_depth, 0);
    assert!(m.latency_p99_us >= m.latency_p50_us);
    assert!(m.retrieval.queries > 0, "workers count their retrievals");
    assert!(
        m.cache_hit_rate() > 0.0,
        "submitting every table twice must produce cache hits: {m}"
    );
    let cache = m.cache.expect("cache enabled");
    assert_eq!(cache.hits + cache.misses, cache.lookups());
    assert!(m.failed_cells > 0, "{m}");
    let counts = |queries, failures| RetrievalCounts {
        queries,
        successes: queries - failures,
        failures,
        truncated: 0,
    };
    assert_eq!(m.retrieval, counts(cache.lookups(), m.failed_cells));

    // Pinned cache-only over a cold cache: nothing is counted or stored,
    // every miss is one failed cell, and the labels are the no-linkage ones.
    let cache_only = service(fx, pinned(DegradationRung::CacheOnly));
    let cache_only_labels = run(&cache_only);
    let m = cache_only.metrics();
    let cache = m.cache.expect("cache enabled");
    assert_eq!(m.retrieval, counts(0, 0));
    assert!(m.failed_cells > 0);
    assert_eq!(
        (cache.hits, cache.misses, cache.insertions),
        (0, m.failed_cells, 0)
    );
    assert_eq!(
        cache_only_labels,
        run(&service(fx, pinned(DegradationRung::NoLinkage)))
    );
}

#[test]
fn preprocessing_through_the_cache_is_deterministic() {
    // Satellite check: training-time preprocessing routed through
    // `CachingBackend` (cold, then fully warm) must produce exactly the
    // KG evidence the direct searcher produces.
    let fx = fixture();
    let config = KgLinkConfig::fast_test();
    let cached_backend = CachingBackend::new(fx.searcher.as_ref(), CacheConfig::default());
    let pre_direct = Preprocessor::new(&fx.graph, fx.searcher.as_ref(), config.clone());
    let pre_cached = Preprocessor::new(&fx.graph, &cached_backend, config.clone());
    for pass in 0..2 {
        for table in &fx.tables {
            let direct = pre_direct.process(table);
            let cached = pre_cached.process(table);
            assert_eq!(direct.len(), cached.len());
            for (d, c) in direct.iter().zip(&cached) {
                assert_eq!(
                    d.candidate_type_names, c.candidate_type_names,
                    "pass {pass}: candidate types must not depend on cache state"
                );
                assert_eq!(d.feature_seqs, c.feature_seqs);
                assert_eq!(d.has_linkage, c.has_linkage);
            }
        }
    }
    let stats = cached_backend.stats();
    assert!(
        stats.hits > 0,
        "the second pass must be served from the cache: {stats:?}"
    );
    // And end-to-end: annotation over the warm cache equals direct.
    let direct_res = fx.resources_with(fx.searcher.as_ref());
    let cached_res = fx.resources_with(&cached_backend);
    for table in fx.tables.iter().take(3) {
        assert_eq!(
            fx.model.annotate_request(&cached_res, req(table)).labels,
            fx.model.annotate_request(&direct_res, req(table)).labels
        );
    }
}

/// A hot swap under live traffic is atomic: every request is served
/// end-to-end by exactly one epoch (its recorded `model_version`), labels
/// stay bit-identical to the single-threaded baseline throughout, and the
/// same-weights candidate sails through the default divergence gates.
#[test]
fn hot_swap_is_atomic_and_bit_identical() {
    use kglink::serve::{Annotation, SwapPlan};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    let fx = fixture();
    let svc = service(
        fx,
        ServiceConfig {
            workers: 2,
            cache: None,
            initial_version: 7,
            ..ServiceConfig::default()
        },
    );
    let direct = fx.resources_with(fx.searcher.as_ref());
    let expected: Vec<Vec<LabelId>> = fx
        .tables
        .iter()
        .map(|t| fx.model.annotate_request(&direct, req(t)).labels)
        .collect();

    let stop = AtomicBool::new(false);
    let collected: std::sync::Mutex<Vec<(usize, Annotation)>> = std::sync::Mutex::new(Vec::new());
    std::thread::scope(|s| {
        let (svc_ref, stop_ref, coll) = (&svc, &stop, &collected);
        s.spawn(move || {
            let mut tickets = Vec::new();
            let mut i = 0usize;
            while !stop_ref.load(Ordering::Relaxed) {
                let idx = i % fx.tables.len();
                tickets.push((idx, svc_ref.submit(fx.tables[idx].clone()).unwrap()));
                i += 1;
                std::thread::sleep(Duration::from_micros(200));
            }
            let mut out = coll.lock().unwrap();
            for (idx, t) in tickets {
                out.push((idx, t.wait().unwrap()));
            }
        });
        // Same weights under a new version id: zero flips, so the default
        // 10% divergence gates pass and the swap must promote.
        let plan = SwapPlan {
            shadow_sample_every: 1,
            shadow_min_requests: 2,
            watch_sample_every: 1,
            watch_min_requests: 2,
            phase_timeout: Duration::from_secs(30),
            ..SwapPlan::default()
        };
        let report = svc
            .swap_model(8, Arc::clone(&fx.model), &plan)
            .expect("same-weights swap promotes");
        assert_eq!((report.from_version, report.to_version), (7, 8));
        assert_eq!(report.shadow_flips, 0, "identical weights never flip");
        assert_eq!(svc.model_version(), 8);
        stop.store(true, Ordering::Relaxed);
    });

    let results = collected.into_inner().unwrap();
    assert!(!results.is_empty());
    for (idx, a) in &results {
        assert!(
            a.model_version == 7 || a.model_version == 8,
            "request served by unknown epoch {}",
            a.model_version
        );
        assert_eq!(&a.labels, &expected[*idx], "torn ticket for table {idx}");
    }
    let m = svc.metrics();
    assert_eq!((m.swaps, m.rollbacks), (1, 0));
    assert_eq!(m.model_version, 8);
    let stats = svc.version_stats();
    assert_eq!(
        stats.values().map(|v| v.served).sum::<u64>(),
        results.len() as u64
    );
}

/// Feature rows are remembered per epoch: a promote brings a fresh memo
/// with the new weights, so the rows model A encoded never reach model B.
/// A memo shared across epochs would hand B the rows A computed.
#[test]
fn feature_rows_are_remembered_per_epoch() {
    use kglink::core::KgLinkModel;
    use kglink::serve::{FeatureMemoStats, SwapPlan};

    let fx = fixture();
    let svc = service(
        fx,
        ServiceConfig {
            workers: 2,
            initial_version: 1,
            ..ServiceConfig::default()
        },
    );
    let serve_all = |svc: &AnnotationService| -> Vec<Vec<LabelId>> {
        svc.submit_batch(fx.tables.iter().cloned())
            .into_iter()
            .map(|t| t.expect("admitted").wait().expect("served").labels)
            .collect()
    };
    serve_all(&svc);
    serve_all(&svc);
    let warm = svc.metrics().feature_memo;
    assert!(
        warm.hits > 0 && warm.entries > 0,
        "the second pass hits: {warm:?}"
    );

    // Model B: the same label space, fresh weights.
    let b = Arc::new(KgLink {
        config: fx.model.config.clone(),
        model: KgLinkModel::new(
            &fx.model.config,
            fx.tokenizer.vocab.len(),
            fx.model.labels.len(),
        ),
        labels: fx.model.labels.clone(),
    });
    let plan = SwapPlan {
        probe_tables: Vec::new(),
        shadow_min_requests: 0,
        watch_min_requests: 0,
        ..SwapPlan::default()
    };
    svc.swap_model(2, Arc::clone(&b), &plan)
        .expect("ungated swap promotes");
    assert_eq!(svc.model_version(), 2);
    assert_eq!(svc.metrics().feature_memo, FeatureMemoStats::default());

    let resources = fx.resources_with(fx.searcher.as_ref());
    let expected: Vec<Vec<LabelId>> = fx
        .tables
        .iter()
        .map(|t| b.annotate_request(&resources, req(t)).labels)
        .collect();
    assert_eq!(
        serve_all(&svc),
        expected,
        "model B serves its own feature rows"
    );
    let after = svc.metrics().feature_memo;
    assert!(after.misses > 0, "B's memo starts empty: {after:?}");
}

/// Candidates that cannot possibly serve are refused without touching the
/// epoch: a label-space mismatch is rejected at prepare, and a zero
/// rollback budget fails closed before any phase runs.
#[test]
fn swap_rejects_label_mismatch_and_fails_closed_on_zero_budget() {
    use kglink::core::KgLinkModel;
    use kglink::serve::{SwapError, SwapPhase, SwapPlan};
    use kglink::table::LabelVocab;

    let fx = fixture();
    let svc = service(
        fx,
        ServiceConfig {
            workers: 1,
            initial_version: 1,
            ..ServiceConfig::default()
        },
    );
    // A candidate trained against a different label vocabulary.
    let mut labels = LabelVocab::default();
    for name in ["alpha", "beta"] {
        labels.intern(name);
    }
    let alien = Arc::new(KgLink {
        config: fx.model.config.clone(),
        model: KgLinkModel::new(&fx.model.config, 64, labels.len()),
        labels,
    });
    match svc.swap_model(2, alien, &SwapPlan::default()) {
        Err(SwapError::Rejected {
            phase: SwapPhase::Prepare,
            ..
        }) => {}
        other => panic!("label mismatch must be rejected at prepare, got {other:?}"),
    }
    assert_eq!(svc.model_version(), 1, "rejection never touches the epoch");

    let svc0 = service(
        fx,
        ServiceConfig {
            workers: 1,
            rollback_budget: 0,
            ..ServiceConfig::default()
        },
    );
    match svc0.swap_model(2, Arc::clone(&fx.model), &SwapPlan::default()) {
        Err(SwapError::RollbackBudgetExhausted { budget: 0 }) => {}
        other => panic!("zero budget must fail closed, got {other:?}"),
    }
    // …and the service still serves.
    let a = svc0
        .submit(fx.tables[0].clone())
        .unwrap()
        .wait()
        .expect("fail-closed lifecycle keeps serving");
    assert_eq!(a.model_version, 0);
}

/// An admission-limit cut sheds what is queued beyond the new limit at
/// once. With one worker and a zero sojourn target, every one-observation
/// window that saw any wait halves the limit (8 → 4 → 2 → 1), and the
/// requests queued past it resolve `Shed` instead of being served late.
/// The limit starts at the queue's capacity whatever `max_limit` says, so
/// the first cut lands on the queue: by the second dequeue at the latest
/// (it waited out the first request's service) the limit is 4, and at
/// most the first request plus 4 queued behind it are served.
#[test]
fn an_admission_limit_cut_sheds_the_queued_overflow() {
    let fx = fixture();
    for max_limit in [8, 64] {
        let svc = service(
            fx,
            ServiceConfig {
                workers: 1,
                queue_capacity: 8,
                admission: AdmissionPolicy::Reject,
                overload: Some(OverloadConfig {
                    aimd: AimdConfig {
                        min_limit: 1,
                        max_limit,
                        increase: 1,
                        decrease_factor: 0.5,
                        target_sojourn_us: 0,
                        window: 1,
                    },
                    brownout: BrownoutConfig {
                        enter_cache_only_us: u64::MAX,
                        enter_no_linkage_us: u64::MAX,
                        ..BrownoutConfig::default()
                    },
                }),
                ..ServiceConfig::default()
            },
        );
        let tickets = svc.submit_batch(fx.tables.iter().cloned());
        assert_eq!(tickets.len(), 8);
        let (mut completed, mut shed) = (0u64, 0u64);
        for ticket in tickets.into_iter().flatten() {
            match ticket.wait() {
                Ok(_) => completed += 1,
                Err(ServiceError::Shed) => shed += 1,
                Err(other) => panic!("a ticket resolved {other:?}, not served or shed"),
            }
        }
        let m = svc.metrics();
        assert!(m.shed > 0, "the limit fell below the queue depth: {m}");
        assert_eq!(shed, m.shed, "every shed request resolves `Shed`");
        assert_eq!(completed, m.completed);
        assert_eq!(m.shed + m.completed + m.rejected, 8);
        assert!(
            m.completed <= 5,
            "max_limit {max_limit}: the first cut must reach the queue: {m}"
        );
    }
}

/// Each completion's latency is recorded once, against the model version
/// that served it: across a hot swap, the snapshot's quantiles are those
/// of the merged per-version histograms, and the per-version counts sum
/// to the completions.
#[test]
fn service_latency_is_the_merge_of_the_per_version_histograms() {
    use kglink::obs::Histogram;
    use kglink::serve::SwapPlan;

    let fx = fixture();
    let svc = service(
        fx,
        ServiceConfig {
            workers: 2,
            initial_version: 1,
            ..ServiceConfig::default()
        },
    );
    let serve_all = |svc: &AnnotationService| {
        for ticket in svc.submit_batch(fx.tables.iter().cloned()) {
            ticket.expect("admitted").wait().expect("served");
        }
    };
    serve_all(&svc);
    let plan = SwapPlan {
        shadow_min_requests: 0,
        watch_min_requests: 0,
        ..SwapPlan::default()
    };
    svc.swap_model(2, Arc::clone(&fx.model), &plan)
        .expect("ungated swap promotes");
    serve_all(&svc);

    let stats = svc.version_stats();
    assert_eq!(stats.keys().copied().collect::<Vec<_>>(), vec![1, 2]);
    let mut merged = Histogram::new();
    for version in stats.values() {
        merged.merge_from(&version.latency);
    }
    let m = svc.metrics();
    assert_eq!(
        (m.latency_p50_us, m.latency_p99_us),
        (merged.p50(), merged.p99())
    );
    assert_eq!(stats.values().map(|v| v.served).sum::<u64>(), m.completed);
    assert_eq!(m.completed, 2 * fx.tables.len() as u64);
}
