//! The annotation service: submit tables, get tickets, wait for labels.
//!
//! [`AnnotationService`] wraps a trained [`KgLink`] behind a sharded worker
//! pool. The moving parts, front to back:
//!
//! ```text
//!  submit() ──► BoundedQueue (admission policy) ──► worker 0 ─┐
//!  submit() ──►                                ──► worker 1 ─┼─► reply
//!  submit() ──►                                ──► worker N ─┘  channels
//!                       │                            │
//!                  backpressure              CachingBackend (shared LRU)
//!                 (Reject/Block)                     │
//!                                             user backend stack
//!                                        (disk / searcher / faulty)
//! ```
//!
//! Determinism: annotation is a pure function of (model, resources, table).
//! The cache only ever serves bit-identical
//! [`SearchOutcome`](kglink_search::SearchOutcome)s (keyed by normalized
//! mention + `top_k` over a deterministic backend), so results are
//! independent of worker count and scheduling — the serve tests and
//! `exp_serve` assert bit-identity between 1-worker and N-worker runs.

use crate::error::ServiceError;
use crate::fanout::RequestQueue;
use crate::lifecycle::{
    Lifecycle, ModelEpoch, ShadowState, SwapError, SwapPhase, SwapPlan, SwapReport, VersionStats,
};
use crate::metrics::ServiceMetrics;
use crate::overload::{OverloadConfig, OverloadControl};
use crate::queue::{AdmissionPolicy, PushError};
use crate::retrieval::Retrieval;
use crate::worker::{self, WorkerContext};
use kglink_core::pipeline::req;
use kglink_core::{DegradationRung, KgLink};
use kglink_kg::GraphAccess;
use kglink_nn::Tokenizer;
use kglink_obs::Tracer;
use kglink_search::{CacheConfig, Deadline, KgBackend};
use kglink_table::{LabelId, Table};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The retrieval stack handed to the service: any [`KgBackend`] decorator
/// chain behind an `Arc` ([`KgBackend`] is `Send + Sync` by contract).
pub type SharedBackend = Arc<dyn KgBackend>;

/// Service tuning knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads. `0` is allowed and means admission-only: requests
    /// queue but are never processed — useful for deterministic
    /// backpressure tests. `Block` admission requires `workers > 0` to
    /// ever make progress.
    pub workers: usize,
    /// Bounded queue capacity; beyond it the admission policy applies.
    pub queue_capacity: usize,
    /// What to do with new requests when the queue is full.
    pub admission: AdmissionPolicy,
    /// Deadline applied by [`AnnotationService::submit`] when the caller
    /// does not pass one explicitly.
    pub default_deadline: Deadline,
    /// Shared retrieval LRU configuration; `None` disables caching.
    pub cache: Option<CacheConfig>,
    /// Observability sink shared by the cache and every worker: queue-wait
    /// and per-request service spans, plus cache hit/miss counters, land
    /// here. Defaults to [`Tracer::disabled`] (zero overhead).
    pub tracer: Tracer,
    /// Overload protection (adaptive admission + degradation ladder);
    /// `None` keeps the static queue behavior.
    pub overload: Option<OverloadConfig>,
    /// Version id reported for the model the service starts with
    /// (typically its registry version; `0` = unversioned baseline).
    pub initial_version: u64,
    /// Automatic rollbacks the lifecycle may perform over the service's
    /// lifetime. The budget fails closed: once spent,
    /// [`AnnotationService::swap_model`] refuses further candidates with
    /// [`SwapError::RollbackBudgetExhausted`] and the last-known-good
    /// epoch keeps serving.
    pub rollback_budget: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            queue_capacity: 64,
            admission: AdmissionPolicy::Block,
            default_deadline: Deadline::UNBOUNDED,
            cache: Some(CacheConfig::default()),
            tracer: Tracer::disabled(),
            overload: None,
            initial_version: 0,
            rollback_budget: 3,
        }
    }
}

/// One completed annotation, with its service-level context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Annotation {
    /// One predicted label per column of the submitted table.
    pub labels: Vec<LabelId>,
    /// Columns that fell back to the degraded no-linkage path.
    pub degraded_columns: usize,
    /// Cell retrievals that failed and were skipped.
    pub failed_cells: usize,
    /// Real microseconds the request spent queued before a worker took it.
    pub queue_us: u64,
    /// True when the deadline expired in the queue and the request was
    /// served entirely through the degraded no-linkage path.
    pub expired: bool,
    /// The degradation-ladder rung this request was served at. Expired
    /// requests always report [`DegradationRung::NoLinkage`].
    pub rung: DegradationRung,
    /// Version of the [`ModelEpoch`] that served this request end-to-end.
    /// Replaying the same table single-threaded against that version's
    /// model yields bit-identical labels.
    pub model_version: u64,
}

/// Handle for one submitted request; redeem it with [`Ticket::wait`].
pub struct Ticket {
    id: u64,
    rx: mpsc::Receiver<Result<Annotation, ServiceError>>,
}

impl Ticket {
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Block until the request completes. A disconnected channel means the
    /// service shut down before the request was served.
    pub fn wait(self) -> Result<Annotation, ServiceError> {
        match self.rx.recv() {
            Ok(result) => result,
            Err(mpsc::RecvError) => Err(ServiceError::Closed),
        }
    }
}

/// A queued unit of work (crate-internal; callers only see [`Ticket`]s).
pub(crate) struct Request {
    /// Ticket id; also the deterministic shadow-sampling key.
    pub id: u64,
    pub table: Table,
    pub deadline: Deadline,
    pub enqueued: Instant,
    pub reply: mpsc::Sender<Result<Annotation, ServiceError>>,
}

/// Counters shared between the submit path, the workers, and `metrics()`.
pub(crate) struct Shared {
    pub submitted: AtomicU64,
    pub completed: AtomicU64,
    pub rejected: AtomicU64,
    pub shed: AtomicU64,
    pub expired: AtomicU64,
    pub annotated_columns: AtomicU64,
    pub degraded_columns: AtomicU64,
    pub failed_cells: AtomicU64,
    pub in_flight: AtomicUsize,
    pub worker_panics: AtomicU64,
    /// Batch items run by a worker other than the request's owner.
    pub help_items: AtomicU64,
    /// Current degradation-ladder level (0..=2); written by whichever
    /// worker last stepped the overload controller.
    pub rung: AtomicUsize,
    /// Completions per rung, indexed by [`DegradationRung::level`].
    pub rung_served: [AtomicU64; 3],
    /// The overload controller, stepped by whichever worker dequeues a
    /// request; `None` when overload protection is off.
    pub overload: Option<Mutex<OverloadControl>>,
}

impl Shared {
    fn new(overload: Option<OverloadControl>) -> Self {
        Shared {
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            expired: AtomicU64::new(0),
            annotated_columns: AtomicU64::new(0),
            degraded_columns: AtomicU64::new(0),
            failed_cells: AtomicU64::new(0),
            in_flight: AtomicUsize::new(0),
            worker_panics: AtomicU64::new(0),
            help_items: AtomicU64::new(0),
            rung: AtomicUsize::new(0),
            rung_served: [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)],
            overload: overload.map(Mutex::new),
        }
    }
}

/// Concurrent in-process annotation service over a trained [`KgLink`].
pub struct AnnotationService {
    queue: Arc<RequestQueue>,
    shared: Arc<Shared>,
    retrieval: Arc<Retrieval>,
    admission: AdmissionPolicy,
    default_deadline: Deadline,
    rollback_budget: usize,
    tracer: Tracer,
    next_id: AtomicU64,
    started: Instant,
    workers: Vec<JoinHandle<()>>,
    lifecycle: Arc<Lifecycle>,
    // Retained for swap-time probe runs: the same graph/tokenizer the
    // workers annotate through.
    graph: Arc<dyn GraphAccess>,
    tokenizer: Arc<Tokenizer>,
}

impl AnnotationService {
    /// Spawn the worker pool. The `backend` is the caller's retrieval
    /// stack (a disk backend or searcher, optionally under `FaultyBackend`
    /// or `PanickingBackend`); when `config.cache` is set the service
    /// interposes a shared [`CachingBackend`](kglink_search::CachingBackend)
    /// in front of it. Every worker annotates through that one stack.
    #[expect(
        clippy::expect_used,
        reason = "OS thread spawn fails only on process-level resource exhaustion at startup; there is no degraded mode to offer without a worker pool"
    )]
    pub fn new(
        model: Arc<KgLink>,
        graph: Arc<dyn GraphAccess>,
        backend: SharedBackend,
        tokenizer: Arc<Tokenizer>,
        config: ServiceConfig,
    ) -> Self {
        let retrieval = Arc::new(Retrieval::new(
            backend,
            config.cache.clone(),
            &config.tracer,
        ));
        let queue = Arc::new(RequestQueue::with_offers(config.queue_capacity));
        // The controller's limit is the queue's limit, so it may not range
        // past the capacity `set_limit` clamps to.
        let overload = config.overload.clone().map(|mut overload| {
            let aimd = &mut overload.aimd;
            aimd.max_limit = aimd.max_limit.min(config.queue_capacity);
            aimd.min_limit = aimd.min_limit.min(config.queue_capacity);
            OverloadControl::new(overload)
        });
        if let Some(control) = &overload {
            // Start admission at the controller's optimistic initial limit.
            queue.set_limit(control.limit());
        }
        let shared = Arc::new(Shared::new(overload));
        let lifecycle = Arc::new(Lifecycle::new(
            ModelEpoch::new(config.initial_version, model),
            config.rollback_budget,
        ));
        // `workers == 0` is admission-only: nothing is spawned.
        let workers = (0..config.workers)
            .map(|idx| {
                let ctx = WorkerContext {
                    idx,
                    lifecycle: Arc::clone(&lifecycle),
                    retrieval: Arc::clone(&retrieval),
                    graph: Arc::clone(&graph),
                    tokenizer: Arc::clone(&tokenizer),
                    queue: Arc::clone(&queue),
                    shared: Arc::clone(&shared),
                    tracer: config.tracer.clone(),
                };
                std::thread::Builder::new()
                    .name(format!("kglink-serve-{idx}"))
                    .spawn(move || worker::run(ctx))
                    .expect("failed to spawn worker thread")
            })
            .collect();
        AnnotationService {
            queue,
            shared,
            retrieval,
            admission: config.admission,
            default_deadline: config.default_deadline,
            rollback_budget: config.rollback_budget,
            tracer: config.tracer,
            next_id: AtomicU64::new(0),
            #[expect(
                clippy::disallowed_methods,
                reason = "wall-clock uptime for the metrics snapshot only; no annotation output reads it"
            )]
            started: Instant::now(),
            workers,
            lifecycle,
            graph,
            tokenizer,
        }
    }

    /// Submit one table under the configured default deadline.
    pub fn submit(&self, table: Table) -> Result<Ticket, ServiceError> {
        self.submit_with_deadline(table, self.default_deadline)
    }

    /// Submit one table with an explicit per-request deadline. The budget
    /// covers queue wait *and* retrieval: time spent queued is subtracted
    /// from what the pipeline may spend on KG queries, and a request whose
    /// budget is gone before a worker picks it up completes through the
    /// degraded no-linkage path (never an error, never a panic).
    pub fn submit_with_deadline(
        &self,
        table: Table,
        deadline: Deadline,
    ) -> Result<Ticket, ServiceError> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        #[expect(
            clippy::disallowed_methods,
            reason = "per-ticket reply channel: exactly one message ever flows through it, so \"unbounded\" holds at most one item by construction"
        )]
        let (tx, rx) = mpsc::channel();
        let request = Request {
            id,
            table,
            deadline,
            #[expect(
                clippy::disallowed_methods,
                reason = "queue-wait timestamp: deadlines are budgeted against real elapsed time by design; annotation results stay bit-identical regardless"
            )]
            enqueued: Instant::now(),
            reply: tx,
        };
        match self.queue.push(request, self.admission) {
            Ok(()) => {
                self.shared.submitted.fetch_add(1, Ordering::Relaxed);
                Ok(Ticket { id, rx })
            }
            Err(PushError::Rejected {
                queue_depth,
                capacity,
            }) => {
                self.shared.rejected.fetch_add(1, Ordering::Relaxed);
                Err(ServiceError::Overloaded {
                    queue_depth,
                    capacity,
                })
            }
            Err(PushError::Closed) => Err(ServiceError::Closed),
        }
    }

    /// Submit many tables at once; tickets come back in submission order.
    pub fn submit_batch(
        &self,
        tables: impl IntoIterator<Item = Table>,
    ) -> Vec<Result<Ticket, ServiceError>> {
        tables.into_iter().map(|t| self.submit(t)).collect()
    }

    /// Blocking convenience: submit and wait.
    pub fn annotate(&self, table: Table) -> Result<Annotation, ServiceError> {
        self.submit(table)?.wait()
    }

    /// Point-in-time service snapshot; see [`ServiceMetrics`].
    pub fn metrics(&self) -> ServiceMetrics {
        let latency = self.lifecycle.served_latency();
        let epoch = self.lifecycle.current();
        ServiceMetrics {
            submitted: self.shared.submitted.load(Ordering::Relaxed),
            completed: self.shared.completed.load(Ordering::Relaxed),
            rejected: self.shared.rejected.load(Ordering::Relaxed),
            shed: self.shared.shed.load(Ordering::Relaxed),
            expired: self.shared.expired.load(Ordering::Relaxed),
            queue_depth: self.queue.depth(),
            admission_limit: self.queue.limit(),
            rung: DegradationRung::from_level(self.shared.rung.load(Ordering::Relaxed) as u8),
            served_full: self.shared.rung_served[0].load(Ordering::Relaxed),
            served_cache_only: self.shared.rung_served[1].load(Ordering::Relaxed),
            served_no_linkage: self.shared.rung_served[2].load(Ordering::Relaxed),
            in_flight: self.shared.in_flight.load(Ordering::SeqCst),
            idle_workers: self.queue.idle(),
            annotated_columns: self.shared.annotated_columns.load(Ordering::Relaxed),
            degraded_columns: self.shared.degraded_columns.load(Ordering::Relaxed),
            failed_cells: self.shared.failed_cells.load(Ordering::Relaxed),
            latency_p50_us: latency.p50(),
            latency_p99_us: latency.p99(),
            worker_panics: self.shared.worker_panics.load(Ordering::Relaxed),
            help_items: self.shared.help_items.load(Ordering::Relaxed),
            uptime_us: self.started.elapsed().as_micros() as u64,
            retrieval: self.retrieval.counts(),
            cache: self.retrieval.cache_stats(),
            model_version: epoch.version,
            swaps: self.lifecycle.swaps.load(Ordering::Relaxed),
            rollbacks: self.lifecycle.rollbacks.load(Ordering::Relaxed),
            feature_memo: epoch.feature_memo.stats(),
        }
    }

    /// Per-version serving statistics (request counts and latency
    /// histograms keyed by the epoch version that served them).
    pub fn version_stats(&self) -> BTreeMap<u64, VersionStats> {
        self.lifecycle.version_stats()
    }

    /// The version id of the epoch currently serving traffic.
    pub fn model_version(&self) -> u64 {
        self.lifecycle.current().version
    }

    /// Hot-swap the serving model through the prepare → shadow → promote
    /// → watch state machine (see [`crate::lifecycle`] and DESIGN.md §15).
    ///
    /// Blocks the calling thread through every phase; live traffic is
    /// never paused. On [`SwapError::Rejected`] the serving epoch was
    /// never touched; on [`SwapError::RolledBack`] the prior epoch has
    /// already been reinstalled. Once the rollback budget is spent the
    /// lifecycle fails closed: every further call returns
    /// [`SwapError::RollbackBudgetExhausted`] without touching the model.
    pub fn swap_model(
        &self,
        version: u64,
        candidate: Arc<KgLink>,
        plan: &SwapPlan,
    ) -> Result<SwapReport, SwapError> {
        if self.queue.is_closed() {
            return Err(SwapError::ServiceUnavailable);
        }
        if self.lifecycle.exhausted.load(Ordering::SeqCst)
            || self.lifecycle.rollback_budget_left.load(Ordering::SeqCst) == 0
        {
            self.lifecycle.exhausted.store(true, Ordering::SeqCst);
            return Err(SwapError::RollbackBudgetExhausted {
                budget: self.rollback_budget,
            });
        }
        if self
            .lifecycle
            .swap_in_progress
            .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            return Err(SwapError::SwapInProgress);
        }
        let _guard = SwapGuard {
            lifecycle: &self.lifecycle,
        };
        self.swap_inner(version, candidate, plan)
    }

    fn swap_inner(
        &self,
        version: u64,
        candidate: Arc<KgLink>,
        plan: &SwapPlan,
    ) -> Result<SwapReport, SwapError> {
        let active = self.lifecycle.current();
        let mut report = SwapReport {
            from_version: active.version,
            to_version: version,
            ..SwapReport::default()
        };

        // ---- prepare: self-check before the candidate sees traffic ----
        let reject = |phase: SwapPhase, reason: String| {
            self.tracer.incr("model.reject", 1);
            self.tracer.event_with(
                "model.reject",
                vec![
                    ("candidate", version.to_string()),
                    ("phase", phase.to_string()),
                    ("reason", reason.clone()),
                ],
            );
            Err(SwapError::Rejected { phase, reason })
        };
        let base_labels = &active.model.labels;
        if candidate.labels.len() != base_labels.len()
            || base_labels
                .iter()
                .any(|(id, name)| candidate.labels.name(id) != name)
        {
            return reject(
                SwapPhase::Prepare,
                format!(
                    "label space differs: candidate has {} labels, active has {}",
                    candidate.labels.len(),
                    base_labels.len()
                ),
            );
        }
        for table in &plan.probe_tables {
            let base = match self.probe_labels(&active.model, table) {
                Ok(l) => l,
                Err(()) => {
                    return reject(
                        SwapPhase::Prepare,
                        "active model panicked on a probe table".into(),
                    )
                }
            };
            let cand = match self.probe_labels(&candidate, table) {
                Ok(l) => l,
                Err(()) => {
                    return reject(
                        SwapPhase::Prepare,
                        "candidate panicked on a probe table".into(),
                    )
                }
            };
            if base.len() != cand.len() {
                return reject(
                    SwapPhase::Prepare,
                    format!(
                        "candidate arity {} != active arity {} on a probe table",
                        cand.len(),
                        base.len()
                    ),
                );
            }
            report.probe_columns += base.len() as u64;
            report.probe_flipped_columns +=
                base.iter().zip(&cand).filter(|(a, b)| a != b).count() as u64;
        }
        if report.probe_columns > 0 {
            let rate = report.probe_flipped_columns as f64 / report.probe_columns as f64;
            if rate > plan.prepare_max_flip_rate {
                return reject(
                    SwapPhase::Prepare,
                    format!(
                        "probe flip rate {rate:.3} exceeds gate {:.3} \
                         ({} of {} columns)",
                        plan.prepare_max_flip_rate,
                        report.probe_flipped_columns,
                        report.probe_columns
                    ),
                );
            }
        }
        self.tracer.event_with(
            "model.prepare",
            vec![
                ("candidate", version.to_string()),
                ("probe_columns", report.probe_columns.to_string()),
                ("probe_flipped", report.probe_flipped_columns.to_string()),
            ],
        );

        let cand_epoch = Arc::new(ModelEpoch::new(version, candidate));

        // ---- shadow: duplicated live traffic, no user-visible output ----
        if plan.shadow_min_requests > 0 {
            let st = Arc::new(ShadowState::new(
                Arc::clone(&cand_epoch),
                plan.shadow_sample_every,
            ));
            self.lifecycle.set_window(Some(Arc::clone(&st)));
            self.await_comparisons(&st, plan.shadow_min_requests, plan.phase_timeout);
            self.lifecycle.set_window(None);
            report.shadow_compared = st.compared.load(Ordering::SeqCst);
            report.shadow_flips = st.flips.load(Ordering::SeqCst);
            report.shadow_p99_us = st.shadow_p99();
            report.shadow_baseline_p99_us = st.primary_p99();
            self.tracer.event_with(
                "model.shadow_verdict",
                vec![
                    ("candidate", version.to_string()),
                    ("compared", report.shadow_compared.to_string()),
                    ("flips", report.shadow_flips.to_string()),
                ],
            );
            if report.shadow_compared < plan.shadow_min_requests {
                return reject(
                    SwapPhase::Shadow,
                    format!(
                        "shadow starved: {} of {} required comparisons before timeout",
                        report.shadow_compared, plan.shadow_min_requests
                    ),
                );
            }
            let rate = st.flip_rate();
            if rate > plan.shadow_max_flip_rate {
                return reject(
                    SwapPhase::Shadow,
                    format!(
                        "shadow label-flip rate {rate:.3} exceeds gate {:.3} \
                         ({} of {} requests)",
                        plan.shadow_max_flip_rate, report.shadow_flips, report.shadow_compared
                    ),
                );
            }
        }

        // ---- promote: the candidate and the watch window over the prior
        // epoch land in one store, between requests ----
        let watch = (plan.watch_min_requests > 0).then(|| {
            Arc::new(ShadowState::new(
                Arc::clone(&active),
                plan.watch_sample_every,
            ))
        });
        #[expect(
            clippy::disallowed_methods,
            reason = "measures how long the epoch bump itself takes for the swap report; no annotation reads it"
        )]
        let t_promote = Instant::now();
        let prior = self
            .lifecycle
            .install(Arc::clone(&cand_epoch), watch.clone());
        report.promote_us = t_promote.elapsed().as_micros() as u64;
        self.lifecycle.swaps.fetch_add(1, Ordering::SeqCst);
        self.tracer.incr("model.promote", 1);
        self.tracer.event_with(
            "model.promote",
            vec![
                ("from", prior.version.to_string()),
                ("to", version.to_string()),
                ("promote_us", report.promote_us.to_string()),
            ],
        );

        // ---- watch: divergence guard with automatic rollback ----
        if let Some(st) = watch {
            self.await_comparisons(&st, plan.watch_min_requests, plan.phase_timeout);
            self.lifecycle.set_window(None);
            report.watch_compared = st.compared.load(Ordering::SeqCst);
            report.watch_flips = st.flips.load(Ordering::SeqCst);
            let flip_rate = st.flip_rate();
            // During watch the *primary* is the freshly promoted candidate,
            // so its live annotate p99 is compared against the prior
            // epoch's p99 from the shadow window.
            let live_p99 = st.primary_p99();
            let baseline_p99 = report.shadow_baseline_p99_us;
            let mut trip: Option<String> = None;
            if report.watch_compared > 0 && flip_rate > plan.watch_max_flip_rate {
                trip = Some(format!(
                    "watch label-flip rate {flip_rate:.3} exceeds gate {:.3} \
                     ({} of {} requests)",
                    plan.watch_max_flip_rate, report.watch_flips, report.watch_compared
                ));
            } else if plan.watch_max_p99_inflation > 0.0
                && baseline_p99 > 0
                && live_p99 as f64 > baseline_p99 as f64 * plan.watch_max_p99_inflation
            {
                trip = Some(format!(
                    "p99 inflation: live {live_p99}us exceeds {:.1}x \
                     pre-swap baseline {baseline_p99}us",
                    plan.watch_max_p99_inflation
                ));
            }
            if let Some(reason) = trip {
                self.lifecycle.install(prior, None);
                self.lifecycle.rollbacks.fetch_add(1, Ordering::SeqCst);
                let left = self
                    .lifecycle
                    .rollback_budget_left
                    .fetch_sub(1, Ordering::SeqCst)
                    .saturating_sub(1);
                if left == 0 {
                    self.lifecycle.exhausted.store(true, Ordering::SeqCst);
                }
                self.tracer.incr("model.rollback", 1);
                self.tracer.event_with(
                    "model.rollback",
                    vec![
                        ("from", version.to_string()),
                        ("to", report.from_version.to_string()),
                        ("reason", reason.clone()),
                        ("budget_left", left.to_string()),
                    ],
                );
                return Err(SwapError::RolledBack { reason });
            }
        }
        Ok(report)
    }

    /// Annotate one probe table, trapping panics so a poisoned candidate
    /// cannot take the swap thread (or the service) down with it.
    fn probe_labels(&self, model: &KgLink, table: &Table) -> Result<Vec<LabelId>, ()> {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let backend = self.retrieval.at(DegradationRung::Full, false);
            let resources = kglink_core::pipeline::Resources::builder()
                .graph(&self.graph)
                .backend(&backend)
                .tokenizer(&self.tokenizer)
                .tracer(&self.tracer)
                .build()
                .map_err(|_| ())?;
            Ok(model.annotate_request(&resources, req(table)).labels)
        }));
        match outcome {
            Ok(result) => result,
            Err(_panic) => Err(()),
        }
    }

    /// Poll until the comparison window has seen `min` requests or the
    /// timeout elapses. Live traffic drives the counters; this thread only
    /// sleeps and reads.
    fn await_comparisons(&self, st: &ShadowState, min: u64, timeout: Duration) {
        #[expect(
            clippy::disallowed_methods,
            reason = "real-time phase timeout for the blocking swap driver; annotation outputs never read it"
        )]
        let t0 = Instant::now();
        while st.compared.load(Ordering::SeqCst) < min && t0.elapsed() < timeout {
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    /// Drain and stop: close the queue, fail still-queued requests with
    /// [`ServiceError::Closed`], and join the workers. Idempotent; also runs
    /// on drop.
    pub fn shutdown(&mut self) {
        for leftover in self.queue.close() {
            let _ = leftover.reply.send(Err(ServiceError::Closed));
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for AnnotationService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Clears the swap-in-progress latch and any leftover comparison window on
/// every exit path out of [`AnnotationService::swap_model`] — success,
/// rejection, rollback, or a panic unwinding through the swap driver.
struct SwapGuard<'a> {
    lifecycle: &'a Lifecycle,
}

impl Drop for SwapGuard<'_> {
    fn drop(&mut self) {
        self.lifecycle.set_window(None);
        self.lifecycle
            .swap_in_progress
            .store(false, Ordering::SeqCst);
    }
}
