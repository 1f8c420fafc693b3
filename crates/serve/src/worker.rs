//! The worker loop: take one request, annotate it, reply — or, with
//! nothing queued, help another worker's request.
//!
//! Every annotation reaches the KG through one view of the service's
//! shared [`Retrieval`] stack, `retrieval.shared_at(rung, counted, ctx)`,
//! and reads the graph directly; the rung is the only thing that differs
//! between full, cache-only and no-linkage service. The view offers its
//! full-rung search batches to idle workers ([`crate::fanout`]): a worker
//! parked in [`RequestQueue::next`] takes such an offer, runs searches
//! until a request is queued or none is left, and goes back to the queue.
//!
//! Deadline handling happens here: a request's [`Deadline`] budget is
//! measured against its *real* queue wait. A request that exhausted its
//! budget while queued is not dropped — it is annotated at the no-linkage
//! rung, so every retrieval fails instantly and the pipeline produces a
//! pure-PLM annotation with the correct arity.
//! A request with budget left passes only the *remaining* budget into
//! [`KgLink::annotate_request`], which tightens every KG query it issues.
//!
//! Overload control also happens here: when the service is configured
//! with an [`OverloadConfig`](crate::OverloadConfig), each dequeue steps
//! the shared [`OverloadControl`](crate::OverloadControl) with the
//! request's queue sojourn and applies the step: a new admission limit
//! goes to the queue, and when it fell the overflow is shed promptly; the
//! step's [`DegradationRung`] (full retrieval, cache-only, or no linkage)
//! is the one this request is served at.
//!
//! Forward pass: each annotation routes through
//! [`KgLink::annotate_request`] with the annotating epoch's
//! [`FeatureMemo`](kglink_core::FeatureMemo), so a request runs one
//! batched, row-pruned forward (`kglink_nn::Encoder::infer_batch_rows`)
//! over every chunk's masked table plus only the feature sequences that
//! epoch has not encoded before. The encoder's scratch arenas are
//! thread-local, so each worker warms its own pool on the first request.
//!
//! Panic isolation: each request is annotated inside `catch_unwind`, with
//! a completion-on-drop [`TicketGuard`] armed *before* any fallible work,
//! so its ticket completes exactly once: with the annotation, or with a
//! typed [`ServiceError::WorkerPanicked`]. The worker then takes the next
//! request, as a helper does after a helped item's panic (that panic is
//! resumed on the owner, so it fails its request here, once).
//!
//! [`KgLink::annotate_request`]: kglink_core::KgLink::annotate_request

use crate::error::ServiceError;
use crate::fanout::{self, RequestQueue};
use crate::lifecycle::{Lifecycle, ModelEpoch, Serving, ShadowState};
use crate::queue::Next;
use crate::retrieval::Retrieval;
use crate::service::{Annotation, Request, Shared};
use kglink_core::pipeline::{req, AnnotateOutcome, Resources};
use kglink_core::DegradationRung;
use kglink_kg::GraphAccess;
use kglink_nn::Tokenizer;
use kglink_obs::Tracer;
use kglink_search::Deadline;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc, PoisonError};
use std::time::Instant;

/// Everything one worker thread needs, bundled for the spawn closure.
pub(crate) struct WorkerContext {
    pub idx: usize,
    /// The serving slot; the worker reads it once per request, so a
    /// hot-swap lands between requests, never inside one.
    pub lifecycle: Arc<Lifecycle>,
    pub retrieval: Arc<Retrieval>,
    pub graph: Arc<dyn GraphAccess>,
    pub tokenizer: Arc<Tokenizer>,
    pub queue: Arc<RequestQueue>,
    pub shared: Arc<Shared>,
    pub tracer: Tracer,
}

/// Completion-on-drop guard for one ticket. Armed before any fallible
/// work; if it is dropped without [`complete`](Self::complete) — panic
/// unwind, early return, any exit path — the waiting caller receives a
/// typed [`ServiceError::WorkerPanicked`] instead of hanging forever on a
/// channel whose sender died.
struct TicketGuard {
    reply: Option<mpsc::Sender<Result<Annotation, ServiceError>>>,
}

impl TicketGuard {
    fn arm(reply: mpsc::Sender<Result<Annotation, ServiceError>>) -> Self {
        TicketGuard { reply: Some(reply) }
    }

    /// Defuse: the request completed normally and replies on its own.
    fn complete(mut self) {
        self.reply = None;
    }
}

impl Drop for TicketGuard {
    fn drop(&mut self) {
        if let Some(reply) = self.reply.take() {
            // The ticket may already be gone; that's the caller's choice.
            let _ = reply.send(Err(ServiceError::WorkerPanicked));
        }
    }
}

/// Serve requests until the queue is closed and drained.
pub(crate) fn run(ctx: WorkerContext) {
    while let Some(next) = ctx.queue.next() {
        let request = match next {
            Next::Item(request) => request,
            Next::Offer(job) => {
                fanout::help(&ctx, &job);
                continue;
            }
        };
        ctx.shared.in_flight.fetch_add(1, Ordering::SeqCst);
        let guard = TicketGuard::arm(request.reply.clone());
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            // One slot read per request: the epoch and the comparison
            // window were stored together, so a promote lands between
            // requests and this request is served end-to-end by
            // `serving.epoch`.
            let serving = ctx.lifecycle.serving();
            let annotation = serve_request(&ctx, &request, &serving);
            let total_us = request.enqueued.elapsed().as_micros() as u64;
            record_completion(&ctx, &annotation, total_us);
            annotation
        }));
        ctx.shared.in_flight.fetch_sub(1, Ordering::SeqCst);
        match outcome {
            Ok(annotation) => {
                guard.complete();
                let _ = request.reply.send(Ok(annotation));
            }
            Err(_panic) => {
                // Account for the panic *before* completing the ticket:
                // a waiter unblocked by the guard's error must observe
                // counters that already include this panic.
                ctx.shared.worker_panics.fetch_add(1, Ordering::Relaxed);
                ctx.tracer.incr("worker.panic", 1);
                ctx.tracer
                    .event_with("worker.panic", vec![("worker", ctx.idx.to_string())]);
                // Dropping the guard completes the panicked ticket with
                // the typed error; the worker serves on.
                drop(guard);
            }
        }
    }
}

/// Step the overload controller (when configured) with one queue sojourn
/// and apply the step: set the queue's admission limit and, when it fell,
/// shed the overflow promptly. Returns the rung to serve this request at.
fn overload_control(ctx: &WorkerContext, sojourn_us: u64) -> DegradationRung {
    let Some(overload) = ctx.shared.overload.as_ref() else {
        return DegradationRung::Full;
    };
    // The controller is a small pure state machine: always re-validatable,
    // so recover from a panicked sibling's poison. Limits are only set
    // under this lock, so `previous` is the limit this step replaces.
    let mut control = overload.lock().unwrap_or_else(PoisonError::into_inner);
    let step = control.observe(sojourn_us);
    let previous = ctx.queue.limit();
    let limit = step.limit.map_or(previous, |l| ctx.queue.set_limit(l));
    drop(control);
    if limit < previous {
        let victims = ctx.queue.trim_to_limit();
        let trimmed = victims.len();
        for victim in victims {
            // Counted before it resolves, so its submitter sees the count.
            ctx.shared.shed.fetch_add(1, Ordering::Relaxed);
            ctx.tracer.incr("serve.shed", 1);
            let _ = victim.reply.send(Err(ServiceError::Shed));
        }
        ctx.tracer.event_with(
            "serve.admission_limit",
            vec![
                ("limit", limit.to_string()),
                ("previous", previous.to_string()),
                ("trimmed", trimmed.to_string()),
            ],
        );
    }
    let level = step.rung.level() as usize;
    let previous_level = ctx.shared.rung.swap(level, Ordering::Relaxed);
    if previous_level != level {
        ctx.tracer.incr("serve.rung_change", 1);
        ctx.tracer.event_with(
            "serve.rung_change",
            vec![
                (
                    "from",
                    DegradationRung::from_level(previous_level as u8)
                        .name()
                        .to_string(),
                ),
                ("to", step.rung.name().to_string()),
            ],
        );
    }
    step.rung
}

/// The serving path a request resolved to after deadline + overload
/// control: the shadow duplicate replays exactly this, so primary and
/// shadow differ *only* in which model annotates (and in counting).
#[derive(Clone, Copy)]
struct ServePath {
    /// Effective degradation rung: `NoLinkage` when the deadline was spent
    /// in the queue, and a cache-less `CacheOnly` already folded into it.
    rung: DegradationRung,
    /// KG budget left after queue wait; unbounded when there is no
    /// deadline, or when it expired and no retrieval will consult it.
    remaining: Deadline,
}

/// Annotate one table with one epoch's model and feature memo along a
/// resolved [`ServePath`]. `counted` is true for the primary annotation;
/// shadow duplicates pass `false` so they never skew the primary's
/// retrieval counters.
fn annotate_once(
    ctx: &WorkerContext,
    epoch: &ModelEpoch,
    request: &Request,
    path: ServePath,
    counted: bool,
) -> AnnotateOutcome {
    let spec = req(&request.table)
        .deadline(path.remaining)
        .feature_memo(&epoch.feature_memo);
    let backend = ctx.retrieval.shared_at(path.rung, counted, ctx);
    #[expect(
        clippy::expect_used,
        reason = "structural: the service constructor validated these exact resources; a builder error here is a bug in this crate, not a runtime condition"
    )]
    let resources = Resources::builder()
        .graph(&ctx.graph)
        .backend(&backend)
        .tokenizer(&ctx.tokenizer)
        .tracer(&ctx.tracer)
        .build()
        .expect("service resources validated at startup");
    epoch.model.annotate_request(&resources, spec)
}

fn serve_request(ctx: &WorkerContext, request: &Request, serving: &Serving) -> Annotation {
    let wait_us = request.enqueued.elapsed().as_micros() as u64;
    // Queue wait is dead time before service starts, so it is a stage
    // timer, not a span: `serve.request` below covers service time only.
    ctx.tracer.record_us("serve.queue_wait", wait_us);
    let rung = overload_control(ctx, wait_us);
    let _request_span = ctx.tracer.span("serve.request");
    let budget = request.deadline.budget_us();
    let expired = !request.deadline.is_unbounded() && wait_us >= budget;
    let path = ServePath {
        // Out of budget: every retrieval fails instantly and the pipeline
        // degrades to its no-linkage path. Arity is preserved; no panic.
        rung: if expired {
            DegradationRung::NoLinkage
        } else {
            ctx.retrieval.effective_rung(rung)
        },
        remaining: if request.deadline.is_unbounded() || expired {
            Deadline::UNBOUNDED
        } else {
            Deadline::from_us(budget - wait_us)
        },
    };

    #[expect(
        clippy::disallowed_methods,
        reason = "annotate-only wall time feeding the shadow-comparison latency histograms; labels never read it"
    )]
    let t0 = Instant::now();
    let outcome = annotate_once(ctx, &serving.epoch, request, path, true);
    let primary_us = t0.elapsed().as_micros() as u64;

    if let Some(sh) = &serving.window {
        run_shadow(ctx, sh, request, path, &outcome, primary_us);
    }

    Annotation {
        labels: outcome.labels,
        degraded_columns: outcome.degraded_columns,
        failed_cells: outcome.failed_cells,
        queue_us: wait_us,
        expired,
        rung: path.rung,
        model_version: serving.epoch.version,
    }
}

/// Duplicate one request against the comparison epoch (the
/// candidate during the shadow phase, the prior epoch during watch).
/// No user-visible output: only the [`ShadowState`] counters and latency
/// histograms observe the duplicate, and a panicking comparison model is
/// swallowed here and counted as a full flip — it can never take the
/// request (or the worker) down with it.
fn run_shadow(
    ctx: &WorkerContext,
    sh: &ShadowState,
    request: &Request,
    path: ServePath,
    primary: &AnnotateOutcome,
    primary_us: u64,
) {
    #[expect(
        clippy::disallowed_methods,
        reason = "shadow annotate wall time for the swap report's latency histograms; no annotation output reads it"
    )]
    let t0 = Instant::now();
    let duplicate = catch_unwind(AssertUnwindSafe(|| {
        annotate_once(ctx, &sh.epoch, request, path, false).labels
    }));
    let shadow_us = t0.elapsed().as_micros() as u64;
    let (flipped_columns, flipped) = match &duplicate {
        Ok(labels) => {
            let differing = primary
                .labels
                .iter()
                .zip(labels)
                .filter(|(a, b)| a != b)
                .count()
                + primary.labels.len().abs_diff(labels.len());
            (differing, differing > 0)
        }
        // A panicked duplicate is maximal divergence: every column flips.
        Err(_panic) => (primary.labels.len(), true),
    };
    sh.flipped_columns
        .fetch_add(flipped_columns as u64, Ordering::SeqCst);
    sh.compared_columns
        .fetch_add(primary.labels.len() as u64, Ordering::SeqCst);
    if flipped {
        sh.flips.fetch_add(1, Ordering::SeqCst);
    }
    sh.shadow_latency
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .record(shadow_us);
    sh.primary_latency
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .record(primary_us);
    ctx.tracer.incr("model.shadow", 1);
    ctx.tracer.event_with(
        "model.shadow",
        vec![
            ("request", request.id.to_string()),
            ("shadow_version", sh.epoch.version.to_string()),
            ("flipped", flipped.to_string()),
        ],
    );
    // `compared` last: the swap driver polls it to decide the window is
    // full, then reads the other counters — everything recorded for this
    // comparison must already be visible when the count ticks.
    sh.compared.fetch_add(1, Ordering::SeqCst);
}

fn record_completion(ctx: &WorkerContext, annotation: &Annotation, total_us: u64) {
    let shared = &ctx.shared;
    shared.completed.fetch_add(1, Ordering::Relaxed);
    if annotation.expired {
        shared.expired.fetch_add(1, Ordering::Relaxed);
    }
    shared
        .annotated_columns
        .fetch_add(annotation.labels.len() as u64, Ordering::Relaxed);
    shared
        .degraded_columns
        .fetch_add(annotation.degraded_columns as u64, Ordering::Relaxed);
    shared
        .failed_cells
        .fetch_add(annotation.failed_cells as u64, Ordering::Relaxed);
    shared.rung_served[annotation.rung.level() as usize].fetch_add(1, Ordering::Relaxed);
    ctx.lifecycle
        .record_served(annotation.model_version, total_us);
}
