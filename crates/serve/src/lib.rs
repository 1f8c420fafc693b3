//! kglink-serve: concurrent in-process annotation service for KGLink.
//!
//! This crate turns a trained [`KgLink`](kglink_core::KgLink) annotator
//! into a service: callers submit [`Table`](kglink_table::Table)s and
//! redeem [`Ticket`]s, while a sharded pool of worker threads runs the
//! full KG-retrieval + PLM pipeline behind a bounded admission queue.
//! Everything is std-only (`std::thread`, `mpsc`, `Mutex`/`Condvar`) and
//! deterministic where it matters:
//!
//! * **Sharded worker pool** — N threads each take one table per wake-up
//!   from one bounded MPMC queue ([`queue::BoundedQueue`]).
//! * **Retrieval cache** — a shared
//!   [`CachingBackend`](kglink_search::CachingBackend) (sharded LRU keyed
//!   by normalized mention text) sits in front of the caller's backend
//!   stack, so repeated mentions across tables and workers hit memory
//!   instead of BM25.
//! * **Backpressure** — [`AdmissionPolicy`] picks fail-fast
//!   (`Reject` → [`ServiceError::Overloaded`]) or producer throttling
//!   (`Block`).
//! * **Deadline propagation** — a request's [`Deadline`] budget covers
//!   queue wait plus retrieval; requests that expire while queued complete
//!   through the pipeline's graceful no-linkage degradation path with the
//!   correct output arity.
//! * **Metrics** — [`ServiceMetrics`] folds queue, latency, cache and
//!   [`RetrievalCounts`] into one snapshot; every time in it is wall-clock.
//! * **Overload protection** — an optional [`OverloadConfig`] turns on
//!   one [`OverloadControl`]: each dequeue's queue sojourn resizes the
//!   queue's admission limit (AIMD over a CoDel-style signal, shedding the
//!   overflow with [`ServiceError::Shed`] when the limit falls) and picks
//!   the rung of the degradation ladder (full retrieval → cache-only → no
//!   linkage) the request is served at, instead of timing everything out.
//! * **Panic isolation** — a panic while annotating a request fails that
//!   ticket with [`ServiceError::WorkerPanicked`]; the worker serves on.
//!
//! Annotation results are bit-identical across worker counts: each table's
//! annotation is a pure function of (model, resources, table), and the
//! cache only ever replays identical retrieval outcomes.

#![deny(deprecated)]
#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::allow_attributes,
        clippy::allow_attributes_without_reason,
        clippy::disallowed_methods,
        clippy::iter_over_hash_type
    )
)]

pub mod error;
mod fanout;
pub mod lifecycle;
pub mod metrics;
pub mod overload;
pub mod queue;
mod retrieval;
pub mod service;
mod worker;

pub use error::ServiceError;
pub use lifecycle::{ModelEpoch, SwapError, SwapPhase, SwapPlan, SwapReport, VersionStats};
pub use metrics::{RetrievalCounts, ServiceMetrics};
pub use overload::{AimdConfig, BrownoutConfig, OverloadConfig, OverloadControl};
pub use queue::{AdmissionPolicy, BoundedQueue, PushError};
pub use service::{Annotation, AnnotationService, ServiceConfig, SharedBackend, Ticket};

// Re-exported for callers wiring up a service without importing the
// core or search crates directly.
pub use kglink_core::{DegradationRung, FeatureMemoStats};
pub use kglink_search::{CacheConfig, CacheStats, Deadline};
