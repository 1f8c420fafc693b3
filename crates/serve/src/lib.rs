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
//!   (`Reject` → [`ServiceError::Overloaded`]), producer throttling
//!   (`Block`), or freshness-first eviction (`ShedOldest` →
//!   [`ServiceError::Shed`]).
//! * **Deadline propagation** — a request's [`Deadline`] budget covers
//!   queue wait plus retrieval; requests that expire while queued complete
//!   through the pipeline's graceful no-linkage degradation path with the
//!   correct output arity.
//! * **Metrics** — [`ServiceMetrics`] folds queue, latency, cache and
//!   [`RetrievalCounts`] into one snapshot; every time in it is wall-clock.
//! * **Overload protection** — an optional [`OverloadConfig`] wires in an
//!   AIMD admission controller ([`admission::AimdLimit`]) that resizes the
//!   queue's dynamic limit from queue-sojourn congestion signals, and a
//!   hysteretic [`brownout::BrownoutController`] that walks requests down
//!   the three-rung degradation ladder (full retrieval → cache-only →
//!   no linkage) instead of timing everything out.
//!
//! Annotation results are bit-identical across worker counts: each table's
//! annotation is a pure function of (model, resources, table), and the
//! cache only ever replays identical retrieval outcomes.

#![deny(deprecated)]
#![forbid(unsafe_code)]

pub mod admission;
pub mod brownout;
pub mod error;
pub mod lifecycle;
pub mod metrics;
pub mod queue;
mod retrieval;
pub mod service;
mod worker;

pub use admission::{AimdConfig, AimdLimit, AimdVerdict};
pub use brownout::{BrownoutConfig, BrownoutController};
pub use error::ServiceError;
pub use lifecycle::{ModelEpoch, SwapError, SwapPhase, SwapPlan, SwapReport, VersionStats};
pub use metrics::{RetrievalCounts, ServiceMetrics};
pub use queue::{AdmissionPolicy, BoundedQueue, PushError};
pub use service::{
    Annotation, AnnotationService, OverloadConfig, ServiceConfig, SharedBackend, Ticket,
};

// Re-exported for callers wiring up a service without importing the
// search crate directly.
pub use kglink_core::DegradationRung;
pub use kglink_search::{CacheConfig, CacheStats, Deadline};
