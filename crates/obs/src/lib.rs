//! kglink-obs: pipeline-wide observability for the KGLink workspace.
//!
//! Production serving (the ROADMAP's north star) is only debuggable when
//! every stage of the pipeline — entity retrieval, row filtering, feature
//! generation, serialization/encoding, classification — can be attributed
//! its share of latency and its share of degradations. This crate is the
//! one place that machinery lives; it is std-only, matching the workspace
//! style, and designed so the *disabled* path costs nothing measurable on
//! hot loops.
//!
//! Three pieces:
//!
//! * [`Histogram`] — a mergeable log-linear-bucket latency histogram.
//!   It is the **single** percentile implementation in the workspace:
//!   the retrieval metrics (`kglink-search`) and the service metrics
//!   (`kglink-serve`) both report p50/p99 through it, so two snapshots
//!   can never disagree on small-sample percentile math again.
//! * [`Tracer`] — cheap hierarchical spans ([`Tracer::span`] returns an
//!   RAII guard), monotonic stage timers, counters, and an append-only
//!   event log with per-event sequence numbers (causal order is the
//!   sequence order). [`Tracer::disabled`] is a no-op handle: every call
//!   is a single `Option` check, no clock reads, no allocation, no locks.
//! * [`JsonlSink`] — exports the event log plus counter/stage summaries
//!   as JSON lines (`results/*.jsonl`), the format the experiment
//!   scripts consume.
//!
//! Span taxonomy used across the workspace (see DESIGN.md §9):
//!
//! | span / stage        | emitted by                                   |
//! |---------------------|----------------------------------------------|
//! | `annotate`          | `kglink_core::KgLink::annotate_request` root |
//! | `retrieval`         | Part-1 cell→KG linking                       |
//! | `filter`            | row pruning / entity filters                 |
//! | `feature`           | candidate types + feature sequences          |
//! | `encode`            | serialization + tokenization                 |
//! | `classify`          | PLM forward pass / prediction                |
//! | `fit`, `fit.*`      | training entry points                        |
//! | `serve.queue_wait`  | serve worker: real queue wait per ticket     |
//! | `serve.request`     | serve worker: service time per ticket        |
//!
//! Event names follow the same dotted style: `degrade.column`,
//! `cache.hit`, `cache.miss`, `worker.panic`.

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

pub mod hist;
pub mod jsonl;
pub mod tracer;

pub use hist::Histogram;
pub use jsonl::{escape_json_into, JsonlSink};
pub use tracer::{Event, EventKind, Span, Tracer};
