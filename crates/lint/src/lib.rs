//! kglink-lint: the workspace invariant linter.
//!
//! The repo's correctness story rests on invariants the type system cannot
//! see — single-source percentile math, lock order, no blocking under a
//! lock, forwarded deadlines, epoch discipline, allocation-free inference.
//! This crate enforces them statically, at CI time. Per-site bans — panics,
//! wall-clock reads, hash-order iteration, raw file writes and unbounded
//! channels in library code, and `unsafe` — are compiler settings instead:
//! lib-root `deny` lines and the workspace `clippy.toml` (DESIGN.md §11).
//!
//! Std-only by design: the workspace builds offline against vendored stubs,
//! so `syn` is off the table. The [`lexer`] is a comment/string/raw-string
//! aware token tiler — exact enough for invariant linting, property-tested
//! to never panic and to round-trip arbitrary input.
//!
//! There is one engine (DESIGN.md §11): every file is parsed into a
//! lightweight item model, calls are resolved into a workspace call graph,
//! per-function summaries are computed by one token scanner and propagated
//! to fixpoint, and every rule then runs once over the assembled
//! [`workspace::Workspace`] — a direct finding is the zero-length chain of
//! the fact propagation carries.
//!
//! Architecture:
//!
//! - [`lexer`] — total-function tokenizer ([`lexer::lex`]).
//! - [`source`] — per-file context: path scoping (lib/bin/test/bench/example),
//!   inline `#[cfg(test)]` regions, `// kglink-lint: allow(<rule>)`
//!   suppressions.
//! - [`items`] — the item model: fns with signatures/bodies, `impl`
//!   types, inline modules, `use` aliases; total, span-tiling parse.
//! - [`callgraph`] — call-site extraction and name-based resolution with
//!   type narrowing.
//! - [`summary`] — the one scanner for per-fn facts (lock holds,
//!   alloc/poison/blocking sites, `Deadline` discipline) and their
//!   fixpoint propagation.
//! - [`workspace`] — the assembled model handed to every rule.
//! - [`rules`] — the rule set behind the one [`rules::Rule`] trait; see
//!   DESIGN.md §11 for the catalog.
//! - [`engine`] — workspace walk, rule dispatch, suppression application,
//!   and suppression-hygiene meta-checks
//!   (`allow-unused`, `allow-unknown-rule`, `allow-missing-justification`).
//! - [`diag`] — findings, human `file:line` rendering, JSONL export.

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

pub mod callgraph;
pub mod diag;
pub mod engine;
pub mod fixtures;
pub mod items;
pub mod lexer;
pub mod rules;
pub mod source;
pub mod summary;
pub mod workspace;

pub use diag::{Finding, Report};
pub use engine::{find_workspace_root, lint_files, lint_inputs, workspace_files, Input};
pub use source::{classify_path, Scope, SourceFile};
