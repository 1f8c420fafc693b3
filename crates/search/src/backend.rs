//! Fallible, deadline-aware retrieval abstraction over KG entity search.
//!
//! The paper's entity callback is a *remote* Elasticsearch deployment; at
//! production scale that call can be slow, flaky, or down. [`KgBackend`]
//! makes the failure surface explicit: every retrieval carries a
//! [`Deadline`] and returns either a [`SearchOutcome`] or a typed
//! [`RetrievalError`].
//!
//! One clock spends a deadline: the caller's budget. `kglink-serve`
//! subtracts a request's measured queue wait from its [`Deadline`] before
//! annotating, so a deadline is simply a microsecond budget. The fault
//! injector in [`resilience`](crate::resilience) compares an injected
//! latency with that budget instead of sleeping, so chaos tests stay fast
//! and deterministic.

use kglink_kg::EntityId;
use std::fmt;

/// Per-query budget in microseconds (module docs: which clock spends it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadline {
    budget_us: u64,
}

impl Deadline {
    /// No budget: the call may take arbitrarily long.
    pub const UNBOUNDED: Deadline = Deadline {
        budget_us: u64::MAX,
    };

    pub fn from_us(budget_us: u64) -> Self {
        Deadline { budget_us }
    }

    pub fn budget_us(&self) -> u64 {
        self.budget_us
    }

    pub fn is_unbounded(&self) -> bool {
        self.budget_us == u64::MAX
    }
}

/// Why a retrieval call failed. The pipeline handles every variant alike:
/// it degrades the cell's column to the no-linkage path.
#[derive(Debug, Clone, PartialEq)]
pub enum RetrievalError {
    /// The service time exceeded the caller's deadline.
    Timeout { needed_us: u64, budget_us: u64 },
    /// A transient backend fault (dropped connection, 5xx, shard hiccup).
    Transient,
    /// The backend is hard-down (outage window).
    Unavailable,
}

impl fmt::Display for RetrievalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RetrievalError::Timeout {
                needed_us,
                budget_us,
            } => write!(
                f,
                "retrieval timed out ({needed_us}us needed, {budget_us}us budget)"
            ),
            RetrievalError::Transient => write!(f, "transient retrieval fault"),
            RetrievalError::Unavailable => write!(f, "retrieval backend unavailable"),
        }
    }
}

impl std::error::Error for RetrievalError {}

/// One successful retrieval.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchOutcome {
    /// Candidate entities with BM25 linking scores, best first.
    pub hits: Vec<(EntityId, f32)>,
    /// True when the backend returned fewer hits than it had (partial
    /// results, e.g. a shard dropped out mid-query).
    pub truncated: bool,
}

/// A knowledge-graph entity-retrieval backend.
///
/// Sources: [`EntitySearcher`](crate::EntitySearcher) (in-memory) and
/// `kglink-store`'s `DiskBackend`. Decorators:
/// [`CachingBackend`](crate::CachingBackend), the chaos injectors
/// [`FaultyBackend`](crate::resilience::FaultyBackend) and
/// [`PanickingBackend`](crate::resilience::PanickingBackend), the `&B` /
/// `Arc<B>` delegates, and `kglink-serve`'s rung-keyed view. `kglink-core`
/// consumes the trait object, so any stack threads through the pipeline.
pub trait KgBackend: Send + Sync {
    /// Retrieve up to `top_k` candidate entities for `query` within
    /// `deadline`.
    fn search_entities(
        &self,
        query: &str,
        top_k: usize,
        deadline: Deadline,
    ) -> Result<SearchOutcome, RetrievalError>;

    /// [`search_entities`](Self::search_entities) for every query of a
    /// batch, answers in query order. The default is the per-query loop;
    /// `kglink-serve`'s rung view overrides it to share the batch with idle
    /// workers, so an override must answer item `i` exactly as
    /// `search_entities(&queries[i], ..)` would.
    fn search_batch(
        &self,
        queries: Vec<String>,
        top_k: usize,
        deadline: Deadline,
    ) -> Vec<Result<SearchOutcome, RetrievalError>> {
        queries
            .iter()
            .map(|query| self.search_entities(query, top_k, deadline))
            .collect()
    }

    /// Infallible convenience used by pure-KG voting baselines: a failed
    /// retrieval degrades to "no candidates" — exactly the paper's
    /// no-linkage semantics.
    fn link_mention(&self, mention: &str, k: usize) -> Vec<(EntityId, f32)> {
        self.search_entities(mention, k, Deadline::UNBOUNDED)
            .map(|outcome| outcome.hits)
            .unwrap_or_default()
    }
}

impl<B: KgBackend + ?Sized> KgBackend for &B {
    fn search_entities(
        &self,
        query: &str,
        top_k: usize,
        deadline: Deadline,
    ) -> Result<SearchOutcome, RetrievalError> {
        (**self).search_entities(query, top_k, deadline)
    }

    fn search_batch(
        &self,
        queries: Vec<String>,
        top_k: usize,
        deadline: Deadline,
    ) -> Vec<Result<SearchOutcome, RetrievalError>> {
        (**self).search_batch(queries, top_k, deadline)
    }
}

/// Owned shared backends (the serving layer hands `Arc<dyn KgBackend>`
/// stacks to worker threads) delegate like references do.
impl<B: KgBackend + ?Sized> KgBackend for std::sync::Arc<B> {
    fn search_entities(
        &self,
        query: &str,
        top_k: usize,
        deadline: Deadline,
    ) -> Result<SearchOutcome, RetrievalError> {
        (**self).search_entities(query, top_k, deadline)
    }

    fn search_batch(
        &self,
        queries: Vec<String>,
        top_k: usize,
        deadline: Deadline,
    ) -> Vec<Result<SearchOutcome, RetrievalError>> {
        (**self).search_batch(queries, top_k, deadline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_is_the_only_unbounded_deadline() {
        assert!(Deadline::UNBOUNDED.is_unbounded());
        assert!(!Deadline::from_us(300).is_unbounded());
    }

    #[test]
    fn errors_display_their_context() {
        let msg = RetrievalError::Timeout {
            needed_us: 9000,
            budget_us: 5000,
        }
        .to_string();
        assert!(msg.contains("9000us"));
        assert!(msg.contains("5000us"));
    }
}
