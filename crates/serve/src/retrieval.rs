//! The service's one retrieval path.
//!
//! [`Retrieval`] is built once and shared behind one `Arc` by the pool,
//! every worker and the service handle (metrics, swap probes).
//! [`Retrieval::at`] borrows it as a [`KgBackend`] whose single
//! `search_entities` is the whole degradation ladder, keyed by rung.
//! Only `counted` lookups at the `Full` rung reach [`RetrievalCounts`];
//! shadow duplicates and swap probes pass `counted = false`. A worker
//! borrows it through [`Retrieval::shared_at`] instead, whose search
//! batches are shared with the pool's idle workers ([`crate::fanout`]).

use crate::fanout::{self, Searches};
use crate::metrics::RetrievalCounts;
use crate::service::SharedBackend;
use crate::worker::WorkerContext;
use kglink_core::DegradationRung;
use kglink_obs::Tracer;
use kglink_search::{
    CacheConfig, CacheStats, CachingBackend, Deadline, KgBackend, RetrievalError, SearchOutcome,
};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

pub(crate) struct Retrieval {
    source: SharedBackend,
    cache: Option<CachingBackend<SharedBackend>>,
    queries: AtomicU64,
    successes: AtomicU64,
    failures: AtomicU64,
    truncated: AtomicU64,
}

impl Retrieval {
    pub fn new(source: SharedBackend, cache: Option<CacheConfig>, tracer: &Tracer) -> Self {
        Retrieval {
            cache: cache.map(|c| CachingBackend::new(source.clone(), c).with_tracer(tracer)),
            source,
            queries: AtomicU64::new(0),
            successes: AtomicU64::new(0),
            failures: AtomicU64::new(0),
            truncated: AtomicU64::new(0),
        }
    }

    /// The rung a request asking for `rung` is actually served at: a
    /// cache-only rung without a cache has nothing to serve hits from, so
    /// it folds into no-linkage and the recorded rung matches what happened.
    pub fn effective_rung(&self, rung: DegradationRung) -> DegradationRung {
        match rung {
            DegradationRung::CacheOnly if self.cache.is_none() => DegradationRung::NoLinkage,
            other => other,
        }
    }

    /// Borrow the stack as the backend for one annotation at `rung`
    /// (folded through [`Self::effective_rung`], the one place that rule lives).
    pub fn at(&self, rung: DegradationRung, counted: bool) -> impl KgBackend + '_ {
        RungView::at(self, rung, counted)
    }

    /// [`at`](Self::at) for an annotation on worker `ctx`: a search batch
    /// is shared with the pool's idle workers.
    pub fn shared_at<'a>(
        &'a self,
        rung: DegradationRung,
        counted: bool,
        ctx: &'a WorkerContext,
    ) -> impl KgBackend + 'a {
        RungView {
            helpers: Some(ctx),
            ..RungView::at(self, rung, counted)
        }
    }

    pub fn counts(&self) -> RetrievalCounts {
        RetrievalCounts {
            queries: self.queries.load(Relaxed),
            successes: self.successes.load(Relaxed),
            failures: self.failures.load(Relaxed),
            truncated: self.truncated.load(Relaxed),
        }
    }

    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(|c| c.stats())
    }
}

struct RungView<'a> {
    retrieval: &'a Retrieval,
    rung: DegradationRung,
    counted: bool,
    /// The worker whose idle siblings share this view's search batches.
    helpers: Option<&'a WorkerContext>,
}

impl<'a> RungView<'a> {
    fn at(retrieval: &'a Retrieval, rung: DegradationRung, counted: bool) -> Self {
        RungView {
            retrieval,
            rung: retrieval.effective_rung(rung),
            counted,
            helpers: None,
        }
    }
}

impl KgBackend for RungView<'_> {
    fn search_entities(
        &self,
        query: &str,
        top_k: usize,
        deadline: Deadline,
    ) -> Result<SearchOutcome, RetrievalError> {
        let r = self.retrieval;
        match (self.rung, &r.cache) {
            (DegradationRung::Full, cache) => {
                if self.counted {
                    r.queries.fetch_add(1, Relaxed);
                }
                let result = match cache {
                    Some(cache) => cache.search_entities(query, top_k, deadline),
                    None => r.source.search_entities(query, top_k, deadline),
                };
                if self.counted {
                    match &result {
                        Ok(outcome) => {
                            r.successes.fetch_add(1, Relaxed);
                            if outcome.truncated {
                                r.truncated.fetch_add(1, Relaxed);
                            }
                        }
                        Err(_) => {
                            r.failures.fetch_add(1, Relaxed);
                        }
                    }
                }
                result
            }
            // Hits only, and instantly: the deadline is not consulted.
            (DegradationRung::CacheOnly, Some(cache)) => cache
                .lookup_cached(query, top_k)
                .ok_or(RetrievalError::Unavailable),
            // No linkage (also: expired in the queue): fail instantly so the
            // pipeline takes its pure-PLM path.
            _ => Err(RetrievalError::Timeout {
                needed_us: 1,
                budget_us: 0,
            }),
        }
    }

    fn search_batch(
        &self,
        queries: Vec<String>,
        top_k: usize,
        deadline: Deadline,
    ) -> Vec<Result<SearchOutcome, RetrievalError>> {
        // Only a full lookup does I/O worth sharing; the other rungs answer
        // every item at once.
        match self.helpers {
            Some(ctx) if self.rung == DegradationRung::Full => fanout::share(
                ctx,
                Searches {
                    queries,
                    counted: self.counted,
                    top_k,
                    deadline,
                },
            ),
            _ => queries
                .iter()
                .map(|query| self.search_entities(query, top_k, deadline))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kglink_kg::{Entity, KgBuilder, NeSchema};
    use kglink_search::{FaultConfig, FaultyBackend};
    use kglink_store::{DiskBackend, DiskWorld};
    use std::sync::Arc;
    use DegradationRung::{CacheOnly, Full, NoLinkage};

    /// A `FaultyBackend` is the call-counting source: it answers like the
    /// disk backend underneath and reports how often it was reached.
    fn source(faults: FaultConfig) -> Arc<FaultyBackend<Arc<DiskBackend>>> {
        let mut b = KgBuilder::new();
        let ty = b.add_type("City", None);
        b.add_instance(Entity::new("paris", NeSchema::Place), ty);
        b.add_instance(Entity::new("lyon", NeSchema::Place), ty);
        Arc::new(FaultyBackend::new(
            DiskWorld::from_graph(&b.build()).unwrap().backend,
            faults,
        ))
    }

    /// What one lookup returned: `Ok`, or the error's name and `needed_us`
    /// (1 marks the view's own instant timeout; the source needs ≥ 200).
    fn outcome(result: Result<SearchOutcome, RetrievalError>) -> &'static str {
        match result {
            Ok(_) => "ok",
            Err(RetrievalError::Unavailable) => "unavailable",
            Err(RetrievalError::Timeout { needed_us: 1, .. }) => "instant timeout",
            Err(RetrievalError::Timeout { .. }) => "source timeout",
            Err(_) => "other",
        }
    }

    #[test]
    fn every_path_is_a_state_of_the_one_view() {
        let healthy = || FaultConfig::healthy(15);
        let truncating = || FaultConfig {
            truncation_rate: 1.0,
            ..healthy()
        };
        let unbounded = Deadline::UNBOUNDED;
        // A zero budget times out at the source (its service time is
        // ≥ 200 µs); the degraded rungs must never get that far.
        let zero = Deadline::from_us(0);
        // (name, faults, cache, rung, counted, deadline, queries,
        //  expected outcome, source calls, [queries, ok, failed, truncated])
        // Every case first warms "paris" with one counted `Full` lookup.
        #[rustfmt::skip]
        let cases = [
            ("full counted",         healthy(),    false, Full,      true,  unbounded, &["paris", "paris"][..], "ok",              3, [3, 3, 0, 0]),
            ("full counted, cached", healthy(),    true,  Full,      true,  unbounded, &["paris", " PARIS "],   "ok",              1, [3, 3, 0, 0]),
            ("full uncounted",       healthy(),    true,  Full,      false, unbounded, &["lyon"],               "ok",              2, [1, 1, 0, 0]),
            ("full counted failure", healthy(),    true,  Full,      true,  zero,      &["lyon"],               "source timeout",  2, [2, 1, 1, 0]),
            ("full truncated",       truncating(), false, Full,      true,  unbounded, &["paris lyon"],         "ok",              2, [2, 2, 0, 1]),
            ("cache-only warm",      healthy(),    true,  CacheOnly, true,  zero,      &["paris"],              "ok",              1, [1, 1, 0, 0]),
            ("cache-only cold",      healthy(),    true,  CacheOnly, true,  zero,      &["lyon"],               "unavailable",     1, [1, 1, 0, 0]),
            ("cache-only, no cache", healthy(),    false, CacheOnly, true,  zero,      &["paris"],              "instant timeout", 1, [1, 1, 0, 0]),
            ("no linkage / expired", healthy(),    true,  NoLinkage, true,  zero,      &["paris", "lyon"],      "instant timeout", 1, [1, 1, 0, 0]),
        ];
        for (name, faults, cache, rung, counted, deadline, queries, expected, calls, counts) in
            cases
        {
            let source = source(faults);
            let retrieval = Retrieval::new(
                source.clone(),
                cache.then(CacheConfig::default),
                &Tracer::disabled(),
            );
            let warm = retrieval
                .at(Full, true)
                .search_entities("paris", 2, unbounded);
            assert_eq!(outcome(warm), "ok", "{name}: warm-up");
            let view = retrieval.at(rung, counted);
            for q in queries {
                assert_eq!(
                    outcome(view.search_entities(q, 2, deadline)),
                    expected,
                    "{name}: {q}"
                );
            }
            assert_eq!(source.calls(), calls, "{name}: source calls");
            let [queries, successes, failures, truncated] = counts;
            let expected = RetrievalCounts {
                queries,
                successes,
                failures,
                truncated,
            };
            assert_eq!(retrieval.counts(), expected, "{name}");
        }
    }
}
