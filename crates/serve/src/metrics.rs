//! Service-level observability.
//!
//! [`ServiceMetrics`] is a point-in-time snapshot that folds four layers
//! together:
//!
//! 1. **Service counters** — submitted / completed / rejected / shed /
//!    expired, queue depth, in-flight, and end-to-end latency percentiles.
//! 2. **Retrieval counters** — [`RetrievalCounts`] for the primary
//!    annotations' full-retrieval lookups.
//! 3. **Cache counters** — [`CacheStats`] from the shared
//!    [`CachingBackend`](kglink_search::CachingBackend), when enabled.
//! 4. **Feature-memo counters** — [`FeatureMemoStats`] of the serving
//!    epoch's [`FeatureMemo`](kglink_core::FeatureMemo).
//!
//! Every time in the snapshot is real wall-clock time; the measured scaling
//! figure is `serve.scaling_x` in `BENCHMARK.json`.

use kglink_core::{DegradationRung, FeatureMemoStats};
use kglink_search::CacheStats;
use std::fmt;

/// Lookups the primary annotations issued at the full-retrieval rung.
/// Shadow duplicates, swap probes and the degraded rungs are not counted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetrievalCounts {
    /// Lookups issued (cache hits included).
    pub queries: u64,
    /// Lookups that returned candidates.
    pub successes: u64,
    /// Lookups that returned a [`RetrievalError`](kglink_search::RetrievalError).
    pub failures: u64,
    /// Successful lookups whose hit list was truncated by the backend.
    pub truncated: u64,
}

/// Point-in-time service snapshot; see the module docs for the layers.
#[derive(Debug, Clone, Default)]
pub struct ServiceMetrics {
    /// Requests accepted into the queue (includes later-shed ones).
    pub submitted: u64,
    /// Requests fully annotated (including degraded/expired completions).
    pub completed: u64,
    /// Requests refused at admission under `Reject`.
    pub rejected: u64,
    /// Queued requests evicted when the admission limit fell below the
    /// queue depth; each resolved [`Shed`](crate::ServiceError::Shed).
    pub shed: u64,
    /// Completed requests whose deadline expired while queued; they were
    /// served through the degraded no-linkage path.
    pub expired: u64,
    /// Items currently queued.
    pub queue_depth: usize,
    /// Current dynamic admission limit. Equals the queue capacity unless
    /// overload protection is on and the AIMD controller has cut it.
    pub admission_limit: usize,
    /// The degradation-ladder rung new requests are currently served at.
    pub rung: DegradationRung,
    /// Completions served at rung 0 (full retrieval).
    pub served_full: u64,
    /// Completions served at rung 1 (cache-only retrieval).
    pub served_cache_only: u64,
    /// Completions served at rung 2 (no linkage), including expired ones.
    pub served_no_linkage: u64,
    /// Requests currently being annotated by workers.
    pub in_flight: usize,
    /// Workers parked waiting for a request. An idle worker helps with a
    /// busy one's batched KG reads.
    pub idle_workers: usize,
    /// Columns annotated across all completed requests.
    pub annotated_columns: u64,
    /// Columns that fell back to the no-linkage degraded path.
    pub degraded_columns: u64,
    /// Individual cell retrievals that failed and were skipped.
    pub failed_cells: u64,
    /// p50 end-to-end request latency (queue wait + annotation), µs.
    pub latency_p50_us: u64,
    /// p99 end-to-end request latency, µs.
    pub latency_p99_us: u64,
    /// Requests whose worker panicked mid-annotation; each produced a
    /// typed [`WorkerPanicked`](crate::ServiceError::WorkerPanicked) reply,
    /// never a hung ticket.
    pub worker_panics: u64,
    /// Search and one-hop batch items an idle worker ran for another
    /// worker's request.
    pub help_items: u64,
    /// Real microseconds since the service started.
    pub uptime_us: u64,
    /// Full-rung retrieval counters of the primary annotations.
    pub retrieval: RetrievalCounts,
    /// Cache counters, if the retrieval cache is enabled.
    pub cache: Option<CacheStats>,
    /// Version id of the epoch currently serving traffic.
    pub model_version: u64,
    /// Completed hot-swaps (promotions), including ones later rolled back.
    pub swaps: u64,
    /// Automatic rollbacks the watch-phase divergence guard performed.
    pub rollbacks: u64,
    /// The serving epoch's feature-row memo. A new epoch starts a new memo,
    /// so these counters restart from zero at every promote and rollback.
    pub feature_memo: FeatureMemoStats,
}

impl ServiceMetrics {
    /// Real wall-clock throughput in tables per second.
    pub fn throughput_per_s(&self) -> f64 {
        if self.uptime_us == 0 {
            0.0
        } else {
            self.completed as f64 / (self.uptime_us as f64 / 1e6)
        }
    }

    /// Cache hit rate in `[0, 1]`, or 0.0 when the cache is disabled or
    /// has never been consulted.
    pub fn cache_hit_rate(&self) -> f64 {
        self.cache.as_ref().map_or(0.0, |c| c.hit_rate())
    }
}

impl fmt::Display for ServiceMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "service: submitted={} completed={} rejected={} shed={} expired={} panics={}",
            self.submitted,
            self.completed,
            self.rejected,
            self.shed,
            self.expired,
            self.worker_panics
        )?;
        writeln!(
            f,
            "load: queue_depth={} in_flight={} idle_workers={} help_items={} latency_p50={}us p99={}us",
            self.queue_depth,
            self.in_flight,
            self.idle_workers,
            self.help_items,
            self.latency_p50_us,
            self.latency_p99_us
        )?;
        writeln!(
            f,
            "overload: admission_limit={} rung={} served_full={} cache_only={} no_linkage={}",
            self.admission_limit,
            self.rung.name(),
            self.served_full,
            self.served_cache_only,
            self.served_no_linkage
        )?;
        writeln!(
            f,
            "annotation: columns={} degraded={} failed_cells={}",
            self.annotated_columns, self.degraded_columns, self.failed_cells
        )?;
        writeln!(
            f,
            "model: version={} swaps={} rollbacks={}",
            self.model_version, self.swaps, self.rollbacks
        )?;
        writeln!(
            f,
            "feature_memo: hit_share={:.3} hits={} misses={} entries={}",
            self.feature_memo.hit_share(),
            self.feature_memo.hits,
            self.feature_memo.misses,
            self.feature_memo.entries
        )?;
        writeln!(f, "throughput: {:.1}/s", self.throughput_per_s())?;
        writeln!(
            f,
            "retrieval: queries={} ok={} failed={} truncated={}",
            self.retrieval.queries,
            self.retrieval.successes,
            self.retrieval.failures,
            self.retrieval.truncated
        )?;
        match &self.cache {
            Some(c) => write!(
                f,
                "cache: hit_rate={:.3} hits={} misses={} entries={}/{} evictions={}",
                c.hit_rate(),
                c.hits,
                c.misses,
                c.entries,
                c.capacity,
                c.evictions
            ),
            None => write!(f, "cache: disabled"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_metrics_do_not_divide_by_zero() {
        let m = ServiceMetrics::default();
        assert_eq!(m.throughput_per_s(), 0.0);
        assert_eq!(m.cache_hit_rate(), 0.0);
        // Display must render without panicking on the empty snapshot.
        assert!(m.to_string().contains("cache: disabled"));
    }

    #[test]
    fn latency_percentiles_come_from_the_shared_histogram() {
        let mut h = kglink_obs::Histogram::new();
        for v in [90, 70, 50, 30, 10, 20, 40, 60, 80] {
            h.record(v);
        }
        // Values below the histogram's exact linear range round-trip
        // exactly, so the service metrics match nearest-rank percentiles.
        assert_eq!(h.quantile(0.0), 10);
        assert_eq!(h.quantile(0.5), 50);
        assert_eq!(h.quantile(1.0), 90);
        let m = ServiceMetrics {
            latency_p50_us: h.p50(),
            latency_p99_us: h.p99(),
            ..Default::default()
        };
        assert_eq!(m.latency_p50_us, 50);
        assert_eq!(m.latency_p99_us, 90);
    }
}
