//! Fault injection, plus the pass-through shell the frozen benchmark builds.
//!
//! Three [`KgBackend`] wrappers compose around any inner backend:
//!
//! * [`FaultyBackend`] — deterministic, seeded fault injection: transient
//!   errors, injected latency measured against the caller's deadline,
//!   partial (truncated) result sets, and hard outages over configurable
//!   call-index windows. Used by the chaos experiment and tests.
//! * [`PanickingBackend`] — unwinds on a fixed call schedule, for the
//!   serving layer's panic-isolation tests.
//! * [`ResilientBackend`] — forwards every call unchanged and counts
//!   failures. Only `benchmark/` builds it.
//!
//! A failed retrieval has one handler: `kglink-core`'s preprocessing
//! degrades the whole column to the paper's no-linkage path (Table IV).
//! Nothing retries and nothing trips.
//!
//! All randomness is derived by hashing a seed with the call index, so a
//! given (seed, call sequence) is exactly reproducible — no global RNG
//! state, no real sleeps.

use crate::backend::{Deadline, KgBackend, RetrievalError, SearchOutcome};
use std::sync::atomic::{AtomicU64, Ordering};

/// splitmix64 over `seed ^ salt` — one deterministic draw per decision.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Map a raw draw to `[0, 1)`.
fn unit(raw: u64) -> f64 {
    (raw >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Uniform draw in `[lo, hi]`.
fn uniform_us(raw: u64, (lo, hi): (u64, u64)) -> u64 {
    debug_assert!(lo <= hi);
    lo + raw % (hi - lo + 1)
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

/// Deterministic fault plan for a [`FaultyBackend`].
#[derive(Debug, Clone)]
pub struct FaultConfig {
    /// Seed for every per-call decision.
    pub seed: u64,
    /// Probability a call fails with [`RetrievalError::Transient`].
    pub transient_rate: f64,
    /// Probability a call is served at `slow_latency_us` instead of
    /// `base_latency_us` (tripping the caller's deadline, if any).
    pub slow_rate: f64,
    /// Probability a *successful* call returns a truncated hit list.
    pub truncation_rate: f64,
    /// Healthy service time, uniform over `(lo, hi)` microseconds.
    pub base_latency_us: (u64, u64),
    /// Degraded service time for slow calls.
    pub slow_latency_us: (u64, u64),
    /// Hard-outage windows `[start, end)` over the call index: every call
    /// whose index falls in a window fails with
    /// [`RetrievalError::Unavailable`].
    pub outage_windows: Vec<(u64, u64)>,
}

impl FaultConfig {
    /// No faults: pass-through with healthy latencies.
    pub fn healthy(seed: u64) -> Self {
        FaultConfig {
            seed,
            transient_rate: 0.0,
            slow_rate: 0.0,
            truncation_rate: 0.0,
            base_latency_us: (200, 900),
            slow_latency_us: (20_000, 60_000),
            outage_windows: Vec::new(),
        }
    }

    /// The chaos-sweep knob: a single `rate` in `[0, 1]` scales every fault
    /// mode. At `rate = 1.0` *every* call fails — a full outage. Slow calls
    /// time out only under a bounded deadline; under
    /// [`Deadline::UNBOUNDED`] they fall through to the transient draw.
    pub fn with_fault_rate(seed: u64, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "fault rate out of range");
        FaultConfig {
            transient_rate: rate,
            slow_rate: rate * 0.5,
            truncation_rate: rate * 0.25,
            ..FaultConfig::healthy(seed)
        }
    }

    /// Add a hard-outage window over the call index.
    pub fn with_outage(mut self, start_call: u64, end_call: u64) -> Self {
        assert!(start_call < end_call, "empty outage window");
        self.outage_windows.push((start_call, end_call));
        self
    }
}

/// A [`KgBackend`] decorator that injects deterministic faults per call.
///
/// The call counter is the only mutable state; every decision is a pure
/// function of `(seed, call index)`, so two identically-configured
/// instances fed the same query sequence behave identically.
#[derive(Debug)]
pub struct FaultyBackend<B> {
    inner: B,
    config: FaultConfig,
    calls: AtomicU64,
}

impl<B: KgBackend> FaultyBackend<B> {
    pub fn new(inner: B, config: FaultConfig) -> Self {
        FaultyBackend {
            inner,
            config,
            calls: AtomicU64::new(0),
        }
    }

    /// Number of calls served (or failed) so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }
}

impl<B: KgBackend> KgBackend for FaultyBackend<B> {
    fn search_entities(
        &self,
        query: &str,
        top_k: usize,
        deadline: Deadline,
    ) -> Result<SearchOutcome, RetrievalError> {
        let n = self.calls.fetch_add(1, Ordering::Relaxed);
        let cfg = &self.config;
        if cfg
            .outage_windows
            .iter()
            .any(|&(start, end)| (start..end).contains(&n))
        {
            return Err(RetrievalError::Unavailable);
        }
        let slow = unit(mix(cfg.seed, n.wrapping_mul(3).wrapping_add(1))) < cfg.slow_rate;
        let latency_range = if slow {
            cfg.slow_latency_us
        } else {
            cfg.base_latency_us
        };
        let latency_us = uniform_us(
            mix(cfg.seed, n.wrapping_mul(3).wrapping_add(2)),
            latency_range,
        );
        if latency_us > deadline.budget_us() {
            return Err(RetrievalError::Timeout {
                needed_us: latency_us,
                budget_us: deadline.budget_us(),
            });
        }
        if unit(mix(cfg.seed, n.wrapping_mul(3))) < cfg.transient_rate {
            return Err(RetrievalError::Transient);
        }
        let mut outcome = self.inner.search_entities(query, top_k, deadline)?;
        if outcome.hits.len() > 1
            && unit(mix(cfg.seed, n.wrapping_mul(7).wrapping_add(5))) < cfg.truncation_rate
        {
            outcome.hits.truncate(outcome.hits.len() / 2);
            outcome.truncated = true;
        }
        Ok(outcome)
    }
}

/// A [`KgBackend`] decorator that *panics* on every `every`-th call
/// (1-based): call numbers `every`, `2·every`, … unwind instead of
/// returning. This is the crash-chaos counterpart of [`FaultyBackend`] —
/// where that injects *errors* the pipeline degrades in-band, this
/// injects the failure mode that escapes the `Result` channel entirely, so
/// serving layers can prove their panic isolation (completion-on-drop
/// ticket guards, workers that serve on, poisoned-lock recovery).
///
/// Deterministic: the panic schedule depends only on the call index, so a
/// fixed request sequence always panics at the same points.
#[derive(Debug)]
pub struct PanickingBackend<B> {
    inner: B,
    every: u64,
    calls: AtomicU64,
}

impl<B: KgBackend> PanickingBackend<B> {
    /// Panic on every `every`-th call. Panics immediately if `every == 0`
    /// (a schedule that never fires would silently test nothing).
    pub fn new(inner: B, every: u64) -> Self {
        assert!(every > 0, "panic interval must be at least 1");
        PanickingBackend {
            inner,
            every,
            calls: AtomicU64::new(0),
        }
    }

    /// Number of calls observed so far (including the panicking ones).
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// How many calls have panicked so far.
    pub fn panics(&self) -> u64 {
        self.calls() / self.every
    }
}

impl<B: KgBackend> KgBackend for PanickingBackend<B> {
    #[expect(
        clippy::panic,
        reason = "panicking IS this chaos decorator's contract; it exists to exercise the panic isolation in the serving layer"
    )]
    fn search_entities(
        &self,
        query: &str,
        top_k: usize,
        deadline: Deadline,
    ) -> Result<SearchOutcome, RetrievalError> {
        let n = self.calls.fetch_add(1, Ordering::Relaxed) + 1;
        if n.is_multiple_of(self.every) {
            panic!("injected panic on backend call {n}");
        }
        self.inner.search_entities(query, top_k, deadline)
    }
}

// ---------------------------------------------------------------------------
// The benchmark's pass-through shell
// ---------------------------------------------------------------------------

/// Configuration of a [`ResilientBackend`]: nothing is left to configure.
/// The type stays because the frozen benchmark passes
/// `ResilienceConfig::default()`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ResilienceConfig;

/// Point-in-time counters of a [`ResilientBackend`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Calls the inner backend answered with an error.
    pub failures: u64,
    /// Always 0: nothing retries.
    pub retries: u64,
    /// Always 0: there is no breaker.
    pub breaker_trips: u64,
}

/// A lock-free pass-through that counts the inner backend's failures.
///
/// It exists only for the frozen benchmark's three sites: it builds
/// `ResilientBackend::new(_, ResilienceConfig::default())` in its setup and
/// its traced stack, and reads [`metrics`](Self::metrics) into
/// `search.retries`, `search.failures` and `search.breaker_trips`. ROADMAP
/// item 1 deletes the type together with those sites. Library code serves
/// its backends directly.
#[derive(Debug)]
pub struct ResilientBackend<B> {
    inner: B,
    failures: AtomicU64,
}

impl<B: KgBackend> ResilientBackend<B> {
    pub fn new(inner: B, _config: ResilienceConfig) -> Self {
        ResilientBackend {
            inner,
            failures: AtomicU64::new(0),
        }
    }

    /// Failures counted so far; `retries` and `breaker_trips` read 0.
    pub fn metrics(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            failures: self.failures.load(Ordering::Relaxed),
            ..MetricsSnapshot::default()
        }
    }
}

impl<B: KgBackend> KgBackend for ResilientBackend<B> {
    fn search_entities(
        &self,
        query: &str,
        top_k: usize,
        deadline: Deadline,
    ) -> Result<SearchOutcome, RetrievalError> {
        let result = self.inner.search_entities(query, top_k, deadline);
        if result.is_err() {
            self.failures.fetch_add(1, Ordering::Relaxed);
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kglink_kg::{Entity, KgBuilder, NeSchema};

    fn searcher() -> crate::EntitySearcher {
        let mut b = KgBuilder::new();
        let ty = b.add_type("Musician", None);
        for name in [
            "Peter Steele",
            "Anna Kovacs",
            "Peter Banks",
            "Peter Gabriel",
        ] {
            b.add_instance(Entity::new(name, NeSchema::Person), ty);
        }
        crate::EntitySearcher::build(&b.build())
    }

    #[test]
    fn healthy_faulty_backend_passes_hits_through() {
        let s = searcher();
        let faulty = FaultyBackend::new(&s, FaultConfig::healthy(7));
        let direct = s.link_mention("Peter", 5);
        let wrapped = faulty
            .search_entities("Peter", 5, Deadline::UNBOUNDED)
            .expect("no faults configured");
        assert_eq!(wrapped.hits, direct);
        assert!(!wrapped.truncated);
        // Healthy calls take 200–900 µs of injected latency, so a 100 µs
        // deadline fails every one of them.
        assert!(matches!(
            faulty.search_entities("Peter", 5, Deadline::from_us(100)),
            Err(RetrievalError::Timeout { budget_us: 100, .. })
        ));
    }

    #[test]
    fn outage_window_fails_exactly_its_calls() {
        let s = searcher();
        let faulty = FaultyBackend::new(&s, FaultConfig::healthy(7).with_outage(2, 4));
        let mut results = Vec::new();
        for _ in 0..6 {
            results.push(
                faulty
                    .search_entities("Peter", 3, Deadline::UNBOUNDED)
                    .is_ok(),
            );
        }
        assert_eq!(results, vec![true, true, false, false, true, true]);
        assert_eq!(faulty.calls(), 6);
    }

    #[test]
    fn full_fault_rate_fails_every_call() {
        let s = searcher();
        let faulty = FaultyBackend::new(&s, FaultConfig::with_fault_rate(3, 1.0));
        for _ in 0..50 {
            assert!(faulty
                .search_entities("Peter", 3, Deadline::from_us(10_000))
                .is_err());
        }
    }

    #[test]
    fn fault_injection_is_deterministic_per_call_index() {
        let s = searcher();
        let run = || {
            let faulty = FaultyBackend::new(&s, FaultConfig::with_fault_rate(11, 0.4));
            (0..40)
                .map(|_| {
                    faulty
                        .search_entities("Peter", 3, Deadline::from_us(5_000))
                        .map(|o| (o.hits, o.truncated))
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn resilient_backend_forwards_every_call_and_counts_failures() {
        let s = searcher();
        let wrapped = ResilientBackend::new(&s, ResilienceConfig);
        for query in ["Peter", "Anna Kovacs", "peter banks", "nobody"] {
            let direct = s
                .search_entities(query, 3, Deadline::UNBOUNDED)
                .expect("the searcher never fails");
            let via = wrapped
                .search_entities(query, 3, Deadline::UNBOUNDED)
                .expect("a healthy inner backend never fails");
            let bits = |hits: &[(kglink_kg::EntityId, f32)]| {
                hits.iter()
                    .map(|&(id, score)| (id, score.to_bits()))
                    .collect::<Vec<_>>()
            };
            assert_eq!(bits(&via.hits), bits(&direct.hits), "query {query:?}");
            assert_eq!(via.truncated, direct.truncated);
        }
        assert_eq!(wrapped.metrics(), MetricsSnapshot::default());

        // Every inner error comes back unchanged, deadline included: a
        // twin injector fed the same call sequence is the reference.
        let config = FaultConfig::with_fault_rate(3, 1.0);
        let reference = FaultyBackend::new(&s, config.clone());
        let wrapped = ResilientBackend::new(FaultyBackend::new(&s, config), ResilienceConfig);
        let calls = 40;
        for _ in 0..calls {
            let deadline = Deadline::from_us(30_000);
            let want = reference.search_entities("Peter", 3, deadline);
            let got = wrapped.search_entities("Peter", 3, deadline);
            assert!(want.is_err(), "rate 1.0 fails every call");
            assert_eq!(got, want);
        }
        let metrics = wrapped.metrics();
        assert_eq!(metrics.failures, calls);
        assert_eq!((metrics.retries, metrics.breaker_trips), (0, 0));
    }
}
