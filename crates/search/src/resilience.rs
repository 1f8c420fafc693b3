//! Fault injection and the resilient retrieval decorator.
//!
//! Two [`KgBackend`] wrappers compose around any inner backend:
//!
//! * [`FaultyBackend`] — deterministic, seeded fault injection: transient
//!   errors, injected latency measured against the caller's deadline,
//!   partial (truncated) result sets, and hard outages over configurable
//!   call-index windows. Used by the chaos experiment and tests.
//! * [`ResilientBackend`] — the production-shaped decorator: bounded
//!   retries with exponential backoff + jitter, per-attempt timeout
//!   budgets, and a Closed → Open → HalfOpen circuit breaker with
//!   failure-rate tripping and cooldown probes. Keeps a simulated
//!   microsecond clock and a metrics ledger (retries, trips, latency
//!   percentiles) that `core::stats` surfaces per run.
//!
//! All randomness is derived by hashing a seed with the call index, so a
//! given (seed, call sequence) is exactly reproducible — no global RNG
//! state, no real sleeps.

use crate::backend::{Deadline, KgBackend, RetrievalError, SearchOutcome};
use kglink_obs::{Histogram, Tracer};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

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
    /// mode. At `rate = 1.0` *every* call fails (half slow-then-timeout,
    /// the rest transient) — a full outage.
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

    pub fn config(&self) -> &FaultConfig {
        &self.config
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
        outcome.latency_us += latency_us;
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
/// where that injects *errors* a resilient caller can handle in-band, this
/// injects the failure mode that escapes the `Result` channel entirely, so
/// serving layers can prove their panic isolation (completion-on-drop
/// ticket guards, worker supervision, poisoned-lock recovery).
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
        reason = "panicking IS this chaos decorator's contract; it exists to exercise the panic isolation in the serving layer and the resilience tests"
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
// Circuit breaker
// ---------------------------------------------------------------------------

/// Circuit-breaker tuning.
#[derive(Debug, Clone)]
pub struct BreakerConfig {
    /// Sliding window of recent attempt outcomes consulted for tripping.
    pub window: usize,
    /// Minimum outcomes in the window before the failure rate can trip.
    pub min_samples: usize,
    /// Failure fraction at or above which the breaker opens.
    pub failure_threshold: f64,
    /// Simulated microseconds the breaker stays open before probing.
    pub cooldown_us: u64,
    /// Consecutive half-open probe successes required to close.
    pub halfopen_successes: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            window: 32,
            min_samples: 8,
            failure_threshold: 0.5,
            cooldown_us: 100_000,
            halfopen_successes: 2,
        }
    }
}

/// Breaker states, in the classic Closed → Open → HalfOpen cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Normal operation; outcomes feed the sliding failure window.
    Closed,
    /// Tripped: every call is rejected until the cooldown elapses.
    Open,
    /// Cooldown elapsed: probe calls go through; one failure re-opens,
    /// `halfopen_successes` successes close.
    HalfOpen,
}

/// A deterministic circuit breaker over simulated time.
///
/// Pure state machine — the owner supplies `now_us` on every interaction,
/// which keeps it trivially testable (see the property tests in
/// `tests/resilience.rs`).
#[derive(Debug)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    state: BreakerState,
    opened_at_us: u64,
    window: VecDeque<bool>,
    halfopen_streak: u32,
    trips: u64,
}

impl CircuitBreaker {
    pub fn new(config: BreakerConfig) -> Self {
        CircuitBreaker {
            config,
            state: BreakerState::Closed,
            opened_at_us: 0,
            window: VecDeque::new(),
            halfopen_streak: 0,
            trips: 0,
        }
    }

    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Times the breaker has tripped (entered Open).
    pub fn trips(&self) -> u64 {
        self.trips
    }

    /// Simulated time at which an Open breaker will admit a probe.
    pub fn open_until_us(&self) -> Option<u64> {
        (self.state == BreakerState::Open)
            .then(|| self.opened_at_us.saturating_add(self.config.cooldown_us))
    }

    /// May a call proceed at `now_us`? Transitions Open → HalfOpen when the
    /// cooldown has elapsed.
    pub fn allow(&mut self, now_us: u64) -> bool {
        match self.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open => {
                if now_us.saturating_sub(self.opened_at_us) >= self.config.cooldown_us {
                    self.state = BreakerState::HalfOpen;
                    self.halfopen_streak = 0;
                    true
                } else {
                    false
                }
            }
        }
    }

    fn trip(&mut self, now_us: u64) {
        self.state = BreakerState::Open;
        self.opened_at_us = now_us;
        self.window.clear();
        self.halfopen_streak = 0;
        self.trips += 1;
    }

    /// Record the outcome of an attempt that [`allow`](Self::allow)
    /// admitted at `now_us`.
    pub fn record(&mut self, now_us: u64, ok: bool) {
        match self.state {
            BreakerState::Closed => {
                self.window.push_back(ok);
                while self.window.len() > self.config.window {
                    self.window.pop_front();
                }
                if self.window.len() >= self.config.min_samples {
                    let failures = self.window.iter().filter(|&&o| !o).count();
                    if failures as f64 / self.window.len() as f64 >= self.config.failure_threshold {
                        self.trip(now_us);
                    }
                }
            }
            BreakerState::HalfOpen => {
                if ok {
                    self.halfopen_streak += 1;
                    if self.halfopen_streak >= self.config.halfopen_successes {
                        self.state = BreakerState::Closed;
                        self.window.clear();
                    }
                } else {
                    self.trip(now_us);
                }
            }
            // A call admitted before the trip may report after it; the
            // outcome no longer matters.
            BreakerState::Open => {}
        }
    }
}

// ---------------------------------------------------------------------------
// Resilient decorator
// ---------------------------------------------------------------------------

/// Token-bucket tuning for a retry budget.
///
/// Retries are a loan against future capacity: when the backend is
/// healthy they absorb transients cheaply, but during a fault burst an
/// unbudgeted retry policy multiplies offered load by up to
/// `1 + max_retries` exactly when the backend can least afford it, and
/// the re-saturated queue turns one incident into two. The budget caps
/// that amplification: each top-level query deposits `ratio` tokens (up
/// to `cap`), each retry withdraws one, so lifetime retries can never
/// exceed `initial + ratio × queries` — amplification is bounded at
/// `1 + ratio` in the long run no matter what the fault sequence does.
#[derive(Debug, Clone)]
pub struct RetryBudgetConfig {
    /// Tokens deposited per top-level query (may be fractional).
    pub ratio: f64,
    /// Bucket capacity: the largest retry burst the budget will fund.
    pub cap: f64,
    /// Tokens in the bucket before the first query.
    pub initial: f64,
}

impl Default for RetryBudgetConfig {
    fn default() -> Self {
        RetryBudgetConfig {
            ratio: 1.0,
            cap: 50.0,
            initial: 20.0,
        }
    }
}

/// A deterministic retry-budget token bucket (pure state machine; the
/// owner provides synchronization). See [`RetryBudgetConfig`].
#[derive(Debug, Clone)]
pub struct RetryBudget {
    config: RetryBudgetConfig,
    tokens: f64,
    granted: u64,
    denied: u64,
}

impl RetryBudget {
    /// Panics on a nonsensical config (negative ratio/cap, or an initial
    /// balance above the cap) — construction-time programming errors.
    pub fn new(config: RetryBudgetConfig) -> Self {
        assert!(config.ratio >= 0.0, "ratio must be non-negative");
        assert!(config.cap >= 0.0, "cap must be non-negative");
        assert!(
            config.initial >= 0.0 && config.initial <= config.cap,
            "initial tokens must be in [0, cap]"
        );
        RetryBudget {
            tokens: config.initial,
            config,
            granted: 0,
            denied: 0,
        }
    }

    /// Current token balance, always in `[0, cap]`.
    pub fn tokens(&self) -> f64 {
        self.tokens
    }

    /// Retries granted so far.
    pub fn granted(&self) -> u64 {
        self.granted
    }

    /// Retries denied so far.
    pub fn denied(&self) -> u64 {
        self.denied
    }

    /// Deposit for one top-level query, saturating at the cap.
    pub fn on_query(&mut self) {
        self.tokens = (self.tokens + self.config.ratio).min(self.config.cap);
    }

    /// Try to fund one retry: withdraw a token if a whole one is
    /// available, else deny.
    pub fn try_retry(&mut self) -> bool {
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            self.granted += 1;
            true
        } else {
            self.denied += 1;
            false
        }
    }
}

/// Retry/backoff/breaker tuning for a [`ResilientBackend`].
#[derive(Debug, Clone)]
pub struct ResilienceConfig {
    /// Retries after the first attempt (total attempts = `max_retries + 1`).
    pub max_retries: u32,
    /// First backoff delay, microseconds.
    pub backoff_base_us: u64,
    /// Multiplier between consecutive backoff delays (>= 1).
    pub backoff_multiplier: f64,
    /// Hard cap on any single backoff delay.
    pub backoff_cap_us: u64,
    /// Jitter fraction in `[0, multiplier - 1]`: delay is scaled by
    /// `1 + jitter * u` with `u ~ [0, 1)`. The bound keeps the delay
    /// sequence monotone for any jitter draw.
    pub jitter: f64,
    /// Per-attempt timeout budget (tightened by the caller's deadline).
    pub attempt_budget_us: u64,
    /// Simulated cost charged to the clock for a fast failure.
    pub failure_cost_us: u64,
    /// Seed for jitter draws.
    pub seed: u64,
    pub breaker: BreakerConfig,
    /// Retry-budget token bucket; `None` leaves retries bounded only by
    /// `max_retries` per query (unbounded amplification across queries).
    pub retry_budget: Option<RetryBudgetConfig>,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig {
            max_retries: 3,
            backoff_base_us: 500,
            backoff_multiplier: 2.0,
            backoff_cap_us: 20_000,
            jitter: 0.5,
            attempt_budget_us: 10_000,
            failure_cost_us: 300,
            seed: 0x5eed,
            breaker: BreakerConfig::default(),
            retry_budget: Some(RetryBudgetConfig::default()),
        }
    }
}

/// Backoff delay before retry number `attempt + 1`, given a jitter draw
/// `unit_jitter` in `[0, 1)`. Exposed for the property tests: for any fixed
/// jitter sequence the delays are monotone non-decreasing and capped at
/// `backoff_cap_us`.
pub fn backoff_delay_us(config: &ResilienceConfig, attempt: u32, unit_jitter: f64) -> u64 {
    let base = config.backoff_base_us as f64 * config.backoff_multiplier.powi(attempt as i32);
    let jitter = config
        .jitter
        .clamp(0.0, (config.backoff_multiplier - 1.0).max(0.0));
    let delayed = base * (1.0 + jitter * unit_jitter.clamp(0.0, 1.0));
    (delayed.min(config.backoff_cap_us as f64)) as u64
}

/// Point-in-time metrics of a [`ResilientBackend`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Top-level queries served (each may span several attempts).
    pub queries: u64,
    /// Queries that ultimately succeeded.
    pub successes: u64,
    /// Queries that ultimately failed (degraded to no-linkage upstream).
    pub failures: u64,
    /// Queries rejected outright by an open breaker.
    pub breaker_rejections: u64,
    /// Retry attempts across all queries.
    pub retries: u64,
    /// Retries the token-bucket budget refused to fund (each became a
    /// terminal failure instead of another attempt).
    pub retry_budget_denied: u64,
    /// Times the circuit breaker tripped.
    pub breaker_trips: u64,
    /// Successful queries whose hit list was truncated.
    pub truncated: u64,
    /// End-to-end simulated latency histogram of successful queries,
    /// microseconds (includes failed attempts and backoff).
    pub latency: Histogram,
}

impl MetricsSnapshot {
    /// p50 end-to-end simulated latency of successful queries, microseconds.
    pub fn latency_p50_us(&self) -> u64 {
        self.latency.p50()
    }

    /// p99 end-to-end simulated latency of successful queries, microseconds.
    pub fn latency_p99_us(&self) -> u64 {
        self.latency.p99()
    }
}

/// Stable lower-case names for [`BreakerState`], used in trace events.
pub fn breaker_state_name(state: BreakerState) -> &'static str {
    match state {
        BreakerState::Closed => "closed",
        BreakerState::Open => "open",
        BreakerState::HalfOpen => "half_open",
    }
}

#[derive(Debug, Default)]
struct ResilientState {
    clock_us: u64,
    breaker: Option<CircuitBreaker>,
    budget: Option<RetryBudget>,
    queries: u64,
    successes: u64,
    failures: u64,
    breaker_rejections: u64,
    retries: u64,
    truncated: u64,
    latency: Histogram,
}

/// The production-shaped retrieval decorator: bounded retries with
/// exponential backoff + jitter, per-attempt deadlines, and a circuit
/// breaker — all over simulated time.
#[derive(Debug)]
pub struct ResilientBackend<B> {
    inner: B,
    config: ResilienceConfig,
    tracer: Tracer,
    state: Mutex<ResilientState>,
}

impl<B: KgBackend> ResilientBackend<B> {
    pub fn new(inner: B, config: ResilienceConfig) -> Self {
        let breaker = CircuitBreaker::new(config.breaker.clone());
        let budget = config.retry_budget.clone().map(RetryBudget::new);
        ResilientBackend {
            inner,
            config,
            tracer: Tracer::disabled(),
            state: Mutex::new(ResilientState {
                breaker: Some(breaker),
                budget,
                ..ResilientState::default()
            }),
        }
    }

    /// Attach a tracer: retry attempts, breaker transitions, and breaker
    /// rejections are emitted as `retrieval.retry` / `breaker.transition` /
    /// `breaker.reject` events.
    pub fn with_tracer(mut self, tracer: &Tracer) -> Self {
        self.tracer = tracer.clone();
        self
    }

    pub fn config(&self) -> &ResilienceConfig {
        &self.config
    }

    /// Acquire the state lock, recovering from poison. The lock is released
    /// across the inner backend call (`search_entities` drops the guard
    /// before it and re-acquires after), so a panicking inner backend
    /// cannot poison it; poison can only come from a panic elsewhere on a
    /// caller's stack. The clock, counters, and breaker window are each
    /// updated whole under one acquisition, so a recovered guard is
    /// consistent.
    fn lock_state(&self) -> MutexGuard<'_, ResilientState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Current simulated time.
    pub fn clock_us(&self) -> u64 {
        self.lock_state().clock_us
    }

    /// Snapshot of the metrics ledger.
    pub fn metrics(&self) -> MetricsSnapshot {
        let state = self.lock_state();
        MetricsSnapshot {
            queries: state.queries,
            successes: state.successes,
            failures: state.failures,
            breaker_rejections: state.breaker_rejections,
            retries: state.retries,
            retry_budget_denied: state.budget.as_ref().map_or(0, |b| b.denied()),
            breaker_trips: state.breaker.as_ref().map_or(0, |b| b.trips()),
            truncated: state.truncated,
            latency: state.latency.clone(),
        }
    }

    /// Feed one attempt outcome to the breaker, emitting a
    /// `breaker.transition` event when its state changes.
    fn record_breaker_outcome(&self, state: &mut ResilientState, ok: bool) {
        let now = state.clock_us;
        #[expect(
            clippy::expect_used,
            reason = "structural: the constructor installs a breaker unconditionally; the Option only exists so the state struct can be built field by field"
        )]
        let breaker = state.breaker.as_mut().expect("breaker always present");
        let before = breaker.state();
        breaker.record(now, ok);
        let after = breaker.state();
        if after != before {
            self.tracer.event_with(
                "breaker.transition",
                vec![
                    ("from", breaker_state_name(before).to_string()),
                    ("to", breaker_state_name(after).to_string()),
                ],
            );
        }
    }

    /// Current breaker state (for tests and diagnostics).
    pub fn breaker_state(&self) -> BreakerState {
        self.lock_state()
            .breaker
            .as_ref()
            .map_or(BreakerState::Closed, |b| b.state())
    }
}

impl<B: KgBackend> KgBackend for ResilientBackend<B> {
    fn search_entities(
        &self,
        query: &str,
        top_k: usize,
        deadline: Deadline,
    ) -> Result<SearchOutcome, RetrievalError> {
        let mut guard = self.lock_state();
        guard.queries += 1;
        if let Some(budget) = guard.budget.as_mut() {
            budget.on_query();
        }
        let query_index = guard.queries - 1;
        let started_us = guard.clock_us;
        let mut attempt: u32 = 0;
        loop {
            let state = &mut *guard;
            let now = state.clock_us;
            #[expect(
                clippy::expect_used,
                reason = "same structural invariant as record_breaker_outcome: the breaker is always installed"
            )]
            let breaker = state.breaker.as_mut().expect("breaker always present");
            let before = breaker.state();
            let admitted = breaker.allow(now);
            let after = breaker.state();
            if after != before {
                self.tracer.event_with(
                    "breaker.transition",
                    vec![
                        ("from", breaker_state_name(before).to_string()),
                        ("to", breaker_state_name(after).to_string()),
                    ],
                );
            }
            if !admitted {
                let remaining = breaker.open_until_us().unwrap_or(now).saturating_sub(now);
                state.breaker_rejections += 1;
                state.failures += 1;
                self.tracer.event_with(
                    "breaker.reject",
                    vec![("cooldown_remaining_us", remaining.to_string())],
                );
                return Err(RetrievalError::CircuitOpen {
                    cooldown_remaining_us: remaining,
                });
            }
            let spent = state.clock_us - started_us;
            let remaining_budget = deadline.budget_us().saturating_sub(spent);
            let attempt_deadline =
                Deadline::from_us(self.config.attempt_budget_us.min(remaining_budget));
            // Release the state lock across the retrieval: the inner
            // backend may stall for the whole attempt budget, and sibling
            // callers must be able to admit, record, and trip the breaker
            // meanwhile. All bookkeeping below re-reads state after
            // re-acquiring.
            drop(guard);
            let result = self.inner.search_entities(query, top_k, attempt_deadline);
            guard = self.lock_state();
            let state = &mut *guard;
            match result {
                Ok(mut outcome) => {
                    state.clock_us += outcome.latency_us;
                    self.record_breaker_outcome(state, true);
                    state.successes += 1;
                    if outcome.truncated {
                        state.truncated += 1;
                    }
                    // Report the query's end-to-end latency, including
                    // failed attempts and backoff.
                    outcome.latency_us = state.clock_us - started_us;
                    state.latency.record(outcome.latency_us);
                    return Ok(outcome);
                }
                Err(error) => {
                    let cost = match &error {
                        RetrievalError::Timeout { budget_us, .. } => *budget_us,
                        _ => self.config.failure_cost_us,
                    };
                    state.clock_us += cost;
                    self.record_breaker_outcome(state, false);
                    let out_of_budget = state.clock_us - started_us >= deadline.budget_us();
                    let exhausted = attempt >= self.config.max_retries
                        || !error.is_retryable()
                        || out_of_budget;
                    // Only ask the retry budget to fund attempts the other
                    // gates would actually allow: a denial must mean "the
                    // budget stopped a retry", never double-count.
                    let budget_denied = !exhausted
                        && match state.budget.as_mut() {
                            Some(budget) => !budget.try_retry(),
                            None => false,
                        };
                    if budget_denied {
                        self.tracer.event_with(
                            "retrieval.retry_denied",
                            vec![
                                ("attempt", (attempt + 1).to_string()),
                                ("error", error.to_string()),
                            ],
                        );
                    }
                    if exhausted || budget_denied {
                        state.failures += 1;
                        return Err(if attempt == 0 {
                            error
                        } else {
                            RetrievalError::RetriesExhausted {
                                attempts: attempt + 1,
                                last: Box::new(error),
                            }
                        });
                    }
                    let jitter_draw = unit(mix(
                        self.config.seed,
                        query_index.wrapping_mul(31).wrapping_add(attempt as u64),
                    ));
                    let delay_us = backoff_delay_us(&self.config, attempt, jitter_draw);
                    state.clock_us += delay_us;
                    state.retries += 1;
                    attempt += 1;
                    self.tracer.event_with(
                        "retrieval.retry",
                        vec![
                            ("attempt", attempt.to_string()),
                            ("backoff_us", delay_us.to_string()),
                            ("error", error.to_string()),
                        ],
                    );
                }
            }
        }
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
        assert!(wrapped.latency_us >= 200, "healthy latency is injected");
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
    fn breaker_walks_closed_open_halfopen_closed() {
        let config = BreakerConfig {
            window: 8,
            min_samples: 4,
            failure_threshold: 0.5,
            cooldown_us: 1_000,
            halfopen_successes: 2,
        };
        let mut breaker = CircuitBreaker::new(config);
        assert_eq!(breaker.state(), BreakerState::Closed);
        for now in 0..4 {
            assert!(breaker.allow(now));
            breaker.record(now, false);
        }
        assert_eq!(breaker.state(), BreakerState::Open);
        assert_eq!(breaker.trips(), 1);
        assert!(!breaker.allow(500), "still cooling down");
        assert!(breaker.allow(4 + 1_000), "cooldown elapsed admits a probe");
        assert_eq!(breaker.state(), BreakerState::HalfOpen);
        breaker.record(1_100, true);
        breaker.record(1_200, true);
        assert_eq!(breaker.state(), BreakerState::Closed);
    }

    #[test]
    fn halfopen_failure_reopens() {
        let mut breaker = CircuitBreaker::new(BreakerConfig {
            window: 4,
            min_samples: 2,
            failure_threshold: 0.5,
            cooldown_us: 100,
            halfopen_successes: 1,
        });
        breaker.record(0, false);
        breaker.record(1, false);
        assert_eq!(breaker.state(), BreakerState::Open);
        assert!(breaker.allow(200));
        breaker.record(201, false);
        assert_eq!(breaker.state(), BreakerState::Open);
        assert_eq!(breaker.trips(), 2);
    }

    #[test]
    fn resilient_backend_retries_through_transients() {
        let s = searcher();
        // Transient faults at 40%: with 3 retries almost every query lands.
        let faulty = FaultyBackend::new(&s, FaultConfig::with_fault_rate(5, 0.4));
        let resilient = ResilientBackend::new(
            faulty,
            ResilienceConfig {
                attempt_budget_us: 100_000,
                ..ResilienceConfig::default()
            },
        );
        let mut ok = 0;
        for _ in 0..30 {
            if resilient
                .search_entities("Peter", 3, Deadline::UNBOUNDED)
                .is_ok()
            {
                ok += 1;
            }
        }
        let metrics = resilient.metrics();
        assert!(ok >= 25, "retries should absorb most faults, got {ok}/30");
        assert!(metrics.retries > 0);
        assert_eq!(metrics.queries, 30);
        assert_eq!(metrics.successes + metrics.failures, 30);
        assert!(metrics.latency_p99_us() >= metrics.latency_p50_us());
        assert_eq!(metrics.latency.count(), metrics.successes);
    }

    #[test]
    fn full_outage_trips_the_breaker_and_fails_fast() {
        let s = searcher();
        let faulty = FaultyBackend::new(&s, FaultConfig::with_fault_rate(9, 1.0));
        let resilient = ResilientBackend::new(faulty, ResilienceConfig::default());
        for _ in 0..40 {
            assert!(resilient
                .search_entities("Peter", 3, Deadline::UNBOUNDED)
                .is_err());
        }
        let metrics = resilient.metrics();
        assert_eq!(metrics.successes, 0);
        assert!(metrics.breaker_trips >= 1, "sustained failures must trip");
        assert!(
            metrics.breaker_rejections > 0,
            "open breaker must reject instead of hammering the backend"
        );
    }

    #[test]
    fn tracer_records_retry_and_breaker_events() {
        let s = searcher();
        let tracer = Tracer::enabled();
        let faulty = FaultyBackend::new(&s, FaultConfig::with_fault_rate(9, 1.0));
        let resilient =
            ResilientBackend::new(faulty, ResilienceConfig::default()).with_tracer(&tracer);
        for _ in 0..40 {
            let _ = resilient.search_entities("Peter", 3, Deadline::UNBOUNDED);
        }
        let metrics = resilient.metrics();
        assert_eq!(
            tracer.events_named("retrieval.retry").len() as u64,
            metrics.retries
        );
        assert_eq!(
            tracer.events_named("breaker.reject").len() as u64,
            metrics.breaker_rejections
        );
        let transitions = tracer.events_named("breaker.transition");
        assert!(
            !transitions.is_empty(),
            "a full outage must produce at least closed -> open"
        );
        assert_eq!(transitions[0].fields[0], ("from", "closed".to_string()));
        assert_eq!(transitions[0].fields[1], ("to", "open".to_string()));
    }

    #[test]
    fn retry_budget_caps_amplification_during_a_fault_burst() {
        let s = searcher();
        let run = |retry_budget: Option<RetryBudgetConfig>| {
            // Transient faults on every call: without a budget each query
            // burns max_retries + 1 attempts until the breaker trips.
            let faulty = FaultyBackend::new(&s, FaultConfig::with_fault_rate(13, 1.0));
            let resilient = ResilientBackend::new(
                faulty,
                ResilienceConfig {
                    retry_budget,
                    // Keep the breaker out of the way: this test isolates
                    // the budget's contribution.
                    breaker: BreakerConfig {
                        failure_threshold: 1.1,
                        ..BreakerConfig::default()
                    },
                    ..ResilienceConfig::default()
                },
            );
            for _ in 0..60 {
                let _ = resilient.search_entities("Peter", 3, Deadline::UNBOUNDED);
            }
            resilient.metrics()
        };
        let tight = RetryBudgetConfig {
            ratio: 0.1,
            cap: 5.0,
            initial: 5.0,
        };
        let budgeted = run(Some(tight.clone()));
        let unbudgeted = run(None);
        assert_eq!(unbudgeted.retry_budget_denied, 0);
        assert!(
            budgeted.retries < unbudgeted.retries,
            "the budget must cut retry volume: {} vs {}",
            budgeted.retries,
            unbudgeted.retries
        );
        assert!(budgeted.retry_budget_denied > 0);
        // The hard bound: lifetime retries <= initial + ratio * queries.
        let bound = tight.initial + tight.ratio * budgeted.queries as f64;
        assert!(
            (budgeted.retries as f64) <= bound,
            "{} retries exceed the budget bound {bound}",
            budgeted.retries
        );
        // Denials are terminal failures, not silent drops.
        assert_eq!(budgeted.successes, 0);
        assert_eq!(budgeted.failures, budgeted.queries);
    }

    #[test]
    fn backoff_is_monotone_and_capped() {
        let config = ResilienceConfig::default();
        let mut last = 0;
        for attempt in 0..12 {
            let delay = backoff_delay_us(&config, attempt, 0.7);
            assert!(delay >= last);
            assert!(delay <= config.backoff_cap_us);
            last = delay;
        }
    }

    #[test]
    fn clock_advances_with_latency_and_backoff() {
        let s = searcher();
        let resilient = ResilientBackend::new(
            FaultyBackend::new(&s, FaultConfig::healthy(1)),
            ResilienceConfig::default(),
        );
        assert_eq!(resilient.clock_us(), 0);
        resilient
            .search_entities("Peter", 3, Deadline::UNBOUNDED)
            .unwrap();
        let after_one = resilient.clock_us();
        assert!(after_one >= 200, "healthy latency advances the clock");
        resilient
            .search_entities("Anna", 3, Deadline::UNBOUNDED)
            .unwrap();
        assert!(resilient.clock_us() > after_one);
    }
}
