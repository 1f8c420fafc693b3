//! Overload control: one controller turns each request's queue sojourn
//! into an admission limit and a degradation rung.
//!
//! The static `queue_capacity` of [`BoundedQueue`](crate::BoundedQueue)
//! protects memory, but it is a terrible *latency* bound: a queue sized
//! for burst absorption holds seconds of work once arrival rate exceeds
//! service rate, and every admitted request then blows its deadline —
//! goodput collapses while the queue stays proudly "bounded".
//! [`OverloadControl`] closes the loop on the sojourn (enqueue → pickup)
//! of every dequeued request, spending two currencies on the same signal:
//!
//! * **Requests** — an AIMD admission limit over CoDel's congestion
//!   signal. Each count-based window tracks the *minimum* sojourn: a
//!   burst leaves some request fast, a standing queue keeps even the
//!   luckiest one waiting, so a window minimum above target is
//!   unambiguous congestion. A congested window multiplies the limit down
//!   (default halve); a healthy one adds a constant. The cut reacts in one
//!   window to any overload magnitude; the additive probe recovers slowly
//!   enough not to re-trigger.
//! * **Quality** — the three-rung [`DegradationRung`] ladder: full
//!   retrieval → cache-only (stored hits; a miss degrades its column
//!   without touching the backend) → no linkage (the paper's pure-PLM
//!   ablation path, Table IV). *Escalation is immediate* (by the time a
//!   standing queue is visible the service is already late), while
//!   *de-escalation waits for `hysteresis` consecutive healthy
//!   observations and steps down one rung at a time*. Without that
//!   asymmetry the ladder would flap: one cheap no-linkage request makes
//!   the queue look healthy, which re-enables full retrieval, which
//!   rebuilds the queue.
//!
//! The controller is a pure state machine: no clocks, no threads, no
//! locks. Its callers apply each [`Step`]: the service's workers (under
//! one mutex) and `exp_overload`'s simulation both resize a
//! `BoundedQueue`'s limit and trim it when the limit fell.

use kglink_core::DegradationRung;

/// Overload-protection wiring for
/// [`ServiceConfig::overload`](crate::ServiceConfig::overload). `None`
/// there (the default) preserves the static behavior: admission at full
/// `queue_capacity`, every request served at rung 0.
#[derive(Debug, Clone, Default)]
pub struct OverloadConfig {
    /// AIMD admission limit driven by queue-sojourn congestion detection.
    pub aimd: AimdConfig,
    /// Hysteretic rung selection for the degradation ladder.
    pub brownout: BrownoutConfig,
}

/// Tuning for the admission limit of an [`OverloadControl`].
#[derive(Debug, Clone)]
pub struct AimdConfig {
    /// Lower clamp for the limit. Never below 1: the queue must always
    /// admit *something* or the controller can never observe recovery.
    pub min_limit: usize,
    /// Upper clamp for the limit (the uncongested steady state).
    pub max_limit: usize,
    /// Additive increase applied after each healthy window.
    pub increase: usize,
    /// Multiplicative decrease factor in `(0, 1)` applied on congestion.
    pub decrease_factor: f64,
    /// Sojourn target, microseconds: a window whose *minimum* sojourn
    /// exceeds this is congested (the CoDel standing-queue test).
    pub target_sojourn_us: u64,
    /// Observations per control window.
    pub window: usize,
}

impl Default for AimdConfig {
    fn default() -> Self {
        AimdConfig {
            min_limit: 2,
            max_limit: 64,
            increase: 2,
            decrease_factor: 0.5,
            target_sojourn_us: 20_000,
            window: 16,
        }
    }
}

/// Tuning for the degradation ladder of an [`OverloadControl`].
#[derive(Debug, Clone)]
pub struct BrownoutConfig {
    /// Sojourn (µs) at or above which requests are served at rung 1
    /// (cache-only) or worse.
    pub enter_cache_only_us: u64,
    /// Sojourn (µs) at or above which requests are served at rung 2
    /// (no linkage).
    pub enter_no_linkage_us: u64,
    /// Sojourn (µs) strictly below which an observation counts as
    /// healthy. `0` disables de-escalation entirely (useful to pin a rung
    /// in tests and experiments).
    pub exit_us: u64,
    /// Consecutive healthy observations required to step *down* one rung.
    pub hysteresis: u32,
}

impl Default for BrownoutConfig {
    fn default() -> Self {
        BrownoutConfig {
            enter_cache_only_us: 40_000,
            enter_no_linkage_us: 120_000,
            exit_us: 10_000,
            hysteresis: 8,
        }
    }
}

impl BrownoutConfig {
    /// A config pinned at `rung`: every request is served there, and the
    /// controller never de-escalates. Used by tests and `exp_overload` to
    /// prove degraded outputs bit-identical to their baselines.
    pub fn pinned(rung: DegradationRung) -> Self {
        let threshold = |r: DegradationRung| if rung >= r { 0 } else { u64::MAX };
        BrownoutConfig {
            enter_cache_only_us: threshold(DegradationRung::CacheOnly),
            enter_no_linkage_us: threshold(DegradationRung::NoLinkage),
            exit_us: 0,
            hysteresis: u32::MAX,
        }
    }
}

/// What one observation decided; the caller applies it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Step {
    /// The rung to serve the observed request at.
    pub rung: DegradationRung,
    /// The new admission limit, present exactly when this observation
    /// closed a window that changed it.
    pub limit: Option<usize>,
}

/// The overload controller; feed it one [`observe`](Self::observe) per
/// dequeued request.
#[derive(Debug, Clone)]
pub struct OverloadControl {
    config: OverloadConfig,
    limit: usize,
    window_min_us: u64,
    seen: usize,
    rung: DegradationRung,
    healthy_streak: u32,
}

impl OverloadControl {
    /// Start optimistic: at `max_limit` and rung 0. Panics on a
    /// nonsensical config (zero-size window, inverted clamps, decrease
    /// factor outside `(0, 1)`, rung thresholds where a *worse* signal
    /// selects a *better* rung): these are construction-time programming
    /// errors, not runtime conditions.
    pub fn new(config: OverloadConfig) -> Self {
        let aimd = &config.aimd;
        assert!(aimd.min_limit >= 1, "min_limit must be at least 1");
        assert!(
            aimd.min_limit <= aimd.max_limit,
            "min_limit must not exceed max_limit"
        );
        assert!(
            aimd.decrease_factor > 0.0 && aimd.decrease_factor < 1.0,
            "decrease_factor must be in (0, 1)"
        );
        assert!(aimd.window >= 1, "window must be at least 1");
        assert!(
            config.brownout.enter_cache_only_us <= config.brownout.enter_no_linkage_us,
            "rung thresholds must be monotone"
        );
        OverloadControl {
            limit: aimd.max_limit,
            config,
            window_min_us: u64::MAX,
            seen: 0,
            rung: DegradationRung::Full,
            healthy_streak: 0,
        }
    }

    /// The current admission limit, always within `[min_limit, max_limit]`.
    pub fn limit(&self) -> usize {
        self.limit
    }

    /// The rung new requests are currently served at.
    pub fn rung(&self) -> DegradationRung {
        self.rung
    }

    /// Record one request's queue sojourn: close the admission window
    /// every `window`-th call, and pick the rung to serve *this* request at.
    pub fn observe(&mut self, sojourn_us: u64) -> Step {
        let before = self.limit;
        self.observe_window(sojourn_us);
        Step {
            rung: self.observe_rung(sojourn_us),
            limit: (self.limit != before).then_some(self.limit),
        }
    }

    fn observe_window(&mut self, sojourn_us: u64) {
        let aimd = &self.config.aimd;
        self.window_min_us = self.window_min_us.min(sojourn_us);
        self.seen += 1;
        if self.seen < aimd.window {
            return;
        }
        self.limit = if self.window_min_us > aimd.target_sojourn_us {
            // Even the fastest request of the window waited too long: a
            // standing queue, not a burst. Cut multiplicatively.
            ((self.limit as f64 * aimd.decrease_factor) as usize).max(aimd.min_limit)
        } else {
            self.limit.saturating_add(aimd.increase).min(aimd.max_limit)
        };
        self.window_min_us = u64::MAX;
        self.seen = 0;
    }

    /// Escalate immediately to whatever rung the signal demands; step
    /// down one rung after `hysteresis` consecutive healthy observations.
    fn observe_rung(&mut self, sojourn_us: u64) -> DegradationRung {
        let ladder = &self.config.brownout;
        let demanded = if sojourn_us >= ladder.enter_no_linkage_us {
            DegradationRung::NoLinkage
        } else if sojourn_us >= ladder.enter_cache_only_us {
            DegradationRung::CacheOnly
        } else {
            DegradationRung::Full
        };
        if demanded > self.rung {
            self.rung = demanded;
            self.healthy_streak = 0;
        } else if sojourn_us < ladder.exit_us {
            self.healthy_streak += 1;
            if self.healthy_streak >= ladder.hysteresis {
                self.rung = DegradationRung::from_level(self.rung.level().saturating_sub(1));
                self.healthy_streak = 0;
            }
        } else {
            self.healthy_streak = 0;
        }
        self.rung
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Admission tests: a ladder that never leaves rung 0.
    fn admission(aimd: AimdConfig) -> OverloadControl {
        OverloadControl::new(OverloadConfig {
            aimd,
            brownout: BrownoutConfig::pinned(DegradationRung::Full),
        })
    }

    fn aimd_config() -> AimdConfig {
        AimdConfig {
            min_limit: 2,
            max_limit: 32,
            increase: 2,
            decrease_factor: 0.5,
            target_sojourn_us: 1_000,
            window: 4,
        }
    }

    /// Ladder tests: the default admission half.
    fn ladder(brownout: BrownoutConfig) -> OverloadControl {
        OverloadControl::new(OverloadConfig {
            brownout,
            ..OverloadConfig::default()
        })
    }

    fn brownout_config() -> BrownoutConfig {
        BrownoutConfig {
            enter_cache_only_us: 1_000,
            enter_no_linkage_us: 5_000,
            exit_us: 500,
            hysteresis: 3,
        }
    }

    #[test]
    fn congested_windows_halve_and_healthy_windows_probe_up() {
        let mut c = admission(aimd_config());
        assert_eq!(c.limit(), 32);
        // Three observations do not close the window.
        for _ in 0..3 {
            assert_eq!(c.observe(5_000).limit, None);
        }
        assert_eq!(c.observe(5_000).limit, Some(16));
        assert_eq!(c.limit(), 16);
        for _ in 0..4 {
            c.observe(5_000);
        }
        assert_eq!(c.limit(), 8);
        // Recovery is additive: one healthy window adds `increase`.
        for _ in 0..4 {
            c.observe(100);
        }
        assert_eq!(c.limit(), 10);
    }

    #[test]
    fn one_fast_request_in_the_window_vetoes_congestion() {
        // The CoDel property: a burst (some slow sojourns) with one fast
        // pickup is not a standing queue.
        let mut c = admission(aimd_config());
        c.observe(50_000);
        c.observe(50_000);
        c.observe(10); // the burst drained for at least one request
        assert_eq!(c.observe(50_000).limit, None, "healthy at max_limit");
        assert_eq!(c.limit(), 32, "already at max_limit");
    }

    #[test]
    fn limit_clamps_to_min_under_sustained_congestion() {
        let mut c = admission(aimd_config());
        for _ in 0..100 {
            c.observe(1_000_000);
        }
        assert_eq!(c.limit(), 2);
        // And recovers to max under sustained health.
        for _ in 0..100 {
            c.observe(0);
        }
        assert_eq!(c.limit(), 32);
    }

    #[test]
    #[should_panic(expected = "decrease_factor")]
    fn rejects_degenerate_decrease_factor() {
        admission(AimdConfig {
            decrease_factor: 1.0,
            ..aimd_config()
        });
    }

    #[test]
    fn escalation_is_immediate_and_de_escalation_is_hysteretic() {
        let mut c = ladder(brownout_config());
        assert_eq!(c.rung(), DegradationRung::Full);
        let mut rung = |sojourn_us| c.observe(sojourn_us).rung;
        assert_eq!(rung(2_000), DegradationRung::CacheOnly);
        assert_eq!(rung(10_000), DegradationRung::NoLinkage);
        // Two healthy observations are not enough.
        assert_eq!(rung(0), DegradationRung::NoLinkage);
        assert_eq!(rung(0), DegradationRung::NoLinkage);
        // The third steps down exactly one rung.
        assert_eq!(rung(0), DegradationRung::CacheOnly);
        // An unhealthy (but sub-threshold) observation resets the streak.
        assert_eq!(rung(2), DegradationRung::CacheOnly);
        assert_eq!(rung(2), DegradationRung::CacheOnly);
        assert_eq!(rung(700), DegradationRung::CacheOnly);
        for _ in 0..3 {
            rung(0);
        }
        assert_eq!(c.rung(), DegradationRung::Full);
    }

    #[test]
    fn escalation_jumps_straight_to_the_demanded_rung() {
        let mut c = ladder(brownout_config());
        assert_eq!(c.observe(1_000_000).rung, DegradationRung::NoLinkage);
    }

    #[test]
    fn pinned_config_never_de_escalates() {
        let mut c = ladder(BrownoutConfig::pinned(DegradationRung::NoLinkage));
        for _ in 0..1_000 {
            assert_eq!(c.observe(0).rung, DegradationRung::NoLinkage);
        }
        let mut cache_only = ladder(BrownoutConfig::pinned(DegradationRung::CacheOnly));
        for _ in 0..10 {
            assert_eq!(cache_only.observe(0).rung, DegradationRung::CacheOnly);
        }
        let mut full = ladder(BrownoutConfig::pinned(DegradationRung::Full));
        assert_eq!(full.observe(1 << 62).rung, DegradationRung::Full);
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn rejects_inverted_thresholds() {
        ladder(BrownoutConfig {
            enter_cache_only_us: 10,
            enter_no_linkage_us: 5,
            ..brownout_config()
        });
    }
}
