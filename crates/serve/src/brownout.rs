//! The graceful-degradation ladder: shed quality before shedding requests.
//!
//! Under overload a service has two currencies to spend: requests and
//! quality. The admission controller ([`crate::admission`]) spends
//! requests — it rejects or sheds. [`BrownoutController`] spends quality
//! first, walking the three-rung [`DegradationRung`] ladder per request:
//! full retrieval → cache-only (stored hits; a miss degrades its column
//! without touching the backend) → no linkage (the paper's pure-PLM
//! ablation path, Table IV). The rungs are states of the one backend view
//! in `retrieval.rs`, not backend types.
//!
//! Rung selection is hysteretic and asymmetric by design: *escalation is
//! immediate* (one over-threshold sojourn observation is enough — by the
//! time a standing queue is visible the service is already late), while
//! *de-escalation requires `hysteresis` consecutive healthy observations
//! and steps down one rung at a time*. Without that asymmetry the
//! controller would flap: serving one cheap no-linkage request makes the
//! queue look healthy, which re-enables full retrieval, which rebuilds
//! the queue.

use crate::error::ServiceError;
use crate::queue::BoundedQueue;
use crate::service::Request;
use kglink_core::DegradationRung;
use kglink_obs::Tracer;

/// Tuning for a [`BrownoutController`].
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

/// Hysteretic rung selector; feed it one sojourn observation per request.
#[derive(Debug, Clone)]
pub struct BrownoutController {
    config: BrownoutConfig,
    rung: DegradationRung,
    healthy_streak: u32,
}

impl BrownoutController {
    /// Start at rung 0. Panics if the thresholds are not monotone
    /// (`enter_cache_only_us <= enter_no_linkage_us`) — a config where a
    /// *worse* signal selects a *better* rung is a programming error.
    pub fn new(config: BrownoutConfig) -> Self {
        assert!(
            config.enter_cache_only_us <= config.enter_no_linkage_us,
            "rung thresholds must be monotone"
        );
        BrownoutController {
            config,
            rung: DegradationRung::Full,
            healthy_streak: 0,
        }
    }

    /// The rung new requests are currently served at.
    pub fn rung(&self) -> DegradationRung {
        self.rung
    }

    pub fn config(&self) -> &BrownoutConfig {
        &self.config
    }

    /// Record one request's queue sojourn and return the rung to serve
    /// *this* request at. Escalates immediately to whatever rung the
    /// signal demands (never skipping past it downward); de-escalates one
    /// rung after `hysteresis` consecutive healthy observations.
    pub fn observe(&mut self, sojourn_us: u64) -> DegradationRung {
        let demanded = if sojourn_us >= self.config.enter_no_linkage_us {
            DegradationRung::NoLinkage
        } else if sojourn_us >= self.config.enter_cache_only_us {
            DegradationRung::CacheOnly
        } else {
            DegradationRung::Full
        };
        if demanded > self.rung {
            self.rung = demanded;
            self.healthy_streak = 0;
        } else if sojourn_us < self.config.exit_us {
            self.healthy_streak += 1;
            if self.healthy_streak >= self.config.hysteresis {
                self.rung = DegradationRung::from_level(self.rung.level().saturating_sub(1));
                self.healthy_streak = 0;
            }
        } else {
            self.healthy_streak = 0;
        }
        self.rung
    }
}

/// Resolve one shed request promptly with the typed error: the submitter
/// unblocks *now* with [`ServiceError::Shed`], not at some later drop.
/// Every eviction path (`ShedOldest` admission and admission-limit trims)
/// routes through here so the accounting can never diverge.
pub(crate) fn resolve_shed(
    victim: Request,
    shed_counter: &std::sync::atomic::AtomicU64,
    tracer: &Tracer,
) {
    shed_counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    tracer.incr("serve.shed", 1);
    let _ = victim.reply.send(Err(ServiceError::Shed));
}

/// Shrink `queue` to its current dynamic limit, failing each evicted
/// request promptly via [`resolve_shed`]. Called by workers right after
/// the admission controller cuts the limit.
pub(crate) fn trim_queue_to_limit<H: Clone>(
    queue: &BoundedQueue<Request, H>,
    shed_counter: &std::sync::atomic::AtomicU64,
    tracer: &Tracer,
) -> usize {
    let victims = queue.trim_to_limit();
    let n = victims.len();
    for victim in victims {
        resolve_shed(victim, shed_counter, tracer);
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> BrownoutConfig {
        BrownoutConfig {
            enter_cache_only_us: 1_000,
            enter_no_linkage_us: 5_000,
            exit_us: 500,
            hysteresis: 3,
        }
    }

    #[test]
    fn escalation_is_immediate_and_de_escalation_is_hysteretic() {
        let mut b = BrownoutController::new(config());
        assert_eq!(b.rung(), DegradationRung::Full);
        assert_eq!(b.observe(2_000), DegradationRung::CacheOnly);
        assert_eq!(b.observe(10_000), DegradationRung::NoLinkage);
        // Two healthy observations are not enough.
        assert_eq!(b.observe(0), DegradationRung::NoLinkage);
        assert_eq!(b.observe(0), DegradationRung::NoLinkage);
        // The third steps down exactly one rung.
        assert_eq!(b.observe(0), DegradationRung::CacheOnly);
        // An unhealthy (but sub-threshold) observation resets the streak.
        assert_eq!(b.observe(2), DegradationRung::CacheOnly);
        assert_eq!(b.observe(2), DegradationRung::CacheOnly);
        assert_eq!(b.observe(700), DegradationRung::CacheOnly);
        for _ in 0..3 {
            b.observe(0);
        }
        assert_eq!(b.rung(), DegradationRung::Full);
    }

    #[test]
    fn escalation_jumps_straight_to_the_demanded_rung() {
        let mut b = BrownoutController::new(config());
        assert_eq!(b.observe(1_000_000), DegradationRung::NoLinkage);
    }

    #[test]
    fn pinned_config_never_de_escalates() {
        let mut b = BrownoutController::new(BrownoutConfig::pinned(DegradationRung::NoLinkage));
        for _ in 0..1_000 {
            assert_eq!(b.observe(0), DegradationRung::NoLinkage);
        }
        let mut cache_only =
            BrownoutController::new(BrownoutConfig::pinned(DegradationRung::CacheOnly));
        for _ in 0..10 {
            assert_eq!(cache_only.observe(0), DegradationRung::CacheOnly);
        }
        let mut full = BrownoutController::new(BrownoutConfig::pinned(DegradationRung::Full));
        assert_eq!(full.observe(1 << 62), DegradationRung::Full);
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn rejects_inverted_thresholds() {
        BrownoutController::new(BrownoutConfig {
            enter_cache_only_us: 10,
            enter_no_linkage_us: 5,
            ..config()
        });
    }
}
