//! Property tests for the overload controller: the admission limit stays
//! inside its clamps and cuts multiplicatively on congestion, a step
//! reports a new limit exactly when the limit changed, and the ladder is
//! monotone — rising load never selects a *less* degraded rung until the
//! hysteresis window has actually elapsed.

use kglink_core::DegradationRung;
use kglink_serve::{AimdConfig, BrownoutConfig, OverloadConfig, OverloadControl};
use proptest::prelude::*;

/// A controller whose ladder never leaves rung 0, for admission properties.
fn admission(aimd: AimdConfig) -> OverloadControl {
    OverloadControl::new(OverloadConfig {
        aimd,
        brownout: BrownoutConfig::pinned(DegradationRung::Full),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    // For any observation sequence and any sane config, the limit never
    // leaves [min_limit, max_limit].
    #[test]
    fn aimd_limit_stays_within_clamps(
        sojourns in proptest::collection::vec(0u64..1_000_000, 1..200),
        min_limit in 1usize..8,
        extra in 0usize..64,
        increase in 1usize..8,
        window in 1usize..12,
        target in 1u64..100_000,
    ) {
        let max_limit = min_limit + extra;
        let mut control = admission(AimdConfig {
            min_limit,
            max_limit,
            increase,
            decrease_factor: 0.5,
            target_sojourn_us: target,
            window,
        });
        for s in sojourns {
            control.observe(s);
            prop_assert!(control.limit() >= min_limit && control.limit() <= max_limit,
                "limit {} escaped [{}, {}]", control.limit(), min_limit, max_limit);
        }
    }

    // Every congested window cuts the limit by the decrease factor (down
    // to the clamp); every healthy window raises it by at most `increase`.
    // The window bookkeeping is replayed here: every `window`-th
    // observation closes one, and its minimum sojourn is its verdict.
    #[test]
    fn aimd_congestion_halves_and_health_probes_additively(
        sojourns in proptest::collection::vec(0u64..1_000_000, 1..200),
        window in 1usize..12,
    ) {
        let config = AimdConfig {
            min_limit: 2,
            max_limit: 64,
            increase: 2,
            decrease_factor: 0.5,
            target_sojourn_us: 20_000,
            window,
        };
        let mut control = admission(config.clone());
        let (mut seen, mut window_min) = (0, u64::MAX);
        for s in sojourns {
            let before = control.limit();
            control.observe(s);
            seen += 1;
            window_min = window_min.min(s);
            if seen < window {
                prop_assert_eq!(control.limit(), before, "limit moved mid-window");
            } else if window_min > config.target_sojourn_us {
                let expected = ((before as f64 * config.decrease_factor) as usize)
                    .max(config.min_limit);
                prop_assert_eq!(control.limit(), expected);
            } else {
                let expected = (before + config.increase).min(config.max_limit);
                prop_assert_eq!(control.limit(), expected);
            }
            if seen == window {
                (seen, window_min) = (0, u64::MAX);
            }
        }
    }

    // A step carries a new limit if and only if the limit changed, and
    // then it carries the controller's new limit.
    #[test]
    fn a_step_reports_a_new_limit_iff_the_limit_changed(
        sojourns in proptest::collection::vec(0u64..100_000, 1..200),
        max_limit in 2usize..16,
        window in 1usize..6,
    ) {
        let mut control = admission(AimdConfig {
            min_limit: 1,
            max_limit,
            target_sojourn_us: 20_000,
            window,
            ..AimdConfig::default()
        });
        for s in sojourns {
            let before = control.limit();
            let step = control.observe(s);
            let changed = control.limit() != before;
            prop_assert_eq!(step.limit, changed.then_some(control.limit()));
        }
    }

    // Ladder monotonicity: the served rung never drops below what the
    // current observation demands, and it only ever steps *down* after
    // `hysteresis` consecutive healthy observations — never sooner.
    #[test]
    fn brownout_ladder_is_monotone_under_load(
        sojourns in proptest::collection::vec(0u64..300_000, 1..300),
        hysteresis in 1u32..10,
    ) {
        let config = BrownoutConfig {
            enter_cache_only_us: 40_000,
            enter_no_linkage_us: 120_000,
            exit_us: 10_000,
            hysteresis,
        };
        let mut control = OverloadControl::new(OverloadConfig {
            brownout: config.clone(),
            ..OverloadConfig::default()
        });
        let mut previous = control.rung();
        let mut healthy_streak = 0u32;
        for s in sojourns {
            let demanded = if s >= config.enter_no_linkage_us {
                DegradationRung::NoLinkage
            } else if s >= config.enter_cache_only_us {
                DegradationRung::CacheOnly
            } else {
                DegradationRung::Full
            };
            let rung = control.observe(s).rung;
            // Never serve better than the signal demands.
            prop_assert!(rung >= demanded,
                "sojourn {} demanded {:?} but controller served {:?}", s, demanded, rung);
            // De-escalation is one rung at a time and only after the
            // streak: without `hysteresis` consecutive healthy
            // observations the rung must not improve.
            if rung < previous {
                prop_assert_eq!(rung.level(), previous.level() - 1, "skipped a rung down");
                prop_assert!(healthy_streak + 1 >= hysteresis,
                    "stepped down after only {} healthy observations", healthy_streak + 1);
            }
            if s < config.exit_us && demanded <= previous {
                healthy_streak += 1;
            } else {
                healthy_streak = 0;
            }
            if rung < previous {
                healthy_streak = 0;
            }
            previous = rung;
        }
    }
}
