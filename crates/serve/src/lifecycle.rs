//! Model lifecycle: versioned epochs, shadow evaluation, swap state.
//!
//! The serving layer never holds a bare model. It holds one mutex-guarded
//! slot (the std-only stand-in for an `ArcSwap`) with the serving
//! [`ModelEpoch`] and, while a swap is in its shadow or watch phase, the
//! comparison window over another epoch. A worker reads the slot **once
//! per request**, in one statement, so a promote lands between requests:
//! every request is served end-to-end by exactly one epoch, nobody ever
//! observes a torn model, and no request is compared in a window over the
//! epoch serving it. In-place mutation of a live epoch is a lint error
//! (`epoch-hold`); the only way weights change is a whole new epoch
//! through [`AnnotationService::swap_model`].
//!
//! A swap walks a four-phase state machine (DESIGN.md §15):
//!
//! ```text
//! prepare ──► shadow ──► promote ──► watch ──► committed
//!    │           │                     │
//!    └ reject    └ reject              └ automatic rollback
//!      (service untouched)               (prior epoch reinstalled)
//! ```
//!
//! - **prepare**: the candidate is self-checked on held-out probe tables
//!   against the active epoch — wrong label space, panics, or a probe
//!   flip rate above the gate reject it before it sees any traffic.
//! - **shadow**: every live request is *duplicated* against the
//!   candidate inside the worker (no user-visible output); label flips
//!   and per-version latency feed the verdict.
//! - **promote**: one store puts the candidate in the slot together with
//!   the watch window over the prior epoch.
//! - **watch**: the divergence guard keeps duplicating live traffic
//!   against the *prior* epoch; a label-flip rate past the gate triggers
//!   an automatic rollback (`model.rollback` tracer event), bounded by a
//!   rollback budget that fails closed: once spent, further swaps are
//!   refused outright and the service keeps serving the last-known-good
//!   epoch.
//!
//! [`AnnotationService::swap_model`]: crate::AnnotationService::swap_model

use kglink_core::{FeatureMemo, KgLink};
use kglink_obs::Histogram;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// One immutable generation of the serving model. Workers treat the model
/// as read-only; retiring an epoch is dropping the last `Arc`.
pub struct ModelEpoch {
    /// Registry-assigned (or caller-assigned) version id.
    pub version: u64,
    /// The trained pipeline this epoch serves with.
    pub model: Arc<KgLink>,
    /// Feature rows `model` has encoded, by token ids. A row is only valid
    /// for the weights that computed it, so the memo is born and retired
    /// with its epoch: promote and rollback swap it with the model, and no
    /// invalidation is ever needed.
    pub feature_memo: FeatureMemo,
}

impl ModelEpoch {
    pub fn new(version: u64, model: Arc<KgLink>) -> Self {
        ModelEpoch {
            version,
            model,
            feature_memo: FeatureMemo::new(),
        }
    }
}

/// Live comparison window: while installed, workers duplicate every
/// request against `epoch` (the candidate during shadow, the prior epoch
/// during watch) and record divergence + latency here.
pub(crate) struct ShadowState {
    /// The epoch requests are duplicated against.
    pub epoch: Arc<ModelEpoch>,
    /// Requests compared so far.
    pub compared: AtomicU64,
    /// Requests whose label vector differed (or whose duplicate panicked).
    pub flips: AtomicU64,
    /// Columns that flipped, across all compared requests.
    pub flipped_columns: AtomicU64,
    /// Columns compared in total.
    pub compared_columns: AtomicU64,
    /// Annotate-only latency of the duplicated (shadow) run.
    pub shadow_latency: Mutex<Histogram>,
    /// Annotate-only latency of the primary run over the same window.
    pub primary_latency: Mutex<Histogram>,
}

impl ShadowState {
    pub(crate) fn new(epoch: Arc<ModelEpoch>) -> Self {
        ShadowState {
            epoch,
            compared: AtomicU64::new(0),
            flips: AtomicU64::new(0),
            flipped_columns: AtomicU64::new(0),
            compared_columns: AtomicU64::new(0),
            shadow_latency: Mutex::new(Histogram::new()),
            primary_latency: Mutex::new(Histogram::new()),
        }
    }

    pub(crate) fn flip_rate(&self) -> f64 {
        let compared = self.compared.load(Ordering::SeqCst);
        if compared == 0 {
            return 0.0;
        }
        self.flips.load(Ordering::SeqCst) as f64 / compared as f64
    }

    pub(crate) fn shadow_p99(&self) -> u64 {
        self.shadow_latency
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .p99()
    }

    pub(crate) fn primary_p99(&self) -> u64 {
        self.primary_latency
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .p99()
    }
}

/// Per-version serving statistics, keyed by epoch version.
#[derive(Clone)]
pub struct VersionStats {
    /// Requests completed while this version was the serving epoch.
    pub served: u64,
    /// End-to-end latency histogram of those requests.
    pub latency: Histogram,
}

/// What a worker serves one request with: the serving epoch and, during a
/// swap's shadow or watch phase, the window comparing it against another
/// epoch. Both live in one slot and change in one store.
#[derive(Clone)]
pub(crate) struct Serving {
    pub epoch: Arc<ModelEpoch>,
    pub window: Option<Arc<ShadowState>>,
}

/// Shared lifecycle state: the serving slot and the swap/rollback
/// accounting `metrics()` publishes.
pub(crate) struct Lifecycle {
    epoch: Mutex<Serving>,
    pub swaps: AtomicU64,
    pub rollbacks: AtomicU64,
    /// Rollbacks remaining before the lifecycle fails closed.
    pub rollback_budget_left: AtomicUsize,
    /// Latched once the budget is spent: no further swaps, ever.
    pub exhausted: AtomicBool,
    /// One swap at a time; a second concurrent `swap_model` is refused.
    pub swap_in_progress: AtomicBool,
    per_version: Mutex<BTreeMap<u64, VersionStats>>,
}

impl Lifecycle {
    pub(crate) fn new(initial: ModelEpoch, rollback_budget: usize) -> Self {
        Lifecycle {
            epoch: Mutex::new(Serving {
                epoch: Arc::new(initial),
                window: None,
            }),
            swaps: AtomicU64::new(0),
            rollbacks: AtomicU64::new(0),
            rollback_budget_left: AtomicUsize::new(rollback_budget),
            exhausted: AtomicBool::new(false),
            swap_in_progress: AtomicBool::new(false),
            per_version: Mutex::new(BTreeMap::new()),
        }
    }

    /// The slot, cloned out in one statement. Workers call this once per
    /// request.
    pub(crate) fn serving(&self) -> Serving {
        self.epoch
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// The serving epoch alone.
    pub(crate) fn current(&self) -> Arc<ModelEpoch> {
        self.serving().epoch
    }

    /// Replace the serving epoch and its window in one store; returns the
    /// epoch displaced. Promote (with or without a watch window) and
    /// rollback go through here.
    pub(crate) fn install(
        &self,
        epoch: Arc<ModelEpoch>,
        window: Option<Arc<ShadowState>>,
    ) -> Arc<ModelEpoch> {
        let mut slot = self.epoch.lock().unwrap_or_else(PoisonError::into_inner);
        std::mem::replace(&mut *slot, Serving { epoch, window }).epoch
    }

    /// Open or clear the comparison window; the serving epoch stays.
    pub(crate) fn set_window(&self, window: Option<Arc<ShadowState>>) {
        self.epoch
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .window = window;
    }

    /// Record one completion against the epoch that served it.
    pub(crate) fn record_served(&self, version: u64, total_us: u64) {
        let mut map = self
            .per_version
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let entry = map.entry(version).or_insert_with(|| VersionStats {
            served: 0,
            latency: Histogram::new(),
        });
        entry.served += 1;
        entry.latency.record(total_us);
    }

    /// Every completion's latency: the merge of the per-version histograms.
    pub(crate) fn served_latency(&self) -> Histogram {
        let map = self
            .per_version
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let mut merged = Histogram::new();
        for stats in map.values() {
            merged.merge_from(&stats.latency);
        }
        merged
    }

    /// Snapshot of per-version serving stats.
    pub(crate) fn version_stats(&self) -> BTreeMap<u64, VersionStats> {
        self.per_version
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

/// Tuning for one [`swap_model`](crate::AnnotationService::swap_model)
/// run. Defaults are deliberately conservative; experiments loosen gates
/// they intend to trip.
#[derive(Clone)]
pub struct SwapPlan {
    /// Held-out tables the candidate must annotate sanely (against the
    /// active epoch) before it may shadow live traffic. Empty skips the
    /// probe comparison (the label-space check still runs).
    pub probe_tables: Vec<kglink_table::Table>,
    /// Max fraction of probe *columns* allowed to flip at prepare.
    pub prepare_max_flip_rate: f64,
    /// Shadow completions required before the verdict; `0` skips the
    /// shadow phase entirely (promote directly after prepare).
    pub shadow_min_requests: u64,
    /// Max fraction of shadowed requests whose labels may differ.
    pub shadow_max_flip_rate: f64,
    /// Watch comparisons required before the guard clears; `0` skips the
    /// watch phase (promote is final immediately).
    pub watch_min_requests: u64,
    /// Max fraction of watched requests whose labels may differ from the
    /// prior epoch before the divergence guard rolls back.
    pub watch_max_flip_rate: f64,
    /// Max real time to wait for shadow/watch traffic before the phase is
    /// decided on whatever it has seen (a starved shadow rejects).
    pub phase_timeout: Duration,
}

impl Default for SwapPlan {
    fn default() -> Self {
        SwapPlan {
            probe_tables: Vec::new(),
            prepare_max_flip_rate: 0.10,
            shadow_min_requests: 16,
            shadow_max_flip_rate: 0.10,
            watch_min_requests: 16,
            watch_max_flip_rate: 0.10,
            phase_timeout: Duration::from_secs(10),
        }
    }
}

/// Which phase of the state machine produced a verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwapPhase {
    Prepare,
    Shadow,
    Promote,
    Watch,
}

impl fmt::Display for SwapPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SwapPhase::Prepare => write!(f, "prepare"),
            SwapPhase::Shadow => write!(f, "shadow"),
            SwapPhase::Promote => write!(f, "promote"),
            SwapPhase::Watch => write!(f, "watch"),
        }
    }
}

/// Typed outcome of a failed or refused swap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SwapError {
    /// The candidate was refused before promotion; the serving epoch was
    /// never touched.
    Rejected { phase: SwapPhase, reason: String },
    /// The candidate was promoted, tripped the divergence guard during
    /// watch, and the prior epoch was reinstalled.
    RolledBack { reason: String },
    /// The rollback budget is spent: the lifecycle fails closed and no
    /// further swaps are accepted (the current epoch keeps serving).
    RollbackBudgetExhausted { budget: usize },
    /// Another swap is mid-flight; one at a time.
    SwapInProgress,
    /// The service is shut down.
    ServiceUnavailable,
}

impl fmt::Display for SwapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SwapError::Rejected { phase, reason } => {
                write!(f, "candidate rejected at {phase}: {reason}")
            }
            SwapError::RolledBack { reason } => {
                write!(f, "promoted then rolled back: {reason}")
            }
            SwapError::RollbackBudgetExhausted { budget } => write!(
                f,
                "rollback budget ({budget}) exhausted: model lifecycle failed closed"
            ),
            SwapError::SwapInProgress => write!(f, "another swap is in progress"),
            SwapError::ServiceUnavailable => write!(f, "service is shut down"),
        }
    }
}

impl std::error::Error for SwapError {}

/// Receipt for a committed swap.
#[derive(Debug, Clone, Default)]
pub struct SwapReport {
    pub from_version: u64,
    pub to_version: u64,
    /// Probe columns compared / flipped at prepare.
    pub probe_columns: u64,
    pub probe_flipped_columns: u64,
    /// Requests compared / flipped during shadow.
    pub shadow_compared: u64,
    pub shadow_flips: u64,
    /// Candidate vs primary annotate p99 over the shadow window, µs.
    pub shadow_p99_us: u64,
    pub shadow_baseline_p99_us: u64,
    /// Requests compared / flipped during watch.
    pub watch_compared: u64,
    pub watch_flips: u64,
    /// Real microseconds the epoch bump itself took (promote phase).
    pub promote_us: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use kglink_core::{KgLinkConfig, KgLinkModel};
    use kglink_table::LabelVocab;

    /// Two separate slots let a worker read the prior epoch before a
    /// promote and the watch window after it, then compare the prior epoch
    /// against itself. One slot pairs every window with the epoch it was
    /// stored with.
    #[test]
    fn no_read_pairs_a_window_with_the_serving_epoch() {
        let config = KgLinkConfig::fast_test();
        let mut labels = LabelVocab::new();
        labels.intern("person");
        let model = Arc::new(KgLink {
            model: KgLinkModel::new(&config, 16, labels.len()),
            config,
            labels,
        });
        let lifecycle = Lifecycle::new(ModelEpoch::new(1, Arc::clone(&model)), 0);
        let prior = lifecycle.current();
        let candidate = Arc::new(ModelEpoch::new(2, model));
        let shadow = Arc::new(ShadowState::new(Arc::clone(&candidate)));
        let watch = Arc::new(ShadowState::new(Arc::clone(&prior)));
        let done = AtomicBool::new(false);
        let windows_seen = AtomicU64::new(0);
        std::thread::scope(|s| {
            let reader = s.spawn(|| {
                while !done.load(Ordering::SeqCst) {
                    let Serving { epoch, window } = lifecycle.serving();
                    if let Some(window) = window {
                        assert!(
                            !Arc::ptr_eq(&window.epoch, &epoch),
                            "a window over the serving epoch v{}",
                            epoch.version
                        );
                        windows_seen.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
            let mut cycles = 0u32;
            while !reader.is_finished()
                && (cycles < 10_000 || windows_seen.load(Ordering::Relaxed) == 0)
            {
                // Shadow start and clear, promote with watch, clear, rollback.
                lifecycle.set_window(Some(Arc::clone(&shadow)));
                lifecycle.set_window(None);
                let displaced = lifecycle.install(Arc::clone(&candidate), Some(Arc::clone(&watch)));
                assert!(Arc::ptr_eq(&displaced, &prior));
                lifecycle.set_window(None);
                lifecycle.install(Arc::clone(&prior), None);
                cycles += 1;
            }
            done.store(true, Ordering::SeqCst);
        });
        assert!(
            windows_seen.load(Ordering::Relaxed) > 0,
            "the reader never saw a window"
        );
    }
}
