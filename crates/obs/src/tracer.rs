//! Hierarchical spans, counters, stage timers, and the event log.
//!
//! A [`Tracer`] is a cheap cloneable handle (an `Option<Arc<_>>`): clones
//! share one event log, counter table, and stage-histogram table, so the
//! same tracer can be threaded through `Resources`, a retrieval decorator
//! stack, and a worker pool and still produce one coherent, causally
//! ordered record. [`Tracer::disabled`] (also `Default`) carries `None`:
//! every operation short-circuits on that single check — no clock read,
//! no lock, no allocation — which is what lets the pipeline keep tracer
//! calls unconditionally on its hot paths.
//!
//! Spans are RAII guards: [`Tracer::span`] opens a span and returns a
//! [`Span`] that closes it (and feeds the elapsed time into the stage
//! histogram of the same name) on drop. Parentage is tracked per thread,
//! so nested spans form a tree per worker without any coordination.
//!
//! Lock poisoning is recovered with `PoisonError::into_inner` throughout:
//! every guarded structure (event vec, counter map, stage histograms) is
//! append/accumulate-only, so the worst a panicked sibling leaves behind is
//! a missing record — never a broken invariant. Telemetry must not take a
//! serving worker down with it.

use crate::hist::Histogram;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// What one [`Event`] records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened.
    SpanStart,
    /// A span closed; `elapsed_us` is its measured wall time.
    SpanEnd { elapsed_us: u64 },
    /// A point-in-time occurrence (retry, breaker transition, degrade…).
    Instant,
    /// A counter increment; `value` is the counter's new total.
    Counter { value: u64 },
}

/// One entry of the append-only event log. `seq` is assigned under the
/// log lock, so sequence order **is** causal order across threads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Monotone sequence number, unique per tracer.
    pub seq: u64,
    /// Microseconds since the tracer was created.
    pub t_us: u64,
    /// Enclosing span id (0 = none).
    pub span: u64,
    /// Parent span id of `span` (0 = root).
    pub parent: u64,
    /// Dotted event/span name (`retrieval.retry`, `breaker.transition`…).
    pub name: &'static str,
    pub kind: EventKind,
    /// Free-form key/value payload.
    pub fields: Vec<(&'static str, String)>,
}

struct Inner {
    epoch: Instant,
    next_span: AtomicU64,
    events: Mutex<Vec<Event>>,
    counters: Mutex<BTreeMap<&'static str, u64>>,
    stages: Mutex<BTreeMap<&'static str, Histogram>>,
}

thread_local! {
    /// Per-thread stack of open span ids (parentage for nested spans).
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// A shared, cloneable tracing handle. See the module docs.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Tracer({})",
            if self.inner.is_some() { "enabled" } else { "disabled" }
        )
    }
}

impl Tracer {
    /// A recording tracer.
    pub fn enabled() -> Self {
        Tracer {
            inner: Some(Arc::new(Inner {
                #[expect(
                    clippy::disallowed_methods,
                    reason = "the trace clock's origin: event timestamps are trace output, never annotation output"
                )]
                epoch: Instant::now(),
                next_span: AtomicU64::new(1),
                events: Mutex::new(Vec::new()),
                counters: Mutex::new(BTreeMap::new()),
                stages: Mutex::new(BTreeMap::new()),
            })),
        }
    }

    /// The no-op tracer: every call is one `Option` check. This is the
    /// default everywhere a tracer is threaded through the pipeline.
    pub fn disabled() -> Self {
        Tracer { inner: None }
    }

    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Microseconds since this tracer was created (0 when disabled).
    pub fn elapsed_us(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.epoch.elapsed().as_micros() as u64)
    }

    fn push_event(
        inner: &Inner,
        span: u64,
        parent: u64,
        name: &'static str,
        kind: EventKind,
        fields: Vec<(&'static str, String)>,
    ) {
        let t_us = inner.epoch.elapsed().as_micros() as u64;
        let mut events = inner.events.lock().unwrap_or_else(PoisonError::into_inner);
        let seq = events.len() as u64;
        events.push(Event {
            seq,
            t_us,
            span,
            parent,
            name,
            kind,
            fields,
        });
    }

    fn current_parent() -> u64 {
        SPAN_STACK.with(|s| s.borrow().last().copied().unwrap_or(0))
    }

    /// Open a span; the returned guard closes it on drop and records the
    /// elapsed time in the stage histogram named `name`.
    #[inline]
    pub fn span(&self, name: &'static str) -> Span<'_> {
        match &self.inner {
            None => Span { data: None },
            Some(inner) => {
                let id = inner.next_span.fetch_add(1, Ordering::Relaxed);
                let parent = Self::current_parent();
                SPAN_STACK.with(|s| s.borrow_mut().push(id));
                Self::push_event(inner, id, parent, name, EventKind::SpanStart, Vec::new());
                Span {
                    data: Some(SpanData {
                        tracer: self,
                        id,
                        parent,
                        name,
                        #[expect(
                            clippy::disallowed_methods,
                            reason = "span timing feeds the stage histograms, never an annotation output"
                        )]
                        start: Instant::now(),
                    }),
                }
            }
        }
    }

    /// Record a point-in-time event with no payload.
    #[inline]
    pub fn event(&self, name: &'static str) {
        self.event_with(name, Vec::new());
    }

    /// Record a point-in-time event with a key/value payload.
    #[inline]
    pub fn event_with(&self, name: &'static str, fields: Vec<(&'static str, String)>) {
        if let Some(inner) = &self.inner {
            let parent = Self::current_parent();
            Self::push_event(inner, parent, 0, name, EventKind::Instant, fields);
        }
    }

    /// Increment counter `name` by `delta` and log a counter event
    /// carrying the new total.
    #[inline]
    pub fn incr(&self, name: &'static str, delta: u64) {
        if let Some(inner) = &self.inner {
            let value = {
                let mut counters = inner.counters.lock().unwrap_or_else(PoisonError::into_inner);
                let slot = counters.entry(name).or_insert(0);
                *slot += delta;
                *slot
            };
            let parent = Self::current_parent();
            Self::push_event(
                inner,
                parent,
                0,
                name,
                EventKind::Counter { value },
                Vec::new(),
            );
        }
    }

    /// Feed a microsecond value into the stage histogram named `name`
    /// without opening a span (for externally measured durations, e.g.
    /// queue wait read off a request's enqueue timestamp).
    #[inline]
    pub fn record_us(&self, name: &'static str, us: u64) {
        if let Some(inner) = &self.inner {
            inner
                .stages
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .entry(name)
                .or_default()
                .record(us);
        }
    }

    /// Snapshot of one stage histogram, if that stage ever recorded.
    pub fn stage(&self, name: &str) -> Option<Histogram> {
        self.inner
            .as_ref()
            .and_then(|i| i.stages.lock().unwrap_or_else(PoisonError::into_inner).get(name).cloned())
    }

    /// Snapshot of every stage histogram.
    pub fn stages(&self) -> BTreeMap<&'static str, Histogram> {
        self.inner.as_ref().map_or_else(BTreeMap::new, |i| {
            i.stages.lock().unwrap_or_else(PoisonError::into_inner).clone()
        })
    }

    /// Snapshot of every counter.
    pub fn counters(&self) -> BTreeMap<&'static str, u64> {
        self.inner.as_ref().map_or_else(BTreeMap::new, |i| {
            i.counters.lock().unwrap_or_else(PoisonError::into_inner).clone()
        })
    }

    /// One counter's current total (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.inner.as_ref().map_or(0, |i| {
            i.counters
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .get(name)
                .copied()
                .unwrap_or(0)
        })
    }

    /// Snapshot of the event log, in causal (sequence) order.
    pub fn events(&self) -> Vec<Event> {
        self.inner.as_ref().map_or_else(Vec::new, |i| {
            i.events.lock().unwrap_or_else(PoisonError::into_inner).clone()
        })
    }

    /// Events whose name matches `name`, in causal order.
    pub fn events_named(&self, name: &str) -> Vec<Event> {
        self.events().into_iter().filter(|e| e.name == name).collect()
    }

    fn close_span(&self, data: &SpanData<'_>) {
        #[expect(
            clippy::expect_used,
            reason = "structural: SpanData is only ever constructed by span(), which requires inner to be Some"
        )]
        let inner = self.inner.as_ref().expect("span data implies enabled");
        let elapsed_us = data.start.elapsed().as_micros() as u64;
        SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            // Spans close in LIFO order per thread; a guard moved across
            // threads simply won't find itself and leaves the stack alone.
            if stack.last() == Some(&data.id) {
                stack.pop();
            }
        });
        inner
            .stages
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(data.name)
            .or_default()
            .record(elapsed_us);
        Self::push_event(
            inner,
            data.id,
            data.parent,
            data.name,
            EventKind::SpanEnd { elapsed_us },
            Vec::new(),
        );
    }
}

struct SpanData<'t> {
    tracer: &'t Tracer,
    id: u64,
    parent: u64,
    name: &'static str,
    start: Instant,
}

/// RAII span guard: closes (and times) the span on drop.
pub struct Span<'t> {
    data: Option<SpanData<'t>>,
}

impl Span<'_> {
    /// This span's id (0 for a disabled tracer's no-op span).
    pub fn id(&self) -> u64 {
        self.data.as_ref().map_or(0, |d| d.id)
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(data) = self.data.take() {
            data.tracer.close_span(&data);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        {
            let _s = t.span("outer");
            t.event("hello");
            t.incr("count", 3);
            t.record_us("stage", 42);
        }
        assert!(!t.is_enabled());
        assert!(t.events().is_empty());
        assert!(t.counters().is_empty());
        assert!(t.stages().is_empty());
        assert_eq!(t.counter("count"), 0);
    }

    #[test]
    fn spans_nest_and_time() {
        let t = Tracer::enabled();
        {
            let outer = t.span("outer");
            assert!(outer.id() > 0);
            {
                let _inner = t.span("inner");
                t.event("tick");
            }
        }
        let events = t.events();
        // outer start, inner start, tick, inner end, outer end.
        assert_eq!(events.len(), 5);
        let outer_start = &events[0];
        let inner_start = &events[1];
        let tick = &events[2];
        assert_eq!(outer_start.name, "outer");
        assert_eq!(outer_start.parent, 0);
        assert_eq!(inner_start.name, "inner");
        assert_eq!(
            inner_start.parent, outer_start.span,
            "nested span must record its parent"
        );
        assert_eq!(tick.span, inner_start.span, "events attach to the open span");
        assert!(matches!(events[3].kind, EventKind::SpanEnd { .. }));
        assert_eq!(events[4].name, "outer");
        // Sequence numbers are the causal order.
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
        }
        // Both stages recorded exactly one duration.
        assert_eq!(t.stage("outer").unwrap().count(), 1);
        assert_eq!(t.stage("inner").unwrap().count(), 1);
    }

    #[test]
    fn counters_accumulate_and_log() {
        let t = Tracer::enabled();
        t.incr("cache.hit", 1);
        t.incr("cache.hit", 2);
        t.incr("cache.miss", 1);
        assert_eq!(t.counter("cache.hit"), 3);
        assert_eq!(t.counter("cache.miss"), 1);
        let hits = t.events_named("cache.hit");
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[1].kind, EventKind::Counter { value: 3 });
    }

    #[test]
    fn clones_share_state() {
        let t = Tracer::enabled();
        let u = t.clone();
        u.incr("shared", 1);
        {
            let _s = u.span("from_clone");
        }
        assert_eq!(t.counter("shared"), 1);
        assert_eq!(t.stage("from_clone").unwrap().count(), 1);
    }

    #[test]
    fn record_us_feeds_stage_histograms() {
        let t = Tracer::enabled();
        for v in [10, 20, 30] {
            t.record_us("serve.queue_wait", v);
        }
        let h = t.stage("serve.queue_wait").unwrap();
        assert_eq!(h.count(), 3);
        assert_eq!(h.quantile(0.5), 20);
    }
}
