//! Benchmark-owned tracing: an in-memory span log and timing decorators
//! around the two seams the pipeline reads the world through.
//!
//! The library is measured from outside. A [`TimedBackend`] goes around
//! the `ResilientBackend` and another around the `DiskBackend` inside it;
//! a [`TimedGraph`] goes around the `DiskGraph`. Each call records one
//! span (name, start, end, parent, table). Spans stay in memory and are
//! written out once, at exit.

use kglink_kg::{Entity, EntityId, GraphAccess, NeSchema, PredicateId};
use kglink_search::{Deadline, KgBackend, RetrievalError, SearchOutcome};
use std::cell::RefCell;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One closed span. Times are nanoseconds since the log was created.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// 0 for a root.
    pub parent: u64,
    /// Index of the table the span worked for.
    pub table: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

thread_local! {
    /// Open span ids of this thread, innermost last.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// The span log of one traced pass.
pub struct SpanLog {
    epoch: Instant,
    next_id: AtomicU64,
    /// The root opened by the (single) client, and its table. A span
    /// opened on a service worker thread has no open parent of its own
    /// thread and hangs under this root instead.
    root: AtomicU64,
    table: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl SpanLog {
    pub fn new() -> Arc<SpanLog> {
        Arc::new(SpanLog {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            root: AtomicU64::new(0),
            table: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        })
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&self, name: &'static str, parent: u64) -> Open<'_> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        OPEN.with(|s| s.borrow_mut().push(id));
        Open {
            log: self,
            id,
            parent,
            name,
            start_ns: self.now_ns(),
        }
    }

    /// Open a span under the innermost open span of this thread, or under
    /// the client's root when this thread has none.
    pub fn enter(&self, name: &'static str) -> Open<'_> {
        let parent = OPEN
            .with(|s| s.borrow().last().copied())
            .unwrap_or_else(|| self.root.load(Ordering::SeqCst));
        self.open(name, parent)
    }

    /// Open the root span of one request for `table`. One client drives a
    /// traced pass, so there is one root at a time.
    pub fn enter_root(&self, name: &'static str, table: usize) -> Open<'_> {
        self.table.store(table as u64, Ordering::SeqCst);
        let root = self.open(name, 0);
        self.root.store(root.id, Ordering::SeqCst);
        root
    }

    /// Record a span measured elsewhere (the `nn.forward` span the
    /// library's own tracer reports) under the innermost open span.
    pub fn record_span(&self, name: &'static str, start_ns: u64, end_ns: u64) {
        let parent = OPEN.with(|s| s.borrow().last().copied()).unwrap_or(0);
        let span = Span {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            table: self.table.load(Ordering::SeqCst),
            name,
            start_ns,
            end_ns,
        };
        self.spans.lock().expect("span log lock").push(span);
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log lock").clone()
    }

    /// One JSON object per span, after a header line.
    pub fn write_jsonl(&self, path: &Path, header: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for s in self.spans.lock().expect("span log lock").iter() {
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"table\": {}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.parent, s.table, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// An open span; [`close`](Open::close) (or drop) ends it.
pub struct Open<'a> {
    log: &'a SpanLog,
    id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
}

impl Open<'_> {
    pub fn start_ns(&self) -> u64 {
        self.start_ns
    }

    /// End the span now and return its duration in nanoseconds.
    pub fn close(self) -> u64 {
        self.log.now_ns() - self.start_ns
    }
}

impl Drop for Open<'_> {
    fn drop(&mut self) {
        let end_ns = self.log.now_ns();
        OPEN.with(|s| {
            let mut open = s.borrow_mut();
            if open.last() == Some(&self.id) {
                open.pop();
            }
        });
        if self.parent == 0 {
            self.log.root.store(0, Ordering::SeqCst);
        }
        let span = Span {
            id: self.id,
            parent: self.parent,
            table: self.log.table.load(Ordering::SeqCst),
            name: self.name,
            start_ns: self.start_ns,
            end_ns,
        };
        // A poisoned log only loses spans; never panic in drop.
        if let Ok(mut spans) = self.log.spans.lock() {
            spans.push(span);
        }
    }
}

/// Times every `search_entities` call into `inner` as a span `name`.
pub struct TimedBackend<B> {
    inner: B,
    name: &'static str,
    log: Arc<SpanLog>,
}

impl<B> TimedBackend<B> {
    pub fn new(inner: B, name: &'static str, log: &Arc<SpanLog>) -> Self {
        TimedBackend {
            inner,
            name,
            log: Arc::clone(log),
        }
    }
}

impl<B: KgBackend> KgBackend for TimedBackend<B> {
    fn search_entities(
        &self,
        query: &str,
        top_k: usize,
        deadline: Deadline,
    ) -> Result<SearchOutcome, RetrievalError> {
        let _span = self.log.enter(self.name);
        self.inner.search_entities(query, top_k, deadline)
    }
}

/// Span name of every graph read through a [`TimedGraph`].
pub const GRAPH_SPAN: &str = "store.graph";

/// Times every `GraphAccess` call into `inner`.
pub struct TimedGraph<G> {
    inner: G,
    log: Arc<SpanLog>,
}

impl<G> TimedGraph<G> {
    pub fn new(inner: G, log: &Arc<SpanLog>) -> Self {
        TimedGraph {
            inner,
            log: Arc::clone(log),
        }
    }
}

impl<G: GraphAccess> GraphAccess for TimedGraph<G> {
    fn entity_count(&self) -> usize {
        self.inner.entity_count()
    }

    fn entity(&self, id: EntityId) -> Entity {
        let _span = self.log.enter(GRAPH_SPAN);
        self.inner.entity(id)
    }

    fn label(&self, id: EntityId) -> String {
        let _span = self.log.enter(GRAPH_SPAN);
        self.inner.label(id)
    }

    fn schema_of(&self, id: EntityId) -> NeSchema {
        let _span = self.log.enter(GRAPH_SPAN);
        self.inner.schema_of(id)
    }

    fn predicate_name(&self, p: PredicateId) -> String {
        let _span = self.log.enter(GRAPH_SPAN);
        self.inner.predicate_name(p)
    }

    fn one_hop(&self, id: EntityId) -> Vec<EntityId> {
        let _span = self.log.enter(GRAPH_SPAN);
        self.inner.one_hop(id)
    }

    fn one_hop_with_predicates(&self, id: EntityId) -> Vec<(PredicateId, EntityId)> {
        let _span = self.log.enter(GRAPH_SPAN);
        self.inner.one_hop_with_predicates(id)
    }

    fn types_of(&self, id: EntityId) -> Vec<EntityId> {
        let _span = self.log.enter(GRAPH_SPAN);
        self.inner.types_of(id)
    }

    fn superclasses_of(&self, id: EntityId) -> Vec<EntityId> {
        let _span = self.log.enter(GRAPH_SPAN);
        self.inner.superclasses_of(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_on_one_thread_and_hang_under_the_root_from_another() {
        let log = SpanLog::new();
        {
            let _root = log.enter_root("table", 7);
            {
                let _stage = log.enter("stage");
                let _call = log.enter("call");
            }
            std::thread::scope(|s| {
                s.spawn(|| drop(log.enter("worker")));
            });
        }
        let spans = log.spans();
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).unwrap().clone();
        let (root, stage, call, worker) = (
            by_name("table"),
            by_name("stage"),
            by_name("call"),
            by_name("worker"),
        );
        assert_eq!(root.parent, 0);
        assert_eq!(stage.parent, root.id);
        assert_eq!(call.parent, stage.id);
        assert_eq!(worker.parent, root.id);
        assert!(spans.iter().all(|s| s.table == 7 && s.end_ns >= s.start_ns));
        assert!(call.start_ns >= stage.start_ns && call.end_ns <= stage.end_ns);
    }
}
