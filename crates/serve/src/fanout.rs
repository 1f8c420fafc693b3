//! Idle workers share a busy worker's batched KG reads.
//!
//! The pipeline asks the KG for a table chunk in two batches: every entity
//! mention's search ([`KgBackend::search_batch`]) and every distinct
//! candidate's one-hop neighbourhood ([`GraphAccess::one_hop_batch`]). A
//! worker annotates through [`Retrieval::shared_at`] and [`SharedGraph`],
//! which turn each batch into one shared [`Job`]: the owned items, what a
//! worker needs to run any of them, an atomic claim cursor and one result
//! slot per index.
//!
//! The owning worker posts the job on the request queue as an offer, but
//! only while another worker is parked in [`BoundedQueue::next`]; with no
//! idle worker the batch runs inline and no job is allocated. Then the
//! owner claims items until the cursor passes the end, withdraws the
//! offer, and waits (parked) for items a helper is still running. An idle
//! worker that takes the offer claims items too, and goes back to the
//! queue as soon as a request is waiting or nothing is left to claim.
//! Every item lands in its own slot by index, so the answers are the
//! per-item loop's whoever ran them.
//!
//! A panic in a helped item is caught on the helper, which keeps serving;
//! the payload is resumed on the owner's thread once the batch is done, so
//! the request fails exactly once through the worker's own panic path.
//!
//! [`BoundedQueue::next`]: crate::queue::BoundedQueue::next
//! [`Retrieval::shared_at`]: crate::retrieval::Retrieval::shared_at

use crate::queue::BoundedQueue;
use crate::service::Request;
use crate::worker::WorkerContext;
use kglink_core::DegradationRung;
use kglink_kg::{Entity, EntityId, GraphAccess, NeSchema, PredicateId};
use kglink_search::{Deadline, KgBackend, RetrievalError, SearchOutcome};
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::AtomicUsize;
use std::sync::atomic::Ordering::{Relaxed, SeqCst};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::{self, Thread};

/// A job posted on the request queue for idle workers.
pub(crate) type Offer = Arc<dyn Help>;

/// The service's request queue; its idle consumers help with [`Offer`]s.
pub(crate) type RequestQueue = BoundedQueue<Request, Offer>;

/// A shared job as a helping worker sees it.
pub(crate) trait Help: Send + Sync {
    /// Claim and run items on the calling worker until a request is
    /// queued, nothing is left to claim, or an item panics. Returns the
    /// items run here and whether the job is done with helpers (the caller
    /// then withdraws the offer).
    fn help(&self, ctx: &WorkerContext) -> (u64, bool);
}

/// One batch's owned items, and how any worker runs one of them.
pub(crate) trait Items: Send + Sync + 'static {
    type Out: Send + 'static;
    fn len(&self) -> usize;
    fn run_item(&self, i: usize, ctx: &WorkerContext) -> Self::Out;
}

/// A full-rung search batch, with the `(counted, top_k, deadline)` a
/// helper needs to rebuild the owner's `retrieval.at(Full, counted)` view.
pub(crate) struct Searches {
    pub queries: Vec<String>,
    pub counted: bool,
    pub top_k: usize,
    pub deadline: Deadline,
}

impl Items for Searches {
    type Out = Result<SearchOutcome, RetrievalError>;
    fn len(&self) -> usize {
        self.queries.len()
    }
    fn run_item(&self, i: usize, ctx: &WorkerContext) -> Self::Out {
        ctx.retrieval
            .at(DegradationRung::Full, self.counted)
            .search_entities(&self.queries[i], self.top_k, self.deadline)
    }
}

/// A one-hop batch.
struct Hops(Vec<EntityId>);

impl Items for Hops {
    type Out = Vec<EntityId>;
    fn len(&self) -> usize {
        self.0.len()
    }
    fn run_item(&self, i: usize, ctx: &WorkerContext) -> Self::Out {
        ctx.graph.one_hop(self.0[i])
    }
}

struct Job<I: Items> {
    items: I,
    /// Next unclaimed index; a claim at or past the end fails.
    next: AtomicUsize,
    /// Helpers between announcing a claim and finishing its item. A helper
    /// counts itself in *before* it claims, so once the owner's own claim
    /// has failed, zero here means no item is left running anywhere.
    helping: AtomicUsize,
    /// One answer slot per item, filled by whoever ran it.
    answers: Mutex<Vec<Option<I::Out>>>,
    /// The first helped item's panic payload, resumed on the owner.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    owner: Thread,
}

impl<I: Items> Job<I> {
    fn claim(&self) -> Option<usize> {
        let i = self.next.fetch_add(1, SeqCst);
        (i < self.items.len()).then_some(i)
    }

    fn fill(&self, i: usize, out: I::Out) {
        self.answers.lock().unwrap_or_else(PoisonError::into_inner)[i] = Some(out);
    }
}

impl<I: Items> Help for Job<I> {
    fn help(&self, ctx: &WorkerContext) -> (u64, bool) {
        let mut ran = 0;
        while ctx.queue.is_empty() {
            self.helping.fetch_add(1, SeqCst);
            let claimed = self.claim();
            let mut panicked = false;
            if let Some(i) = claimed {
                ran += 1;
                match catch_unwind(AssertUnwindSafe(|| self.items.run_item(i, ctx))) {
                    Ok(out) => self.fill(i, out),
                    Err(payload) => {
                        panicked = true;
                        self.panic
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner)
                            .get_or_insert(payload);
                    }
                }
            }
            if self.helping.fetch_sub(1, SeqCst) == 1 {
                self.owner.unpark();
            }
            if claimed.is_none() || panicked {
                return (ran, true);
            }
        }
        (ran, false)
    }
}

/// Help with `offer` on the idle worker `ctx`, count the items run here,
/// and withdraw the offer once it has nothing left for helpers.
pub(crate) fn help(ctx: &WorkerContext, offer: &Offer) {
    let (ran, done) = offer.help(ctx);
    ctx.shared.help_items.fetch_add(ran, Relaxed);
    if done {
        ctx.queue.withdraw(|posted| Arc::ptr_eq(posted, offer));
    }
}

/// Closes the cursor and withdraws the offer on every way out of the
/// owner's drain, an unwinding panic included, so helpers stop claiming.
struct Posted<'a, I: Items> {
    queue: &'a RequestQueue,
    job: &'a Arc<Job<I>>,
}

impl<I: Items> Drop for Posted<'_, I> {
    fn drop(&mut self) {
        self.job.next.fetch_max(self.job.items.len(), SeqCst);
        let mine: *const Job<I> = Arc::as_ptr(self.job);
        self.queue
            .withdraw(|offer| std::ptr::addr_eq(Arc::as_ptr(offer), mine));
    }
}

/// Run `items` on the calling worker, sharing them with idle workers, and
/// return the answers in item order.
pub(crate) fn share<I: Items>(ctx: &WorkerContext, items: I) -> Vec<I::Out> {
    let n = items.len();
    if n < 2 || ctx.queue.idle() == 0 {
        return (0..n).map(|i| items.run_item(i, ctx)).collect();
    }
    let job = Arc::new(Job {
        items,
        next: AtomicUsize::new(0),
        helping: AtomicUsize::new(0),
        answers: Mutex::new((0..n).map(|_| None).collect()),
        panic: Mutex::new(None),
        owner: thread::current(),
    });
    // Posted or not (the idle worker may have just left), the owner
    // drains the job; a helper only ever takes items off its hands.
    ctx.queue.offer(Arc::clone(&job) as Offer);
    let posted = Posted {
        queue: &ctx.queue,
        job: &job,
    };
    while let Some(i) = job.claim() {
        job.fill(i, job.items.run_item(i, ctx));
    }
    drop(posted);
    while job.helping.load(SeqCst) > 0 {
        thread::park();
    }
    if let Some(payload) = job
        .panic
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .take()
    {
        resume_unwind(payload);
    }
    #[expect(
        clippy::expect_used,
        reason = "every index was claimed once, and its item either answered or panicked (resumed above): an empty slot is a broken claim cursor"
    )]
    let answers = std::mem::take(&mut *job.answers.lock().unwrap_or_else(PoisonError::into_inner))
        .into_iter()
        .map(|answer| answer.expect("every claimed item is answered"))
        .collect();
    answers
}

/// The service's graph as an annotation on one worker reads it: every call
/// goes straight to the graph, and a one-hop batch is shared with the
/// pool's idle workers.
pub(crate) struct SharedGraph<'a>(pub &'a WorkerContext);

impl GraphAccess for SharedGraph<'_> {
    fn entity_count(&self) -> usize {
        self.0.graph.entity_count()
    }
    fn entity(&self, id: EntityId) -> Entity {
        self.0.graph.entity(id)
    }
    fn label(&self, id: EntityId) -> String {
        self.0.graph.label(id)
    }
    fn schema_of(&self, id: EntityId) -> NeSchema {
        self.0.graph.schema_of(id)
    }
    fn predicate_name(&self, p: PredicateId) -> String {
        self.0.graph.predicate_name(p)
    }
    fn one_hop(&self, id: EntityId) -> Vec<EntityId> {
        self.0.graph.one_hop(id)
    }
    fn one_hop_batch(&self, ids: Vec<EntityId>) -> Vec<Vec<EntityId>> {
        share(self.0, Hops(ids))
    }
    fn one_hop_with_predicates(&self, id: EntityId) -> Vec<(PredicateId, EntityId)> {
        self.0.graph.one_hop_with_predicates(id)
    }
    fn types_of(&self, id: EntityId) -> Vec<EntityId> {
        self.0.graph.types_of(id)
    }
    fn superclasses_of(&self, id: EntityId) -> Vec<EntityId> {
        self.0.graph.superclasses_of(id)
    }
}
