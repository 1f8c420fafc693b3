//! Bounded admission queue with pluggable backpressure policies.
//!
//! The service's front door is a fixed-capacity MPMC queue built on
//! `Mutex` + `Condvar`. When the queue is full, the [`AdmissionPolicy`]
//! decides what happens to the *new* arrival:
//!
//! * [`Reject`](AdmissionPolicy::Reject) — turn it away with a typed error
//!   so the caller can retry elsewhere (fail-fast).
//! * [`Block`](AdmissionPolicy::Block) — park the submitting thread until a
//!   worker frees a slot (natural producer throttling).
//!
//! Consumers take one item per wake-up with [`BoundedQueue::next`]. The
//! queue keeps no ledger of its own: the service counts submissions from
//! what `push` returns, and sheds from what
//! [`trim_to_limit`](BoundedQueue::trim_to_limit) evicts after the
//! admission limit falls.
//!
//! Idle help: a queue may also carry *offers* of type `H`, work a busy
//! consumer shares with idle ones. While no item is queued,
//! [`BoundedQueue::next`] takes a clone of the first posted offer instead
//! of parking. [`BoundedQueue::offer`]
//! posts only while some consumer is parked in `next`, and the poster
//! [`withdraw`](BoundedQueue::withdraw)s the offer when it is done. Items
//! always come first: an idle consumer helps only while nothing is queued.
//!
//! Poisoning: a worker that panics *while annotating* never holds the
//! queue lock (all critical sections here are pure `VecDeque` + counter
//! arithmetic, which cannot unwind), but a panic elsewhere on a thread's
//! stack still marks the `Mutex` poisoned. The queue state is always
//! internally consistent at lock-release, so every acquisition recovers
//! the guard with [`PoisonError::into_inner`] instead of propagating the
//! poison — one crashed worker must not take the whole front door down.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// What to do with a new request when the queue is at capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Refuse the new request with [`PushError::Rejected`].
    Reject,
    /// Block the submitting thread until space frees up.
    Block,
}

/// Why a push did not enqueue the item.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError {
    /// Queue full under [`AdmissionPolicy::Reject`].
    Rejected { queue_depth: usize, capacity: usize },
    /// The queue was closed; no more work is accepted.
    Closed,
}

/// What [`BoundedQueue::next`] handed a consumer.
#[derive(Debug, PartialEq, Eq)]
pub enum Next<T, H> {
    /// The oldest queued item, taken off the queue.
    Item(T),
    /// A clone of a posted offer; it stays posted for other idle consumers.
    Offer(H),
}

struct QueueState<T, H> {
    items: VecDeque<T>,
    closed: bool,
    /// Consumers parked in [`BoundedQueue::next`].
    idle: usize,
    /// Posted offers, oldest first; at most one per busy consumer.
    offers: Vec<H>,
}

/// Fixed-capacity MPMC queue; see the module docs for the policy semantics
/// and for the offers of type `H` (none by default).
pub struct BoundedQueue<T, H = ()> {
    state: Mutex<QueueState<T, H>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
    /// Dynamic admission limit in `[1, capacity]`, adjusted by the
    /// adaptive admission controller. `capacity` stays the hard memory
    /// bound; this is the *latency* bound the policies enforce.
    limit: AtomicUsize,
}

impl<T> BoundedQueue<T> {
    /// A queue holding at most `capacity` items and no offers. Panics if
    /// `capacity == 0`: a zero-capacity queue can never transfer work.
    pub fn new(capacity: usize) -> Self {
        Self::with_offers(capacity)
    }
}

impl<T, H: Clone> BoundedQueue<T, H> {
    /// [`new`](BoundedQueue::new) for a queue that also carries offers of
    /// type `H` to idle consumers.
    pub fn with_offers(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be at least 1");
        BoundedQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::with_capacity(capacity),
                closed: false,
                idle: 0,
                offers: Vec::new(),
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
            limit: AtomicUsize::new(capacity),
        }
    }

    /// The current effective admission limit (`<= capacity`).
    pub fn limit(&self) -> usize {
        self.limit.load(Ordering::Relaxed)
    }

    /// Set the dynamic admission limit, clamped to `[1, capacity]`, and
    /// return the clamped value. Raising the limit wakes producers parked
    /// under [`AdmissionPolicy::Block`]. Lowering it does *not* evict
    /// already-queued items — call [`trim_to_limit`](Self::trim_to_limit)
    /// for that, so the caller can fail the victims explicitly.
    pub fn set_limit(&self, limit: usize) -> usize {
        let clamped = limit.clamp(1, self.capacity);
        let previous = self.limit.swap(clamped, Ordering::Relaxed);
        if clamped > previous {
            self.not_full.notify_all();
        }
        clamped
    }

    /// Evict oldest-first until the depth is within the current limit,
    /// returning the victims (in eviction order) for the caller to fail
    /// explicitly.
    pub fn trim_to_limit(&self) -> Vec<T> {
        let limit = self.limit();
        let mut state = self.lock_state();
        let excess = state.items.len().saturating_sub(limit);
        state.items.drain(..excess).collect()
    }

    /// Acquire the state lock, recovering from poison (see module docs:
    /// the state is re-validatable, so a poisoned lock is survivable).
    fn lock_state(&self) -> MutexGuard<'_, QueueState<T, H>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Current number of queued items.
    pub fn depth(&self) -> usize {
        self.lock_state().items.len()
    }

    /// Whether [`close`](Self::close) has been called.
    pub fn is_closed(&self) -> bool {
        self.lock_state().closed
    }

    /// Enqueue `item` under `policy`; `Err` means it was not admitted.
    pub fn push(&self, item: T, policy: AdmissionPolicy) -> Result<(), PushError> {
        let mut state = self.lock_state();
        if state.closed {
            return Err(PushError::Closed);
        }
        let limit = self.limit();
        if state.items.len() >= limit {
            match policy {
                AdmissionPolicy::Reject => {
                    return Err(PushError::Rejected {
                        queue_depth: state.items.len(),
                        capacity: limit,
                    });
                }
                AdmissionPolicy::Block => {
                    // Re-read the limit each wakeup: the admission
                    // controller may raise it while we are parked.
                    while state.items.len() >= self.limit() && !state.closed {
                        state = self
                            .not_full
                            .wait(state)
                            .unwrap_or_else(PoisonError::into_inner);
                    }
                    if state.closed {
                        return Err(PushError::Closed);
                    }
                }
            }
        }
        state.items.push_back(item);
        drop(state);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Block until an item is queued or an offer is posted (or the queue
    /// closes), and take the oldest item if there is one, else a clone of
    /// the first offer. `None` means closed and drained — the worker's
    /// signal to exit.
    pub fn next(&self) -> Option<Next<T, H>> {
        let mut state = self.lock_state();
        loop {
            if let Some(item) = state.items.pop_front() {
                drop(state);
                // Freed a slot: wake the producers parked on a full queue.
                self.not_full.notify_all();
                return Some(Next::Item(item));
            }
            if let Some(offer) = state.offers.first() {
                return Some(Next::Offer(offer.clone()));
            }
            if state.closed {
                return None;
            }
            state.idle += 1;
            state = self
                .not_empty
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
            state.idle -= 1;
        }
    }

    /// Whether no item is queued: a helping consumer's cue to keep helping.
    pub fn is_empty(&self) -> bool {
        self.lock_state().items.is_empty()
    }

    /// Post `offer` if a consumer is parked in [`next`](Self::next), waking
    /// every parked one; `false` (nothing posted) when none is idle or the
    /// queue is closed.
    pub fn offer(&self, offer: H) -> bool {
        let mut state = self.lock_state();
        if state.idle == 0 || state.closed {
            return false;
        }
        state.offers.push(offer);
        drop(state);
        self.not_empty.notify_all();
        true
    }

    /// Consumers parked in [`next`](Self::next) right now; while any is,
    /// an [`offer`](Self::offer) would be taken.
    pub fn idle(&self) -> usize {
        self.lock_state().idle
    }

    /// Remove every posted offer `is` picks out.
    pub fn withdraw(&self, is: impl Fn(&H) -> bool) {
        self.lock_state().offers.retain(|o| !is(o));
    }

    /// Close the queue and return everything still queued, so the caller
    /// can fail those requests explicitly rather than dropping them.
    pub fn close(&self) -> Vec<T> {
        let mut state = self.lock_state();
        state.closed = true;
        let leftovers: Vec<T> = state.items.drain(..).collect();
        drop(state);
        self.not_empty.notify_all();
        self.not_full.notify_all();
        leftovers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// The next item of a queue that carries no offers.
    fn pop<T>(q: &BoundedQueue<T>) -> Option<T> {
        match q.next()? {
            Next::Item(item) => Some(item),
            Next::Offer(()) => unreachable!("no offer is ever posted"),
        }
    }

    /// Take everything queued right now, oldest first, without parking.
    fn drain<T>(q: &BoundedQueue<T>) -> Vec<T> {
        (0..q.depth()).filter_map(|_| pop(q)).collect()
    }

    #[test]
    fn reject_policy_returns_typed_overflow() {
        let q = BoundedQueue::new(2);
        assert_eq!(q.push(1, AdmissionPolicy::Reject), Ok(()));
        assert_eq!(q.push(2, AdmissionPolicy::Reject), Ok(()));
        assert_eq!(
            q.push(3, AdmissionPolicy::Reject),
            Err(PushError::Rejected {
                queue_depth: 2,
                capacity: 2
            })
        );
        assert_eq!(q.depth(), 2);
    }

    #[test]
    fn pop_takes_one_item_in_fifo_order() {
        let q = BoundedQueue::new(8);
        for i in 0..5 {
            q.push(i, AdmissionPolicy::Reject).unwrap();
        }
        assert_eq!(pop(&q), Some(0));
        assert_eq!(q.depth(), 4, "one item per pop");
        assert_eq!(drain(&q), vec![1, 2, 3, 4]);
    }

    #[test]
    fn dynamic_limit_clamps_admission_below_capacity() {
        let q = BoundedQueue::new(8);
        assert_eq!(q.limit(), 8);
        assert_eq!(q.set_limit(3), 3);
        for i in 0..3 {
            q.push(i, AdmissionPolicy::Reject).unwrap();
        }
        assert_eq!(
            q.push(99, AdmissionPolicy::Reject),
            Err(PushError::Rejected {
                queue_depth: 3,
                capacity: 3
            }),
            "the effective limit, not the hard capacity, bounds admission"
        );
        // The clamp range is [1, capacity].
        assert_eq!(q.set_limit(0), 1);
        assert_eq!(q.set_limit(1_000), 8);
    }

    #[test]
    fn trim_to_limit_evicts_oldest_first() {
        let q = BoundedQueue::new(8);
        for i in 0..6 {
            q.push(i, AdmissionPolicy::Reject).unwrap();
        }
        assert!(q.trim_to_limit().is_empty(), "within limit: no victims");
        q.set_limit(2);
        assert_eq!(q.trim_to_limit(), vec![0, 1, 2, 3]);
        assert!(q.trim_to_limit().is_empty(), "already within the new limit");
        assert_eq!(drain(&q), vec![4, 5]);
    }

    #[test]
    fn raising_the_limit_unblocks_parked_producers() {
        let q = Arc::new(BoundedQueue::new(4));
        q.set_limit(1);
        q.push(1, AdmissionPolicy::Block).unwrap();
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.push(2, AdmissionPolicy::Block))
        };
        std::thread::sleep(std::time::Duration::from_millis(10));
        assert_eq!(q.depth(), 1, "producer is parked on the shrunk limit");
        q.set_limit(2);
        assert_eq!(producer.join().unwrap(), Ok(()));
        assert_eq!(q.depth(), 2);
    }

    #[test]
    fn poisoned_lock_recovers_instead_of_cascading() {
        let q = Arc::new(BoundedQueue::new(4));
        q.push(1, AdmissionPolicy::Reject).unwrap();
        // Poison the mutex: panic while holding the guard on another thread.
        let poisoner = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let _guard = q.state.lock().unwrap();
                panic!("deliberate poison");
            })
        };
        assert!(poisoner.join().is_err());
        assert!(q.state.is_poisoned());
        // Every operation still works on the recovered state.
        assert_eq!(q.depth(), 1);
        q.push(2, AdmissionPolicy::Reject).unwrap();
        assert_eq!(drain(&q), vec![1, 2]);
        assert!(q.close().is_empty());
    }

    #[test]
    fn close_drains_and_wakes_a_parked_popper_with_none() {
        let q = Arc::new(BoundedQueue::new(4));
        q.push("a", AdmissionPolicy::Reject).unwrap();
        q.push("b", AdmissionPolicy::Reject).unwrap();
        let drained = Arc::new(std::sync::Barrier::new(2));
        let waiter = {
            let q = Arc::clone(&q);
            let drained = Arc::clone(&drained);
            std::thread::spawn(move || {
                let taken = (pop(&q), pop(&q));
                drained.wait();
                (taken, pop(&q))
            })
        };
        // The two items are gone; give the waiter a chance to park on the
        // third pop. Parked or not, close() must answer it with `None`.
        drained.wait();
        std::thread::sleep(std::time::Duration::from_millis(10));
        assert!(!q.is_closed());
        let leftovers = q.close();
        assert!(q.is_closed());
        assert_eq!(waiter.join().unwrap(), ((Some("a"), Some("b")), None));
        assert!(leftovers.is_empty());
        assert_eq!(q.push("c", AdmissionPolicy::Block), Err(PushError::Closed));
    }

    #[test]
    fn offers_reach_only_idle_consumers_and_items_come_first() {
        let q: Arc<BoundedQueue<u32, &str>> = Arc::new(BoundedQueue::with_offers(4));
        assert!(!q.offer("early"), "nobody idle: nothing is posted");
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.next())
        };
        while q.idle() == 0 {
            std::thread::yield_now();
        }
        assert!(q.offer("job"));
        assert_eq!(consumer.join().unwrap(), Some(Next::Offer("job")));
        // The offer stays posted until withdrawn, but items come first.
        q.push(7, AdmissionPolicy::Reject).unwrap();
        q.push(8, AdmissionPolicy::Reject).unwrap();
        assert_eq!(q.next(), Some(Next::Item(7)));
        assert_eq!(q.next(), Some(Next::Item(8)));
        assert_eq!(q.next(), Some(Next::Offer("job")));
        q.withdraw(|o| *o == "job");
        assert!(q.close().is_empty());
        assert_eq!(q.next(), None);
        assert!(!q.offer("late"), "a closed queue posts nothing");
    }

    #[test]
    fn block_policy_producer_is_released_by_one_pop() {
        let q = Arc::new(BoundedQueue::new(1));
        q.push(1, AdmissionPolicy::Block).unwrap();
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.push(2, AdmissionPolicy::Block))
        };
        std::thread::sleep(std::time::Duration::from_millis(10));
        // Producer is parked on the full queue; one pop must release it.
        assert_eq!(pop(&q), Some(1));
        assert_eq!(producer.join().unwrap(), Ok(()));
        assert_eq!(pop(&q), Some(2));
    }
}
