//! Recycled buffer arenas: zero steady-state allocations for inference.

use std::cell::RefCell;

/// A pool of recycled `Vec<f32>` buffers.
///
/// Callers [`take`](Scratch::take) a buffer of the length they need and
/// [`give`](Scratch::give) it back when done. `take` picks the pooled
/// buffer with the smallest sufficient capacity (best fit), so after a
/// warm-up call with the largest shapes a workload uses, every subsequent
/// `take` is allocation-free — [`fresh_allocs`](Scratch::fresh_allocs)
/// counts the times the pool had to grow, which the steady-state
/// allocation tests pin to zero.
#[derive(Debug, Default)]
pub struct Scratch {
    pool: Vec<Vec<f32>>,
    fresh_allocs: u64,
}

impl Scratch {
    pub const fn new() -> Self {
        Scratch {
            pool: Vec::new(),
            fresh_allocs: 0,
        }
    }

    /// Borrow a zero-filled buffer of exactly `len` elements.
    pub fn take(&mut self, len: usize) -> Vec<f32> {
        let mut best: Option<usize> = None;
        for (i, b) in self.pool.iter().enumerate() {
            if b.capacity() >= len && best.is_none_or(|j| b.capacity() < self.pool[j].capacity()) {
                best = Some(i);
            }
        }
        let mut v = match best {
            Some(i) => self.pool.swap_remove(i),
            None => {
                self.fresh_allocs += 1;
                // kglink-lint: allow(hot-path-alloc) — the pool grows only while
                // warming up to a workload's largest shapes; crates/nn/tests/alloc.rs
                // pins steady-state allocations to zero.
                Vec::with_capacity(len)
            }
        };
        v.clear();
        v.resize(len, 0.0);
        v
    }

    /// Return a buffer to the pool for reuse.
    pub fn give(&mut self, v: Vec<f32>) {
        if v.capacity() > 0 {
            self.pool.push(v);
        }
    }

    /// Number of times `take` had to allocate because no pooled buffer was
    /// large enough. Constant across calls ⇒ the workload runs alloc-free.
    pub fn fresh_allocs(&self) -> u64 {
        self.fresh_allocs
    }

    /// Merge another pool into this one (used by the re-entrant
    /// thread-local accessor).
    fn absorb(&mut self, other: Scratch) {
        self.pool.extend(other.pool);
        self.fresh_allocs += other.fresh_allocs;
    }
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = const { RefCell::new(Scratch::new()) };
}

/// Run `f` with this thread's shared [`Scratch`] pool.
///
/// Re-entrant: a nested call temporarily sees an empty pool (so it may
/// allocate) and its buffers are merged back into the thread pool
/// afterwards. Worker threads (e.g. the serving layer's per-worker
/// threads) each get their own pool automatically.
pub fn with_thread_scratch<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    SCRATCH.with(|cell| {
        let mut s = cell.take();
        let r = f(&mut s);
        s.absorb(cell.take());
        cell.replace(s);
        r
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_reuses_pooled_buffers() {
        let mut s = Scratch::new();
        let a = s.take(100);
        s.give(a);
        let b = s.take(64); // fits in the 100-capacity buffer
        assert!(b.capacity() >= 100);
        assert_eq!(b.len(), 64);
        assert_eq!(s.fresh_allocs(), 1, "second take reuses the pool");
    }

    #[test]
    fn take_zeroes_contents() {
        let mut s = Scratch::new();
        let mut a = s.take(8);
        a.fill(7.0);
        s.give(a);
        let b = s.take(8);
        assert!(b.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn best_fit_prefers_smallest_sufficient() {
        let mut s = Scratch::new();
        let big = s.take(1000);
        let small = s.take(10);
        s.give(big);
        s.give(small);
        let c = s.take(8);
        assert!(c.capacity() < 1000, "best fit picks the small buffer");
    }

    #[test]
    fn thread_scratch_is_reentrant() {
        let before = with_thread_scratch(|s| {
            let v = s.take(32);
            s.give(v);
            s.fresh_allocs()
        });
        with_thread_scratch(|_outer| {
            with_thread_scratch(|inner| {
                let v = inner.take(16);
                inner.give(v);
            });
        });
        // The nested pool's buffer was merged back.
        let reused = with_thread_scratch(|s| {
            let v = s.take(16);
            let allocs = s.fresh_allocs();
            s.give(v);
            allocs
        });
        assert!(reused >= before);
    }
}
