//! Steady-state inference performs **zero** heap allocations.
//!
//! The scratch-arena design (`kglink_kernels::Scratch` +
//! `EncoderScratch`) claims that after the first warm-up call, every
//! buffer the batched forward needs comes out of a preallocated pool.
//! `EncoderScratch::fresh_allocs` already counts pool misses, but it can
//! only see allocations routed *through* the pool. This test installs a
//! counting global allocator and asserts on the real thing: the process
//! allocation counter must not move across repeated `infer_batch` and
//! `infer_batch_rows` calls.
//!
//! The test lives alone in its own integration-test binary on purpose —
//! any concurrently running test would allocate and poison the counter.
//!
//! It also holds the workspace's only `unsafe` (every lib root carries
//! `#![forbid(unsafe_code)]`), so the `// SAFETY:` discipline is a compile
//! error here under `clippy -D warnings` rather than a lint rule.

#![deny(clippy::undocumented_unsafe_blocks)]

use kglink_nn::{Encoder, EncoderConfig, EncoderScratch};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

/// System allocator with a call counter on every acquisition path
/// (`alloc`, `alloc_zeroed`, and growth via `realloc`).
struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter bump is a
// side-effect-free atomic and cannot violate it.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: delegates to `System::alloc` with the caller's layout.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through untouched.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: delegates to `System::alloc_zeroed` with the caller's layout.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through untouched.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: delegates to `System::realloc`; the caller owns the contract.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout`/`new_size` come straight from the caller,
        // who must satisfy `realloc`'s contract; we forward them as-is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: delegates to `System::dealloc`; `ptr` came from this impl.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was produced by `System` via one of the methods
        // above with this same `layout`; forwarding is sound.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: CountingAlloc = CountingAlloc;

/// Warm a fresh scratch with one `forward` (which appends the values it
/// reads to the given buffer), then require five more calls to leave the
/// process allocation counter and the pool's miss counter where the
/// warm-up left them, with every output bit equal to the warm-up's.
fn assert_allocation_free(name: &str, mut forward: impl FnMut(&mut EncoderScratch, &mut Vec<f32>))
{
    let mut scratch = EncoderScratch::new();
    // Warm-up: sizes the scratch pool, the packed hidden buffer, and the
    // offsets table for this batch shape.
    let mut warm = Vec::new();
    forward(&mut scratch, &mut warm);
    let mut out = Vec::with_capacity(warm.len());
    let pool_misses = scratch.fresh_allocs();
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    for _ in 0..5 {
        out.clear();
        forward(&mut scratch, &mut out);
        // Read every value so the call cannot be optimized away, without
        // allocating: compare against the warm-up output in place.
        assert_eq!(out.len(), warm.len(), "{name} output length changed");
        if let Some(i) = out.iter().zip(&warm).position(|(a, b)| a.to_bits() != b.to_bits()) {
            panic!("{name} output element {i} changed after warm-up");
        }
    }
    let after = ALLOC_CALLS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "steady-state {name} hit the global allocator {} time(s)",
        after - before
    );
    assert_eq!(
        scratch.fresh_allocs(),
        pool_misses,
        "{name}: scratch pool reported a miss after warm-up"
    );
}

/// Both serving shapes in one test: a second test in this binary would
/// run concurrently and allocate into the counter.
#[test]
fn steady_state_batched_inference_is_allocation_free() {
    let encoder = Encoder::new(EncoderConfig::mini(256));
    let seqs: Vec<Vec<u32>> = (0..6)
        .map(|i| (0..(5 + i * 7)).map(|t| (t % 251) as u32).collect())
        .collect();
    let refs: Vec<&[u32]> = seqs.iter().map(Vec::as_slice).collect();
    // What classification reads: each segment's CLS row, plus two more
    // rows of the longest segment.
    let mut needed: Vec<(usize, usize)> = (0..refs.len()).map(|seg| (seg, 0)).collect();
    needed.extend([(5, 3), (5, 39)]);

    assert_allocation_free("infer_batch", |scratch, out| {
        out.extend(encoder.infer_batch(&refs, scratch).packed().data());
    });
    assert_allocation_free("infer_batch_rows", |scratch, out| {
        let rows = encoder.infer_batch_rows(&refs, &needed, scratch);
        out.extend(needed.iter().flat_map(|&(seg, r)| rows.row(seg, r)));
    });
}
