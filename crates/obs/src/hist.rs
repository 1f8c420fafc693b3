//! Log-linear-bucket histograms over `u64` microsecond values.
//!
//! The bucket layout is HDR-style: values below [`SUB`] land in exact
//! unit-width buckets; above that, each power-of-two octave is split into
//! [`SUB`] equal sub-buckets, so the relative width of any bucket is at
//! most `1/SUB` (≈3.1% with `SUB = 32`). Quantiles therefore carry a
//! bounded relative error — tight enough for latency reporting, while
//! keeping `record` branch-free arithmetic on a fixed-size array.
//!
//! [`Histogram::merge`] is commutative and associative with
//! [`Histogram::new`] as identity (bucket counts simply add), which is
//! what lets per-worker shards fold into one aggregate in any order —
//! the property tests in `tests/histogram.rs` pin this down against a
//! sorted-vec reference model.

/// Sub-bucket resolution bits: 32 sub-buckets per octave.
const SUB_BITS: u32 = 5;
/// Sub-buckets per octave; also the width of the exact linear range.
pub const SUB: u64 = 1 << SUB_BITS;
/// Total bucket count covering the full `u64` range.
const N_BUCKETS: usize = (SUB as usize) + (64 - SUB_BITS as usize) * SUB as usize;

/// Bucket index for a value. Exact below [`SUB`]; log-linear above.
#[inline]
fn index_of(v: u64) -> usize {
    if v < SUB {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros();
        let octave = (msb - SUB_BITS) as usize;
        let sub = ((v >> (msb - SUB_BITS)) & (SUB - 1)) as usize;
        SUB as usize + octave * SUB as usize + sub
    }
}

/// Inclusive `[lo, hi]` value range of bucket `idx`.
fn bounds_of(idx: usize) -> (u64, u64) {
    if idx < SUB as usize {
        (idx as u64, idx as u64)
    } else {
        let octave = (idx - SUB as usize) / SUB as usize;
        let sub = ((idx - SUB as usize) % SUB as usize) as u64;
        let lo = (SUB + sub) << octave;
        let width = 1u64 << octave;
        (lo, lo + (width - 1))
    }
}

/// A mergeable log-linear latency histogram (microsecond values).
///
/// This is the workspace's single source of percentile math: retrieval
/// metrics, service metrics, and the experiment binaries all report
/// quantiles through it. See the module docs for the error bound.
#[derive(Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram (the identity of [`merge`](Self::merge)).
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; N_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one value.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Record `n` occurrences of `v`.
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.counts[index_of(v)] += n;
        self.count += n;
        self.sum = self.sum.saturating_add(v.saturating_mul(n));
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Values recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Saturating sum of all recorded values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Nearest-rank quantile, `q` in `[0, 1]`.
    ///
    /// The returned value is the representative (midpoint) of the bucket
    /// holding the nearest-rank sample, clamped to the observed
    /// `[min, max]`; values in the exact linear range come back exactly.
    /// Relative error is bounded by the bucket width, ≤ `1/SUB` ≈ 3.1%.
    // kglink-lint: allow(single-percentile) — this is the one canonical
    // percentile implementation the rule protects; everything else merges
    // into or queries this Histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // Same nearest-rank convention the workspace's hand-rolled
        // percentile implementations used: idx = round((n - 1) * q).
        let rank = ((self.count - 1) as f64 * q).round() as u64;
        // The extremes are tracked exactly; report them exactly.
        if rank == 0 {
            return self.min;
        }
        if rank == self.count - 1 {
            return self.max;
        }
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            seen += c;
            if seen > rank {
                let (lo, hi) = bounds_of(idx);
                let rep = lo + (hi - lo) / 2;
                return rep.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// p50 convenience, in the unit recorded (microseconds by convention).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// p99 convenience.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Fold `other` into `self`. Bucket counts add, so `merge_from` is
    /// commutative and associative, with [`Histogram::new`] as identity.
    pub fn merge_from(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Owned merge: `a.merge(&b)` leaves both operands intact.
    pub fn merge(&self, other: &Histogram) -> Histogram {
        let mut out = self.clone();
        out.merge_from(other);
        out
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count)
            .field("sum", &self.sum)
            .field("min", &self.min())
            .field("max", &self.max)
            .field("p50", &self.p50())
            .field("p99", &self.p99())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 2, 3, 5, 7, 31] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(0.5), 3);
        assert_eq!(h.quantile(1.0), 31);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 31);
    }

    #[test]
    fn bucket_bounds_tile_the_u64_range() {
        // Every bucket's hi + 1 is the next bucket's lo.
        let mut prev_hi: Option<u64> = None;
        for idx in 0..2_000usize.min(N_BUCKETS) {
            let (lo, hi) = bounds_of(idx);
            assert!(lo <= hi);
            if let Some(p) = prev_hi {
                assert_eq!(lo, p + 1, "gap before bucket {idx}");
            }
            assert_eq!(index_of(lo), idx);
            assert_eq!(index_of(hi), idx);
            prev_hi = Some(hi);
        }
    }

    #[test]
    fn extreme_values_do_not_overflow() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        h.record(0);
        assert_eq!(h.count(), 3);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.quantile(1.0), u64::MAX);
        assert_eq!(h.sum(), u64::MAX, "sum saturates instead of wrapping");
    }

    #[test]
    fn relative_error_is_bounded() {
        let mut h = Histogram::new();
        for v in (0..10_000u64).map(|i| i * 37 + 11) {
            h.record(v);
        }
        let mut sorted: Vec<u64> = (0..10_000u64).map(|i| i * 37 + 11).collect();
        sorted.sort_unstable();
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
            let exact = sorted[(((sorted.len() - 1) as f64) * q).round() as usize];
            let approx = h.quantile(q);
            let err = (approx as f64 - exact as f64).abs() / (exact.max(1) as f64);
            assert!(err <= 1.0 / SUB as f64 + 1e-9, "q={q}: {approx} vs {exact}");
        }
    }
}
