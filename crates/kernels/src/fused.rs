//! Fused row-wise kernels: softmax (with the attention scale folded in),
//! layer norm, and bias+GELU, plus the scalar activation helpers.
//!
//! All functions operate on flat row-major `f32` slices; the row width is
//! taken from the parameter slice (`gamma`/`bias`) or passed as `cols`.
//! Each fusion performs exactly the operation sequence of the unfused
//! legacy code (e.g. `t = v * scale` then `exp(t - max)`), so results are
//! bit-identical to computing the steps separately.
//!
//! The row reductions (softmax max and sum, layer-norm mean and variance)
//! run eight rows abreast: one accumulator chain per row, the eight chains
//! interleaved column by column so they overlap in the pipeline. The last
//! group may be short; its unused lanes fold a copy of its last row and
//! are dropped. Each row's chain is still its own fold in column order
//! from the same start value, so every row's bits are those of the row on
//! its own.

use crate::math::{exp, tanh};

/// Layer-norm variance epsilon (matches the original `kglink-nn` value).
pub const LAYER_NORM_EPS: f32 = 1e-5;

/// Rows per interleaved reduction group (module docs).
const GROUP: usize = 8;

/// Fold each row of `block` (at most `GROUP` rows of `cols`) in column
/// order, one chain per row starting from `init`, the chains interleaved;
/// `f(row, acc, v)`. A short block's lanes past its last row fold that row
/// again, so every block runs the same eight-lane loop.
#[inline(always)]
fn fold_group(
    block: &[f32],
    cols: usize,
    init: f32,
    f: impl Fn(usize, f32, f32) -> f32,
) -> [f32; GROUP] {
    let last = block.len() / cols - 1;
    let rows: [&[f32]; GROUP] = std::array::from_fn(|k| {
        let k = k.min(last);
        &block[k * cols..(k + 1) * cols]
    });
    let mut acc = [init; GROUP];
    for c in 0..cols {
        for (k, (a, row)) in acc.iter_mut().zip(&rows).enumerate() {
            *a = f(k, *a, row[c]);
        }
    }
    acc
}

/// Numerically stable in-place row-wise softmax.
pub fn softmax_rows(x: &mut [f32], cols: usize) {
    // `v * 1.0` is `v` bit for bit, so this is the unscaled softmax.
    scaled_softmax_rows(x, cols, 1.0);
}

/// In-place row-wise `softmax(x * scale)` — the attention `1/√d_h` scale
/// folded into the softmax pass. `v * scale` is recomputed with the same
/// multiply in both the max scan and the exp pass, so the result is
/// bit-identical to scaling first and then calling [`softmax_rows`]. The
/// `exp` pass is element-wise and vectorises; the row sum after it stays
/// one sequential chain, ascending from 0.0.
pub fn scaled_softmax_rows(x: &mut [f32], cols: usize, scale: f32) {
    assert!(
        cols > 0 && x.len().is_multiple_of(cols),
        "scaled_softmax_rows shape"
    );
    for block in x.chunks_mut(GROUP * cols) {
        let max = fold_group(block, cols, f32::NEG_INFINITY, |_, m, v| {
            f32::max(m, v * scale)
        });
        for (row, &m) in block.chunks_exact_mut(cols).zip(&max) {
            for v in row.iter_mut() {
                *v = exp(*v * scale - m);
            }
        }
        let sum = fold_group(block, cols, 0.0, |_, s, v| s + v);
        for (row, &s) in block.chunks_exact_mut(cols).zip(&sum) {
            let inv = 1.0 / s.max(f32::MIN_POSITIVE);
            for v in row.iter_mut() {
                *v *= inv;
            }
        }
    }
}

/// Softmax of a single slice, out of place.
pub fn softmax(x: &[f32]) -> Vec<f32> {
    let mut out = x.to_vec();
    if !out.is_empty() {
        softmax_rows(&mut out, x.len());
    }
    out
}

/// Log-softmax of a single slice.
pub fn log_softmax(x: &[f32]) -> Vec<f32> {
    let max = x.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f32;
    for &v in x {
        sum += exp(v - max);
    }
    let log_sum = sum.ln() + max;
    x.iter().map(|&v| v - log_sum).collect()
}

/// Backward through a row-wise softmax: given `probs = softmax(z)` and
/// upstream gradient `dp`, computes `dz = probs ⊙ (dp - Σ probs ⊙ dp)` row
/// by row, writing into `dp` in place.
pub fn softmax_backward_rows(probs: &[f32], dp: &mut [f32], cols: usize) {
    assert_eq!(probs.len(), dp.len(), "softmax_backward_rows shape");
    assert!(
        cols > 0 && dp.len().is_multiple_of(cols),
        "softmax_backward_rows cols"
    );
    for (p, g) in probs.chunks_exact(cols).zip(dp.chunks_exact_mut(cols)) {
        let dot: f32 = p.iter().zip(g.iter()).map(|(a, b)| a * b).sum();
        for (gi, &pi) in g.iter_mut().zip(p) {
            *gi = pi * (*gi - dot);
        }
    }
}

/// Layer-norm mean and inverse standard deviation of each row of `block`
/// (at most `GROUP` rows of `d`). Both sums start where `Iterator::sum`
/// does (`-0.0`), and the variance keeps `.powi(2)`.
#[inline(always)]
fn ln_stats_group(block: &[f32], d: usize) -> ([f32; GROUP], [f32; GROUP]) {
    let sum = fold_group(block, d, -0.0, |_, s, v| s + v);
    let mean = sum.map(|s| s / d as f32);
    let sq = fold_group(block, d, -0.0, |k, s, v| s + (v - mean[k]).powi(2));
    let istd = sq.map(|s| 1.0 / (s / d as f32 + LAYER_NORM_EPS).sqrt());
    (mean, istd)
}

/// In-place row-wise layer norm with learned gain and bias. The row width
/// is `gamma.len()`.
pub fn layer_norm_rows(x: &mut [f32], gamma: &[f32], beta: &[f32]) {
    let d = gamma.len();
    assert_eq!(beta.len(), d, "layer_norm_rows params");
    assert!(d > 0 && x.len().is_multiple_of(d), "layer_norm_rows shape");
    for block in x.chunks_mut(GROUP * d) {
        let (mean, istd) = ln_stats_group(block, d);
        for (k, row) in block.chunks_exact_mut(d).enumerate() {
            for (c, v) in row.iter_mut().enumerate() {
                let h = (*v - mean[k]) * istd[k];
                *v = h * gamma[c] + beta[c];
            }
        }
    }
}

/// Layer norm that also records what the backward pass needs: writes `y`,
/// the normalized activations `x_hat`, and pushes one inverse-std per row
/// onto `inv_std`.
pub fn layer_norm_rows_cached(
    x: &[f32],
    gamma: &[f32],
    beta: &[f32],
    y: &mut [f32],
    x_hat: &mut [f32],
    inv_std: &mut Vec<f32>,
) {
    let d = gamma.len();
    assert_eq!(beta.len(), d, "layer_norm_rows_cached params");
    assert!(
        d > 0 && x.len().is_multiple_of(d),
        "layer_norm_rows_cached shape"
    );
    assert_eq!(x.len(), y.len());
    assert_eq!(x.len(), x_hat.len());
    let g = GROUP * d;
    for ((block, y), x_hat) in x.chunks(g).zip(y.chunks_mut(g)).zip(x_hat.chunks_mut(g)) {
        let (mean, istd) = ln_stats_group(block, d);
        inv_std.extend_from_slice(&istd[..block.len() / d]);
        let rows = block
            .chunks_exact(d)
            .zip(y.chunks_exact_mut(d))
            .zip(x_hat.chunks_exact_mut(d));
        for (k, ((row, yo), xh)) in rows.enumerate() {
            for c in 0..d {
                let h = (row[c] - mean[k]) * istd[k];
                xh[c] = h;
                yo[c] = h * gamma[c] + beta[c];
            }
        }
    }
}

/// In-place row-broadcast bias add; the row width is `bias.len()`.
pub fn add_bias_rows(x: &mut [f32], bias: &[f32]) {
    let d = bias.len();
    assert!(d > 0 && x.len().is_multiple_of(d), "add_bias_rows shape");
    for row in x.chunks_exact_mut(d) {
        for (v, &b) in row.iter_mut().zip(bias) {
            *v += b;
        }
    }
}

/// Fused bias add + GELU: `x[r][c] = gelu(x[r][c] + bias[c])`. Same op
/// sequence as the unfused add-then-activate, so bit-identical to it.
pub fn bias_gelu_rows(x: &mut [f32], bias: &[f32]) {
    let d = bias.len();
    assert!(d > 0 && x.len().is_multiple_of(d), "bias_gelu_rows shape");
    for row in x.chunks_exact_mut(d) {
        for (v, &b) in row.iter_mut().zip(bias) {
            *v = gelu(*v + b);
        }
    }
}

/// GELU activation (tanh approximation, as in BERT).
#[inline]
pub fn gelu(x: f32) -> f32 {
    const C: f32 = 0.797_884_6; // sqrt(2/pi)
    0.5 * x * (1.0 + tanh(C * (x + 0.044_715 * x * x * x)))
}

/// Derivative of [`gelu`].
#[inline]
pub fn gelu_grad(x: f32) -> f32 {
    const C: f32 = 0.797_884_6;
    let x3 = x * x * x;
    let inner = C * (x + 0.044_715 * x3);
    let t = tanh(inner);
    let sech2 = 1.0 - t * t;
    0.5 * (1.0 + t) + 0.5 * x * sech2 * C * (1.0 + 3.0 * 0.044_715 * x * x)
}

/// Mean of a slice.
#[inline]
pub fn mean(x: &[f32]) -> f32 {
    if x.is_empty() {
        0.0
    } else {
        x.iter().sum::<f32>() / x.len() as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut x = vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0];
        softmax_rows(&mut x, 3);
        for r in 0..2 {
            let s: f32 = x[r * 3..(r + 1) * 3].iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
            assert!(x[r * 3..(r + 1) * 3].iter().all(|&v| v > 0.0));
        }
        // Ordering preserved.
        assert!(x[2] > x[1]);
    }

    #[test]
    fn scaled_softmax_matches_scale_then_softmax_bitwise() {
        let base = [0.3f32, -1.7, 2.2, 0.0, 5.5, -0.25, 1.125, -3.0];
        let scale = 1.0 / (12.0f32).sqrt();
        let mut fused = base;
        scaled_softmax_rows(&mut fused, 4, scale);
        let mut staged = base;
        for v in &mut staged {
            *v *= scale;
        }
        softmax_rows(&mut staged, 4);
        assert_eq!(fused, staged);
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = softmax(&[1.0, 2.0, 3.0]);
        let b = softmax(&[1001.0, 1002.0, 1003.0]);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn log_softmax_matches_ln_of_softmax() {
        let x = [0.5f32, -1.0, 2.0];
        let p = softmax(&x);
        let lp = log_softmax(&x);
        for (a, b) in p.iter().zip(&lp) {
            assert!((a.ln() - b).abs() < 1e-5);
        }
    }

    #[test]
    fn softmax_backward_matches_finite_difference() {
        let z = [0.3f32, -0.7, 1.1, 0.0];
        let upstream = [0.25f32, -0.5, 0.1, 0.9];
        let probs = softmax(&z);
        let mut dp = upstream;
        softmax_backward_rows(&probs, &mut dp, 4);
        let eps = 1e-3f32;
        for i in 0..4 {
            let mut zp = z;
            zp[i] += eps;
            let mut zm = z;
            zm[i] -= eps;
            let f =
                |zz: &[f32]| -> f32 { softmax(zz).iter().zip(&upstream).map(|(p, u)| p * u).sum() };
            let num = (f(&zp) - f(&zm)) / (2.0 * eps);
            assert!(
                (num - dp[i]).abs() < 1e-3,
                "dim {i}: numeric {num} vs analytic {}",
                dp[i]
            );
        }
    }

    #[test]
    fn layer_norm_normalizes_with_identity_params() {
        let gamma = [1.0f32; 4];
        let beta = [0.0f32; 4];
        let mut x = vec![1.0, 2.0, 3.0, 4.0, -5.0, 0.0, 5.0, 10.0];
        layer_norm_rows(&mut x, &gamma, &beta);
        for r in 0..2 {
            let row = &x[r * 4..(r + 1) * 4];
            let mean: f32 = row.iter().sum::<f32>() / 4.0;
            let var: f32 = row.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / 4.0;
            assert!(mean.abs() < 1e-5);
            assert!((var - 1.0).abs() < 1e-3);
        }
    }

    #[test]
    fn cached_layer_norm_matches_in_place_variant_bitwise() {
        let gamma = [1.5f32, -0.5, 0.25, 2.0];
        let beta = [0.1f32, 0.0, -0.75, 0.5];
        let x: Vec<f32> = (0..12).map(|i| (i as f32) * 0.7 - 3.0).collect();
        let mut in_place = x.clone();
        layer_norm_rows(&mut in_place, &gamma, &beta);
        let mut y = vec![0.0f32; 12];
        let mut x_hat = vec![0.0f32; 12];
        let mut inv_std = Vec::new();
        layer_norm_rows_cached(&x, &gamma, &beta, &mut y, &mut x_hat, &mut inv_std);
        assert_eq!(y, in_place);
        assert_eq!(inv_std.len(), 3);
        for (h, istd) in x_hat.chunks_exact(4).zip(&inv_std) {
            assert!(istd.is_finite() && *istd > 0.0);
            let m: f32 = h.iter().sum::<f32>() / 4.0;
            assert!(m.abs() < 1e-5, "x_hat rows are normalized");
        }
    }

    #[test]
    fn bias_gelu_matches_add_then_gelu_bitwise() {
        let bias = [0.5f32, -1.0, 0.0];
        let base: Vec<f32> = (0..9).map(|i| (i as f32) * 0.4 - 2.0).collect();
        let mut fused = base.clone();
        bias_gelu_rows(&mut fused, &bias);
        let mut staged = base;
        add_bias_rows(&mut staged, &bias);
        for v in &mut staged {
            *v = gelu(*v);
        }
        assert_eq!(fused, staged);
    }

    #[test]
    fn gelu_known_values() {
        assert!((gelu(0.0)).abs() < 1e-7);
        assert!((gelu(100.0) - 100.0).abs() < 1e-3, "large x ≈ identity");
        assert!(gelu(-100.0).abs() < 1e-3, "very negative x ≈ 0");
        assert!((gelu(1.0) - 0.8412).abs() < 1e-3);
    }

    #[test]
    fn gelu_grad_matches_finite_difference() {
        for &x in &[-3.0f32, -1.0, -0.1, 0.0, 0.5, 2.0] {
            let eps = 1e-3;
            let num = (gelu(x + eps) - gelu(x - eps)) / (2.0 * eps);
            assert!(
                (num - gelu_grad(x)).abs() < 1e-3,
                "x={x}: numeric {num} vs analytic {}",
                gelu_grad(x)
            );
        }
    }

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
    }
}
