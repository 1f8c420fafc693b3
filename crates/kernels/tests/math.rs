//! The in-crate `exp` and `tanh`: accuracy against `f64` references, the
//! exact points the kernels rely on, and the property that makes the parity
//! policy hold without a reference twin — a row kernel, whatever the
//! compiler vectorised, equals element-at-a-time calls bit for bit.

use kglink_kernels::{
    bias_gelu_rows, exp, gelu, gelu_grad, layer_norm_rows, layer_norm_rows_cached, log_softmax,
    scaled_softmax_rows, softmax, softmax_rows, tanh, LAYER_NORM_EPS,
};
use std::hint::black_box;

/// Largest relative error of `exp` over its unclamped range `[-87, 88]`.
const EXP_MAX_REL_ERR: f64 = 1.0e-7;
/// Largest absolute error of `tanh` over `[-9, 9]` (it is ±1 beyond).
const TANH_MAX_ABS_ERR: f64 = 4.0e-7;
const GRID: u32 = 1_000_000;

fn grid(lo: f64, hi: f64) -> impl Iterator<Item = f32> {
    (0..=GRID).map(move |i| (lo + (hi - lo) * f64::from(i) / f64::from(GRID)) as f32)
}

#[test]
fn exp_is_accurate_and_monotone_on_a_dense_grid() {
    let mut worst = 0.0f64;
    let mut prev = 0.0f32;
    for x in grid(-87.0, 88.0) {
        let y = exp(x);
        let want = f64::from(x).exp();
        worst = worst.max(((f64::from(y) - want) / want).abs());
        assert!(
            y >= prev,
            "exp({x}) = {y:e} fell below its left neighbour {prev:e}"
        );
        prev = y;
    }
    assert!(worst <= EXP_MAX_REL_ERR, "max relative error {worst:e}");
    // Denser where softmax lives: every 37th float of [-20, 0].
    let mut bits = (-20.0f32).to_bits();
    let mut prev = 0.0f32;
    while bits > 37 + (-0.0f32).to_bits() {
        let x = f32::from_bits(bits);
        let y = exp(x);
        let want = f64::from(x).exp();
        assert!(
            ((f64::from(y) - want) / want).abs() <= EXP_MAX_REL_ERR,
            "exp({x})"
        );
        assert!(y >= prev, "exp({x})");
        prev = y;
        bits -= 37;
    }
}

#[test]
fn exp_exact_points_saturation_and_nan() {
    assert_eq!(exp(0.0).to_bits(), 1.0f32.to_bits());
    assert_eq!(exp(-0.0).to_bits(), 1.0f32.to_bits());
    // Saturates at the clamp, never 0, never ∞: softmax may divide by it.
    let (lo, hi) = (exp(-87.0), exp(88.0));
    assert!(lo > 0.0 && lo.is_normal() && hi.is_finite());
    for x in [-88.0, -1e3, -1e30, f32::MIN, f32::NEG_INFINITY] {
        assert_eq!(exp(x).to_bits(), lo.to_bits(), "exp({x})");
    }
    for x in [88.5, 1e3, 1e30, f32::MAX, f32::INFINITY] {
        assert_eq!(exp(x).to_bits(), hi.to_bits(), "exp({x})");
    }
    assert!(exp(f32::NAN).is_nan());
}

#[test]
fn tanh_is_accurate_odd_and_bounded_on_a_dense_grid() {
    let mut worst = 0.0f64;
    for x in grid(-9.0, 9.0) {
        let y = tanh(x);
        worst = worst.max((f64::from(y) - f64::from(x).tanh()).abs());
        assert!(y.abs() <= 1.0, "tanh({x}) = {y}");
        assert_eq!(tanh(-x).to_bits(), (-y).to_bits(), "tanh is odd at {x}");
    }
    assert!(worst <= TANH_MAX_ABS_ERR, "max absolute error {worst:e}");
}

#[test]
fn tanh_exact_points_saturation_and_nan() {
    assert_eq!(tanh(0.0).to_bits(), 0.0f32.to_bits());
    assert_eq!(tanh(-0.0).to_bits(), (-0.0f32).to_bits());
    for x in [7.905_311, 8.0, 1e3, f32::MAX, f32::INFINITY] {
        assert_eq!(tanh(x), 1.0, "tanh({x})");
        assert_eq!(tanh(-x), -1.0, "tanh(-{x})");
    }
    assert!(tanh(f32::NAN).is_nan());
    // Tiny inputs neither flush to zero nor lose their sign.
    assert!((tanh(1e-20) / 1e-20 - 1.0).abs() < 1e-6);
    // GELU inherits the saturation: identity far right, zero far left.
    assert_eq!(gelu(50.0), 50.0);
    assert_eq!(gelu(-50.0), 0.0);
    assert!(gelu(f32::NAN).is_nan() && gelu_grad(f32::NAN).is_nan());
}

/// Deterministic values in [-6, 6): wide enough to leave `exp`'s and
/// `tanh`'s central range in both directions.
fn fill(seed: usize, len: usize) -> Vec<f32> {
    (0..len)
        .map(|i| ((i * 7919 + seed * 104_729 + 13) % 12_001) as f32 / 1000.0 - 6.0)
        .collect()
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|v| v.to_bits()).collect()
}

/// Row widths 1..=17 cross every vector width (4, 8, 16 lanes) and leave
/// every possible scalar remainder; row counts 1..=19 reach two full
/// eight-row reduction groups and every remainder after them. The
/// reference goes through `black_box` one element at a time, so it cannot
/// be vectorised (or interleaved across rows) the same way.
#[test]
fn row_kernels_equal_element_at_a_time_calls_bitwise() {
    let one = |f: fn(f32) -> f32, v: f32| black_box(f)(black_box(v));
    for cols in 1..=17usize {
        for rows in 1..=19usize {
            let x = fill(cols * 31 + rows, rows * cols);
            let bias = fill(cols + 1000, cols);

            let mut fused = x.clone();
            bias_gelu_rows(&mut fused, &bias);
            let want: Vec<f32> = x
                .iter()
                .enumerate()
                .map(|(i, &v)| one(gelu, v + bias[i % cols]))
                .collect();
            assert_eq!(bits(&fused), bits(&want), "bias_gelu_rows cols {cols}");

            let scale = 0.288_675_13f32;
            let mut want = x.clone();
            for row in want.chunks_exact_mut(cols) {
                let max = row
                    .iter()
                    .map(|&v| v * scale)
                    .fold(f32::NEG_INFINITY, f32::max);
                let mut sum = 0.0f32;
                for v in row.iter_mut() {
                    *v = one(exp, *v * scale - max);
                    sum += *v;
                }
                let inv = 1.0 / sum.max(f32::MIN_POSITIVE);
                for v in row.iter_mut() {
                    *v *= inv;
                }
            }
            let mut fused = x.clone();
            scaled_softmax_rows(&mut fused, cols, scale);
            assert_eq!(bits(&fused), bits(&want), "scaled_softmax_rows cols {cols}");

            // The out-of-place helpers are the same function of a row.
            let mut in_place = x[..cols].to_vec();
            softmax_rows(&mut in_place, cols);
            assert_eq!(
                bits(&softmax(&x[..cols])),
                bits(&in_place),
                "softmax cols {cols}"
            );
            let max = x[..cols].iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0f32;
            for &v in &x[..cols] {
                sum += one(exp, v - max);
            }
            let want: Vec<f32> = x[..cols].iter().map(|&v| v - (sum.ln() + max)).collect();
            assert_eq!(
                bits(&log_softmax(&x[..cols])),
                bits(&want),
                "log_softmax cols {cols}"
            );
        }
    }
}

/// One row's layer norm, one element at a time: both sums start from
/// `-0.0` (where `Iterator::sum` starts) and add in column order, and the
/// variance squares with `powi(2)`.
fn layer_norm_row_oracle(row: &[f32], gamma: &[f32], beta: &[f32]) -> (Vec<f32>, Vec<f32>, f32) {
    let d = row.len() as f32;
    let mut sum = -0.0f32;
    for &v in row {
        sum = black_box(sum + v);
    }
    let mean = sum / d;
    let mut sq = -0.0f32;
    for &v in row {
        sq = black_box(sq + (v - mean).powi(2));
    }
    let istd = 1.0 / (sq / d + LAYER_NORM_EPS).sqrt();
    let x_hat: Vec<f32> = row.iter().map(|&v| black_box((v - mean) * istd)).collect();
    let y = x_hat
        .iter()
        .zip(gamma.iter().zip(beta))
        .map(|(&h, (&g, &b))| h * g + b)
        .collect();
    (y, x_hat, istd)
}

/// Both layer-norm kernels equal the per-row oracle bit for bit, over the
/// same widths and row counts as above.
#[test]
fn layer_norm_kernels_equal_a_per_row_oracle_bitwise() {
    for cols in 1..=17usize {
        for rows in 1..=19usize {
            let x = fill(cols * 37 + rows, rows * cols);
            let gamma = fill(cols + 2000, cols);
            let beta = fill(cols + 3000, cols);
            let (mut want_y, mut want_h, mut want_istd) = (Vec::new(), Vec::new(), Vec::new());
            for row in x.chunks_exact(cols) {
                let (y, h, istd) = layer_norm_row_oracle(row, &gamma, &beta);
                want_y.extend(y);
                want_h.extend(h);
                want_istd.push(istd);
            }
            let mut in_place = x.clone();
            layer_norm_rows(&mut in_place, &gamma, &beta);
            assert_eq!(
                bits(&in_place),
                bits(&want_y),
                "layer_norm_rows {rows}x{cols}"
            );
            let (mut y, mut h, mut istd) = (vec![0.0; x.len()], vec![0.0; x.len()], Vec::new());
            layer_norm_rows_cached(&x, &gamma, &beta, &mut y, &mut h, &mut istd);
            assert_eq!(
                bits(&y),
                bits(&want_y),
                "layer_norm_rows_cached y {rows}x{cols}"
            );
            assert_eq!(
                bits(&h),
                bits(&want_h),
                "layer_norm_rows_cached x_hat {rows}x{cols}"
            );
            assert_eq!(
                bits(&istd),
                bits(&want_istd),
                "layer_norm_rows_cached istd {rows}x{cols}"
            );
        }
    }
    // Rows of negative zeros tell a `-0.0` start from a `0.0` one: with a
    // `0.0` start the mean is `+0.0`, every `x_hat` is `-0.0` and, with a
    // `-0.0` bias, so is every output. Nine rows: one group, one remainder.
    let mut zeros = vec![-0.0f32; 9 * 4];
    layer_norm_rows(&mut zeros, &[1.0; 4], &[-0.0; 4]);
    let want = layer_norm_row_oracle(&[-0.0; 4], &[1.0; 4], &[-0.0; 4]).0;
    for row in zeros.chunks_exact(4) {
        assert_eq!(bits(row), bits(&want));
    }
}
