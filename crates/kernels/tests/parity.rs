//! Property-based parity gates for the kernel crate.
//!
//! The fast (blocked, 4×8-unrolled) GEMM must be bit-identical to a naive
//! scalar model on finite inputs across ragged shapes and every
//! transpose-flag combination, and every fused kernel must be bit-identical
//! to the unfused composition it replaces. These are the randomized
//! counterparts of the hand-picked cases in the unit tests: shapes are
//! drawn around the 4-row/8-column register-block boundaries where the
//! edge-kernel paths live.

use kglink_kernels::{
    add_bias_rows, bias_gelu_rows, gelu, gemm, gemm_acc, layer_norm_rows, layer_norm_rows_cached,
    scaled_softmax_rows, softmax_rows, Mat, MatMut, Scratch, Trans,
};
use proptest::prelude::*;

/// Deterministic pseudo-random fill in [-2, 2): keeps the proptest input
/// space small (dims + one seed) while still exercising arbitrary data.
fn fill(seed: u64, len: usize) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) % 4000) as f32 / 1000.0 - 2.0
        })
        .collect()
}

/// Naive scalar GEMM: each output element accumulates over `k` ascending
/// from 0.0 — exactly the summation order the fast path guarantees — so
/// the comparison below can demand bit equality, not tolerance.
#[allow(clippy::too_many_arguments)]
fn naive(a: &[f32], b: &[f32], m: usize, n: usize, k: usize, ta: Trans, tb: Trans) -> Vec<f32> {
    let at = |i: usize, kk: usize| match ta {
        Trans::No => a[i * k + kk],
        Trans::Yes => a[kk * m + i],
    };
    let bt = |kk: usize, j: usize| match tb {
        Trans::No => b[kk * n + j],
        Trans::Yes => b[j * k + kk],
    };
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for kk in 0..k {
                acc += at(i, kk) * bt(kk, j);
            }
            out[i * n + j] = acc;
        }
    }
    out
}

const FLAGS: [(Trans, Trans); 4] = [
    (Trans::No, Trans::No),
    (Trans::No, Trans::Yes),
    (Trans::Yes, Trans::No),
    (Trans::Yes, Trans::Yes),
];

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn gemm_matches_naive_scalar_bitwise(
        m in 0usize..13,
        n in 0usize..13,
        k in 0usize..13,
        seed in 0u64..(1 << 48),
    ) {
        let mut scratch = Scratch::new();
        for (ta, tb) in FLAGS {
            let a = fill(seed ^ 0xA, m * k);
            let b = fill(seed ^ 0xB, k * n);
            let (ar, ac) = match ta { Trans::No => (m, k), Trans::Yes => (k, m) };
            let (br, bc) = match tb { Trans::No => (k, n), Trans::Yes => (n, k) };
            let mut out = vec![0.0f32; m * n];
            gemm(
                Mat::new(&a, ar, ac),
                Mat::new(&b, br, bc),
                ta,
                tb,
                &mut MatMut::new(&mut out, m, n),
                &mut scratch,
            );
            prop_assert_eq!(bits(&out), bits(&naive(&a, &b, m, n, k, ta, tb)));
        }
    }

    #[test]
    fn gemm_acc_adds_the_whole_product_once(
        m in 0usize..10,
        n in 0usize..10,
        k in 0usize..10,
        seed in 0u64..(1 << 48),
    ) {
        let mut scratch = Scratch::new();
        let a = fill(seed ^ 0xC, m * k);
        let b = fill(seed ^ 0xD, k * n);
        let pre = fill(seed ^ 0xE, m * n);
        let mut out = pre.clone();
        gemm_acc(
            Mat::new(&a, m, k),
            Mat::new(&b, k, n),
            Trans::No,
            Trans::No,
            &mut MatMut::new(&mut out, m, n),
            &mut scratch,
        );
        // The contract is materialize-then-add: the block sum accumulates
        // from zero and lands on `out` in a single `+=` per element.
        let product = naive(&a, &b, m, n, k, Trans::No, Trans::No);
        let expected: Vec<f32> = pre.iter().zip(&product).map(|(p, q)| p + q).collect();
        prop_assert_eq!(bits(&out), bits(&expected));
    }

    #[test]
    fn strided_view_gemm_matches_dense_copy(
        rows in 1usize..9,
        dh in 1usize..9,
        pad in 0usize..5,
        seed in 0u64..(1 << 48),
    ) {
        let mut scratch = Scratch::new();
        let stride = dh + pad;
        let wide = fill(seed ^ 0xF, rows * stride);
        let dense: Vec<f32> = (0..rows)
            .flat_map(|r| wide[r * stride..r * stride + dh].to_vec())
            .collect();
        let mut out_view = vec![0.0f32; rows * rows];
        let mut out_dense = vec![0.0f32; rows * rows];
        gemm(
            Mat::with_stride(&wide, rows, dh, stride),
            Mat::with_stride(&wide, rows, dh, stride),
            Trans::No,
            Trans::Yes,
            &mut MatMut::new(&mut out_view, rows, rows),
            &mut scratch,
        );
        gemm(
            Mat::new(&dense, rows, dh),
            Mat::new(&dense, rows, dh),
            Trans::No,
            Trans::Yes,
            &mut MatMut::new(&mut out_dense, rows, rows),
            &mut scratch,
        );
        prop_assert_eq!(bits(&out_view), bits(&out_dense));
    }

    #[test]
    fn scaled_softmax_matches_scale_then_softmax(
        rows in 1usize..20,
        cols in 1usize..17,
        seed in 0u64..(1 << 48),
        scale_raw in 1usize..40,
    ) {
        let scale = scale_raw as f32 / 8.0;
        let x = fill(seed ^ 0x10, rows * cols);
        let mut fused = x.clone();
        scaled_softmax_rows(&mut fused, cols, scale);
        let mut unfused = x;
        for v in &mut unfused {
            *v *= scale;
        }
        softmax_rows(&mut unfused, cols);
        prop_assert_eq!(bits(&fused), bits(&unfused));
    }

    #[test]
    fn cached_layer_norm_matches_in_place(
        rows in 1usize..20,
        cols in 1usize..17,
        seed in 0u64..(1 << 48),
    ) {
        let x = fill(seed ^ 0x11, rows * cols);
        let gamma = fill(seed ^ 0x12, cols);
        let beta = fill(seed ^ 0x13, cols);
        let mut in_place = x.clone();
        layer_norm_rows(&mut in_place, &gamma, &beta);
        let mut y = vec![0.0f32; rows * cols];
        let mut x_hat = vec![0.0f32; rows * cols];
        let mut inv_std = Vec::new();
        layer_norm_rows_cached(&x, &gamma, &beta, &mut y, &mut x_hat, &mut inv_std);
        prop_assert_eq!(bits(&y), bits(&in_place));
        prop_assert_eq!(inv_std.len(), rows);
    }

    #[test]
    fn bias_gelu_matches_add_bias_then_gelu(
        rows in 1usize..20,
        cols in 1usize..17,
        seed in 0u64..(1 << 48),
    ) {
        let x = fill(seed ^ 0x14, rows * cols);
        let bias = fill(seed ^ 0x15, cols);
        let mut fused = x.clone();
        bias_gelu_rows(&mut fused, &bias);
        let mut unfused = x;
        add_bias_rows(&mut unfused, &bias);
        for v in &mut unfused {
            *v = gelu(*v);
        }
        prop_assert_eq!(bits(&fused), bits(&unfused));
    }
}
