//! The one GEMM entry point: `out = op(A) · op(B)` over strided views.
//!
//! Tiling scheme: the output is walked in 4-row × 8-column register
//! blocks (`MR` × `NR`). Each block holds its partial sums in registers
//! (`[[f32; 8]; 4]` — 8 f32 lanes, one AVX/NEON-class vector per row) and
//! streams over `k` once, so every output element accumulates its terms
//! **sequentially in ascending `k` from 0.0** — the property that makes
//! the fast path bit-identical to the naive reference and to the legacy
//! `kglink-nn` loops. Transposed operands are packed into contiguous
//! row-major panels of `op(X)` first (pure data movement), so the inner
//! loop always does unit-stride loads. At encoder sizes (`k ≤ 192`) the
//! operands fit in L1/L2, so no further cache-level blocking is needed.

use crate::scratch::Scratch;
use std::sync::atomic::{AtomicBool, Ordering};

/// Transpose flag for a GEMM operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trans {
    No,
    Yes,
}

/// Immutable strided matrix view: `rows × cols`, each row a contiguous
/// slice, consecutive rows `row_stride` apart. A `row_stride` larger than
/// `cols` views a column band of a wider matrix (e.g. one attention head
/// inside a packed `rows × d_model` activation buffer).
#[derive(Debug, Clone, Copy)]
pub struct Mat<'a> {
    data: &'a [f32],
    rows: usize,
    cols: usize,
    row_stride: usize,
}

fn view_len(rows: usize, cols: usize, row_stride: usize) -> usize {
    if rows == 0 || cols == 0 {
        0
    } else {
        (rows - 1) * row_stride + cols
    }
}

impl<'a> Mat<'a> {
    /// Dense row-major view (`row_stride == cols`).
    pub fn new(data: &'a [f32], rows: usize, cols: usize) -> Self {
        Self::with_stride(data, rows, cols, cols)
    }

    /// Strided view.
    ///
    /// # Panics
    /// Panics if `row_stride < cols` or `data` is too short.
    pub fn with_stride(data: &'a [f32], rows: usize, cols: usize, row_stride: usize) -> Self {
        assert!(row_stride >= cols, "row_stride must cover cols");
        assert!(
            data.len() >= view_len(rows, cols, row_stride),
            "Mat view out of bounds"
        );
        Mat {
            data,
            rows,
            cols,
            row_stride,
        }
    }

    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.row_stride..r * self.row_stride + self.cols]
    }
}

/// Mutable strided matrix view (see [`Mat`]).
#[derive(Debug)]
pub struct MatMut<'a> {
    data: &'a mut [f32],
    rows: usize,
    cols: usize,
    row_stride: usize,
}

impl<'a> MatMut<'a> {
    /// Dense row-major view (`row_stride == cols`).
    pub fn new(data: &'a mut [f32], rows: usize, cols: usize) -> Self {
        Self::with_stride(data, rows, cols, cols)
    }

    /// Strided view.
    ///
    /// # Panics
    /// Panics if `row_stride < cols` or `data` is too short.
    pub fn with_stride(data: &'a mut [f32], rows: usize, cols: usize, row_stride: usize) -> Self {
        assert!(row_stride >= cols, "row_stride must cover cols");
        assert!(
            data.len() >= view_len(rows, cols, row_stride),
            "MatMut view out of bounds"
        );
        MatMut {
            data,
            rows,
            cols,
            row_stride,
        }
    }

    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.row_stride..r * self.row_stride + self.cols]
    }
}

static REFERENCE: AtomicBool = AtomicBool::new(false);

/// Route every subsequent [`gemm`] / [`gemm_acc`] through the scalar
/// reference kernel (one serial dot product per output element). Test
/// and benchmark hook; because both paths are bit-identical, the switch
/// can be flipped mid-training without changing any result.
pub fn set_reference_mode(on: bool) {
    REFERENCE.store(on, Ordering::Relaxed);
}

/// Whether the reference path is active.
pub fn reference_mode() -> bool {
    REFERENCE.load(Ordering::Relaxed)
}

#[inline]
fn op_shape(x: &Mat<'_>, t: Trans) -> (usize, usize) {
    match t {
        Trans::No => (x.rows, x.cols),
        Trans::Yes => (x.cols, x.rows),
    }
}

/// `out = op(a) · op(b)` where `op` transposes when the flag is
/// [`Trans::Yes`]. `scratch` provides the packing panels; repeated calls
/// with the same shapes are allocation-free.
///
/// # Panics
/// Panics on inner-dimension or output-shape mismatch.
pub fn gemm(
    a: Mat<'_>,
    b: Mat<'_>,
    ta: Trans,
    tb: Trans,
    out: &mut MatMut<'_>,
    scratch: &mut Scratch,
) {
    gemm_impl(a, b, ta, tb, out, scratch, false);
}

/// `out += op(a) · op(b)`. Each product element is fully accumulated
/// before the single add into `out`, so gradient accumulation matches
/// "compute then `add_assign`" bit for bit.
pub fn gemm_acc(
    a: Mat<'_>,
    b: Mat<'_>,
    ta: Trans,
    tb: Trans,
    out: &mut MatMut<'_>,
    scratch: &mut Scratch,
) {
    gemm_impl(a, b, ta, tb, out, scratch, true);
}

fn gemm_impl(
    a: Mat<'_>,
    b: Mat<'_>,
    ta: Trans,
    tb: Trans,
    out: &mut MatMut<'_>,
    scratch: &mut Scratch,
    acc_mode: bool,
) {
    let (m, k) = op_shape(&a, ta);
    let (k2, n) = op_shape(&b, tb);
    assert_eq!(k, k2, "gemm inner-dimension mismatch");
    assert_eq!((out.rows, out.cols), (m, n), "gemm output shape mismatch");
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        if !acc_mode {
            for i in 0..m {
                out.row_mut(i).fill(0.0);
            }
        }
        return;
    }
    if reference_mode() {
        reference(a, b, ta, tb, m, n, k, out, scratch, acc_mode);
        return;
    }

    // Pack transposed operands into contiguous row-major op(X) panels.
    let a_buf = (ta == Trans::Yes).then(|| {
        let mut p = scratch.take(m * k);
        pack_transpose(&a, &mut p);
        p
    });
    let b_buf = (tb == Trans::Yes).then(|| {
        let mut p = scratch.take(k * n);
        pack_transpose(&b, &mut p);
        p
    });
    let ap = match &a_buf {
        Some(p) => Panel { data: p, stride: k },
        None => Panel {
            data: a.data,
            stride: a.row_stride,
        },
    };
    let bp = match &b_buf {
        Some(p) => Panel { data: p, stride: n },
        None => Panel {
            data: b.data,
            stride: b.row_stride,
        },
    };
    block_loop(ap, bp, m, n, k, out, acc_mode);
    if let Some(p) = a_buf {
        scratch.give(p);
    }
    if let Some(p) = b_buf {
        scratch.give(p);
    }
}

/// `dst` (cols × rows, row-major) = transpose of `src`. Pure data
/// movement: the packed panel holds exactly the source bits.
fn pack_transpose(src: &Mat<'_>, dst: &mut [f32]) {
    for r in 0..src.rows {
        let row = src.row(r);
        for (c, &v) in row.iter().enumerate() {
            dst[c * src.rows + r] = v;
        }
    }
}

/// Internal contiguous-or-strided panel: row `r` starts at `r * stride`.
#[derive(Clone, Copy)]
struct Panel<'a> {
    data: &'a [f32],
    stride: usize,
}

impl Panel<'_> {
    #[inline]
    fn row(&self, r: usize, len: usize) -> &[f32] {
        &self.data[r * self.stride..r * self.stride + len]
    }
}

/// Rows per register block.
const MR: usize = 4;
/// Columns per register block (one 8 × f32 vector).
const NR: usize = 8;
/// The one ragged width worth its own kernel: `d_head = 12` leaves a
/// 4-column tail on every S·V product.
const HALF_NR: usize = 4;

fn block_loop(
    ap: Panel<'_>,
    bp: Panel<'_>,
    m: usize,
    n: usize,
    k: usize,
    out: &mut MatMut<'_>,
    acc_mode: bool,
) {
    let mut i0 = 0;
    while i0 < m {
        let mr = MR.min(m - i0);
        let mut j0 = 0;
        while j0 < n {
            let nr = NR.min(n - j0);
            match (mr, nr) {
                (_, NR) => kernel_tile::<NR>(ap, bp, i0, j0, mr, k, out, acc_mode),
                (_, HALF_NR) => kernel_tile::<HALF_NR>(ap, bp, i0, j0, mr, k, out, acc_mode),
                _ => kernel_edge(ap, bp, i0, j0, mr, nr, k, out, acc_mode),
            }
            j0 += NR;
        }
        i0 += MR;
    }
}

/// The fixed-width micro-kernel: an `mr × W` block (`mr ≤ 4`) held in
/// registers — `W` f32 lanes per row, four rows — streaming over `k` once.
/// All `MR` accumulator rows are computed (rows past `mr` re-read the last
/// valid row and are never written back), so both inner loops have
/// constant bounds and stable rustc auto-vectorizes them.
#[expect(
    clippy::needless_range_loop,
    clippy::too_many_arguments,
    reason = "constant-bound index loops are what auto-vectorizes; the panels, offsets and output view are the kernel's whole state"
)]
fn kernel_tile<const W: usize>(
    ap: Panel<'_>,
    bp: Panel<'_>,
    i0: usize,
    j0: usize,
    mr: usize,
    k: usize,
    out: &mut MatMut<'_>,
    acc_mode: bool,
) {
    let a_rows: [&[f32]; MR] = std::array::from_fn(|r| ap.row(i0 + r.min(mr - 1), k));
    let mut acc = [[0.0f32; W]; MR];
    for kk in 0..k {
        let b = &bp.row(kk, j0 + W)[j0..];
        let av: [f32; MR] = std::array::from_fn(|r| a_rows[r][kk]);
        for r in 0..MR {
            for c in 0..W {
                acc[r][c] += av[r] * b[c];
            }
        }
    }
    for (r, acc_row) in acc.iter().enumerate().take(mr) {
        let orow = &mut out.row_mut(i0 + r)[j0..j0 + W];
        if acc_mode {
            for c in 0..W {
                orow[c] += acc_row[c];
            }
        } else {
            orow.copy_from_slice(acc_row);
        }
    }
}

/// Ragged-tail kernel for every other width: an `mr × nr` block (`mr ≤ 4`,
/// `nr < 8`) with the same sequential-`k` accumulation.
#[expect(
    clippy::needless_range_loop,
    clippy::too_many_arguments,
    reason = "same loop shape and kernel state as `kernel_tile`"
)]
fn kernel_edge(
    ap: Panel<'_>,
    bp: Panel<'_>,
    i0: usize,
    j0: usize,
    mr: usize,
    nr: usize,
    k: usize,
    out: &mut MatMut<'_>,
    acc_mode: bool,
) {
    // Index r.min(mr - 1) pads the row array; lanes r >= mr are never read
    // back.
    let a_rows: [&[f32]; MR] = std::array::from_fn(|r| ap.row(i0 + r.min(mr - 1), k));
    let mut acc = [[0.0f32; NR]; MR];
    for kk in 0..k {
        let brow = bp.row(kk, j0 + nr);
        let b = &brow[j0..j0 + nr];
        for r in 0..mr {
            let av = a_rows[r][kk];
            for (c, &bv) in b.iter().enumerate() {
                acc[r][c] += av * bv;
            }
        }
    }
    for r in 0..mr {
        let orow = &mut out.row_mut(i0 + r)[j0..j0 + nr];
        if acc_mode {
            for c in 0..nr {
                orow[c] += acc[r][c];
            }
        } else {
            orow.copy_from_slice(&acc[r][..nr]);
        }
    }
}

/// Scalar reference path: the canonical textbook kernel — one dot
/// product per output element, summed over `k` ascending from `0.0`.
/// This is the *definition* of the summation order every fast path must
/// reproduce bit for bit, so it doubles as both the parity oracle in the
/// proptests and the measured "scalar baseline" in `exp_bench`. (The
/// pre-kernel `kglink-nn` matmuls used assorted loop orders, but all of
/// them accumulated each element in ascending `k`, so they share these
/// bits on finite data.) Deliberately element-at-a-time: no blocking, no
/// register tiling — each accumulation is a serial dependency chain the
/// compiler cannot vectorize without reassociating float adds.
#[expect(
    clippy::too_many_arguments,
    reason = "takes `gemm_impl`'s operands plus the shapes it already derived, so the reference path is a drop-in branch"
)]
fn reference(
    a: Mat<'_>,
    b: Mat<'_>,
    ta: Trans,
    tb: Trans,
    m: usize,
    n: usize,
    k: usize,
    out: &mut MatMut<'_>,
    _scratch: &mut Scratch,
    acc_mode: bool,
) {
    let at = |i: usize, kk: usize| match ta {
        Trans::No => a.row(i)[kk],
        Trans::Yes => a.row(kk)[i],
    };
    let bt = |kk: usize, j: usize| match tb {
        Trans::No => b.row(kk)[j],
        Trans::Yes => b.row(j)[kk],
    };
    for i in 0..m {
        let orow = out.row_mut(i);
        for (j, o) in orow.iter_mut().enumerate().take(n) {
            let mut s = 0.0f32;
            for kk in 0..k {
                s += at(i, kk) * bt(kk, j);
            }
            // `acc_mode` adds the fully-formed product element exactly
            // once, matching the fast path bit for bit.
            if acc_mode {
                *o += s;
            } else {
                *o = s;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[allow(clippy::too_many_arguments)]
    fn mul(
        a: &[f32],
        ar: usize,
        ac: usize,
        b: &[f32],
        br: usize,
        bc: usize,
        ta: Trans,
        tb: Trans,
    ) -> Vec<f32> {
        let am = Mat::new(a, ar, ac);
        let bm = Mat::new(b, br, bc);
        let (m, _) = super::op_shape(&am, ta);
        let (_, n) = super::op_shape(&bm, tb);
        let mut out = vec![0.0f32; m * n];
        let mut s = Scratch::new();
        gemm(am, bm, ta, tb, &mut MatMut::new(&mut out, m, n), &mut s);
        out
    }

    #[test]
    fn hand_example_nn() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let b = [7.0, 8.0, 9.0, 10.0, 11.0, 12.0];
        let c = mul(&a, 2, 3, &b, 3, 2, Trans::No, Trans::No);
        assert_eq!(c, vec![58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn transpose_flags_agree_with_explicit_transpose() {
        // A (3x5), B (3x4): Aᵀ·B via TN must equal transpose(A)·B via NN.
        let a: Vec<f32> = (0..15).map(|i| (i as f32) * 0.37 - 2.0).collect();
        let b: Vec<f32> = (0..12).map(|i| (i as f32) * -0.21 + 1.0).collect();
        let mut at = vec![0.0f32; 15];
        for r in 0..3 {
            for c in 0..5 {
                at[c * 3 + r] = a[r * 5 + c];
            }
        }
        let tn = mul(&a, 3, 5, &b, 3, 4, Trans::Yes, Trans::No);
        let nn = mul(&at, 5, 3, &b, 3, 4, Trans::No, Trans::No);
        assert_eq!(tn, nn, "bit-identical: packing is pure data movement");
        // A (2x5), B (6x5): A·Bᵀ via NT vs A·transpose(B) via NN.
        let a2: Vec<f32> = (0..10).map(|i| (i as f32) * 0.11 - 0.4).collect();
        let b2: Vec<f32> = (0..30).map(|i| (i as f32) * 0.05 - 0.7).collect();
        let mut b2t = vec![0.0f32; 30];
        for r in 0..6 {
            for c in 0..5 {
                b2t[c * 6 + r] = b2[r * 5 + c];
            }
        }
        let nt = mul(&a2, 2, 5, &b2, 6, 5, Trans::No, Trans::Yes);
        let nn2 = mul(&a2, 2, 5, &b2t, 5, 6, Trans::No, Trans::No);
        assert_eq!(nt, nn2);
    }

    /// `set_reference_mode` is process-global and tests run in parallel:
    /// the test that toggles it and the test that counts fast-path scratch
    /// allocations take this lock so neither sees the other's mode.
    static MODE: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn fast_equals_reference_bitwise_on_ragged_shapes() {
        let _mode = MODE.lock().unwrap_or_else(|e| e.into_inner());
        let mut s = Scratch::new();
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (4, 8, 8),
            (5, 7, 9),
            (13, 12, 11),
            (3, 48, 17),
            (9, 5, 8),
        ] {
            let a: Vec<f32> = (0..m * k)
                .map(|i| ((i * 37 + 11) % 101) as f32 * 0.013 - 0.6)
                .collect();
            let b: Vec<f32> = (0..k * n)
                .map(|i| ((i * 53 + 7) % 97) as f32 * 0.017 - 0.8)
                .collect();
            for &(ta, tb) in &[
                (Trans::No, Trans::No),
                (Trans::Yes, Trans::No),
                (Trans::No, Trans::Yes),
                (Trans::Yes, Trans::Yes),
            ] {
                let (ar, ac) = if ta == Trans::Yes { (k, m) } else { (m, k) };
                let (br, bc) = if tb == Trans::Yes { (n, k) } else { (k, n) };
                let am = Mat::new(&a[..ar * ac], ar, ac);
                let bm = Mat::new(&b[..br * bc], br, bc);
                let mut fast = vec![0.0f32; m * n];
                let mut refr = vec![0.0f32; m * n];
                set_reference_mode(false);
                gemm(am, bm, ta, tb, &mut MatMut::new(&mut fast, m, n), &mut s);
                set_reference_mode(true);
                gemm(am, bm, ta, tb, &mut MatMut::new(&mut refr, m, n), &mut s);
                set_reference_mode(false);
                assert_eq!(fast, refr, "m={m} k={k} n={n} ta={ta:?} tb={tb:?}");
            }
        }
    }

    #[test]
    fn strided_views_match_dense_copies() {
        // Head slice: columns 4..10 of a 7x16 matrix.
        let full: Vec<f32> = (0..7 * 16).map(|i| (i as f32).sin()).collect();
        let (rows, dh, stride, off) = (7usize, 6usize, 16usize, 4usize);
        let mut dense = vec![0.0f32; rows * dh];
        for r in 0..rows {
            dense[r * dh..(r + 1) * dh]
                .copy_from_slice(&full[r * stride + off..r * stride + off + dh]);
        }
        let strided = Mat::with_stride(&full[off..], rows, dh, stride);
        let densem = Mat::new(&dense, rows, dh);
        let mut s = Scratch::new();
        let mut out_a = vec![0.0f32; rows * rows];
        let mut out_b = vec![0.0f32; rows * rows];
        gemm(
            strided,
            strided,
            Trans::No,
            Trans::Yes,
            &mut MatMut::new(&mut out_a, rows, rows),
            &mut s,
        );
        gemm(
            densem,
            densem,
            Trans::No,
            Trans::Yes,
            &mut MatMut::new(&mut out_b, rows, rows),
            &mut s,
        );
        assert_eq!(out_a, out_b);
        // Strided output: write the product into a column band.
        let mut wide = vec![0.0f32; rows * stride];
        let mut band = MatMut::with_stride(&mut wide[off..], rows, rows.min(dh), stride);
        let mut narrow = vec![0.0f32; rows * rows.min(dh)];
        let small = Mat::new(&dense[..dh * rows.min(dh)], dh, rows.min(dh));
        gemm(strided, small, Trans::No, Trans::No, &mut band, &mut s);
        gemm(
            densem,
            small,
            Trans::No,
            Trans::No,
            &mut MatMut::new(&mut narrow, rows, rows.min(dh)),
            &mut s,
        );
        for r in 0..rows {
            assert_eq!(
                &wide[r * stride + off..r * stride + off + rows.min(dh)],
                &narrow[r * rows.min(dh)..(r + 1) * rows.min(dh)]
            );
        }
    }

    #[test]
    fn gemm_acc_matches_compute_then_add() {
        let a: Vec<f32> = (0..6).map(|i| i as f32 * 0.3 - 1.0).collect();
        let b: Vec<f32> = (0..6).map(|i| i as f32 * -0.2 + 0.5).collect();
        let am = Mat::new(&a, 2, 3);
        let bm = Mat::new(&b, 3, 2);
        let mut s = Scratch::new();
        let mut product = vec![0.0f32; 4];
        gemm(
            am,
            bm,
            Trans::No,
            Trans::No,
            &mut MatMut::new(&mut product, 2, 2),
            &mut s,
        );
        let prior = [0.25f32, -1.5, 3.125, 0.0625];
        let mut acc = prior;
        gemm_acc(
            am,
            bm,
            Trans::No,
            Trans::No,
            &mut MatMut::new(&mut acc, 2, 2),
            &mut s,
        );
        for i in 0..4 {
            assert_eq!(acc[i], prior[i] + product[i]);
        }
    }

    #[test]
    fn zero_inner_dimension_writes_zeros_and_acc_is_noop() {
        let a: [f32; 0] = [];
        let am = Mat::new(&a, 2, 0);
        let bm = Mat::new(&a, 0, 3);
        let mut s = Scratch::new();
        let mut out = [7.0f32; 6];
        gemm(
            am,
            bm,
            Trans::No,
            Trans::No,
            &mut MatMut::new(&mut out, 2, 3),
            &mut s,
        );
        assert_eq!(out, [0.0; 6]);
        let mut out2 = [7.0f32; 6];
        gemm_acc(
            am,
            bm,
            Trans::No,
            Trans::No,
            &mut MatMut::new(&mut out2, 2, 3),
            &mut s,
        );
        assert_eq!(out2, [7.0; 6]);
    }

    #[test]
    #[should_panic(expected = "gemm inner-dimension mismatch")]
    fn shape_mismatch_panics() {
        let a = [0.0f32; 6];
        let mut out = [0.0f32; 4];
        let mut s = Scratch::new();
        gemm(
            Mat::new(&a, 2, 3),
            Mat::new(&a, 2, 3),
            Trans::No,
            Trans::No,
            &mut MatMut::new(&mut out, 2, 2),
            &mut s,
        );
    }

    #[test]
    fn repeated_calls_are_allocation_free_in_scratch_terms() {
        let _mode = MODE.lock().unwrap_or_else(|e| e.into_inner());
        let a: Vec<f32> = (0..12 * 7).map(|i| i as f32 * 0.01).collect();
        let b: Vec<f32> = (0..7 * 9).map(|i| i as f32 * 0.02).collect();
        let mut s = Scratch::new();
        let mut out = vec![0.0f32; 12 * 9];
        // TN packs both panels through scratch.
        let am = Mat::new(&a[..7 * 12], 7, 12);
        let bm = Mat::new(&b, 7, 9);
        gemm(
            am,
            bm,
            Trans::Yes,
            Trans::No,
            &mut MatMut::new(&mut out, 12, 9),
            &mut s,
        );
        let after_warmup = s.fresh_allocs();
        for _ in 0..5 {
            gemm(
                am,
                bm,
                Trans::Yes,
                Trans::No,
                &mut MatMut::new(&mut out, 12, 9),
                &mut s,
            );
        }
        assert_eq!(
            s.fresh_allocs(),
            after_warmup,
            "steady state allocates nothing"
        );
    }
}
