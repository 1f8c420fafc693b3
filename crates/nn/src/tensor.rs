//! A minimal row-major 2-D `f32` tensor.
//!
//! Everything the transformer needs is expressible with (seq_len × dim)
//! matrices, so this stays deliberately 2-D. All matrix products go
//! through the blocked register-tiled [`kglink_kernels::gemm`] entry
//! point; transposed products are expressed with
//! [`Trans`](kglink_kernels::Trans) flags at the call site
//! (`gemm(x, w, Trans::Yes, Trans::No, ...)`); `Tensor` itself has no
//! product method.

use kglink_kernels::{Mat, MatMut};
use rand::rngs::StdRng;
use rand::Rng;

/// A dense row-major matrix of `f32`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Tensor {
    /// All-zeros tensor.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Tensor {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Tensor from existing data.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape/data mismatch");
        Tensor { rows, cols, data }
    }

    /// Xavier/Glorot-uniform initialization.
    pub fn xavier(rows: usize, cols: usize, rng: &mut StdRng) -> Self {
        let limit = (6.0 / (rows + cols) as f32).sqrt();
        let data = (0..rows * cols)
            .map(|_| rng.gen_range(-limit..limit))
            .collect();
        Tensor { rows, cols, data }
    }

    /// Normal(0, std) initialization (BERT uses std = 0.02).
    pub fn normal(rows: usize, cols: usize, std: f32, rng: &mut StdRng) -> Self {
        // Box-Muller from two uniforms.
        let mut data = Vec::with_capacity(rows * cols);
        while data.len() < rows * cols {
            let u1: f32 = rng.gen_range(1e-7..1.0f32);
            let u2: f32 = rng.gen_range(0.0..1.0f32);
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            data.push(r * theta.cos() * std);
            if data.len() < rows * cols {
                data.push(r * theta.sin() * std);
            }
        }
        Tensor { rows, cols, data }
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
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Immutable view of the raw data.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the raw data.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element assignment.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// One row as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// One row as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Immutable kernel view of the whole tensor.
    #[inline]
    pub fn as_mat(&self) -> Mat<'_> {
        Mat::new(&self.data, self.rows, self.cols)
    }

    /// Mutable kernel view of the whole tensor.
    #[inline]
    pub fn as_mat_mut(&mut self) -> MatMut<'_> {
        MatMut::new(&mut self.data, self.rows, self.cols)
    }

    /// Reshape to `rows × cols`, zero-filled, reusing the allocation when
    /// capacity allows.
    pub fn resize(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Tensor {
        let mut out = Tensor::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Element-wise in-place addition.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "add shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// `self += alpha * other`.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "axpy shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Element-wise sum returning a new tensor.
    pub fn add(&self, other: &Tensor) -> Tensor {
        let mut out = self.clone();
        out.add_assign(other);
        out
    }

    /// Multiply every element by a scalar, in place.
    pub fn scale(&mut self, s: f32) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Set all elements to zero (keeps allocation).
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Sum of all rows as a 1×cols tensor.
    pub fn sum_rows(&self) -> Tensor {
        let mut out = Tensor::zeros(1, self.cols);
        for r in 0..self.rows {
            for (o, &v) in out.data.iter_mut().zip(self.row(r)) {
                *o += v;
            }
        }
        out
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Dot product of two equally-shaped tensors viewed as flat vectors.
    pub fn dot(&self, other: &Tensor) -> f32 {
        assert_eq!(self.shape(), other.shape());
        self.data.iter().zip(&other.data).map(|(a, b)| a * b).sum()
    }

    /// Number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kglink_kernels::{self as kernels, Trans};
    use rand::SeedableRng;

    fn t(rows: usize, cols: usize, vals: &[f32]) -> Tensor {
        Tensor::from_vec(rows, cols, vals.to_vec())
    }

    /// `op(a) × op(b)` through the one GEMM entry point.
    fn gemm(a: &Tensor, b: &Tensor, ta: Trans, tb: Trans) -> Tensor {
        let rows = if ta == Trans::Yes { a.cols() } else { a.rows() };
        let cols = if tb == Trans::Yes { b.rows() } else { b.cols() };
        let mut out = Tensor::zeros(rows, cols);
        kernels::with_thread_scratch(|s| {
            kernels::gemm(a.as_mat(), b.as_mat(), ta, tb, &mut out.as_mat_mut(), s);
        });
        out
    }

    #[test]
    fn gemm_hand_example() {
        let a = t(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = t(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = gemm(&a, &b, Trans::No, Trans::No);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn gemm_transpose_flags_equal_explicit_transpose() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = Tensor::xavier(4, 3, &mut rng);
        let b = Tensor::xavier(4, 5, &mut rng);
        let tn = gemm(&a, &b, Trans::Yes, Trans::No);
        let slow = gemm(&a.transpose(), &b, Trans::No, Trans::No);
        assert_eq!(tn, slow, "packing is pure data movement: bit-identical");
        let c = Tensor::xavier(5, 3, &mut rng);
        let nt = gemm(&a, &c, Trans::No, Trans::Yes);
        let slow = gemm(&a, &c.transpose(), Trans::No, Trans::No);
        assert_eq!(nt, slow);
    }

    #[test]
    fn resize_reuses_allocation_and_zeroes() {
        let mut a = t(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let ptr = a.data().as_ptr();
        a.resize(3, 2);
        assert_eq!(a.shape(), (3, 2));
        assert!(a.data().iter().all(|&v| v == 0.0));
        assert_eq!(a.data().as_ptr(), ptr, "same-size resize keeps the buffer");
    }

    #[test]
    fn transpose_round_trip() {
        let a = t(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn sum_rows_adds_every_row() {
        let a = t(3, 2, &[1.0, -2.0, 1.0, -2.0, 1.0, -2.0]);
        let s = a.sum_rows();
        assert_eq!(s.data(), &[3.0, -6.0]);
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = t(1, 3, &[1.0, 2.0, 3.0]);
        let b = t(1, 3, &[1.0, 1.0, 1.0]);
        a.axpy(0.5, &b);
        assert_eq!(a.data(), &[1.5, 2.5, 3.5]);
        a.scale(2.0);
        assert_eq!(a.data(), &[3.0, 5.0, 7.0]);
    }

    #[test]
    fn xavier_respects_limit() {
        let mut rng = StdRng::seed_from_u64(3);
        let w = Tensor::xavier(10, 10, &mut rng);
        let limit = (6.0f32 / 20.0).sqrt();
        assert!(w.data().iter().all(|v| v.abs() <= limit));
    }

    #[test]
    fn normal_has_roughly_right_std() {
        let mut rng = StdRng::seed_from_u64(4);
        let w = Tensor::normal(100, 100, 0.02, &mut rng);
        let mean: f32 = w.data().iter().sum::<f32>() / w.numel() as f32;
        let var: f32 = w.data().iter().map(|v| (v - mean).powi(2)).sum::<f32>() / w.numel() as f32;
        assert!(mean.abs() < 0.001, "mean {mean}");
        assert!((var.sqrt() - 0.02).abs() < 0.002, "std {}", var.sqrt());
    }

    #[test]
    fn norm_and_dot() {
        let a = t(1, 2, &[3.0, 4.0]);
        assert!((a.norm() - 5.0).abs() < 1e-6);
        let b = t(1, 2, &[1.0, 2.0]);
        assert!((a.dot(&b) - 11.0).abs() < 1e-6);
    }
}
