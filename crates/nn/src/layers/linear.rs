//! Fully-connected layer `y = xW + b`.

use crate::kernels::{self, Trans};
use crate::layers::param::{HasParams, Param};
use crate::tensor::Tensor;
use rand::rngs::StdRng;

/// A linear projection with bias.
#[derive(Debug, Clone)]
pub struct Linear {
    /// Weight, shape `(in, out)`.
    pub w: Param,
    /// Bias, shape `(1, out)`.
    pub b: Param,
}

/// Forward cache: the input needed for weight gradients.
#[derive(Debug)]
pub struct LinearCache {
    x: Tensor,
}

impl Linear {
    /// Xavier-initialized layer.
    pub fn new(d_in: usize, d_out: usize, rng: &mut StdRng) -> Self {
        Linear {
            w: Param::new(Tensor::xavier(d_in, d_out, rng)),
            b: Param::new_no_decay(Tensor::zeros(1, d_out)),
        }
    }

    /// Forward with cache for a later backward.
    pub fn forward(&self, x: &Tensor) -> (Tensor, LinearCache) {
        let y = self.infer(x);
        // The training cache must own the input past the caller's borrow.
        (y, LinearCache { x: x.clone() })
    }

    /// Forward without caching (inference / teacher branches).
    pub fn infer(&self, x: &Tensor) -> Tensor {
        let mut y = Tensor::zeros(x.rows(), self.d_out());
        kernels::with_thread_scratch(|s| {
            kernels::gemm(
                x.as_mat(),
                self.w.value.as_mat(),
                Trans::No,
                Trans::No,
                &mut y.as_mat_mut(),
                s,
            );
        });
        kernels::add_bias_rows(y.data_mut(), self.b.value.data());
        y
    }

    /// Backward: accumulates `dW = xᵀ dy`, `db = Σ dy`, returns `dx = dy Wᵀ`.
    pub fn backward(&mut self, cache: &LinearCache, dy: &Tensor) -> Tensor {
        let mut dx = Tensor::zeros(dy.rows(), self.d_in());
        kernels::with_thread_scratch(|s| {
            kernels::gemm_acc(
                cache.x.as_mat(),
                dy.as_mat(),
                Trans::Yes,
                Trans::No,
                &mut self.w.grad.as_mat_mut(),
                s,
            );
            kernels::gemm(
                dy.as_mat(),
                self.w.value.as_mat(),
                Trans::No,
                Trans::Yes,
                &mut dx.as_mat_mut(),
                s,
            );
        });
        self.b.grad.add_assign(&dy.sum_rows());
        dx
    }

    /// Input dimension.
    pub fn d_in(&self) -> usize {
        self.w.value.rows()
    }

    /// Output dimension.
    pub fn d_out(&self) -> usize {
        self.w.value.cols()
    }
}

impl HasParams for Linear {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.w);
        f(&mut self.b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// Finite-difference gradient check of a scalar loss `L = Σ y ⊙ u`.
    #[test]
    fn gradients_match_finite_difference() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut layer = Linear::new(3, 2, &mut rng);
        let x = Tensor::xavier(4, 3, &mut rng);
        let upstream = Tensor::xavier(4, 2, &mut rng);

        let (y, cache) = layer.forward(&x);
        let _ = y;
        let dx = layer.backward(&cache, &upstream);

        let eps = 1e-3f32;
        // Check dW entries.
        for idx in [0usize, 2, 5] {
            let orig = layer.w.value.data()[idx];
            layer.w.value.data_mut()[idx] = orig + eps;
            let lp = layer.infer(&x).dot(&upstream);
            layer.w.value.data_mut()[idx] = orig - eps;
            let lm = layer.infer(&x).dot(&upstream);
            layer.w.value.data_mut()[idx] = orig;
            let num = (lp - lm) / (2.0 * eps);
            let ana = layer.w.grad.data()[idx];
            assert!((num - ana).abs() < 1e-2, "dW[{idx}]: {num} vs {ana}");
        }
        // Check db.
        let orig = layer.b.value.data()[1];
        layer.b.value.data_mut()[1] = orig + eps;
        let lp = layer.infer(&x).dot(&upstream);
        layer.b.value.data_mut()[1] = orig - eps;
        let lm = layer.infer(&x).dot(&upstream);
        layer.b.value.data_mut()[1] = orig;
        let num = (lp - lm) / (2.0 * eps);
        assert!((num - layer.b.grad.data()[1]).abs() < 1e-2);
        // Check dx.
        let mut x2 = x.clone();
        let orig = x2.data()[7];
        x2.data_mut()[7] = orig + eps;
        let lp = layer.infer(&x2).dot(&upstream);
        x2.data_mut()[7] = orig - eps;
        let lm = layer.infer(&x2).dot(&upstream);
        let num = (lp - lm) / (2.0 * eps);
        assert!((num - dx.data()[7]).abs() < 1e-2);
    }

    #[test]
    fn backward_accumulates_across_calls() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut layer = Linear::new(2, 2, &mut rng);
        let x = Tensor::from_vec(1, 2, vec![1.0, 1.0]);
        let dy = Tensor::from_vec(1, 2, vec![1.0, 1.0]);
        let (_, c1) = layer.forward(&x);
        layer.backward(&c1, &dy);
        let g1 = layer.w.grad.clone();
        let (_, c2) = layer.forward(&x);
        layer.backward(&c2, &dy);
        for (a, b) in layer.w.grad.data().iter().zip(g1.data()) {
            assert!((a - 2.0 * b).abs() < 1e-6, "second call doubles the gradient");
        }
    }

    #[test]
    fn infer_matches_forward() {
        let mut rng = StdRng::seed_from_u64(7);
        let layer = Linear::new(3, 4, &mut rng);
        let x = Tensor::xavier(2, 3, &mut rng);
        let (y, _) = layer.forward(&x);
        assert_eq!(y, layer.infer(&x));
        assert_eq!(layer.d_in(), 3);
        assert_eq!(layer.d_out(), 4);
    }
}
