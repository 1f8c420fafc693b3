//! Layer normalization over the feature dimension.

use crate::kernels;
use crate::layers::param::{HasParams, Param};
use crate::tensor::Tensor;

/// LayerNorm with learned gain `γ` and bias `β`.
#[derive(Debug, Clone)]
pub struct LayerNorm {
    pub gamma: Param,
    pub beta: Param,
}

/// Forward cache: normalized activations and per-row inverse std.
#[derive(Debug)]
pub struct LayerNormCache {
    x_hat: Tensor,
    inv_std: Vec<f32>,
}

impl LayerNorm {
    /// Identity-initialized LayerNorm of width `d`.
    pub fn new(d: usize) -> Self {
        LayerNorm {
            gamma: Param::new_no_decay(Tensor::from_vec(1, d, vec![1.0; d])),
            beta: Param::new_no_decay(Tensor::zeros(1, d)),
        }
    }

    /// Forward with cache.
    pub fn forward(&self, x: &Tensor) -> (Tensor, LayerNormCache) {
        let d = x.cols();
        let mut x_hat = Tensor::zeros(x.rows(), d);
        let mut inv_std = Vec::with_capacity(x.rows());
        let mut y = Tensor::zeros(x.rows(), d);
        kernels::layer_norm_rows_cached(
            x.data(),
            self.gamma.value.data(),
            self.beta.value.data(),
            y.data_mut(),
            x_hat.data_mut(),
            &mut inv_std,
        );
        (y, LayerNormCache { x_hat, inv_std })
    }

    /// Backward: accumulates `dγ`, `dβ`, returns `dx`.
    pub fn backward(&mut self, cache: &LayerNormCache, dy: &Tensor) -> Tensor {
        let d = dy.cols();
        let mut dx = Tensor::zeros(dy.rows(), d);
        let gamma = self.gamma.value.data();
        // One scratch row hoisted out of the per-row loop.
        let mut dxhat = kernels::with_thread_scratch(|s| s.take(d));
        for r in 0..dy.rows() {
            let g = dy.row(r);
            let xh = cache.x_hat.row(r);
            // Parameter grads.
            {
                let dgamma = self.gamma.grad.data_mut();
                let dbeta = self.beta.grad.data_mut();
                for c in 0..d {
                    dgamma[c] += g[c] * xh[c];
                    dbeta[c] += g[c];
                }
            }
            // dx = (istd/d) * (d*dxhat - Σdxhat - xhat * Σ(dxhat ⊙ xhat))
            let mut sum_dxhat = 0.0f32;
            let mut sum_dxhat_xhat = 0.0f32;
            for c in 0..d {
                dxhat[c] = g[c] * gamma[c];
                sum_dxhat += dxhat[c];
                sum_dxhat_xhat += dxhat[c] * xh[c];
            }
            let istd = cache.inv_std[r];
            let out = dx.row_mut(r);
            let n = d as f32;
            for c in 0..d {
                out[c] = istd / n * (n * dxhat[c] - sum_dxhat - xh[c] * sum_dxhat_xhat);
            }
        }
        kernels::with_thread_scratch(|s| s.give(dxhat));
        dx
    }
}

impl HasParams for LayerNorm {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn output_is_normalized_with_identity_params() {
        let ln = LayerNorm::new(4);
        let x = Tensor::from_vec(2, 4, vec![1.0, 2.0, 3.0, 4.0, -5.0, 0.0, 5.0, 10.0]);
        let (y, _) = ln.forward(&x);
        for r in 0..2 {
            let mean: f32 = y.row(r).iter().sum::<f32>() / 4.0;
            let var: f32 = y.row(r).iter().map(|v| (v - mean).powi(2)).sum::<f32>() / 4.0;
            assert!(mean.abs() < 1e-5);
            assert!((var - 1.0).abs() < 1e-3);
        }
    }

    #[test]
    fn gradients_match_finite_difference() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut ln = LayerNorm::new(5);
        // Non-trivial params.
        ln.gamma.value = Tensor::xavier(1, 5, &mut rng);
        ln.beta.value = Tensor::xavier(1, 5, &mut rng);
        let x = Tensor::xavier(3, 5, &mut rng);
        let upstream = Tensor::xavier(3, 5, &mut rng);
        let (_, cache) = ln.forward(&x);
        let dx = ln.backward(&cache, &upstream);

        let eps = 1e-3f32;
        let loss = |ln: &LayerNorm, x: &Tensor| ln.forward(x).0.dot(&upstream);
        // dx check on several coordinates.
        for idx in [0usize, 4, 9, 14] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let num = (loss(&ln, &xp) - loss(&ln, &xm)) / (2.0 * eps);
            assert!(
                (num - dx.data()[idx]).abs() < 2e-2,
                "dx[{idx}]: numeric {num} vs analytic {}",
                dx.data()[idx]
            );
        }
        // dgamma check.
        for idx in [0usize, 3] {
            let orig = ln.gamma.value.data()[idx];
            ln.gamma.value.data_mut()[idx] = orig + eps;
            let lp = loss(&ln, &x);
            ln.gamma.value.data_mut()[idx] = orig - eps;
            let lm = loss(&ln, &x);
            ln.gamma.value.data_mut()[idx] = orig;
            let num = (lp - lm) / (2.0 * eps);
            assert!((num - ln.gamma.grad.data()[idx]).abs() < 2e-2);
        }
    }

    #[test]
    fn params_skip_weight_decay() {
        let mut ln = LayerNorm::new(2);
        let mut decays = Vec::new();
        ln.visit_params(&mut |p| decays.push(p.decay));
        assert_eq!(decays, vec![false, false]);
    }
}
