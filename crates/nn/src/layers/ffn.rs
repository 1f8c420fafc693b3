//! Position-wise feed-forward network with GELU.

use crate::kernels::{gelu, gelu_grad};
use crate::layers::linear::{Linear, LinearCache};
use crate::layers::param::{HasParams, Param};
use crate::tensor::Tensor;
use rand::rngs::StdRng;

/// `FFN(x) = GELU(x W1 + b1) W2 + b2`.
#[derive(Debug, Clone)]
pub struct FeedForward {
    pub fc1: Linear,
    pub fc2: Linear,
}

/// Forward cache.
#[derive(Debug)]
pub struct FfnCache {
    c1: LinearCache,
    c2: LinearCache,
    /// Pre-activation of the hidden layer (needed for the GELU derivative).
    hidden_pre: Tensor,
}

impl FeedForward {
    /// Create with hidden width `d_ff`.
    pub fn new(d: usize, d_ff: usize, rng: &mut StdRng) -> Self {
        FeedForward {
            fc1: Linear::new(d, d_ff, rng),
            fc2: Linear::new(d_ff, d, rng),
        }
    }

    /// Forward with cache.
    pub fn forward(&self, x: &Tensor) -> (Tensor, FfnCache) {
        let (hidden_pre, c1) = self.fc1.forward(x);
        // The pre-activation is kept for the GELU derivative, so the
        // activated copy is a real second buffer.
        let mut hidden = hidden_pre.clone();
        for v in hidden.data_mut() {
            *v = gelu(*v);
        }
        let (y, c2) = self.fc2.forward(&hidden);
        (
            y,
            FfnCache {
                c1,
                c2,
                hidden_pre,
            },
        )
    }

    /// Backward: accumulates gradients, returns `dx`.
    pub fn backward(&mut self, cache: &FfnCache, dy: &Tensor) -> Tensor {
        let mut dhidden = self.fc2.backward(&cache.c2, dy);
        for (g, &pre) in dhidden.data_mut().iter_mut().zip(cache.hidden_pre.data()) {
            *g *= gelu_grad(pre);
        }
        self.fc1.backward(&cache.c1, &dhidden)
    }
}

impl HasParams for FeedForward {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.fc1.visit_params(f);
        self.fc2.visit_params(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn forward_shapes() {
        let mut rng = StdRng::seed_from_u64(17);
        let ffn = FeedForward::new(4, 8, &mut rng);
        let x = Tensor::xavier(3, 4, &mut rng);
        let (y, _) = ffn.forward(&x);
        assert_eq!(y.shape(), (3, 4));
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(18);
        let mut ffn = FeedForward::new(3, 6, &mut rng);
        let x = Tensor::xavier(2, 3, &mut rng);
        let upstream = Tensor::xavier(2, 3, &mut rng);
        let (_, cache) = ffn.forward(&x);
        let dx = ffn.backward(&cache, &upstream);
        let eps = 1e-3f32;
        for idx in [0usize, 3, 5] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let num = (ffn.forward(&xp).0.dot(&upstream) - ffn.forward(&xm).0.dot(&upstream))
                / (2.0 * eps);
            assert!(
                (num - dx.data()[idx]).abs() < 2e-2,
                "dx[{idx}]: {num} vs {}",
                dx.data()[idx]
            );
        }
        // fc1 weight gradient.
        for idx in [0usize, 10] {
            let orig = ffn.fc1.w.value.data()[idx];
            ffn.fc1.w.value.data_mut()[idx] = orig + eps;
            let lp = ffn.forward(&x).0.dot(&upstream);
            ffn.fc1.w.value.data_mut()[idx] = orig - eps;
            let lm = ffn.forward(&x).0.dot(&upstream);
            ffn.fc1.w.value.data_mut()[idx] = orig;
            let num = (lp - lm) / (2.0 * eps);
            assert!((num - ffn.fc1.w.grad.data()[idx]).abs() < 2e-2);
        }
    }
}
