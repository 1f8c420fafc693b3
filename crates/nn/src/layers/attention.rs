//! Multi-head self-attention with full backward pass.

use crate::kernels::{self, Mat, MatMut, Trans};
use crate::layers::linear::{Linear, LinearCache};
use crate::layers::param::{HasParams, Param};
use crate::tensor::Tensor;
use rand::rngs::StdRng;

/// Standard scaled dot-product multi-head self-attention.
///
/// Operates on one unpadded sequence `(L × d)`, so no attention mask is
/// needed (mini-batching is gradient accumulation upstream).
#[derive(Debug, Clone)]
pub struct MultiHeadSelfAttention {
    pub wq: Linear,
    pub wk: Linear,
    pub wv: Linear,
    pub wo: Linear,
    n_heads: usize,
}

/// Forward cache for the backward pass.
#[derive(Debug)]
pub struct AttentionCache {
    cq: LinearCache,
    ck: LinearCache,
    cv: LinearCache,
    co: LinearCache,
    q: Tensor,
    k: Tensor,
    v: Tensor,
    /// Post-softmax attention matrices, one `(L × L)` per head.
    probs: Vec<Tensor>,
}

impl MultiHeadSelfAttention {
    /// Create with `d` model width split across `n_heads` heads.
    ///
    /// # Panics
    /// Panics if `d` is not divisible by `n_heads`.
    pub fn new(d: usize, n_heads: usize, rng: &mut StdRng) -> Self {
        assert!(d.is_multiple_of(n_heads), "d must divide evenly into heads");
        MultiHeadSelfAttention {
            wq: Linear::new(d, d, rng),
            wk: Linear::new(d, d, rng),
            wv: Linear::new(d, d, rng),
            wo: Linear::new(d, d, rng),
            n_heads,
        }
    }

    /// Number of attention heads.
    pub fn n_heads(&self) -> usize {
        self.n_heads
    }

    /// Head width.
    pub fn d_head(&self) -> usize {
        self.wq.d_out() / self.n_heads
    }

    /// Strided view of the `h`-th head's columns of a `(L × d)` tensor —
    /// no copy, the kernel layer handles the stride.
    fn head(x: &Tensor, h: usize, dh: usize) -> Mat<'_> {
        Mat::with_stride(&x.data()[h * dh..], x.rows(), dh, x.cols())
    }

    /// Mutable strided view of the `h`-th head's columns.
    fn head_mut(x: &mut Tensor, h: usize, dh: usize) -> MatMut<'_> {
        let (rows, cols) = x.shape();
        MatMut::with_stride(&mut x.data_mut()[h * dh..], rows, dh, cols)
    }

    /// Forward with cache.
    pub fn forward(&self, x: &Tensor) -> (Tensor, AttentionCache) {
        let dh = self.d_head();
        let scale = 1.0 / (dh as f32).sqrt();
        let (q, cq) = self.wq.forward(x);
        let (k, ck) = self.wk.forward(x);
        let (v, cv) = self.wv.forward(x);
        let l = x.rows();
        let mut ctx = Tensor::zeros(l, self.wq.d_out());
        let mut probs = Vec::with_capacity(self.n_heads);
        kernels::with_thread_scratch(|s| {
            for h in 0..self.n_heads {
                // The post-softmax attention matrix is freshly allocated
                // (not scratch) because the cache owns it for backward.
                let mut scores = Tensor::zeros(l, l);
                kernels::gemm(
                    Self::head(&q, h, dh),
                    Self::head(&k, h, dh),
                    Trans::No,
                    Trans::Yes,
                    &mut scores.as_mat_mut(),
                    s,
                );
                kernels::scaled_softmax_rows(scores.data_mut(), l, scale);
                kernels::gemm(
                    scores.as_mat(),
                    Self::head(&v, h, dh),
                    Trans::No,
                    Trans::No,
                    &mut Self::head_mut(&mut ctx, h, dh),
                    s,
                );
                probs.push(scores);
            }
        });
        let (y, co) = self.wo.forward(&ctx);
        (
            y,
            AttentionCache {
                cq,
                ck,
                cv,
                co,
                q,
                k,
                v,
                probs,
            },
        )
    }

    /// Backward: accumulates all projection gradients, returns `dx`.
    pub fn backward(&mut self, cache: &AttentionCache, dy: &Tensor) -> Tensor {
        let dh = self.d_head();
        let scale = 1.0 / (dh as f32).sqrt();
        let dctx = self.wo.backward(&cache.co, dy);
        let l = dy.rows();
        let d = self.wq.d_out();
        let mut dq = Tensor::zeros(l, d);
        let mut dk = Tensor::zeros(l, d);
        let mut dv = Tensor::zeros(l, d);
        kernels::with_thread_scratch(|s| {
            let mut d_probs = s.take(l * l);
            for h in 0..self.n_heads {
                let probs = &cache.probs[h];
                // dA = dctx_h · Vᵀ ; dV = Aᵀ · dctx_h
                kernels::gemm(
                    Self::head(&dctx, h, dh),
                    Self::head(&cache.v, h, dh),
                    Trans::No,
                    Trans::Yes,
                    &mut MatMut::new(&mut d_probs, l, l),
                    s,
                );
                kernels::gemm(
                    probs.as_mat(),
                    Self::head(&dctx, h, dh),
                    Trans::Yes,
                    Trans::No,
                    &mut Self::head_mut(&mut dv, h, dh),
                    s,
                );
                // Through softmax.
                kernels::softmax_backward_rows(probs.data(), &mut d_probs, l);
                // Through scaling and QKᵀ.
                for g in &mut d_probs {
                    *g *= scale;
                }
                kernels::gemm(
                    Mat::new(&d_probs, l, l),
                    Self::head(&cache.k, h, dh),
                    Trans::No,
                    Trans::No,
                    &mut Self::head_mut(&mut dq, h, dh),
                    s,
                );
                kernels::gemm(
                    Mat::new(&d_probs, l, l),
                    Self::head(&cache.q, h, dh),
                    Trans::Yes,
                    Trans::No,
                    &mut Self::head_mut(&mut dk, h, dh),
                    s,
                );
            }
            s.give(d_probs);
        });
        let mut dx = self.wq.backward(&cache.cq, &dq);
        dx.add_assign(&self.wk.backward(&cache.ck, &dk));
        dx.add_assign(&self.wv.backward(&cache.cv, &dv));
        dx
    }
}

impl HasParams for MultiHeadSelfAttention {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.wq.visit_params(f);
        self.wk.visit_params(f);
        self.wv.visit_params(f);
        self.wo.visit_params(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn forward_shapes() {
        let mut rng = StdRng::seed_from_u64(12);
        let attn = MultiHeadSelfAttention::new(8, 2, &mut rng);
        let x = Tensor::xavier(5, 8, &mut rng);
        let (y, cache) = attn.forward(&x);
        assert_eq!(y.shape(), (5, 8));
        assert_eq!(cache.probs.len(), 2);
        assert_eq!(cache.probs[0].shape(), (5, 5));
        // Attention rows are distributions.
        for r in 0..5 {
            let s: f32 = cache.probs[0].row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn input_gradient_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(14);
        let mut attn = MultiHeadSelfAttention::new(4, 2, &mut rng);
        let x = Tensor::xavier(3, 4, &mut rng);
        let upstream = Tensor::xavier(3, 4, &mut rng);
        let (_, cache) = attn.forward(&x);
        let dx = attn.backward(&cache, &upstream);
        let eps = 1e-3f32;
        for idx in [0usize, 5, 11] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let num = (attn.forward(&xp).0.dot(&upstream) - attn.forward(&xm).0.dot(&upstream))
                / (2.0 * eps);
            assert!(
                (num - dx.data()[idx]).abs() < 2e-2,
                "dx[{idx}]: numeric {num} vs analytic {}",
                dx.data()[idx]
            );
        }
    }

    #[test]
    fn weight_gradient_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(15);
        let mut attn = MultiHeadSelfAttention::new(4, 1, &mut rng);
        let x = Tensor::xavier(3, 4, &mut rng);
        let upstream = Tensor::xavier(3, 4, &mut rng);
        let (_, cache) = attn.forward(&x);
        attn.backward(&cache, &upstream);
        let eps = 1e-3f32;
        for idx in [0usize, 7] {
            let orig = attn.wq.w.value.data()[idx];
            attn.wq.w.value.data_mut()[idx] = orig + eps;
            let lp = attn.forward(&x).0.dot(&upstream);
            attn.wq.w.value.data_mut()[idx] = orig - eps;
            let lm = attn.forward(&x).0.dot(&upstream);
            attn.wq.w.value.data_mut()[idx] = orig;
            let num = (lp - lm) / (2.0 * eps);
            let ana = attn.wq.w.grad.data()[idx];
            assert!((num - ana).abs() < 2e-2, "dWq[{idx}]: {num} vs {ana}");
        }
    }

    #[test]
    #[should_panic(expected = "d must divide evenly")]
    fn indivisible_heads_panic() {
        let mut rng = StdRng::seed_from_u64(16);
        let _ = MultiHeadSelfAttention::new(6, 4, &mut rng);
    }
}
