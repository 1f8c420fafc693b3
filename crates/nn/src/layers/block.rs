//! A post-LN transformer encoder block (BERT layout).

use crate::layers::attention::{AttentionCache, MultiHeadSelfAttention};
use crate::layers::ffn::{FeedForward, FfnCache};
use crate::layers::layernorm::{LayerNorm, LayerNormCache};
use crate::layers::param::{HasParams, Param};
use crate::tensor::Tensor;
use rand::rngs::StdRng;

/// `x → LN(x + Attn(x)) → LN(· + FFN(·))`, as in the original BERT.
#[derive(Debug, Clone)]
pub struct TransformerBlock {
    pub attn: MultiHeadSelfAttention,
    pub ln1: LayerNorm,
    pub ffn: FeedForward,
    pub ln2: LayerNorm,
}

/// Forward cache.
#[derive(Debug)]
pub struct BlockCache {
    attn: AttentionCache,
    ln1: LayerNormCache,
    ffn: FfnCache,
    ln2: LayerNormCache,
}

impl TransformerBlock {
    /// Create a block of width `d` with `n_heads` heads and FFN width `d_ff`.
    pub fn new(d: usize, n_heads: usize, d_ff: usize, rng: &mut StdRng) -> Self {
        TransformerBlock {
            attn: MultiHeadSelfAttention::new(d, n_heads, rng),
            ln1: LayerNorm::new(d),
            ffn: FeedForward::new(d, d_ff, rng),
            ln2: LayerNorm::new(d),
        }
    }

    /// Forward with cache.
    pub fn forward(&self, x: &Tensor) -> (Tensor, BlockCache) {
        let (a, attn_cache) = self.attn.forward(x);
        let (h, ln1_cache) = self.ln1.forward(&x.add(&a));
        let (f, ffn_cache) = self.ffn.forward(&h);
        let (y, ln2_cache) = self.ln2.forward(&h.add(&f));
        (
            y,
            BlockCache {
                attn: attn_cache,
                ln1: ln1_cache,
                ffn: ffn_cache,
                ln2: ln2_cache,
            },
        )
    }

    /// Backward: accumulates gradients, returns `dx`.
    pub fn backward(&mut self, cache: &BlockCache, dy: &Tensor) -> Tensor {
        let dsum2 = self.ln2.backward(&cache.ln2, dy);
        // dsum2 flows to both h (residual) and FFN input.
        let mut dh = self.ffn.backward(&cache.ffn, &dsum2);
        dh.add_assign(&dsum2);
        let dsum1 = self.ln1.backward(&cache.ln1, &dh);
        let mut dx = self.attn.backward(&cache.attn, &dsum1);
        dx.add_assign(&dsum1);
        dx
    }
}

impl HasParams for TransformerBlock {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.attn.visit_params(f);
        self.ln1.visit_params(f);
        self.ffn.visit_params(f);
        self.ln2.visit_params(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn forward_shapes() {
        let mut rng = StdRng::seed_from_u64(19);
        let block = TransformerBlock::new(8, 2, 16, &mut rng);
        let x = Tensor::xavier(4, 8, &mut rng);
        let (y, _) = block.forward(&x);
        assert_eq!(y.shape(), (4, 8));
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(20);
        let mut block = TransformerBlock::new(4, 2, 8, &mut rng);
        let x = Tensor::xavier(3, 4, &mut rng);
        let upstream = Tensor::xavier(3, 4, &mut rng);
        let (_, cache) = block.forward(&x);
        let dx = block.backward(&cache, &upstream);
        let eps = 1e-2f32;
        for idx in [0usize, 6, 11] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let num = (block.forward(&xp).0.dot(&upstream) - block.forward(&xm).0.dot(&upstream))
                / (2.0 * eps);
            let ana = dx.data()[idx];
            assert!(
                (num - ana).abs() < 0.05 * (1.0 + ana.abs()),
                "dx[{idx}]: numeric {num} vs analytic {ana}"
            );
        }
    }

    #[test]
    fn param_count_is_plausible() {
        let mut rng = StdRng::seed_from_u64(21);
        let mut block = TransformerBlock::new(8, 2, 16, &mut rng);
        // 4 linears (8x8 + bias) + 2 LN (2*8 each) + FFN (8*16+16 + 16*8+8).
        let expected = 4 * (64 + 8) + 2 * 16 + (128 + 16) + (128 + 8);
        assert_eq!(block.param_count(), expected);
    }
}
