//! Token and position embedding lookup.

use crate::layers::param::{HasParams, Param};
use crate::tensor::Tensor;
use rand::rngs::StdRng;

/// An embedding table `(vocab × d)` looked up by token id.
#[derive(Debug, Clone)]
pub struct Embedding {
    pub table: Param,
}

/// Forward cache: the token ids (rows touched by the backward pass).
#[derive(Debug)]
pub struct EmbeddingCache {
    ids: Vec<u32>,
}

impl Embedding {
    /// Normal(0, 0.02)-initialized table, BERT-style.
    pub fn new(vocab: usize, d: usize, rng: &mut StdRng) -> Self {
        Embedding {
            table: Param::new(Tensor::normal(vocab, d, 0.02, rng)),
        }
    }

    /// Look up a sequence of token ids into a `(len × d)` tensor.
    pub fn forward(&self, ids: &[u32]) -> (Tensor, EmbeddingCache) {
        (
            self.infer(ids),
            // The cache must own the ids for the scatter-add in backward.
            EmbeddingCache { ids: ids.to_vec() },
        )
    }

    /// Lookup without caching.
    pub fn infer(&self, ids: &[u32]) -> Tensor {
        let d = self.table.value.cols();
        let mut out = Tensor::zeros(ids.len(), d);
        for (r, &id) in ids.iter().enumerate() {
            let src = self.table.value.row(id as usize);
            out.row_mut(r).copy_from_slice(src);
        }
        out
    }

    /// Backward: scatter-add `dy` rows into the table gradient.
    pub fn backward(&mut self, cache: &EmbeddingCache, dy: &Tensor) {
        debug_assert_eq!(dy.rows(), cache.ids.len());
        for (r, &id) in cache.ids.iter().enumerate() {
            let src = dy.row(r);
            let d = dy.cols();
            let dst =
                &mut self.table.grad.data_mut()[id as usize * d..(id as usize + 1) * d];
            for (g, &v) in dst.iter_mut().zip(src) {
                *g += v;
            }
        }
    }

    /// Vocabulary size.
    pub fn vocab_size(&self) -> usize {
        self.table.value.rows()
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.table.value.cols()
    }
}

impl HasParams for Embedding {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.table);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn lookup_copies_rows() {
        let mut rng = StdRng::seed_from_u64(9);
        let emb = Embedding::new(10, 4, &mut rng);
        let (y, _) = emb.forward(&[3, 3, 7]);
        assert_eq!(y.shape(), (3, 4));
        assert_eq!(y.row(0), emb.table.value.row(3));
        assert_eq!(y.row(0), y.row(1));
        assert_eq!(y.row(2), emb.table.value.row(7));
    }

    #[test]
    fn backward_scatter_adds_repeated_ids() {
        let mut rng = StdRng::seed_from_u64(10);
        let mut emb = Embedding::new(5, 2, &mut rng);
        let (_, cache) = emb.forward(&[1, 1, 2]);
        let dy = Tensor::from_vec(3, 2, vec![1.0, 0.0, 2.0, 0.0, 5.0, 5.0]);
        emb.backward(&cache, &dy);
        assert_eq!(emb.table.grad.row(1), &[3.0, 0.0], "repeated id sums");
        assert_eq!(emb.table.grad.row(2), &[5.0, 5.0]);
        assert_eq!(emb.table.grad.row(0), &[0.0, 0.0]);
    }

    #[test]
    fn dims_are_exposed() {
        let mut rng = StdRng::seed_from_u64(11);
        let emb = Embedding::new(12, 6, &mut rng);
        assert_eq!(emb.vocab_size(), 12);
        assert_eq!(emb.dim(), 6);
    }
}
