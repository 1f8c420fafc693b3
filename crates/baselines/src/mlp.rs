//! A small two-layer MLP classifier shared by Sherlock and HNN.

use kglink_nn::kernels::{gelu, gelu_grad};
use kglink_nn::layers::linear::Linear;
use kglink_nn::layers::param::{HasParams, Param};
use kglink_nn::{cross_entropy, AdamW, AdamWConfig, Tensor};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// `logits = W2 · GELU(W1 · x + b1) + b2`.
pub struct Mlp {
    l1: Linear,
    l2: Linear,
}

impl HasParams for Mlp {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.l1.visit_params(f);
        self.l2.visit_params(f);
    }
}

/// MLP training settings.
#[derive(Debug, Clone)]
pub struct MlpConfig {
    pub epochs: usize,
    pub batch_size: usize,
    pub lr: f32,
    pub seed: u64,
}

impl Default for MlpConfig {
    fn default() -> Self {
        MlpConfig {
            epochs: 40,
            batch_size: 32,
            lr: 3e-3,
            seed: 9,
        }
    }
}

impl Mlp {
    /// Build an MLP with the given layer widths.
    pub fn new(d_in: usize, d_hidden: usize, n_out: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        Mlp {
            l1: Linear::new(d_in, d_hidden, &mut rng),
            l2: Linear::new(d_hidden, n_out, &mut rng),
        }
    }

    /// Class logits for one feature vector.
    pub fn logits(&self, x: &[f32]) -> Vec<f32> {
        let x = Tensor::from_vec(1, x.len(), x.to_vec());
        let mut h = self.l1.infer(&x);
        for v in h.data_mut() {
            *v = gelu(*v);
        }
        self.l2.infer(&h).data().to_vec()
    }

    /// Predicted class for one feature vector.
    pub fn predict(&self, x: &[f32]) -> usize {
        self.logits(x)
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// Train with cross-entropy on `(features, class)` pairs.
    pub fn fit(&mut self, xs: &[Vec<f32>], ys: &[usize], config: &MlpConfig) {
        assert_eq!(xs.len(), ys.len());
        if xs.is_empty() {
            return;
        }
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut opt = AdamW::new(
            AdamWConfig {
                lr: config.lr,
                ..Default::default()
            },
            None,
        );
        let mut order: Vec<usize> = (0..xs.len()).collect();
        for _ in 0..config.epochs {
            order.shuffle(&mut rng);
            for chunk in order.chunks(config.batch_size.max(1)) {
                for &i in chunk {
                    let x = Tensor::from_vec(1, xs[i].len(), xs[i].clone());
                    let (h_pre, c1) = self.l1.forward(&x);
                    let mut h = h_pre.clone();
                    for v in h.data_mut() {
                        *v = gelu(*v);
                    }
                    let (logits, c2) = self.l2.forward(&h);
                    let (_, dlogits) = cross_entropy(logits.row(0), ys[i]);
                    let dl = Tensor::from_vec(1, dlogits.len(), dlogits);
                    let mut dh = self.l2.backward(&c2, &dl);
                    for (g, &pre) in dh.data_mut().iter_mut().zip(h_pre.data()) {
                        *g *= gelu_grad(pre);
                    }
                    self.l1.backward(&c1, &dh);
                }
                self.scale_grads(1.0 / chunk.len() as f32);
                opt.step(self);
            }
        }
    }
}

/// Z-score normalizer fitted on training features (Sherlock normalizes its
/// hand-crafted statistics before the network).
#[derive(Debug, Clone, Default)]
pub struct Standardizer {
    mean: Vec<f32>,
    std: Vec<f32>,
}

impl Standardizer {
    /// Fit on rows of features.
    pub fn fit(xs: &[Vec<f32>]) -> Self {
        let d = xs.first().map_or(0, Vec::len);
        let n = xs.len().max(1) as f32;
        let mut mean = vec![0.0f32; d];
        for x in xs {
            for (m, &v) in mean.iter_mut().zip(x) {
                *m += v / n;
            }
        }
        let mut std = vec![0.0f32; d];
        for x in xs {
            for ((s, &v), &m) in std.iter_mut().zip(x).zip(&mean) {
                *s += (v - m) * (v - m) / n;
            }
        }
        for s in &mut std {
            *s = s.sqrt().max(1e-6);
        }
        Standardizer { mean, std }
    }

    /// Normalize one row.
    pub fn apply(&self, x: &[f32]) -> Vec<f32> {
        x.iter()
            .zip(self.mean.iter().zip(&self.std))
            .map(|(&v, (&m, &s))| (v - m) / s)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mlp_learns_xor() {
        let xs: Vec<Vec<f32>> = vec![
            vec![0.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![1.0, 1.0],
        ];
        let ys = vec![0usize, 1, 1, 0];
        let mut mlp = Mlp::new(2, 16, 2, 3);
        mlp.fit(
            &xs,
            &ys,
            &MlpConfig {
                epochs: 400,
                lr: 1e-2,
                ..Default::default()
            },
        );
        for (x, &y) in xs.iter().zip(&ys) {
            assert_eq!(mlp.predict(x), y, "XOR at {x:?}");
        }
    }

    #[test]
    fn standardizer_zero_means_unit_std() {
        let xs = vec![vec![1.0, 10.0], vec![3.0, 30.0], vec![5.0, 50.0]];
        let s = Standardizer::fit(&xs);
        let normed: Vec<Vec<f32>> = xs.iter().map(|x| s.apply(x)).collect();
        for d in 0..2 {
            let mean: f32 = normed.iter().map(|x| x[d]).sum::<f32>() / 3.0;
            assert!(mean.abs() < 1e-5);
        }
    }

    #[test]
    fn empty_fit_is_a_noop() {
        let mut mlp = Mlp::new(2, 4, 2, 1);
        mlp.fit(&[], &[], &MlpConfig::default());
        assert!(mlp.predict(&[0.0, 0.0]) < 2);
    }
}
