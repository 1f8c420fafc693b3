//! Masked-language-model head and pre-training loop.
//!
//! BERT's prior knowledge — which the paper credits for KGLink's strong
//! numeric/no-linkage column performance (their Table IV) — comes from
//! web-scale MLM pre-training. The reproduction's equivalent is MLM
//! pre-training on a corpus of verbalized knowledge-graph triples, giving
//! the encoder the same kind of world knowledge at miniature scale.

use crate::encoder::Encoder;
use crate::layers::linear::Linear;
use crate::layers::param::{HasParams, Param};
use crate::loss::cross_entropy;
use crate::optim::{AdamW, AdamWConfig, LinearDecay};
use crate::tensor::Tensor;
use crate::tokenizer::special;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Projection from hidden states to vocabulary logits (the `W_o` of the
/// paper's Eq. 14).
#[derive(Debug, Clone)]
pub struct MlmHead {
    pub proj: Linear,
}

impl MlmHead {
    /// Create a head for the given model width and vocabulary.
    pub fn new(d_model: usize, vocab_size: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        MlmHead {
            proj: Linear::new(d_model, vocab_size, &mut rng),
        }
    }

    /// Vocabulary logits for every position.
    pub fn infer(&self, hidden: &Tensor) -> Tensor {
        self.proj.infer(hidden)
    }

    /// Logits for a single hidden row.
    pub fn infer_row(&self, hidden_row: &[f32]) -> Vec<f32> {
        let x = Tensor::from_vec(1, hidden_row.len(), hidden_row.to_vec());
        self.proj.infer(&x).data().to_vec()
    }
}

impl HasParams for MlmHead {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.proj.visit_params(f);
    }
}

/// MLM pre-training settings.
#[derive(Debug, Clone)]
pub struct MlmPretrainConfig {
    pub epochs: usize,
    pub batch_size: usize,
    pub mask_prob: f64,
    pub optimizer: AdamWConfig,
    pub seed: u64,
}

impl Default for MlmPretrainConfig {
    fn default() -> Self {
        MlmPretrainConfig {
            epochs: 2,
            batch_size: 16,
            mask_prob: 0.15,
            optimizer: AdamWConfig {
                lr: 1e-3,
                ..Default::default()
            },
            seed: 17,
        }
    }
}

/// Encoder + MLM head bundled for pre-training.
pub struct MlmPretrainer {
    pub encoder: Encoder,
    pub head: MlmHead,
    config: MlmPretrainConfig,
}

impl HasParams for MlmPretrainer {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.encoder.visit_params(f);
        self.head.visit_params(f);
    }
}

impl MlmPretrainer {
    /// Wrap an encoder for pre-training.
    pub fn new(encoder: Encoder, config: MlmPretrainConfig) -> Self {
        let head = MlmHead::new(
            encoder.d_model(),
            encoder.config.vocab_size,
            config.seed ^ 0xa5,
        );
        MlmPretrainer {
            encoder,
            head,
            config,
        }
    }

    /// Run MLM pre-training over `corpus` (token id sequences, without
    /// special markers; `[CLS]`/`[SEP]` are added here). Returns per-epoch
    /// mean masked-token losses.
    pub fn train(&mut self, corpus: &[Vec<u32>]) -> Vec<f32> {
        let vocab_size = self.encoder.config.vocab_size as u32;
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let steps_per_epoch = corpus.len().div_ceil(self.config.batch_size.max(1));
        let mut opt = AdamW::new(
            self.config.optimizer,
            Some(LinearDecay {
                total_steps: steps_per_epoch * self.config.epochs,
            }),
        );
        let mut epoch_losses = Vec::with_capacity(self.config.epochs);
        let mut order: Vec<usize> = (0..corpus.len()).collect();
        for _epoch in 0..self.config.epochs {
            order.shuffle(&mut rng);
            let mut epoch_loss = 0.0f32;
            let mut n_masked = 0usize;
            for batch in order.chunks(self.config.batch_size.max(1)) {
                let mut batch_loss_count = 0usize;
                for &si in batch {
                    let sent = &corpus[si];
                    if sent.is_empty() {
                        continue;
                    }
                    // Assemble [CLS] w1 ... wn [SEP].
                    let mut ids = Vec::with_capacity(sent.len() + 2);
                    ids.push(special::CLS);
                    ids.extend_from_slice(sent);
                    ids.push(special::SEP);
                    let max = self.encoder.config.max_len;
                    ids.truncate(max);

                    // Choose masked positions (never the special frame).
                    let mut targets: Vec<(usize, u32)> = Vec::new();
                    for pos in 1..ids.len().saturating_sub(1) {
                        if rng.gen_bool(self.config.mask_prob) {
                            targets.push((pos, ids[pos]));
                            let roll: f64 = rng.gen();
                            ids[pos] = if roll < 0.8 {
                                special::MASK
                            } else if roll < 0.9 {
                                rng.gen_range(special::FIRST_WORD..vocab_size)
                            } else {
                                ids[pos]
                            };
                        }
                    }
                    if targets.is_empty() {
                        // Force one mask so every sentence teaches something.
                        let pos = rng.gen_range(1..ids.len() - 1);
                        targets.push((pos, ids[pos]));
                        ids[pos] = special::MASK;
                    }

                    let (hidden, cache) = self.encoder.forward(&ids);
                    let mut d_hidden = Tensor::zeros(hidden.rows(), hidden.cols());
                    for &(pos, original) in &targets {
                        if pos >= hidden.rows() {
                            continue;
                        }
                        let logits = self.head.infer_row(hidden.row(pos));
                        let (loss, dlogits) = cross_entropy(&logits, original as usize);
                        epoch_loss += loss;
                        n_masked += 1;
                        batch_loss_count += 1;
                        // Backward through the head for this row.
                        let x = Tensor::from_vec(1, hidden.cols(), hidden.row(pos).to_vec());
                        let (_, hcache) = self.head.proj.forward(&x);
                        let dl = Tensor::from_vec(1, dlogits.len(), dlogits);
                        let dx = self.head.proj.backward(&hcache, &dl);
                        for (g, &v) in d_hidden.row_mut(pos).iter_mut().zip(dx.row(0)) {
                            *g += v;
                        }
                    }
                    self.encoder.backward(&cache, &d_hidden);
                }
                if batch_loss_count > 0 {
                    self.scale_grads(1.0 / batch_loss_count as f32);
                    opt.step(self);
                } else {
                    self.zero_grads();
                }
            }
            epoch_losses.push(if n_masked > 0 {
                epoch_loss / n_masked as f32
            } else {
                0.0
            });
        }
        epoch_losses
    }

    /// Unbundle into the trained encoder and head.
    pub fn into_parts(self) -> (Encoder, MlmHead) {
        (self.encoder, self.head)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::EncoderConfig;

    fn tiny_encoder(vocab: usize) -> Encoder {
        Encoder::new(EncoderConfig {
            vocab_size: vocab,
            d_model: 16,
            n_heads: 2,
            d_ff: 32,
            n_layers: 1,
            max_len: 16,
            seed: 5,
        })
    }

    /// A synthetic corpus with a strong bigram pattern the model can learn.
    fn corpus(vocab: usize) -> Vec<Vec<u32>> {
        let first = special::FIRST_WORD;
        let mut out = Vec::new();
        for i in 0..60u32 {
            let a = first + (i % (vocab as u32 - first - 1));
            // Deterministic "fact": word a is always followed by a+1.
            out.push(vec![a, a + 1, a, a + 1]);
        }
        out
    }

    #[test]
    fn mlm_loss_decreases() {
        let vocab = 24;
        let enc = tiny_encoder(vocab);
        let mut pre = MlmPretrainer::new(
            enc,
            MlmPretrainConfig {
                epochs: 5,
                batch_size: 8,
                ..Default::default()
            },
        );
        let losses = pre.train(&corpus(vocab));
        assert_eq!(losses.len(), 5);
        assert!(
            losses[4] < losses[0] * 0.9,
            "MLM loss should drop: {losses:?}"
        );
    }

    #[test]
    fn head_shapes() {
        let head = MlmHead::new(8, 30, 1);
        let hidden = Tensor::zeros(3, 8);
        let logits = head.infer(&hidden);
        assert_eq!(logits.shape(), (3, 30));
        assert_eq!(head.infer_row(&[0.0; 8]).len(), 30);
    }

    #[test]
    fn pretrain_is_deterministic() {
        let vocab = 20;
        let run = || {
            let mut pre = MlmPretrainer::new(
                tiny_encoder(vocab),
                MlmPretrainConfig {
                    epochs: 1,
                    ..Default::default()
                },
            );
            pre.train(&corpus(vocab))
        };
        assert_eq!(run(), run());
    }
}
