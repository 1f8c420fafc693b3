//! Shared PLM fine-tuning core for the deep-learning baselines.
//!
//! TaBERT, Doduo, and RECA all fine-tune the same encoder (BERT in the
//! paper, the MiniLM here); they differ only in how tables become token
//! sequences and how a column representation is pooled. This module owns
//! the shared encoder + classifier + training loop; each baseline supplies
//! sequences.

use kglink_nn::layers::linear::Linear;
use kglink_nn::layers::param::{HasParams, Param};
use kglink_nn::serialize::{load_params, save_params};
use kglink_nn::{cross_entropy, AdamW, AdamWConfig, Encoder, EncoderConfig, LinearDecay, Tensor};
use kglink_table::{EvalSummary, LabelId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Where a column's representation comes from in a sequence.
#[derive(Debug, Clone)]
pub enum Anchor {
    /// A single position (a `[CLS]` token).
    Pos(usize),
    /// The mean of several positions (span pooling, TaBERT-style).
    Mean(Vec<usize>),
}

/// One serialized training/evaluation sequence with its column anchors.
#[derive(Debug, Clone)]
pub struct ColumnSeq {
    pub ids: Vec<u32>,
    pub anchors: Vec<Anchor>,
    pub labels: Vec<LabelId>,
}

/// Fine-tuning hyper-parameters for the baseline PLMs (kept aligned with
/// KGLink's own training so comparisons are fair — the paper uses the same
/// experimental settings for TaBERT and Doduo as for KGLink).
#[derive(Debug, Clone)]
pub struct PlmConfig {
    pub epochs: usize,
    pub batch_size: usize,
    pub patience: usize,
    pub optimizer: AdamWConfig,
    /// Train-time dropout on encoder outputs — kept identical to KGLink's
    /// setting on each dataset ("The experimental settings for TaBERT and
    /// Doduo were the same as KGLink").
    pub dropout: f32,
    pub seed: u64,
}

impl Default for PlmConfig {
    fn default() -> Self {
        PlmConfig {
            epochs: 6,
            batch_size: 16,
            patience: 2,
            optimizer: AdamWConfig {
                lr: 4e-4,
                ..Default::default()
            },
            dropout: 0.1,
            seed: 77,
        }
    }
}

/// Encoder + linear classifier.
pub struct PlmCore {
    pub encoder: Encoder,
    pub classifier: Linear,
}

impl HasParams for PlmCore {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.encoder.visit_params(f);
        self.classifier.visit_params(f);
    }
}

impl PlmCore {
    /// Build, optionally warm-starting the encoder from pre-trained weights.
    pub fn new(
        enc_cfg: EncoderConfig,
        n_labels: usize,
        seed: u64,
        pretrained: Option<&[u8]>,
    ) -> Self {
        let mut encoder = Encoder::new(enc_cfg);
        if let Some(blob) = pretrained {
            let _ = load_params(&mut encoder, blob);
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let d = encoder.d_model();
        PlmCore {
            encoder,
            classifier: Linear::new(d, n_labels, &mut rng),
        }
    }

    /// Pool a column representation from hidden states.
    fn pool(hidden: &Tensor, anchor: &Anchor) -> Option<Vec<f32>> {
        match anchor {
            Anchor::Pos(p) => (*p < hidden.rows()).then(|| hidden.row(*p).to_vec()),
            Anchor::Mean(ps) => {
                let valid: Vec<usize> = ps.iter().copied().filter(|&p| p < hidden.rows()).collect();
                if valid.is_empty() {
                    return None;
                }
                let d = hidden.cols();
                let mut v = vec![0.0f32; d];
                for &p in &valid {
                    for (a, &b) in v.iter_mut().zip(hidden.row(p)) {
                        *a += b;
                    }
                }
                let inv = 1.0 / valid.len() as f32;
                for a in &mut v {
                    *a *= inv;
                }
                Some(v)
            }
        }
    }

    /// One gradient-accumulating step on a sequence; returns the mean loss.
    fn train_seq(&mut self, seq: &ColumnSeq, dropout: f32, rng: &mut StdRng) -> f32 {
        let (mut hidden, cache) = self.encoder.forward(&seq.ids);
        let dropout_mask = if dropout > 0.0 {
            let keep = 1.0 - dropout;
            let scale = 1.0 / keep;
            let mask: Vec<f32> = (0..hidden.numel())
                .map(|_| {
                    if rng.gen_bool(keep as f64) {
                        scale
                    } else {
                        0.0
                    }
                })
                .collect();
            for (h, &m) in hidden.data_mut().iter_mut().zip(&mask) {
                *h *= m;
            }
            Some(mask)
        } else {
            None
        };
        let d = hidden.cols();
        let mut d_hidden = Tensor::zeros(hidden.rows(), d);
        let mut loss_sum = 0.0f32;
        let mut counted = 0usize;
        let visible = seq
            .anchors
            .iter()
            .filter(|a| Self::pool(&hidden, a).is_some())
            .count()
            .max(1);
        let inv = 1.0 / visible as f32;
        for (a, &label) in seq.anchors.iter().zip(&seq.labels) {
            let Some(pooled) = Self::pool(&hidden, a) else {
                continue;
            };
            let x = Tensor::from_vec(1, d, pooled);
            let (logits, ccache) = self.classifier.forward(&x);
            let (loss, mut dlogits) = cross_entropy(logits.row(0), label.index());
            loss_sum += loss;
            counted += 1;
            for g in &mut dlogits {
                *g *= inv;
            }
            let dl = Tensor::from_vec(1, dlogits.len(), dlogits);
            let dx = self.classifier.backward(&ccache, &dl);
            match a {
                Anchor::Pos(p) => {
                    for (g, &v) in d_hidden.row_mut(*p).iter_mut().zip(dx.row(0)) {
                        *g += v;
                    }
                }
                Anchor::Mean(ps) => {
                    let valid: Vec<usize> =
                        ps.iter().copied().filter(|&p| p < hidden.rows()).collect();
                    let share = 1.0 / valid.len() as f32;
                    for p in valid {
                        for (g, &v) in d_hidden.row_mut(p).iter_mut().zip(dx.row(0)) {
                            *g += share * v;
                        }
                    }
                }
            }
        }
        if let Some(mask) = &dropout_mask {
            for (g, &m) in d_hidden.data_mut().iter_mut().zip(mask) {
                *g *= m;
            }
        }
        self.encoder.backward(&cache, &d_hidden);
        loss_sum / counted.max(1) as f32
    }

    /// Predict labels for a sequence.
    pub fn predict(&self, seq: &ColumnSeq) -> Vec<LabelId> {
        let hidden = self.encoder.infer(&seq.ids);
        seq.anchors
            .iter()
            .map(|a| {
                let Some(pooled) = Self::pool(&hidden, a) else {
                    return LabelId(0);
                };
                let x = Tensor::from_vec(1, pooled.len(), pooled);
                let logits = self.classifier.infer(&x);
                let best = logits
                    .row(0)
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(i, _)| i)
                    .unwrap_or(0);
                LabelId(best as u32)
            })
            .collect()
    }

    /// Evaluate over sequences.
    pub fn evaluate(&self, seqs: &[ColumnSeq]) -> EvalSummary {
        let mut preds = Vec::new();
        let mut truths = Vec::new();
        for s in seqs {
            preds.extend(self.predict(s));
            truths.extend(s.labels.iter().copied());
        }
        EvalSummary::compute(&preds, &truths)
    }

    /// Fine-tune with early stopping; restores the best epoch's weights.
    pub fn fit(&mut self, train: &[ColumnSeq], val: &[ColumnSeq], config: &PlmConfig) {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let batch = config.batch_size.max(1);
        let mut opt = AdamW::new(
            config.optimizer,
            Some(LinearDecay {
                total_steps: train.len().div_ceil(batch) * config.epochs,
            }),
        );
        let mut best = f64::NEG_INFINITY;
        let mut best_blob: Option<Vec<u8>> = None;
        let mut bad = 0usize;
        let mut order: Vec<usize> = (0..train.len()).collect();
        for _epoch in 0..config.epochs {
            order.shuffle(&mut rng);
            for chunk in order.chunks(batch) {
                for &i in chunk {
                    self.train_seq(&train[i], config.dropout, &mut rng);
                }
                self.scale_grads(1.0 / chunk.len() as f32);
                opt.step(self);
            }
            // Without a validation split, train to the end (no early stop,
            // keep final weights).
            if !val.is_empty() {
                let acc = self.evaluate(val).accuracy;
                if acc > best {
                    best = acc;
                    best_blob = Some(save_params(self).to_vec());
                    bad = 0;
                } else {
                    bad += 1;
                    if config.patience > 0 && bad >= config.patience {
                        break;
                    }
                }
            }
        }
        if let Some(blob) = best_blob {
            #[expect(
                clippy::expect_used,
                reason = "structural: the blob was produced by save_params on this very model moments ago, so shapes always match; a failure is memory corruption, not input"
            )]
            load_params(self, &blob).expect("restoring own weights cannot fail");
        }
    }
}

/// Tokenize one cell the way every PLM model in this workspace does:
/// words for text, magnitude buckets for numbers, year buckets for dates.
pub fn encode_cell(cell: &kglink_table::CellValue, tokenizer: &kglink_nn::Tokenizer) -> Vec<u32> {
    use kglink_table::CellValue;
    match cell {
        CellValue::Text(s) => tokenizer.encode_text(s),
        CellValue::Number(n) => vec![tokenizer.encode_number(*n)],
        CellValue::Date(d) => {
            let year = d
                .get(..4)
                .and_then(|y| y.parse::<f64>().ok())
                .unwrap_or(0.0);
            vec![tokenizer.encode_number(year)]
        }
        CellValue::Empty => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kglink_nn::special;

    fn seqs(n: usize, n_labels: u32) -> Vec<ColumnSeq> {
        // Token identity encodes the label: trivially learnable.
        (0..n)
            .map(|i| {
                let label = (i as u32) % n_labels;
                let tok = special::FIRST_WORD + label;
                ColumnSeq {
                    ids: vec![special::CLS, tok, tok, special::SEP],
                    anchors: vec![Anchor::Pos(0)],
                    labels: vec![LabelId(label)],
                }
            })
            .collect()
    }

    fn enc_cfg() -> EncoderConfig {
        EncoderConfig {
            vocab_size: 20,
            d_model: 16,
            n_heads: 2,
            d_ff: 32,
            n_layers: 1,
            max_len: 8,
            seed: 6,
        }
    }

    #[test]
    fn plm_learns_a_trivial_mapping() {
        let train = seqs(60, 3);
        let mut core = PlmCore::new(enc_cfg(), 3, 1, None);
        let before = core.evaluate(&train).accuracy;
        core.fit(
            &train,
            &train,
            &PlmConfig {
                epochs: 10,
                patience: 0,
                ..Default::default()
            },
        );
        let after = core.evaluate(&train).accuracy;
        assert!(after > before.max(0.8), "{before} -> {after}");
    }

    #[test]
    fn mean_anchor_pools_span() {
        let core = PlmCore::new(enc_cfg(), 3, 1, None);
        let hidden = core.encoder.infer(&[2, 11, 12, 3]);
        let a = PlmCore::pool(&hidden, &Anchor::Mean(vec![1, 2])).unwrap();
        for (i, v) in a.iter().enumerate() {
            let expect = (hidden.get(1, i) + hidden.get(2, i)) / 2.0;
            assert!((v - expect).abs() < 1e-6);
        }
        // Out-of-range anchors pool to None.
        assert!(PlmCore::pool(&hidden, &Anchor::Pos(99)).is_none());
        assert!(PlmCore::pool(&hidden, &Anchor::Mean(vec![99])).is_none());
    }

    #[test]
    fn predict_handles_truncated_anchor() {
        let core = PlmCore::new(enc_cfg(), 3, 1, None);
        let seq = ColumnSeq {
            ids: vec![special::CLS, 11, special::SEP],
            anchors: vec![Anchor::Pos(0), Anchor::Pos(50)],
            labels: vec![LabelId(0), LabelId(1)],
        };
        let preds = core.predict(&seq);
        assert_eq!(preds.len(), 2);
        assert_eq!(preds[1], LabelId(0), "fallback for truncated anchor");
    }
}
