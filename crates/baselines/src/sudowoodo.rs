//! Sudowoodo-like baseline: a column encoder pre-trained contrastively, without labels.
//!
//! Sudowoodo (Wang et al., ICDE'23) learns column representations with
//! SimCLR-style contrastive learning (two augmented views of the same
//! column must embed close together, different columns far apart) and then
//! needs only light supervision on top. The skeleton keeps that shape:
//! an InfoNCE pre-training phase over training columns (labels unused),
//! then a small classifier on the **frozen** embeddings — which is why it
//! lands below the fully fine-tuned PLMs in Table I, while still beating
//! feature-engineering baselines.

use crate::env::{BenchEnv, CtaModel};
use crate::mlp::{Mlp, MlpConfig};
use crate::plm::encode_cell;
use kglink_nn::{special, AdamW, AdamWConfig, Encoder, Tensor, Tokenizer};
use kglink_table::{Dataset, LabelId, Split, Table};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

const TOKENS_PER_COLUMN: usize = 18;
const MAX_ROWS: usize = 12;

/// Sudowoodo-like training settings.
#[derive(Debug, Clone)]
pub struct SudowoodoConfig {
    /// Contrastive epochs over the training columns.
    pub contrastive_epochs: usize,
    /// Contrastive batch size (columns per InfoNCE batch).
    pub batch_size: usize,
    /// InfoNCE temperature.
    pub tau: f32,
    /// Classifier training settings on frozen embeddings.
    pub head: MlpConfig,
    pub lr: f32,
    pub seed: u64,
}

impl Default for SudowoodoConfig {
    fn default() -> Self {
        SudowoodoConfig {
            contrastive_epochs: 2,
            batch_size: 8,
            tau: 0.3,
            head: MlpConfig::default(),
            lr: 3e-4,
            seed: 13,
        }
    }
}

/// The Sudowoodo-like annotator.
pub struct Sudowoodo {
    encoder: Option<Encoder>,
    head: Option<Mlp>,
    pub config: SudowoodoConfig,
}

impl Sudowoodo {
    pub fn new(config: SudowoodoConfig) -> Self {
        Sudowoodo {
            encoder: None,
            head: None,
            config,
        }
    }

    /// Token ids of one column (full view).
    fn column_tokens(table: &Table, c: usize, tokenizer: &Tokenizer) -> Vec<u32> {
        let mut out = Vec::new();
        for cell in table.column(c).iter().take(MAX_ROWS) {
            out.extend(encode_cell(cell, tokenizer));
            if out.len() >= TOKENS_PER_COLUMN {
                out.truncate(TOKENS_PER_COLUMN);
                break;
            }
        }
        out
    }

    /// An augmented view: a random ~60% subset of the column's tokens.
    fn view(tokens: &[u32], rng: &mut StdRng) -> Vec<u32> {
        let mut ids = vec![special::CLS];
        for &t in tokens {
            if rng.gen_bool(0.6) {
                ids.push(t);
            }
        }
        if ids.len() == 1 {
            if let Some(&t) = tokens.first() {
                ids.push(t);
            }
        }
        ids.push(special::SEP);
        ids
    }

    /// `[CLS]`-embedding of a token sequence.
    fn embed(encoder: &Encoder, tokens: &[u32]) -> Vec<f32> {
        let mut ids = vec![special::CLS];
        ids.extend_from_slice(tokens);
        ids.push(special::SEP);
        encoder.infer(&ids).row(0).to_vec()
    }

    /// L2-normalize in place; returns the original norm.
    fn normalize(v: &mut [f32]) -> f32 {
        let norm = v.iter().map(|x| x * x).sum::<f32>().sqrt().max(1e-6);
        for x in v.iter_mut() {
            *x /= norm;
        }
        norm
    }

    /// One InfoNCE step on a batch of column token lists. Returns the loss.
    fn contrastive_step(
        encoder: &mut Encoder,
        opt: &mut AdamW,
        batch: &[&Vec<u32>],
        tau: f32,
        rng: &mut StdRng,
    ) -> f32 {
        let b = batch.len();
        if b < 2 {
            return 0.0;
        }
        let d = encoder.d_model();
        // Forward both views with caches.
        let mut caches = Vec::with_capacity(2 * b);
        let mut raw = Vec::with_capacity(2 * b); // un-normalized CLS embeddings
        let mut z = Vec::with_capacity(2 * b); // normalized
        let mut norms = Vec::with_capacity(2 * b);
        let mut rows = Vec::with_capacity(2 * b);
        for view_idx in 0..2 {
            let _ = view_idx;
            for tokens in batch {
                let ids = Self::view(tokens, rng);
                let (h, cache) = encoder.forward(&ids);
                let mut v = h.row(0).to_vec();
                raw.push(v.clone());
                let norm = Self::normalize(&mut v);
                norms.push(norm);
                z.push(v);
                caches.push(cache);
                rows.push(h.rows());
            }
        }
        // logits[i][j] = z1_i · z2_j / tau
        let mut loss = 0.0f32;
        let mut dz = vec![vec![0.0f32; d]; 2 * b];
        for i in 0..b {
            let logits: Vec<f32> = (0..b)
                .map(|j| z[i].iter().zip(&z[b + j]).map(|(a, c)| a * c).sum::<f32>() / tau)
                .collect();
            let (l, dlogits) = kglink_nn::cross_entropy(&logits, i);
            loss += l / b as f32;
            for (j, &g) in dlogits.iter().enumerate() {
                let g = g / (tau * b as f32);
                for k in 0..d {
                    dz[i][k] += g * z[b + j][k];
                    dz[b + j][k] += g * z[i][k];
                }
            }
        }
        // Backward through normalization and the encoder.
        for (idx, cache) in caches.iter().enumerate() {
            let zi = &z[idx];
            let gi = &dz[idx];
            let dot: f32 = zi.iter().zip(gi).map(|(a, b)| a * b).sum();
            let mut draw = vec![0.0f32; d];
            for k in 0..d {
                draw[k] = (gi[k] - zi[k] * dot) / norms[idx];
            }
            let mut dh = Tensor::zeros(rows[idx], d);
            dh.row_mut(0).copy_from_slice(&draw);
            encoder.backward(cache, &dh);
        }
        opt.step(encoder);
        loss
    }
}

impl CtaModel for Sudowoodo {
    fn name(&self) -> &'static str {
        "Sudowoodo"
    }

    fn fit(&mut self, env: &BenchEnv<'_>, dataset: &Dataset) {
        let tok = env.resources.tokenizer;
        let mut encoder = Encoder::new(kglink_nn::EncoderConfig::mini(tok.vocab.len()));
        if let Some(blob) = env.resources.pretrained_encoder {
            let _ = kglink_nn::serialize::load_params(&mut encoder, blob);
        }
        // Collect training columns (labels unused during contrastive phase).
        let columns: Vec<Vec<u32>> = dataset
            .tables_in(Split::Train)
            .flat_map(|t| (0..t.n_cols()).map(|c| Self::column_tokens(t, c, tok)))
            .filter(|toks| !toks.is_empty())
            .collect();
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut opt = AdamW::new(
            AdamWConfig {
                lr: self.config.lr,
                ..Default::default()
            },
            None,
        );
        let mut order: Vec<usize> = (0..columns.len()).collect();
        for _ in 0..self.config.contrastive_epochs {
            order.shuffle(&mut rng);
            for chunk in order.chunks(self.config.batch_size.max(2)) {
                let batch: Vec<&Vec<u32>> = chunk.iter().map(|&i| &columns[i]).collect();
                Self::contrastive_step(&mut encoder, &mut opt, &batch, self.config.tau, &mut rng);
            }
        }
        // Supervised head on frozen embeddings.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for t in dataset.tables_in(Split::Train) {
            for c in 0..t.n_cols() {
                let toks = Self::column_tokens(t, c, tok);
                xs.push(Self::embed(&encoder, &toks));
                ys.push(t.labels[c].index());
            }
        }
        let mut head = Mlp::new(
            encoder.d_model(),
            64,
            env.labels.len(),
            self.config.seed ^ 0x5,
        );
        head.fit(&xs, &ys, &self.config.head);
        self.encoder = Some(encoder);
        self.head = Some(head);
    }

    fn predict_table(&self, env: &BenchEnv<'_>, table: &Table) -> Vec<LabelId> {
        #[expect(
            clippy::expect_used,
            reason = "Baseline trait contract: the bench harness always fits before predicting; a None here is a harness bug, not a data condition to degrade on"
        )]
        let encoder = self.encoder.as_ref().expect("fit before predict");
        #[expect(clippy::expect_used, reason = "same contract as the line above")]
        let head = self.head.as_ref().expect("fit before predict");
        (0..table.n_cols())
            .map(|c| {
                let toks = Self::column_tokens(table, c, env.resources.tokenizer);
                LabelId(head.predict(&Self::embed(encoder, &toks)) as u32)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kglink_core::pipeline::{build_vocab, Resources};
    use kglink_datagen::{semtab_like, SemTabConfig};
    use kglink_kg::{SyntheticWorld, WorldConfig};
    use kglink_store::DiskWorld;

    #[test]
    fn views_are_subsets_with_frame_tokens() {
        let mut rng = StdRng::seed_from_u64(1);
        let tokens = vec![20u32, 21, 22, 23, 24];
        let v = Sudowoodo::view(&tokens, &mut rng);
        assert_eq!(v[0], special::CLS);
        assert_eq!(*v.last().unwrap(), special::SEP);
        for t in &v[1..v.len() - 1] {
            assert!(tokens.contains(t));
        }
    }

    #[test]
    fn contrastive_loss_decreases() {
        let mut encoder = Encoder::new(kglink_nn::EncoderConfig {
            vocab_size: 40,
            d_model: 16,
            n_heads: 2,
            d_ff: 32,
            n_layers: 1,
            max_len: 24,
            seed: 2,
        });
        let mut rng = StdRng::seed_from_u64(3);
        let mut opt = AdamW::new(
            AdamWConfig {
                lr: 1e-3,
                ..Default::default()
            },
            None,
        );
        let columns: Vec<Vec<u32>> = (0..8)
            .map(|i| (0..6).map(|j| 11 + ((i * 3 + j) % 28) as u32).collect())
            .collect();
        let batch: Vec<&Vec<u32>> = columns.iter().collect();
        let first = Sudowoodo::contrastive_step(&mut encoder, &mut opt, &batch, 0.3, &mut rng);
        let mut last = first;
        for _ in 0..15 {
            last = Sudowoodo::contrastive_step(&mut encoder, &mut opt, &batch, 0.3, &mut rng);
        }
        assert!(last < first, "InfoNCE should decrease: {first} -> {last}");
    }

    #[test]
    fn sudowoodo_end_to_end_beats_random() {
        let world = SyntheticWorld::generate(&WorldConfig::tiny(130));
        let bench = semtab_like(&world, &SemTabConfig::tiny(130));
        let disk = DiskWorld::from_graph(&world.graph).unwrap();
        let vocab = build_vocab([], &[&bench.dataset], 4000);
        let tokenizer = kglink_nn::Tokenizer::new(vocab);
        let resources = Resources::builder()
            .graph(&disk.graph)
            .backend(&disk.backend)
            .tokenizer(&tokenizer)
            .build()
            .unwrap();
        let env = BenchEnv {
            resources: &resources,
            labels: &bench.dataset.labels,
            label_to_type: &bench.label_to_type,
        };
        let mut model = Sudowoodo::new(SudowoodoConfig {
            contrastive_epochs: 1,
            ..Default::default()
        });
        model.fit(&env, &bench.dataset);
        let summary = model.evaluate(&env, &bench.dataset, Split::Test);
        assert!(
            summary.accuracy > 1.0 / bench.dataset.labels.len() as f64,
            "{}",
            summary.accuracy
        );
    }
}
