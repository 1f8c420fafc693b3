//! Doduo-like baseline: multi-column PLM serialization, classification only.
//!
//! Doduo (Suhara et al., SIGMOD'22) serializes the whole table column by
//! column with a `[CLS]` per column (the paper's Eq. 11 — KGLink adopts the
//! same scheme) and fine-tunes BERT with plain cross-entropy. It is the
//! closest baseline to KGLink: same serialization, same PLM, but no KG
//! information and no representation-generation sub-task.

use crate::env::{BenchEnv, CtaModel};
use crate::plm::{encode_cell, Anchor, ColumnSeq, PlmConfig, PlmCore};
use kglink_nn::{special, Tokenizer};
use kglink_table::{Dataset, LabelId, Split, Table};

/// Serialization limits shared with KGLink's defaults for fairness.
const TOKENS_PER_COLUMN: usize = 18;
const MAX_COLUMNS: usize = 8;
const MAX_ROWS: usize = 12;

/// The Doduo-like annotator.
pub struct Doduo {
    core: Option<PlmCore>,
    pub config: PlmConfig,
}

impl Doduo {
    pub fn new(config: PlmConfig) -> Self {
        Doduo { core: None, config }
    }

    /// Eq. 11 serialization of one ≤MAX_COLUMNS chunk.
    fn serialize_chunk(table: &Table, tokenizer: &Tokenizer) -> ColumnSeq {
        let mut ids = Vec::new();
        let mut anchors = Vec::with_capacity(table.n_cols());
        for c in 0..table.n_cols() {
            anchors.push(Anchor::Pos(ids.len()));
            ids.push(special::CLS);
            let budget = ids.len() + TOKENS_PER_COLUMN;
            'cells: for cell in table.column(c).iter().take(MAX_ROWS) {
                for t in encode_cell(cell, tokenizer) {
                    if ids.len() >= budget {
                        break 'cells;
                    }
                    ids.push(t);
                }
            }
        }
        ids.push(special::SEP);
        ColumnSeq {
            ids,
            anchors,
            labels: table.labels.clone(),
        }
    }

    /// Serialize a table (splitting wide tables like KGLink does).
    pub fn serialize(table: &Table, tokenizer: &Tokenizer) -> Vec<ColumnSeq> {
        table
            .split_columns(MAX_COLUMNS)
            .iter()
            .map(|chunk| Self::serialize_chunk(chunk, tokenizer))
            .collect()
    }

    fn sequences(dataset: &Dataset, split: Split, tokenizer: &Tokenizer) -> Vec<ColumnSeq> {
        dataset
            .tables_in(split)
            .flat_map(|t| Self::serialize(t, tokenizer))
            .collect()
    }
}

impl CtaModel for Doduo {
    fn name(&self) -> &'static str {
        "Doduo"
    }

    fn fit(&mut self, env: &BenchEnv<'_>, dataset: &Dataset) {
        let tok = env.resources.tokenizer;
        let train = Self::sequences(dataset, Split::Train, tok);
        let val = Self::sequences(dataset, Split::Validation, tok);
        let enc_cfg = kglink_nn::EncoderConfig::mini(tok.vocab.len());
        let mut core = PlmCore::new(
            enc_cfg,
            env.labels.len(),
            self.config.seed,
            env.resources.pretrained_encoder,
        );
        core.fit(&train, &val, &self.config);
        self.core = Some(core);
    }

    fn predict_table(&self, env: &BenchEnv<'_>, table: &Table) -> Vec<LabelId> {
        #[expect(
            clippy::expect_used,
            reason = "Baseline trait contract: the bench harness always fits before predicting; a None here is a harness bug, not a data condition to degrade on"
        )]
        let core = self.core.as_ref().expect("fit before predict");
        Self::serialize(table, env.resources.tokenizer)
            .iter()
            .flat_map(|seq| core.predict(seq))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kglink_core::pipeline::{build_vocab, Resources};
    use kglink_datagen::{pretrain_corpus, semtab_like, SemTabConfig};
    use kglink_kg::{SyntheticWorld, WorldConfig};
    use kglink_store::DiskWorld;

    #[test]
    fn doduo_learns_semtab_like_data() {
        let world = SyntheticWorld::generate(&WorldConfig::tiny(95));
        let bench = semtab_like(&world, &SemTabConfig::tiny(95));
        let disk = DiskWorld::from_graph(&world.graph).unwrap();
        let corpus = pretrain_corpus(&world, 3);
        let vocab = build_vocab(corpus.iter().map(String::as_str), &[&bench.dataset], 6000);
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
        let mut doduo = Doduo::new(PlmConfig {
            epochs: 8,
            patience: 0,
            ..Default::default()
        });
        doduo.fit(&env, &bench.dataset);
        let summary = doduo.evaluate(&env, &bench.dataset, Split::Test);
        assert!(
            summary.accuracy > 1.5 / bench.dataset.labels.len() as f64,
            "clearly better than random: {}",
            summary.accuracy
        );
    }

    #[test]
    fn serialization_has_one_cls_per_column() {
        let world = SyntheticWorld::generate(&WorldConfig::tiny(96));
        let bench = semtab_like(&world, &SemTabConfig::tiny(96));
        let vocab = build_vocab([], &[&bench.dataset], 4000);
        let tokenizer = kglink_nn::Tokenizer::new(vocab);
        let t = &bench.dataset.tables[0];
        let seqs = Doduo::serialize(t, &tokenizer);
        let total_anchors: usize = seqs.iter().map(|s| s.anchors.len()).sum();
        assert_eq!(total_anchors, t.n_cols());
        for s in &seqs {
            let cls_count = s.ids.iter().filter(|&&t| t == special::CLS).count();
            assert_eq!(cls_count, s.anchors.len());
        }
    }
}
