//! RECA-like baseline: single-column PLM + inter-table augmentation.
//!
//! RECA (Sun et al., VLDB'23) annotates each column independently but
//! augments it with aligned columns from *related tables* found in the
//! corpus. The skeleton keeps both defining choices: no intra-table context
//! (each column is its own sequence — which is why it trails the
//! multi-column models on the paper's Table IV non-numeric subset) and an
//! inter-table retrieval step (Jaccard similarity over cell token sets)
//! that appends the most similar training column's cells.

use crate::env::{BenchEnv, CtaModel};
use crate::plm::{encode_cell, Anchor, ColumnSeq, PlmConfig, PlmCore};
use kglink_nn::{special, Tokenizer};
use kglink_table::{Dataset, LabelId, Split, Table, TableId};
use std::collections::HashSet;

const TOKENS_PER_COLUMN: usize = 18;
const AUG_TOKENS: usize = 10;
const MAX_ROWS: usize = 12;

/// A stored training column for inter-table retrieval.
#[derive(Debug, Clone)]
struct StoredColumn {
    table: TableId,
    tokens: Vec<u32>,
    token_set: HashSet<u32>,
}

/// The RECA-like annotator.
pub struct Reca {
    core: Option<PlmCore>,
    store: Vec<StoredColumn>,
    pub config: PlmConfig,
}

impl Reca {
    pub fn new(config: PlmConfig) -> Self {
        Reca {
            core: None,
            store: Vec::new(),
            config,
        }
    }

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

    /// Jaccard similarity of two token sets.
    fn jaccard(a: &HashSet<u32>, b: &HashSet<u32>) -> f64 {
        if a.is_empty() && b.is_empty() {
            return 0.0;
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "order-insensitive: only the size of the intersection is read"
        )]
        let inter = a.intersection(b).count();
        let union = a.len() + b.len() - inter;
        inter as f64 / union as f64
    }

    /// Most similar stored column from a *different* table.
    fn most_similar(&self, table: TableId, tokens: &[u32]) -> Option<&StoredColumn> {
        let set: HashSet<u32> = tokens.iter().copied().collect();
        self.store
            .iter()
            .filter(|s| s.table != table)
            .map(|s| (Self::jaccard(&set, &s.token_set), s))
            .filter(|(sim, _)| *sim > 0.0)
            .max_by(|a, b| a.0.total_cmp(&b.0))
            .map(|(_, s)| s)
    }

    /// Build the sequence for one column: `[CLS] cells [SEP] related-cells`.
    fn sequence_for(&self, table: &Table, c: usize, tokenizer: &Tokenizer) -> ColumnSeq {
        let tokens = Self::column_tokens(table, c, tokenizer);
        let mut ids = vec![special::CLS];
        ids.extend(&tokens);
        ids.push(special::SEP);
        if let Some(similar) = self.most_similar(table.id, &tokens) {
            ids.extend(similar.tokens.iter().take(AUG_TOKENS));
            ids.push(special::SEP);
        }
        ColumnSeq {
            ids,
            anchors: vec![Anchor::Pos(0)],
            labels: vec![table.labels[c]],
        }
    }

    fn sequences(&self, dataset: &Dataset, split: Split, tokenizer: &Tokenizer) -> Vec<ColumnSeq> {
        dataset
            .tables_in(split)
            .flat_map(|t| (0..t.n_cols()).map(|c| self.sequence_for(t, c, tokenizer)))
            .collect()
    }
}

impl CtaModel for Reca {
    fn name(&self) -> &'static str {
        "RECA"
    }

    fn fit(&mut self, env: &BenchEnv<'_>, dataset: &Dataset) {
        let tok = env.resources.tokenizer;
        // Build the inter-table store from training columns.
        self.store = dataset
            .tables_in(Split::Train)
            .flat_map(|t| {
                (0..t.n_cols()).map(|c| {
                    let tokens = Self::column_tokens(t, c, tok);
                    StoredColumn {
                        table: t.id,
                        token_set: tokens.iter().copied().collect(),
                        tokens,
                    }
                })
            })
            .collect();
        let train = self.sequences(dataset, Split::Train, tok);
        let val = self.sequences(dataset, Split::Validation, tok);
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
        (0..table.n_cols())
            .flat_map(|c| core.predict(&self.sequence_for(table, c, env.resources.tokenizer)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kglink_core::pipeline::build_vocab;
    use kglink_datagen::{semtab_like, SemTabConfig};
    use kglink_kg::{SyntheticWorld, WorldConfig};
    use kglink_table::CellValue;

    #[test]
    fn jaccard_basics() {
        let a: HashSet<u32> = [1, 2, 3].into();
        let b: HashSet<u32> = [2, 3, 4].into();
        assert!((Reca::jaccard(&a, &b) - 0.5).abs() < 1e-9);
        assert_eq!(Reca::jaccard(&HashSet::new(), &HashSet::new()), 0.0);
        assert_eq!(Reca::jaccard(&a, &a), 1.0);
    }

    #[test]
    fn augmentation_comes_from_other_tables() {
        let world = SyntheticWorld::generate(&WorldConfig::tiny(99));
        let bench = semtab_like(&world, &SemTabConfig::tiny(99));
        let vocab = build_vocab([], &[&bench.dataset], 4000);
        let tokenizer = kglink_nn::Tokenizer::new(vocab);
        let mut reca = Reca::new(PlmConfig::default());
        reca.store = bench
            .dataset
            .tables_in(Split::Train)
            .flat_map(|t| {
                (0..t.n_cols()).map(|c| {
                    let tokens = Reca::column_tokens(t, c, &tokenizer);
                    StoredColumn {
                        table: t.id,
                        token_set: tokens.iter().copied().collect(),
                        tokens,
                    }
                })
            })
            .collect();
        let t = bench.dataset.tables_in(Split::Test).next().unwrap();
        let tokens = Reca::column_tokens(t, 0, &tokenizer);
        if let Some(similar) = reca.most_similar(t.id, &tokens) {
            assert_ne!(similar.table, t.id);
        }
    }

    #[test]
    fn sequence_is_single_column_with_cls_anchor() {
        let world = SyntheticWorld::generate(&WorldConfig::tiny(100));
        let bench = semtab_like(&world, &SemTabConfig::tiny(100));
        let vocab = build_vocab([], &[&bench.dataset], 4000);
        let tokenizer = kglink_nn::Tokenizer::new(vocab);
        let reca = Reca::new(PlmConfig::default());
        let t = &bench.dataset.tables[0];
        let seq = reca.sequence_for(t, 0, &tokenizer);
        assert_eq!(seq.anchors.len(), 1);
        assert_eq!(seq.labels.len(), 1);
        assert_eq!(seq.ids[0], special::CLS);
    }

    #[test]
    fn empty_columns_produce_valid_sequences() {
        let vocab = build_vocab(["x"], &[], 100);
        let tokenizer = kglink_nn::Tokenizer::new(vocab);
        let reca = Reca::new(PlmConfig::default());
        let t = Table::new(
            TableId(0),
            vec![],
            vec![vec![CellValue::Empty, CellValue::Empty]],
            vec![LabelId(0)],
        );
        let seq = reca.sequence_for(&t, 0, &tokenizer);
        assert_eq!(seq.ids, vec![special::CLS, special::SEP]);
    }
}
