//! TaBERT-like baseline: row-major table linearization with span pooling.
//!
//! TaBERT (Yin et al., ACL'20) encodes a content snapshot of the table row
//! by row and derives column representations by pooling over each column's
//! cell tokens. The skeleton here keeps both properties: row-major
//! serialization (so the model still sees intra-table context, which the
//! paper credits for TaBERT's strong Table IV numbers) and mean-pooled
//! column representations instead of per-column `[CLS]` tokens.

use crate::env::{BenchEnv, CtaModel};
use crate::plm::{encode_cell, Anchor, ColumnSeq, PlmConfig, PlmCore};
use kglink_nn::{special, Tokenizer};
use kglink_table::{Dataset, LabelId, Split, Table};

const TOKENS_PER_CELL: usize = 3;
const MAX_ROWS: usize = 3;
const MAX_COLUMNS: usize = 8;

/// The TaBERT-like annotator.
pub struct TaBert {
    core: Option<PlmCore>,
    pub config: PlmConfig,
}

impl TaBert {
    pub fn new(config: PlmConfig) -> Self {
        TaBert { core: None, config }
    }

    fn serialize_chunk(table: &Table, tokenizer: &Tokenizer) -> ColumnSeq {
        let mut ids = vec![special::CLS];
        let mut positions: Vec<Vec<usize>> = vec![Vec::new(); table.n_cols()];
        for r in 0..table.n_rows().min(MAX_ROWS) {
            for (c, pos) in positions.iter_mut().enumerate() {
                for t in encode_cell(table.cell(r, c), tokenizer)
                    .into_iter()
                    .take(TOKENS_PER_CELL)
                {
                    pos.push(ids.len());
                    ids.push(t);
                }
                ids.push(special::SEP);
            }
        }
        let anchors = positions
            .into_iter()
            .map(|ps| {
                if ps.is_empty() {
                    // Empty column: fall back to the global [CLS].
                    Anchor::Pos(0)
                } else {
                    Anchor::Mean(ps)
                }
            })
            .collect();
        ColumnSeq {
            ids,
            anchors,
            labels: table.labels.clone(),
        }
    }

    /// Serialize a table row-major, splitting wide tables.
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

impl CtaModel for TaBert {
    fn name(&self) -> &'static str {
        "TaBERT"
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
    use kglink_core::pipeline::build_vocab;
    use kglink_datagen::{semtab_like, SemTabConfig};
    use kglink_kg::{SyntheticWorld, WorldConfig};

    #[test]
    fn serialization_is_row_major_with_span_anchors() {
        let world = SyntheticWorld::generate(&WorldConfig::tiny(97));
        let bench = semtab_like(&world, &SemTabConfig::tiny(97));
        let vocab = build_vocab([], &[&bench.dataset], 4000);
        let tokenizer = kglink_nn::Tokenizer::new(vocab);
        let t = bench
            .dataset
            .tables
            .iter()
            .find(|t| t.n_cols() >= 2)
            .unwrap();
        let seqs = TaBert::serialize(t, &tokenizer);
        let total: usize = seqs.iter().map(|s| s.anchors.len()).sum();
        assert_eq!(total, t.n_cols());
        // Most anchors should be spans.
        let spans = seqs
            .iter()
            .flat_map(|s| &s.anchors)
            .filter(|a| matches!(a, Anchor::Mean(_)))
            .count();
        assert!(spans >= t.n_cols() - 1);
        // Sequence starts with a [CLS].
        assert_eq!(seqs[0].ids[0], special::CLS);
    }

    #[test]
    fn anchors_reference_valid_positions() {
        let world = SyntheticWorld::generate(&WorldConfig::tiny(98));
        let bench = semtab_like(&world, &SemTabConfig::tiny(98));
        let vocab = build_vocab([], &[&bench.dataset], 4000);
        let tokenizer = kglink_nn::Tokenizer::new(vocab);
        for t in bench.dataset.tables.iter().take(5) {
            for seq in TaBert::serialize(t, &tokenizer) {
                for a in &seq.anchors {
                    match a {
                        Anchor::Pos(p) => assert!(*p < seq.ids.len()),
                        Anchor::Mean(ps) => {
                            for &p in ps {
                                assert!(p < seq.ids.len());
                            }
                        }
                    }
                }
            }
        }
    }
}
