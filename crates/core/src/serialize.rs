//! Part 2, Step 1: table serialization (paper Eq. 10–11, extended).
//!
//! The Doduo-style multi-column serialization puts a `[CLS]` before every
//! column and one `[SEP]` at the end (Eq. 11). KGLink extends each column's
//! span with (a) a label *slot* — `[MASK]` in the masked table, the ground
//! truth label in the teacher table — and (b) the KG information: candidate
//! types for entity columns, or mean/variance/median buckets for numeric
//! columns:
//!
//! ```text
//! [CLS] <slot> <ct_0 … ct_j | numeric stats> <cell tokens…> [CLS] … [SEP]
//! ```

use crate::config::KgLinkConfig;
use crate::preprocess::ProcessedTable;
use kglink_nn::{special, Tokenizer};
use kglink_table::{CellValue, LabelVocab};

/// How the label slot is filled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotFill {
    /// `[MASK]` — used for training inputs and at inference.
    Mask,
    /// The ground-truth label's first token — the detached teacher table.
    GroundTruth,
}

/// A serialized table with per-column anchor positions.
#[derive(Debug, Clone)]
pub struct SerializedTable {
    pub ids: Vec<u32>,
    /// Position of each column's `[CLS]` token.
    pub cls: Vec<usize>,
    /// Position of each column's label slot (empty when the mask task is
    /// disabled).
    pub slot: Vec<usize>,
}

/// Serialize a processed table.
pub fn serialize_table(
    pt: &ProcessedTable,
    tokenizer: &Tokenizer,
    labels: &LabelVocab,
    config: &KgLinkConfig,
    fill: SlotFill,
) -> SerializedTable {
    let mut ids = Vec::new();
    let mut cls = Vec::with_capacity(pt.table.n_cols());
    let mut slot = Vec::with_capacity(pt.table.n_cols());
    for c in 0..pt.table.n_cols() {
        cls.push(ids.len());
        ids.push(special::CLS);
        if config.use_mask_task {
            slot.push(ids.len());
            match fill {
                SlotFill::Mask => ids.push(special::MASK),
                SlotFill::GroundTruth => {
                    let name = labels.name(pt.labels[c]);
                    let toks = tokenizer.encode_text(name);
                    ids.push(toks.first().copied().unwrap_or(special::UNK));
                }
            }
        }
        let budget_end = ids.len() + config.tokens_per_column;
        if config.use_candidate_types {
            if let Some(stats) = pt.numeric_stats[c] {
                // Numeric column: "the column's mean, variance, and average
                // value" — encoded as magnitude buckets.
                ids.push(tokenizer.encode_number(stats.mean));
                ids.push(tokenizer.encode_number(stats.variance));
                ids.push(tokenizer.encode_number(stats.median));
            } else {
                for ct_name in &pt.candidate_type_names[c] {
                    for t in tokenizer.encode_text(ct_name).into_iter().take(3) {
                        ids.push(t);
                    }
                    if ids.len() + 2 >= budget_end {
                        break;
                    }
                }
            }
        }
        // Cell tokens, rows in filter order, until the column budget.
        'cells: for cell in pt.table.column(c) {
            let toks = match cell {
                CellValue::Text(s) => tokenizer.encode_text(s),
                CellValue::Number(n) => vec![tokenizer.encode_number(*n)],
                CellValue::Date(d) => {
                    // Years bucket to [YEAR]; full dates too.
                    let year = d
                        .get(..4)
                        .and_then(|y| y.parse::<f64>().ok())
                        .unwrap_or(0.0);
                    vec![tokenizer.encode_number(year)]
                }
                CellValue::Empty => continue,
            };
            for t in toks {
                if ids.len() >= budget_end {
                    break 'cells;
                }
                ids.push(t);
            }
        }
    }
    ids.push(special::SEP);
    SerializedTable { ids, cls, slot }
}

/// Tokenize the per-column feature sequences: `[CLS]` + up to
/// `feature_seq_tokens` tokens. `None` stays `None` (the paper's padding
/// sequence — the model simply skips composition for those columns).
pub fn serialize_features(
    pt: &ProcessedTable,
    tokenizer: &Tokenizer,
    config: &KgLinkConfig,
) -> Vec<Option<Vec<u32>>> {
    pt.feature_seqs
        .iter()
        .map(|fs| {
            fs.as_ref().map(|text| {
                let mut ids = vec![special::CLS];
                ids.extend(
                    tokenizer
                        .encode_text(text)
                        .into_iter()
                        .take(config.feature_seq_tokens),
                );
                ids
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preprocess::preprocess_table;
    use kglink_kg::{Entity, KgBuilder, NeSchema};
    use kglink_nn::Vocab;
    use kglink_store::DiskWorld;
    use kglink_table::{LabelId, Table, TableId};

    fn setup() -> (ProcessedTable, Tokenizer, LabelVocab) {
        let mut b = KgBuilder::new();
        let musician = b.add_type("Musician", None);
        let band_ty = b.add_type("Musical group", None);
        let member = b.predicate("member of");
        let band = b.add_instance(
            Entity::new("Iron Prophets", NeSchema::Organization),
            band_ty,
        );
        for name in ["Peter Steele", "Anna Kovacs"] {
            let m = b.add_instance(Entity::new(name, NeSchema::Person), musician);
            b.relate(m, member, band);
        }
        let world = DiskWorld::from_graph(&b.build()).unwrap();
        let table = Table::new(
            TableId(0),
            vec![],
            vec![
                vec![
                    CellValue::parse("Peter Steele"),
                    CellValue::parse("Anna Kovacs"),
                ],
                vec![CellValue::parse("180"), CellValue::parse("190")],
            ],
            vec![LabelId(0), LabelId(1)],
        );
        let cfg = KgLinkConfig::fast_test();
        let pt = preprocess_table(&table, &world.graph, &world.backend, &cfg);
        let vocab = Vocab::build(
            [
                "peter steele anna kovacs musician iron prophets member of musical group name height",
            ],
            1,
            1000,
        );
        let mut labels = LabelVocab::new();
        labels.intern("name");
        labels.intern("height");
        (pt, Tokenizer::new(vocab), labels)
    }

    #[test]
    fn masked_and_gt_tables_align() {
        let (pt, tok, labels) = setup();
        let cfg = KgLinkConfig::fast_test();
        let masked = serialize_table(&pt, &tok, &labels, &cfg, SlotFill::Mask);
        let gt = serialize_table(&pt, &tok, &labels, &cfg, SlotFill::GroundTruth);
        assert_eq!(masked.ids.len(), gt.ids.len(), "token-aligned tables");
        assert_eq!(masked.cls, gt.cls);
        assert_eq!(masked.slot, gt.slot);
        for (i, (&m, &g)) in masked.ids.iter().zip(&gt.ids).enumerate() {
            if masked.slot.contains(&i) {
                assert_eq!(m, special::MASK);
                assert_ne!(g, special::MASK);
            } else {
                assert_eq!(m, g, "only slots differ");
            }
        }
    }

    #[test]
    fn structure_follows_eq11() {
        let (pt, tok, labels) = setup();
        let cfg = KgLinkConfig::fast_test();
        let s = serialize_table(&pt, &tok, &labels, &cfg, SlotFill::Mask);
        assert_eq!(s.cls.len(), 2);
        assert_eq!(s.ids[s.cls[0]], special::CLS);
        assert_eq!(s.ids[s.cls[1]], special::CLS);
        assert_eq!(*s.ids.last().unwrap(), special::SEP);
        assert_eq!(s.ids.iter().filter(|&&t| t == special::SEP).count(), 1);
    }

    #[test]
    fn numeric_column_gets_stat_buckets() {
        let (pt, tok, labels) = setup();
        let cfg = KgLinkConfig::fast_test();
        let s = serialize_table(&pt, &tok, &labels, &cfg, SlotFill::Mask);
        // Column 1 is numeric (heights 180/190): its span should contain
        // numeric bucket tokens right after the slot.
        let start = s.cls[1];
        let span = &s.ids[start..];
        assert!(span
            .iter()
            .any(|&t| (special::NUM_NEG..=special::YEAR).contains(&t)));
    }

    #[test]
    fn mask_task_disabled_removes_slots() {
        let (pt, tok, labels) = setup();
        let cfg = KgLinkConfig::fast_test().without_mask_task();
        let s = serialize_table(&pt, &tok, &labels, &cfg, SlotFill::Mask);
        assert!(s.slot.is_empty());
        assert!(!s.ids.contains(&special::MASK));
    }

    #[test]
    fn without_candidate_types_omits_kg_tokens() {
        let (pt, tok, labels) = setup();
        let with = serialize_table(
            &pt,
            &tok,
            &labels,
            &KgLinkConfig::fast_test(),
            SlotFill::Mask,
        );
        let cfg = KgLinkConfig::fast_test().without_kg();
        let without = serialize_table(&pt, &tok, &labels, &cfg, SlotFill::Mask);
        assert!(without.ids.len() < with.ids.len());
    }

    #[test]
    fn feature_sequences_start_with_cls() {
        let (pt, tok, _) = setup();
        let cfg = KgLinkConfig::fast_test();
        let feats = serialize_features(&pt, &tok, &cfg);
        assert_eq!(feats.len(), 2);
        let f0 = feats[0].as_ref().expect("linked column has features");
        assert_eq!(f0[0], special::CLS);
        assert!(f0.len() <= 1 + cfg.feature_seq_tokens);
        assert!(feats[1].is_none(), "numeric column has no feature sequence");
    }

    #[test]
    fn column_token_budget_is_respected() {
        let (pt, tok, labels) = setup();
        let mut cfg = KgLinkConfig::fast_test();
        cfg.tokens_per_column = 4;
        let s = serialize_table(&pt, &tok, &labels, &cfg, SlotFill::Mask);
        // Each column span: CLS + slot + at most tokens_per_column + a few
        // stat tokens; total stays well-bounded.
        assert!(s.ids.len() <= 2 * (2 + 4 + 3) + 1);
    }
}
