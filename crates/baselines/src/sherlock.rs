//! Sherlock-like baseline: hand-crafted column statistics + MLP.
//!
//! Sherlock (Hulsebos et al., KDD'19) predicts a column's type from
//! engineered features of its values alone — no table context, no KG. The
//! skeleton keeps a representative feature set (character/word statistics,
//! type fractions, value distributions) and the MLP classifier.

use crate::env::{BenchEnv, CtaModel};
use crate::mlp::{Mlp, MlpConfig, Standardizer};
use kglink_table::{CellValue, Dataset, LabelId, Split, Table};

/// Number of engineered features.
pub const N_FEATURES: usize = 18;

/// Extract Sherlock-style statistics from one column.
pub fn column_features(table: &Table, c: usize) -> Vec<f32> {
    let cells = table.column(c);
    let n = cells.len().max(1) as f32;
    let mut numeric = 0f32;
    let mut dates = 0f32;
    let mut empty = 0f32;
    let mut text = 0f32;
    let mut char_lens = Vec::new();
    let mut word_counts = Vec::new();
    let mut digit_frac_sum = 0f32;
    let mut upper_frac_sum = 0f32;
    let mut alpha_frac_sum = 0f32;
    let mut values = Vec::new();
    let mut distinct = std::collections::HashSet::new();
    for cell in cells {
        match cell {
            CellValue::Number(v) => {
                numeric += 1.0;
                values.push(*v as f32);
            }
            CellValue::Date(_) => dates += 1.0,
            CellValue::Empty => empty += 1.0,
            CellValue::Text(s) => {
                text += 1.0;
                let chars: Vec<char> = s.chars().collect();
                let len = chars.len().max(1) as f32;
                char_lens.push(len);
                word_counts.push(s.split_whitespace().count() as f32);
                digit_frac_sum += chars.iter().filter(|c| c.is_ascii_digit()).count() as f32 / len;
                upper_frac_sum += chars.iter().filter(|c| c.is_uppercase()).count() as f32 / len;
                alpha_frac_sum += chars.iter().filter(|c| c.is_alphabetic()).count() as f32 / len;
            }
        }
        distinct.insert(cell.surface());
    }
    let mean = |v: &[f32]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f32>() / v.len() as f32
        }
    };
    let std = |v: &[f32]| {
        if v.len() < 2 {
            return 0.0;
        }
        let m = mean(v);
        (v.iter().map(|x| (x - m) * (x - m)).sum::<f32>() / v.len() as f32).sqrt()
    };
    let text_n = text.max(1.0);
    let val_mean = mean(&values);
    vec![
        numeric / n,                                   // fraction numeric
        dates / n,                                     // fraction dates
        empty / n,                                     // fraction empty
        text / n,                                      // fraction text
        mean(&char_lens),                              // mean text length
        std(&char_lens),                               // std text length
        char_lens.iter().copied().fold(0.0, f32::max), // max text length
        mean(&word_counts),                            // mean word count
        std(&word_counts),                             // std word count
        digit_frac_sum / text_n,                       // mean digit fraction
        upper_frac_sum / text_n,                       // mean uppercase fraction
        alpha_frac_sum / text_n,                       // mean alphabetic fraction
        distinct.len() as f32 / n,                     // distinct ratio
        val_mean.abs().ln_1p(),                        // log |mean value|
        std(&values).ln_1p(),                          // log value std
        values
            .iter()
            .copied()
            .fold(f32::INFINITY, f32::min)
            .clamp(-1e9, 1e9), // min value (clamped)
        values
            .iter()
            .copied()
            .fold(f32::NEG_INFINITY, f32::max)
            .clamp(-1e9, 1e9), // max value (clamped)
        n.ln(),                                        // log row count
    ]
}

/// The Sherlock-like annotator.
pub struct Sherlock {
    mlp: Option<Mlp>,
    norm: Standardizer,
    pub config: MlpConfig,
}

impl Sherlock {
    pub fn new(config: MlpConfig) -> Self {
        Sherlock {
            mlp: None,
            norm: Standardizer::default(),
            config,
        }
    }
}

impl CtaModel for Sherlock {
    fn name(&self) -> &'static str {
        "Sherlock"
    }

    fn fit(&mut self, env: &BenchEnv<'_>, dataset: &Dataset) {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for t in dataset.tables_in(Split::Train) {
            for c in 0..t.n_cols() {
                let mut f = column_features(t, c);
                // Replace infinities from empty value sets.
                for v in &mut f {
                    if !v.is_finite() {
                        *v = 0.0;
                    }
                }
                xs.push(f);
                ys.push(t.labels[c].index());
            }
        }
        self.norm = Standardizer::fit(&xs);
        let xs: Vec<Vec<f32>> = xs.iter().map(|x| self.norm.apply(x)).collect();
        let mut mlp = Mlp::new(N_FEATURES, 64, env.labels.len(), self.config.seed);
        mlp.fit(&xs, &ys, &self.config);
        self.mlp = Some(mlp);
    }

    fn predict_table(&self, _env: &BenchEnv<'_>, table: &Table) -> Vec<LabelId> {
        #[expect(
            clippy::expect_used,
            reason = "Baseline trait contract: the bench harness always fits before predicting; a None here is a harness bug, not a data condition to degrade on"
        )]
        let mlp = self.mlp.as_ref().expect("fit before predict");
        (0..table.n_cols())
            .map(|c| {
                let mut f = column_features(table, c);
                for v in &mut f {
                    if !v.is_finite() {
                        *v = 0.0;
                    }
                }
                LabelId(mlp.predict(&self.norm.apply(&f)) as u32)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kglink_core::pipeline::{build_vocab, Resources};
    use kglink_datagen::{viznet_like, VizNetConfig};
    use kglink_kg::{SyntheticWorld, WorldConfig};
    use kglink_nn::Tokenizer;
    use kglink_store::DiskWorld;
    use kglink_table::TableId;

    #[test]
    fn feature_vector_has_fixed_length() {
        let t = Table::new(
            TableId(0),
            vec![],
            vec![vec![
                CellValue::parse("Alpha"),
                CellValue::parse("42"),
                CellValue::parse(""),
            ]],
            vec![LabelId(0)],
        );
        let f = column_features(&t, 0);
        assert_eq!(f.len(), N_FEATURES);
        assert!((f[0] - 1.0 / 3.0).abs() < 1e-6, "numeric fraction");
        assert!((f[2] - 1.0 / 3.0).abs() < 1e-6, "empty fraction");
    }

    #[test]
    fn sherlock_beats_random_on_viznet_like() {
        let world = SyntheticWorld::generate(&WorldConfig::tiny(110));
        let bench = viznet_like(&world, &VizNetConfig::tiny(110));
        let disk = DiskWorld::from_graph(&world.graph).unwrap();
        let vocab = build_vocab([], &[&bench.dataset], 2000);
        let tokenizer = Tokenizer::new(vocab);
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
        let mut sherlock = Sherlock::new(MlpConfig::default());
        sherlock.fit(&env, &bench.dataset);
        let summary = sherlock.evaluate(&env, &bench.dataset, Split::Test);
        assert!(
            summary.accuracy > 1.0 / bench.dataset.labels.len() as f64,
            "{}",
            summary.accuracy
        );
    }

    #[test]
    fn numeric_and_text_columns_separate_in_feature_space() {
        let t = Table::new(
            TableId(0),
            vec![],
            vec![
                vec![CellValue::parse("12"), CellValue::parse("15")],
                vec![CellValue::parse("Alice"), CellValue::parse("Bob")],
            ],
            vec![LabelId(0), LabelId(1)],
        );
        let f_num = column_features(&t, 0);
        let f_text = column_features(&t, 1);
        assert_eq!(f_num[0], 1.0);
        assert_eq!(f_text[0], 0.0);
        assert!(f_text[4] > 0.0, "text length feature");
    }
}
