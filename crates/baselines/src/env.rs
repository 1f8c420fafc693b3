//! The shared evaluation environment and model trait.

use kglink_core::pipeline::Resources;
use kglink_kg::EntityId;
use kglink_table::{Dataset, EvalSummary, LabelId, LabelVocab, Split, Table};
use std::collections::HashMap;

/// Everything a baseline may consume: KG + search + tokenizer (via
/// [`Resources`]), the label vocabulary, and the dataset-label → KG-type
/// mapping (used by MTab; the paper translates VizNet labels to WikiData
/// entities for it).
pub struct BenchEnv<'a> {
    pub resources: &'a Resources<'a>,
    pub labels: &'a LabelVocab,
    pub label_to_type: &'a HashMap<LabelId, EntityId>,
}

/// A column type annotation model, as the experiment harness sees it.
pub trait CtaModel {
    /// Display name (used in result tables).
    fn name(&self) -> &'static str;

    /// Train on the dataset's train split (validation split available for
    /// early stopping). No-op for learning-free methods.
    fn fit(&mut self, env: &BenchEnv<'_>, dataset: &Dataset);

    /// Predict one label per column of a raw table.
    fn predict_table(&self, env: &BenchEnv<'_>, table: &Table) -> Vec<LabelId>;

    /// Evaluate over a dataset split.
    fn evaluate(&self, env: &BenchEnv<'_>, dataset: &Dataset, split: Split) -> EvalSummary {
        let mut preds = Vec::new();
        let mut truths = Vec::new();
        for t in dataset.tables_in(split) {
            preds.extend(self.predict_table(env, t));
            truths.extend(t.labels.iter().copied());
        }
        EvalSummary::compute(&preds, &truths)
    }
}

/// Majority label of a dataset's training columns — the shared fallback for
/// methods that cannot produce a prediction (e.g. MTab on numeric columns).
pub fn train_majority_label(dataset: &Dataset) -> LabelId {
    let hist = dataset.label_histogram(Split::Train);
    hist.into_iter()
        .max_by_key(|&(l, c)| (c, std::cmp::Reverse(l)))
        .map(|(l, _)| l)
        .unwrap_or(LabelId(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use kglink_table::{CellValue, SplitSpec, Table, TableId};

    /// One single-row table per entry of `tables`, with one text column
    /// per label it lists; every table starts in the training split.
    fn dataset(vocab: &LabelVocab, tables: &[Vec<LabelId>]) -> Dataset {
        let tables = tables
            .iter()
            .zip(0u32..)
            .map(|(labels, i)| {
                let columns = vec![vec![CellValue::Text("x".into())]; labels.len()];
                Table::new(TableId(i), vec![], columns, labels.clone())
            })
            .collect();
        Dataset::new("toy", tables, vocab.clone())
    }

    #[test]
    fn majority_label_is_most_frequent_training_label() {
        let mut vocab = LabelVocab::new();
        let a = vocab.intern("a");
        let b = vocab.intern("b");
        let seven_to_three: Vec<Vec<LabelId>> =
            (0..10).map(|i| vec![if i < 7 { a } else { b }]).collect();
        let mut skewed = dataset(&vocab, &seven_to_three);
        skewed.assign_splits(SplitSpec::default(), 3);
        // Equal counts, with the higher id seen first: the lower id wins.
        let tied = dataset(&vocab, &vec![vec![b, a]; 4]);
        for (ds, want) in [(skewed, a), (tied, a)] {
            assert_eq!(train_majority_label(&ds), want);
        }
    }
}
