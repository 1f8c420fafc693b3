//! Labeled datasets with stratified train/validation/test splits.

use crate::table::{ColumnRef, Table};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};

/// Identifier of a semantic type (column label) inside a dataset.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct LabelId(pub u32);

impl LabelId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The label vocabulary of a dataset.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct LabelVocab {
    names: Vec<String>,
    by_name: HashMap<String, LabelId>,
}

impl LabelVocab {
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a label name.
    pub fn intern(&mut self, name: &str) -> LabelId {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = LabelId(self.names.len() as u32);
        self.names.push(name.to_string());
        self.by_name.insert(name.to_string(), id);
        id
    }

    /// Look up a label by name.
    pub fn get(&self, name: &str) -> Option<LabelId> {
        self.by_name.get(name).copied()
    }

    /// Name of a label.
    pub fn name(&self, id: LabelId) -> &str {
        &self.names[id.index()]
    }

    /// Number of labels.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterate `(id, name)`.
    pub fn iter(&self) -> impl Iterator<Item = (LabelId, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (LabelId(i as u32), n.as_str()))
    }
}

/// Which split a table belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Split {
    Train,
    Validation,
    Test,
    /// Excluded from all splits (tables dropped by
    /// [`Dataset::subsample_train`]). Kept in place so `TableId` indices
    /// stay valid.
    Unused,
}

/// Split proportions. The paper uses 7:1:2 everywhere.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SplitSpec {
    pub train: f64,
    pub validation: f64,
    pub test: f64,
}

impl Default for SplitSpec {
    fn default() -> Self {
        SplitSpec {
            train: 0.7,
            validation: 0.1,
            test: 0.2,
        }
    }
}

/// A labeled CTA dataset: tables, a label vocabulary, and a table-level
/// split assignment.
///
/// Splitting is by *table* (a table's columns stay together, as in the
/// paper's setup where whole tables are serialized for multi-column
/// prediction), stratified on each table's dominant label so that "the
/// original sample proportion of each class" is approximately maintained in
/// all splits.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dataset {
    pub name: String,
    pub tables: Vec<Table>,
    pub labels: LabelVocab,
    split: Vec<Split>,
}

impl Dataset {
    /// Create a dataset with every table initially in `Train`.
    pub fn new(name: impl Into<String>, tables: Vec<Table>, labels: LabelVocab) -> Self {
        let split = vec![Split::Train; tables.len()];
        Dataset {
            name: name.into(),
            tables,
            labels,
            split,
        }
    }

    /// Number of tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Total number of labeled columns.
    pub fn n_columns(&self) -> usize {
        self.tables.iter().map(Table::n_cols).sum()
    }

    /// Assign splits with the given proportions, stratified by each table's
    /// first-column label (a proxy for its class), deterministically.
    pub fn assign_splits(&mut self, spec: SplitSpec, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        // Group table indices by stratum. A BTreeMap visits strata in
        // ascending label order — the same order the previous
        // collect-keys-and-sort dance produced, so the rng stream (and
        // therefore every historical split) is unchanged.
        let mut strata: BTreeMap<LabelId, Vec<usize>> = BTreeMap::new();
        for (i, t) in self.tables.iter().enumerate() {
            let key = t.labels.first().copied().unwrap_or(LabelId(u32::MAX));
            strata.entry(key).or_default().push(i);
        }
        for (_, mut idxs) in strata {
            idxs.shuffle(&mut rng);
            let n = idxs.len();
            let n_test = ((n as f64) * spec.test).round() as usize;
            let n_val = ((n as f64) * spec.validation).round() as usize;
            for (pos, &i) in idxs.iter().enumerate() {
                self.split[i] = if pos < n_test {
                    Split::Test
                } else if pos < n_test + n_val {
                    Split::Validation
                } else {
                    Split::Train
                };
            }
        }
    }

    /// Split of table `i`.
    pub fn split_of(&self, i: usize) -> Split {
        self.split[i]
    }

    /// Indices of tables in a split.
    pub fn table_indices(&self, split: Split) -> Vec<usize> {
        (0..self.tables.len())
            .filter(|&i| self.split[i] == split)
            .collect()
    }

    /// Tables in a split.
    pub fn tables_in(&self, split: Split) -> impl Iterator<Item = &Table> {
        self.tables
            .iter()
            .zip(&self.split)
            .filter(move |&(_, &s)| s == split)
            .map(|(t, _)| t)
    }

    /// All `(column reference, label)` pairs in a split.
    pub fn columns_in(&self, split: Split) -> Vec<(ColumnRef, LabelId)> {
        let mut out = Vec::new();
        for t in self.tables_in(split) {
            for (c, &label) in t.labels.iter().enumerate() {
                out.push((
                    ColumnRef {
                        table: t.id,
                        column: c,
                    },
                    label,
                ));
            }
        }
        out
    }

    /// Keep only a fraction `p` of the *training* tables (deterministic per
    /// seed), leaving validation and test untouched. This is the paper's
    /// data-efficiency knob for Figure 9.
    pub fn subsample_train(&mut self, p: f64, seed: u64) {
        assert!((0.0..=1.0).contains(&p));
        let mut rng = StdRng::seed_from_u64(seed);
        let mut train_idxs = self.table_indices(Split::Train);
        train_idxs.shuffle(&mut rng);
        let keep = ((train_idxs.len() as f64) * p).round() as usize;
        for i in train_idxs.into_iter().skip(keep) {
            self.split[i] = Split::Unused;
        }
    }

    /// Label distribution over columns in a split, in label order.
    pub fn label_histogram(&self, split: Split) -> BTreeMap<LabelId, usize> {
        let mut h = BTreeMap::new();
        for (_, l) in self.columns_in(split) {
            *h.entry(l).or_insert(0) += 1;
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellValue;
    use crate::table::TableId;

    fn make_dataset(n_per_class: usize, n_classes: usize) -> Dataset {
        let mut vocab = LabelVocab::new();
        let labels: Vec<LabelId> = (0..n_classes)
            .map(|i| vocab.intern(&format!("class{i}")))
            .collect();
        let mut tables = Vec::new();
        let mut id = 0u32;
        for &l in &labels {
            for _ in 0..n_per_class {
                tables.push(Table::new(
                    TableId(id),
                    vec![],
                    vec![vec![CellValue::Text("x".into())]],
                    vec![l],
                ));
                id += 1;
            }
        }
        Dataset::new("toy", tables, vocab)
    }

    #[test]
    fn vocab_interning() {
        let mut v = LabelVocab::new();
        let a = v.intern("City");
        let b = v.intern("City");
        assert_eq!(a, b);
        assert_eq!(v.name(a), "City");
        assert_eq!(v.get("City"), Some(a));
        assert_eq!(v.get("missing"), None);
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn splits_follow_proportions() {
        let mut d = make_dataset(10, 5);
        d.assign_splits(SplitSpec::default(), 1);
        let train = d.table_indices(Split::Train).len();
        let val = d.table_indices(Split::Validation).len();
        let test = d.table_indices(Split::Test).len();
        assert_eq!(train + val + test, 50);
        assert_eq!(test, 10, "20% of 50");
        assert_eq!(val, 5, "10% of 50");
    }

    #[test]
    fn splits_are_stratified() {
        let mut d = make_dataset(10, 4);
        d.assign_splits(SplitSpec::default(), 3);
        let hist = d.label_histogram(Split::Test);
        // Each class contributes exactly 2 test tables (20% of 10).
        for (_, count) in hist {
            assert_eq!(count, 2);
        }
    }

    #[test]
    fn splits_are_deterministic() {
        let mut d1 = make_dataset(8, 3);
        let mut d2 = make_dataset(8, 3);
        d1.assign_splits(SplitSpec::default(), 42);
        d2.assign_splits(SplitSpec::default(), 42);
        for i in 0..d1.len() {
            assert_eq!(d1.split_of(i), d2.split_of(i));
        }
    }

    #[test]
    fn subsample_train_reduces_training_only() {
        let mut d = make_dataset(10, 5);
        d.assign_splits(SplitSpec::default(), 7);
        let test_before = d.table_indices(Split::Test);
        let train_before = d.table_indices(Split::Train).len();
        d.subsample_train(0.5, 9);
        let train_after = d.table_indices(Split::Train).len();
        assert_eq!(train_after, ((train_before as f64) * 0.5).round() as usize);
        assert_eq!(
            d.table_indices(Split::Test),
            test_before,
            "test set unchanged"
        );
    }

    #[test]
    fn columns_in_collects_references() {
        let mut d = make_dataset(5, 2);
        d.assign_splits(SplitSpec::default(), 5);
        let cols = d.columns_in(Split::Train);
        assert_eq!(cols.len(), d.table_indices(Split::Train).len());
    }
}
