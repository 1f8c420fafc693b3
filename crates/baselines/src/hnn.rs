//! HNN-like baseline: first-cell KG `type` attribute + shallow network.
//!
//! HNN (Chen et al., IJCAI'19) links **only the first cell** of each target
//! column to the KG and uses only the linked entity's `type` attribute
//! (`instance of` targets). Both simplifications are preserved here because
//! they are exactly what the paper criticizes: the single-cell linkage is
//! noise-sensitive, and restricting to the `type` attribute discards most
//! KG information — which is why HNN trails every PLM baseline in Table I
//! and collapses to 44%/18% in Table IV's no-KG subset.

use crate::env::{BenchEnv, CtaModel};
use crate::mlp::{Mlp, MlpConfig, Standardizer};
use kglink_kg::EntityId;
use kglink_table::{CellValue, Dataset, LabelId, Split, Table};
use std::collections::HashMap;

/// Number of non-KG auxiliary features. Deliberately minimal: HNN's
/// published design has no numeric-column handling and no text statistics
/// beyond the cell it links — the paper's Table IV shows the consequences.
const AUX_FEATURES: usize = 2;

/// The HNN-like annotator.
pub struct Hnn {
    mlp: Option<Mlp>,
    norm: Standardizer,
    /// KG type entity → feature slot, built from training columns.
    type_slots: HashMap<EntityId, usize>,
    pub config: MlpConfig,
}

impl Hnn {
    pub fn new(config: MlpConfig) -> Self {
        Hnn {
            mlp: None,
            norm: Standardizer::default(),
            type_slots: HashMap::new(),
            config,
        }
    }

    /// Types of the first linkable cell's best-linked entity — HNN's sole
    /// KG signal for a column.
    fn first_cell_types(env: &BenchEnv<'_>, table: &Table, c: usize) -> Vec<EntityId> {
        let first = table
            .column(c)
            .iter()
            .find(|cell| matches!(cell, CellValue::Text(_)));
        let Some(CellValue::Text(mention)) = first else {
            return Vec::new();
        };
        let hits = env.resources.backend.link_mention(mention, 1);
        match hits.first() {
            Some(&(e, _)) => env.resources.graph.types_of(e),
            None => Vec::new(),
        }
    }

    fn features(&self, env: &BenchEnv<'_>, table: &Table, c: usize) -> Vec<f32> {
        let mut f = vec![0.0f32; self.type_slots.len() + AUX_FEATURES];
        for ty in Self::first_cell_types(env, table, c) {
            if let Some(&slot) = self.type_slots.get(&ty) {
                f[slot] = 1.0;
            }
        }
        // Minimal auxiliary features (HNN consumes its linked cell's KG
        // types plus little else).
        let n = table.n_rows().max(1) as f32;
        let numeric = table
            .column(c)
            .iter()
            .filter(|v| matches!(v, CellValue::Number(_) | CellValue::Date(_)))
            .count() as f32;
        let empty = table
            .column(c)
            .iter()
            .filter(|v| matches!(v, CellValue::Empty))
            .count() as f32;
        let base = self.type_slots.len();
        f[base] = numeric / n;
        f[base + 1] = empty / n;
        f
    }
}

impl CtaModel for Hnn {
    fn name(&self) -> &'static str {
        "HNN"
    }

    fn fit(&mut self, env: &BenchEnv<'_>, dataset: &Dataset) {
        // Build the type-slot map from training columns' first-cell types.
        self.type_slots.clear();
        for t in dataset.tables_in(Split::Train) {
            for c in 0..t.n_cols() {
                for ty in Self::first_cell_types(env, t, c) {
                    let next = self.type_slots.len();
                    self.type_slots.entry(ty).or_insert(next);
                }
            }
        }
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for t in dataset.tables_in(Split::Train) {
            for c in 0..t.n_cols() {
                xs.push(self.features(env, t, c));
                ys.push(t.labels[c].index());
            }
        }
        self.norm = Standardizer::fit(&xs);
        let xs: Vec<Vec<f32>> = xs.iter().map(|x| self.norm.apply(x)).collect();
        let d_in = self.type_slots.len() + AUX_FEATURES;
        let mut mlp = Mlp::new(d_in, 24, env.labels.len(), self.config.seed);
        mlp.fit(&xs, &ys, &self.config);
        self.mlp = Some(mlp);
    }

    fn predict_table(&self, env: &BenchEnv<'_>, table: &Table) -> Vec<LabelId> {
        #[expect(
            clippy::expect_used,
            reason = "Baseline trait contract: the bench harness always fits before predicting; a None here is a harness bug, not a data condition to degrade on"
        )]
        let mlp = self.mlp.as_ref().expect("fit before predict");
        (0..table.n_cols())
            .map(|c| {
                let f = self.features(env, table, c);
                LabelId(mlp.predict(&self.norm.apply(&f)) as u32)
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
    use kglink_nn::Tokenizer;
    use kglink_store::DiskWorld;

    #[test]
    fn hnn_trains_and_beats_random_on_semtab_like() {
        let world = SyntheticWorld::generate(&WorldConfig::tiny(120));
        let bench = semtab_like(&world, &SemTabConfig::tiny(120));
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
        let mut hnn = Hnn::new(MlpConfig::default());
        hnn.fit(&env, &bench.dataset);
        assert!(
            !hnn.type_slots.is_empty(),
            "KG types discovered in training"
        );
        let summary = hnn.evaluate(&env, &bench.dataset, Split::Test);
        assert!(
            summary.accuracy > 1.0 / bench.dataset.labels.len() as f64,
            "{}",
            summary.accuracy
        );
    }

    #[test]
    fn first_cell_types_uses_only_the_first_linkable_cell() {
        let world = SyntheticWorld::generate(&WorldConfig::tiny(121));
        let bench = semtab_like(&world, &SemTabConfig::tiny(121));
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
        let t = &bench.dataset.tables[0];
        // The function returns the same thing regardless of later cells.
        let tys = Hnn::first_cell_types(&env, t, 0);
        let shortened = t.select_rows(&[0]);
        let tys_short = Hnn::first_cell_types(&env, &shortened, 0);
        assert_eq!(tys, tys_short);
    }
}
