//! MTab-like baseline: pure knowledge-graph voting, no learning.
//!
//! MTab wins SemTab rounds by entity-linking every cell and aggregating the
//! linked entities' types. It has no trained component, so it excels when
//! dataset labels *are* KG types (SemTab) and collapses on numeric columns
//! and non-KG label vocabularies (VizNet) — exactly the behaviour the paper
//! reports in Table I (89.10 on SemTab, 38.21 on VizNet).

use crate::env::{train_majority_label, BenchEnv, CtaModel};
use kglink_kg::TypeHierarchy;
use kglink_table::{Dataset, LabelId, Table};
use std::collections::HashMap;

/// The MTab-like annotator.
#[derive(Debug, Default)]
pub struct MTab {
    /// Fallback label when KG voting produces nothing (numeric columns,
    /// unlinkable text): the training majority class.
    fallback: LabelId,
}

impl MTab {
    pub fn new() -> Self {
        Self::default()
    }
}

impl CtaModel for MTab {
    fn name(&self) -> &'static str {
        "MTab"
    }

    fn fit(&mut self, _env: &BenchEnv<'_>, dataset: &Dataset) {
        self.fallback = train_majority_label(dataset);
    }

    fn predict_table(&self, env: &BenchEnv<'_>, table: &Table) -> Vec<LabelId> {
        let graph = env.resources.graph;
        let searcher = env.resources.backend;
        let hierarchy = TypeHierarchy::new(graph);
        (0..table.n_cols())
            .map(|c| {
                // Vote over all linked cells' entity types.
                let mut label_scores: HashMap<LabelId, f64> = HashMap::new();
                for cell in table.column(c) {
                    if !cell.is_linkable() {
                        continue;
                    }
                    for (entity, score) in searcher.link_mention(&cell.surface(), 5) {
                        for ty in graph.types_of(entity) {
                            // Match the entity type against every dataset
                            // label's KG translation, rewarding exact matches
                            // over hierarchy matches.
                            #[expect(
                                clippy::iter_over_hash_type,
                                reason = "order-insensitive: each label has its own accumulator and is visited once per (entity, type), so the visit order changes no sum"
                            )]
                            for (&label, &label_ty) in env.label_to_type {
                                let w = if ty == label_ty {
                                    2.0
                                } else if hierarchy.is_subtype_of(ty, label_ty)
                                    || hierarchy.is_subtype_of(label_ty, ty)
                                {
                                    0.75
                                } else {
                                    continue;
                                };
                                *label_scores.entry(label).or_insert(0.0) += w * score as f64;
                            }
                        }
                    }
                }
                #[expect(
                    clippy::disallowed_methods,
                    reason = "max under a total order (score, then label id): the winner is independent of the hash map's iteration order"
                )]
                let best = label_scores
                    .drain()
                    .max_by(|a, b| a.1.total_cmp(&b.1).then(b.0.cmp(&a.0)))
                    .map(|(l, _)| l)
                    .unwrap_or(self.fallback);
                best
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kglink_core::pipeline::{build_vocab, Resources};
    use kglink_datagen::{semtab_like, viznet_like, SemTabConfig, VizNetConfig};
    use kglink_kg::{SyntheticWorld, WorldConfig};
    use kglink_nn::Tokenizer;
    use kglink_store::DiskWorld;
    use kglink_table::Split;

    #[test]
    fn mtab_is_strong_on_semtab_like_data() {
        let world = SyntheticWorld::generate(&WorldConfig::tiny(91));
        let bench = semtab_like(&world, &SemTabConfig::tiny(91));
        let disk = DiskWorld::from_graph(&world.graph).unwrap();
        let vocab = build_vocab([], &[&bench.dataset], 4000);
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
        let mut mtab = MTab::new();
        mtab.fit(&env, &bench.dataset);
        let summary = mtab.evaluate(&env, &bench.dataset, Split::Test);
        assert!(
            summary.accuracy > 0.5,
            "KG voting should shine on KG-derived data: {}",
            summary.accuracy
        );
    }

    #[test]
    fn mtab_degrades_on_viznet_like_data() {
        // Needs a moderately sized world: on a tiny fixture the two
        // accuracies are within sampling noise of each other.
        let world = SyntheticWorld::generate(&WorldConfig {
            seed: 92,
            scale: 0.35,
            ..WorldConfig::default()
        });
        let semtab = semtab_like(
            &world,
            &SemTabConfig {
                seed: 92,
                n_tables: 80,
                ..SemTabConfig::default()
            },
        );
        let viznet = viznet_like(
            &world,
            &VizNetConfig {
                seed: 92,
                n_tables: 120,
                ..VizNetConfig::default()
            },
        );
        let disk = DiskWorld::from_graph(&world.graph).unwrap();
        let vocab = build_vocab([], &[&viznet.dataset], 4000);
        let tokenizer = Tokenizer::new(vocab);
        let resources = Resources::builder()
            .graph(&disk.graph)
            .backend(&disk.backend)
            .tokenizer(&tokenizer)
            .build()
            .unwrap();
        let env_v = BenchEnv {
            resources: &resources,
            labels: &viznet.dataset.labels,
            label_to_type: &viznet.label_to_type,
        };
        let env_s = BenchEnv {
            resources: &resources,
            labels: &semtab.dataset.labels,
            label_to_type: &semtab.label_to_type,
        };
        let mut mtab = MTab::new();
        mtab.fit(&env_v, &viznet.dataset);
        let viz = mtab.evaluate(&env_v, &viznet.dataset, Split::Test);
        let mut mtab2 = MTab::new();
        mtab2.fit(&env_s, &semtab.dataset);
        let sem = mtab2.evaluate(&env_s, &semtab.dataset, Split::Test);
        assert!(
            sem.accuracy > viz.accuracy,
            "paper Table I shape: MTab semtab {} > viznet {}",
            sem.accuracy,
            viz.accuracy
        );
    }

    #[test]
    fn numeric_columns_fall_back_to_majority() {
        let world = SyntheticWorld::generate(&WorldConfig::tiny(93));
        let bench = viznet_like(&world, &VizNetConfig::tiny(93));
        let disk = DiskWorld::from_graph(&world.graph).unwrap();
        let vocab = build_vocab([], &[&bench.dataset], 4000);
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
        let mut mtab = MTab::new();
        mtab.fit(&env, &bench.dataset);
        // Find a numeric column in a test table.
        let numeric = bench.dataset.tables_in(Split::Test).find_map(|t| {
            (0..t.n_cols())
                .find(|&c| t.is_numeric_column(c))
                .map(|c| (t, c))
        });
        if let Some((t, c)) = numeric {
            let preds = mtab.predict_table(&env, t);
            assert_eq!(preds[c], mtab.fallback);
        }
    }
}
