//! SemTab-like dataset generator.
//!
//! SemTab 2019 is KG-derived: tables were extracted from Wikipedia/DBpedia,
//! so nearly every cell links back to the KG and the 275 column labels *are*
//! KG type entities. This generator reproduces that regime from the
//! synthetic world: each table follows a relational template (an entity
//! column plus relation columns), labels are the fine KG type names, there
//! are **no numeric columns** (paper Table III: 0%), and cell noise is mild.

use crate::common::{mention_of, related_of_type, sample_instances};
use crate::noise::maybe_perturb;
use crate::GeneratedBenchmark;
use kglink_kg::{EntityId, SyntheticWorld};
use kglink_table::{CellValue, Dataset, LabelVocab, SplitSpec, Table, TableId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};

/// SemTab-like generation settings.
#[derive(Debug, Clone)]
pub struct SemTabConfig {
    pub seed: u64,
    /// Number of tables to generate.
    pub n_tables: usize,
    /// Rows per table, inclusive range.
    pub min_rows: usize,
    pub max_rows: usize,
    /// Probability a cell mention is perturbed (typo/case damage).
    pub cell_noise: f64,
    /// Probability an entity mention uses an alias instead of its label.
    pub alias_mention_prob: f64,
}

impl Default for SemTabConfig {
    fn default() -> Self {
        SemTabConfig {
            seed: 101,
            n_tables: 240,
            min_rows: 10,
            max_rows: 40,
            cell_noise: 0.20,
            alias_mention_prob: 0.22,
        }
    }
}

impl SemTabConfig {
    /// A small configuration for tests.
    pub fn tiny(seed: u64) -> Self {
        SemTabConfig {
            seed,
            n_tables: 30,
            min_rows: 5,
            max_rows: 12,
            ..Self::default()
        }
    }
}

/// One relation column of a template: predicate name, target type (by
/// `WorldTypes` accessor), and the dataset label to assign.
struct RelCol {
    predicate: &'static str,
    target_type: fn(&SyntheticWorld) -> EntityId,
    label: &'static str,
}

/// A relational table template: a subject type plus relation columns.
struct Template {
    subject_type: fn(&SyntheticWorld) -> EntityId,
    subject_label: &'static str,
    relations: Vec<RelCol>,
}

fn templates() -> Vec<Template> {
    use kglink_kg::predicates as P;
    let athlete = |fine: fn(&SyntheticWorld) -> EntityId, label: &'static str| Template {
        subject_type: fine,
        subject_label: label,
        relations: vec![
            RelCol {
                predicate: P::MEMBER_OF_SPORTS_TEAM,
                target_type: |w| w.types.sports_team,
                label: "Sports team",
            },
            RelCol {
                predicate: P::POSITION_PLAYED,
                target_type: |w| w.types.position,
                label: "Position",
            },
            RelCol {
                predicate: P::COUNTRY,
                target_type: |w| w.types.country,
                label: "Country",
            },
        ],
    };
    let musician = |fine: fn(&SyntheticWorld) -> EntityId, label: &'static str| Template {
        subject_type: fine,
        subject_label: label,
        relations: vec![
            RelCol {
                predicate: P::MEMBER_OF,
                target_type: |w| w.types.musical_group,
                label: "Musical group",
            },
            RelCol {
                predicate: P::COUNTRY,
                target_type: |w| w.types.country,
                label: "Country",
            },
        ],
    };
    vec![
        athlete(|w| w.types.basketball_player, "Basketball player"),
        athlete(|w| w.types.cricketer, "Cricketer"),
        athlete(|w| w.types.footballer, "Footballer"),
        athlete(|w| w.types.tennis_player, "Tennis player"),
        musician(|w| w.types.singer, "Singer"),
        musician(|w| w.types.composer, "Composer"),
        musician(|w| w.types.guitarist, "Guitarist"),
        Template {
            subject_type: |w| w.types.album,
            subject_label: "Album",
            relations: vec![
                RelCol {
                    predicate: P::COMPOSER,
                    target_type: |w| w.types.composer,
                    label: "Composer",
                },
                RelCol {
                    predicate: P::GENRE,
                    target_type: |w| w.types.genre,
                    label: "Genre",
                },
            ],
        },
        Template {
            subject_type: |w| w.types.film,
            subject_label: "Film",
            relations: vec![
                RelCol {
                    predicate: P::DIRECTOR,
                    target_type: |w| w.types.film_director,
                    label: "Film director",
                },
                RelCol {
                    predicate: P::CAST_MEMBER,
                    target_type: |w| w.types.actor,
                    label: "Actor",
                },
                RelCol {
                    predicate: P::COUNTRY,
                    target_type: |w| w.types.country,
                    label: "Country",
                },
            ],
        },
        Template {
            subject_type: |w| w.types.tv_series,
            subject_label: "Television series",
            relations: vec![
                RelCol {
                    predicate: P::DIRECTOR,
                    target_type: |w| w.types.film_director,
                    label: "Film director",
                },
                RelCol {
                    predicate: P::CAST_MEMBER,
                    target_type: |w| w.types.actor,
                    label: "Actor",
                },
            ],
        },
        Template {
            subject_type: |w| w.types.book,
            subject_label: "Book",
            relations: vec![
                RelCol {
                    predicate: P::AUTHOR,
                    target_type: |w| w.types.writer,
                    label: "Writer",
                },
                RelCol {
                    predicate: P::LANGUAGE_OF_WORK,
                    target_type: |w| w.types.language,
                    label: "Language",
                },
            ],
        },
        Template {
            subject_type: |w| w.types.city,
            subject_label: "City",
            relations: vec![RelCol {
                predicate: P::COUNTRY,
                target_type: |w| w.types.country,
                label: "Country",
            }],
        },
        Template {
            subject_type: |w| w.types.country,
            subject_label: "Country",
            relations: vec![RelCol {
                predicate: P::CAPITAL,
                target_type: |w| w.types.city,
                label: "City",
            }],
        },
        Template {
            subject_type: |w| w.types.protein,
            subject_label: "Protein",
            relations: vec![RelCol {
                predicate: P::ENCODED_BY,
                target_type: |w| w.types.gene,
                label: "Gene",
            }],
        },
        Template {
            subject_type: |w| w.types.enzyme,
            subject_label: "Enzyme",
            relations: vec![RelCol {
                predicate: P::ENCODED_BY,
                target_type: |w| w.types.gene,
                label: "Gene",
            }],
        },
        Template {
            subject_type: |w| w.types.sports_team,
            subject_label: "Sports team",
            relations: vec![RelCol {
                predicate: P::SPORT,
                target_type: |w| w.types.sport,
                label: "Sport",
            }],
        },
        Template {
            subject_type: |w| w.types.scientist,
            subject_label: "Scientist",
            relations: vec![
                RelCol {
                    predicate: P::EMPLOYER,
                    target_type: |w| w.types.university,
                    label: "University",
                },
                RelCol {
                    predicate: P::COUNTRY,
                    target_type: |w| w.types.country,
                    label: "Country",
                },
            ],
        },
        Template {
            subject_type: |w| w.types.scholarly_article,
            subject_label: "Scholarly article",
            relations: vec![RelCol {
                predicate: P::AUTHOR,
                target_type: |w| w.types.scientist,
                label: "Scientist",
            }],
        },
    ]
}

/// Generate a SemTab-like benchmark from a synthetic world. The returned
/// dataset already has the paper's 7:1:2 stratified split assigned.
pub fn semtab_like(world: &SyntheticWorld, config: &SemTabConfig) -> GeneratedBenchmark {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let templates = templates();
    let mut vocab = LabelVocab::new();
    let mut label_to_type: HashMap<kglink_table::LabelId, EntityId> = HashMap::new();

    // Pre-intern labels and the type membership sets.
    let mut members: HashMap<EntityId, HashSet<EntityId>> = HashMap::new();
    for t in &templates {
        let sty = (t.subject_type)(world);
        let lid = vocab.intern(t.subject_label);
        label_to_type.insert(lid, sty);
        members
            .entry(sty)
            .or_insert_with(|| world.instances_of(sty).iter().copied().collect());
        for r in &t.relations {
            let rty = (r.target_type)(world);
            let lid = vocab.intern(r.label);
            label_to_type.insert(lid, rty);
            members
                .entry(rty)
                .or_insert_with(|| world.instances_of(rty).iter().copied().collect());
        }
    }

    let mut tables = Vec::with_capacity(config.n_tables);
    let usable: Vec<&Template> = templates
        .iter()
        .filter(|t| !world.instances_of((t.subject_type)(world)).is_empty())
        .collect();
    for ti in 0..config.n_tables {
        let tmpl = usable[rng.gen_range(0..usable.len())];
        let sty = (tmpl.subject_type)(world);
        let pool = world.instances_of(sty);
        let n_rows = rng
            .gen_range(config.min_rows..=config.max_rows)
            .min(pool.len().max(1));
        let subjects = sample_instances(pool, n_rows, &mut rng);
        if subjects.is_empty() {
            continue;
        }
        // Decide which relation columns to include (keep 1..=all, random).
        let mut rel_idx: Vec<usize> = (0..tmpl.relations.len()).collect();
        rel_idx.shuffle(&mut rng);
        let keep = rng.gen_range(1..=tmpl.relations.len().max(1));
        rel_idx.truncate(keep);
        rel_idx.sort_unstable();

        let mut columns: Vec<Vec<CellValue>> = Vec::with_capacity(1 + rel_idx.len());
        let mut labels = vec![vocab.intern(tmpl.subject_label)];
        // Subject column.
        let subject_cells: Vec<CellValue> = subjects
            .iter()
            .map(|&s| {
                let m = mention_of(&world.graph, s, config.alias_mention_prob, &mut rng);
                CellValue::Text(maybe_perturb(&m, config.cell_noise, &mut rng))
            })
            .collect();
        columns.push(subject_cells);
        // Relation columns.
        for &ri in &rel_idx {
            let rel = &tmpl.relations[ri];
            let rty = (rel.target_type)(world);
            let member_set = &members[&rty];
            let cells: Vec<CellValue> = subjects
                .iter()
                .map(
                    |&s| match related_of_type(world, s, rel.predicate, member_set) {
                        Some(target) => {
                            let m = mention_of(
                                &world.graph,
                                target,
                                config.alias_mention_prob,
                                &mut rng,
                            );
                            CellValue::Text(maybe_perturb(&m, config.cell_noise, &mut rng))
                        }
                        None => CellValue::Empty,
                    },
                )
                .collect();
            // Drop columns that are mostly empty — they would be unlabeled
            // noise rather than an annotatable column.
            let non_empty = cells
                .iter()
                .filter(|c| !matches!(c, CellValue::Empty))
                .count();
            if non_empty * 2 >= cells.len() {
                columns.push(cells);
                labels.push(vocab.intern(rel.label));
            }
        }
        tables.push(Table::new(TableId(ti as u32), Vec::new(), columns, labels));
    }

    let mut dataset = Dataset::new("semtab-like", tables, vocab);
    dataset.assign_splits(SplitSpec::default(), config.seed ^ 0x5e17);
    GeneratedBenchmark {
        dataset,
        label_to_type,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kglink_kg::WorldConfig;
    use kglink_table::Split;

    fn bench() -> GeneratedBenchmark {
        let world = SyntheticWorld::generate(&WorldConfig::tiny(7));
        semtab_like(&world, &SemTabConfig::tiny(7))
    }

    #[test]
    fn generates_requested_table_count() {
        let b = bench();
        assert_eq!(b.dataset.len(), 30);
        assert!(b.dataset.n_columns() >= 60, "multi-column tables");
    }

    #[test]
    fn no_numeric_columns() {
        let b = bench();
        for t in &b.dataset.tables {
            for c in 0..t.n_cols() {
                assert!(
                    !t.is_numeric_column(c),
                    "SemTab-like must have no numeric columns"
                );
            }
        }
    }

    #[test]
    fn labels_map_to_kg_types() {
        let b = bench();
        for (lid, _name) in b.dataset.labels.iter() {
            assert!(
                b.label_to_type.contains_key(&lid),
                "every SemTab label is a KG type"
            );
        }
    }

    #[test]
    fn splits_are_assigned() {
        let b = bench();
        assert!(!b.dataset.table_indices(Split::Train).is_empty());
        assert!(!b.dataset.table_indices(Split::Test).is_empty());
    }

    #[test]
    fn generation_is_deterministic() {
        let world = SyntheticWorld::generate(&WorldConfig::tiny(7));
        let b1 = semtab_like(&world, &SemTabConfig::tiny(7));
        let b2 = semtab_like(&world, &SemTabConfig::tiny(7));
        assert_eq!(b1.dataset.len(), b2.dataset.len());
        for (t1, t2) in b1.dataset.tables.iter().zip(&b2.dataset.tables) {
            assert_eq!(t1.labels, t2.labels);
            assert_eq!(t1.columns, t2.columns);
        }
    }

    #[test]
    fn rows_within_bounds() {
        let b = bench();
        for t in &b.dataset.tables {
            assert!(t.n_rows() <= 12);
            assert!(t.n_rows() >= 1);
        }
    }
}
