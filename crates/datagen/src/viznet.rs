//! VizNet-like dataset generator.
//!
//! The modified VizNet corpus (Sato's multi-column subset, used by the
//! paper) is web-table flavored: **coarse** labels (`name`, `city`, `year`,
//! `rank`, …), ~12.8% numeric columns, and a tail of text columns with no
//! KG linkage at all (long addresses, abbreviation codes). This generator
//! reproduces those regimes:
//!
//! * Subject columns of several entity kinds share the single coarse label
//!   `name` — the *type granularity gap* in its dataset form (KG candidate
//!   types will say `Basketball player` where the label says `name`).
//! * `position` columns render mostly as abbreviation codes ("PF" for
//!   `Power forward`), the paper's own hard example.
//! * `address` and `code` columns are synthesized strings with no KG
//!   counterpart — the zero-linkage regime of the paper's Table IV.

use crate::common::{mention_of, related_of_type, sample_instances, synth_address, synth_code};
use crate::noise::maybe_perturb;
use crate::GeneratedBenchmark;
use kglink_kg::{predicates as P, EntityId, SyntheticWorld};
use kglink_table::{CellValue, Dataset, LabelVocab, SplitSpec, Table, TableId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};

/// VizNet-like generation settings.
#[derive(Debug, Clone)]
pub struct VizNetConfig {
    pub seed: u64,
    pub n_tables: usize,
    pub min_rows: usize,
    pub max_rows: usize,
    /// Cell perturbation probability (web tables are noisier than SemTab).
    pub cell_noise: f64,
    /// Probability an entity mention uses an alias.
    pub alias_mention_prob: f64,
    /// Probability each optional numeric column is included; tunes the
    /// dataset's numeric-column fraction toward the paper's 12.8%.
    pub numeric_col_prob: f64,
}

impl Default for VizNetConfig {
    fn default() -> Self {
        VizNetConfig {
            seed: 202,
            n_tables: 700,
            min_rows: 8,
            max_rows: 22,
            cell_noise: 0.28,
            alias_mention_prob: 0.25,
            numeric_col_prob: 0.25,
        }
    }
}

impl VizNetConfig {
    /// A small configuration for tests.
    pub fn tiny(seed: u64) -> Self {
        VizNetConfig {
            seed,
            n_tables: 40,
            min_rows: 5,
            max_rows: 10,
            ..Self::default()
        }
    }
}

/// Which generator-side numeric fact feeds a numeric column.
#[derive(Debug, Clone, Copy)]
enum NumericKind {
    BirthYear,
    Age,
    Height,
    Rating,
    Population,
    FoundedYear,
    ReleaseYear,
}

/// One column of a VizNet-like template.
enum ColSpec {
    /// The subject entity's mention; coarse label.
    Subject { label: &'static str },
    /// A related entity's mention.
    Relation {
        predicate: &'static str,
        label: &'static str,
        /// Restrict targets to this type (None = accept any target).
        target: Option<fn(&SyntheticWorld) -> EntityId>,
        /// Render mostly as alias (for abbreviation-code columns).
        prefer_alias: bool,
    },
    /// A numeric fact of the subject; always-numeric column (optional,
    /// included with `numeric_col_prob`).
    Numeric {
        kind: NumericKind,
        label: &'static str,
    },
    /// Row index 1..n.
    Rank,
    /// Random score.
    Score,
    /// Synthesized street address — unlinkable text.
    Address,
    /// Synthesized opaque code — unlinkable text.
    Code,
}

/// A VizNet-like template: pools of subject types plus column specs.
struct Template {
    subjects: Vec<fn(&SyntheticWorld) -> EntityId>,
    cols: Vec<ColSpec>,
}

fn templates() -> Vec<Template> {
    vec![
        // Athlete roster: the paper's running example (name/team/position).
        Template {
            subjects: vec![
                |w| w.types.basketball_player,
                |w| w.types.cricketer,
                |w| w.types.footballer,
                |w| w.types.tennis_player,
            ],
            cols: vec![
                ColSpec::Subject { label: "name" },
                ColSpec::Relation {
                    predicate: P::MEMBER_OF_SPORTS_TEAM,
                    label: "team",
                    target: Some(|w| w.types.sports_team),
                    prefer_alias: false,
                },
                ColSpec::Relation {
                    predicate: P::POSITION_PLAYED,
                    label: "position",
                    target: Some(|w| w.types.position),
                    prefer_alias: true,
                },
                ColSpec::Numeric {
                    kind: NumericKind::Height,
                    label: "height",
                },
                ColSpec::Numeric {
                    kind: NumericKind::BirthYear,
                    label: "year",
                },
            ],
        },
        // Discography.
        Template {
            subjects: vec![|w| w.types.album],
            cols: vec![
                ColSpec::Subject { label: "album" },
                ColSpec::Relation {
                    predicate: P::PERFORMER,
                    label: "artist",
                    target: None,
                    prefer_alias: false,
                },
                ColSpec::Relation {
                    predicate: P::GENRE,
                    label: "genre",
                    target: Some(|w| w.types.genre),
                    prefer_alias: false,
                },
                ColSpec::Numeric {
                    kind: NumericKind::ReleaseYear,
                    label: "year",
                },
            ],
        },
        // Gazetteer.
        Template {
            subjects: vec![|w| w.types.city],
            cols: vec![
                ColSpec::Subject { label: "city" },
                ColSpec::Relation {
                    predicate: P::COUNTRY,
                    label: "country",
                    target: Some(|w| w.types.country),
                    prefer_alias: false,
                },
                ColSpec::Numeric {
                    kind: NumericKind::Population,
                    label: "population",
                },
            ],
        },
        // Filmography.
        Template {
            subjects: vec![|w| w.types.film],
            cols: vec![
                ColSpec::Subject { label: "film" },
                ColSpec::Relation {
                    predicate: P::DIRECTOR,
                    label: "director",
                    target: Some(|w| w.types.film_director),
                    prefer_alias: false,
                },
                ColSpec::Numeric {
                    kind: NumericKind::ReleaseYear,
                    label: "year",
                },
                ColSpec::Numeric {
                    kind: NumericKind::Rating,
                    label: "result",
                },
            ],
        },
        // Company registry.
        Template {
            subjects: vec![|w| w.types.company],
            cols: vec![
                ColSpec::Subject { label: "company" },
                ColSpec::Relation {
                    predicate: P::COUNTRY,
                    label: "country",
                    target: Some(|w| w.types.country),
                    prefer_alias: false,
                },
                ColSpec::Numeric {
                    kind: NumericKind::FoundedYear,
                    label: "year",
                },
            ],
        },
        // Contact list: name + address (+ age) — the zero-linkage regime.
        Template {
            subjects: vec![|w| w.types.singer, |w| w.types.actor, |w| w.types.writer],
            cols: vec![
                ColSpec::Subject { label: "name" },
                ColSpec::Address,
                ColSpec::Numeric {
                    kind: NumericKind::Age,
                    label: "age",
                },
            ],
        },
        // League standings: rank + name + team + score.
        Template {
            subjects: vec![|w| w.types.footballer, |w| w.types.basketball_player],
            cols: vec![
                ColSpec::Rank,
                ColSpec::Subject { label: "name" },
                ColSpec::Relation {
                    predicate: P::MEMBER_OF_SPORTS_TEAM,
                    label: "team",
                    target: Some(|w| w.types.sports_team),
                    prefer_alias: false,
                },
                ColSpec::Score,
            ],
        },
        // Inventory codes: code + name + score — more zero-linkage columns.
        Template {
            subjects: vec![|w| w.types.company],
            cols: vec![
                ColSpec::Code,
                ColSpec::Subject { label: "company" },
                ColSpec::Score,
            ],
        },
        // Score sheet: numbers only — an entirely KG-unlinkable table, the
        // main population behind the paper's Table IV subset ("columns …
        // whose entire table has no linkage to the KG" — 556 of its 612
        // columns are numeric).
        Template {
            subjects: vec![|w| w.types.company],
            cols: vec![ColSpec::Rank, ColSpec::Score, ColSpec::Score],
        },
        // Mailing list: addresses + ages only — also fully unlinkable.
        Template {
            subjects: vec![|w| w.types.writer, |w| w.types.actor],
            cols: vec![
                ColSpec::Address,
                ColSpec::Numeric {
                    kind: NumericKind::Age,
                    label: "age",
                },
                ColSpec::Code,
            ],
        },
        // Library catalogue.
        Template {
            subjects: vec![|w| w.types.book],
            cols: vec![
                ColSpec::Subject { label: "name" },
                ColSpec::Relation {
                    predicate: P::AUTHOR,
                    label: "artist",
                    target: Some(|w| w.types.writer),
                    prefer_alias: false,
                },
                ColSpec::Relation {
                    predicate: P::LANGUAGE_OF_WORK,
                    label: "language",
                    target: Some(|w| w.types.language),
                    prefer_alias: false,
                },
                ColSpec::Numeric {
                    kind: NumericKind::ReleaseYear,
                    label: "year",
                },
            ],
        },
    ]
}

fn numeric_cell(
    world: &SyntheticWorld,
    subject: EntityId,
    kind: NumericKind,
    rng: &mut StdRng,
) -> CellValue {
    let n = &world.numeric;
    let raw = match kind {
        NumericKind::BirthYear => n.birth_year.get(&subject).map(|&y| y as f64),
        NumericKind::Age => n.birth_year.get(&subject).map(|&y| (2024 - y) as f64),
        NumericKind::Height => n.height_cm.get(&subject).copied(),
        NumericKind::Rating => n.rating.get(&subject).copied(),
        NumericKind::Population => n.population.get(&subject).map(|&p| p as f64),
        NumericKind::FoundedYear => n.founded_year.get(&subject).map(|&y| y as f64),
        NumericKind::ReleaseYear => n.release_year.get(&subject).map(|&y| y as f64),
    };
    match raw {
        Some(v) => {
            let rendered = match kind {
                NumericKind::Height | NumericKind::Rating => format!("{v:.1}"),
                _ => format!("{}", v as i64),
            };
            CellValue::parse(&rendered)
        }
        None => {
            // Fall back to a plausible random value so numeric columns stay
            // fully numeric even when the subject lacks the fact.
            let v: f64 = rng.gen_range(1.0..100.0);
            CellValue::Number((v * 10.0).round() / 10.0)
        }
    }
}

/// Generate a VizNet-like benchmark. The returned dataset has the 7:1:2
/// stratified split assigned.
pub fn viznet_like(world: &SyntheticWorld, config: &VizNetConfig) -> GeneratedBenchmark {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let templates = templates();
    let mut vocab = LabelVocab::new();

    // Coarse label → KG type for the MTab translation.
    let mut label_to_type: HashMap<kglink_table::LabelId, EntityId> = HashMap::new();
    let coarse_map: [(&str, EntityId); 12] = [
        ("name", world.types.person),
        ("team", world.types.sports_team),
        ("position", world.types.position),
        ("album", world.types.album),
        ("artist", world.types.musician),
        ("genre", world.types.genre),
        ("city", world.types.city),
        ("country", world.types.country),
        ("film", world.types.film),
        ("director", world.types.film_director),
        ("company", world.types.company),
        ("language", world.types.language),
    ];
    for (name, ty) in coarse_map {
        let lid = vocab.intern(name);
        label_to_type.insert(lid, ty);
    }

    let mut member_sets: HashMap<EntityId, HashSet<EntityId>> = HashMap::new();
    let mut tables = Vec::with_capacity(config.n_tables);
    for ti in 0..config.n_tables {
        let tmpl = &templates[rng.gen_range(0..templates.len())];
        let sub_ty = tmpl.subjects[rng.gen_range(0..tmpl.subjects.len())](world);
        let pool = world.instances_of(sub_ty);
        if pool.is_empty() {
            continue;
        }
        let n_rows = rng
            .gen_range(config.min_rows..=config.max_rows)
            .min(pool.len());
        let subjects = sample_instances(pool, n_rows, &mut rng);

        let mut columns: Vec<Vec<CellValue>> = Vec::new();
        let mut labels = Vec::new();
        for spec in &tmpl.cols {
            match spec {
                ColSpec::Subject { label } => {
                    let cells = subjects
                        .iter()
                        .map(|&s| {
                            let m =
                                mention_of(&world.graph, s, config.alias_mention_prob, &mut rng);
                            CellValue::Text(maybe_perturb(&m, config.cell_noise, &mut rng))
                        })
                        .collect();
                    columns.push(cells);
                    labels.push(vocab.intern(label));
                }
                ColSpec::Relation {
                    predicate,
                    label,
                    target,
                    prefer_alias,
                } => {
                    let member_set = target.map(|f| {
                        let ty = f(world);
                        member_sets
                            .entry(ty)
                            .or_insert_with(|| world.instances_of(ty).iter().copied().collect())
                            .clone()
                    });
                    let cells: Vec<CellValue> = subjects
                        .iter()
                        .map(|&s| {
                            let rel = match &member_set {
                                Some(set) => related_of_type(world, s, predicate, set),
                                None => crate::common::related(&world.graph, s, predicate),
                            };
                            match rel {
                                Some(t) => {
                                    let alias_p = if *prefer_alias {
                                        0.75
                                    } else {
                                        config.alias_mention_prob
                                    };
                                    let m = mention_of(&world.graph, t, alias_p, &mut rng);
                                    CellValue::Text(maybe_perturb(&m, config.cell_noise, &mut rng))
                                }
                                None => CellValue::Empty,
                            }
                        })
                        .collect();
                    let non_empty = cells
                        .iter()
                        .filter(|c| !matches!(c, CellValue::Empty))
                        .count();
                    if non_empty * 2 >= cells.len() {
                        columns.push(cells);
                        labels.push(vocab.intern(label));
                    }
                }
                ColSpec::Numeric { kind, label } => {
                    if rng.gen_bool(config.numeric_col_prob) {
                        let cells = subjects
                            .iter()
                            .map(|&s| numeric_cell(world, s, *kind, &mut rng))
                            .collect();
                        columns.push(cells);
                        labels.push(vocab.intern(label));
                    }
                }
                ColSpec::Rank => {
                    let cells = (1..=subjects.len())
                        .map(|i| CellValue::Number(i as f64))
                        .collect();
                    columns.push(cells);
                    labels.push(vocab.intern("rank"));
                }
                ColSpec::Score => {
                    if rng.gen_bool(config.numeric_col_prob + 0.3) {
                        let cells = subjects
                            .iter()
                            .map(|_| {
                                let v: f64 = rng.gen_range(0.0..100.0);
                                CellValue::Number((v * 100.0).round() / 100.0)
                            })
                            .collect();
                        columns.push(cells);
                        labels.push(vocab.intern("result"));
                    }
                }
                ColSpec::Address => {
                    let cells = subjects
                        .iter()
                        .map(|_| CellValue::Text(synth_address(&mut rng)))
                        .collect();
                    columns.push(cells);
                    labels.push(vocab.intern("address"));
                }
                ColSpec::Code => {
                    let cells = subjects
                        .iter()
                        .map(|_| CellValue::Text(synth_code(&mut rng)))
                        .collect();
                    columns.push(cells);
                    labels.push(vocab.intern("code"));
                }
            }
        }
        if columns.len() < 2 {
            // The paper uses the *multi-column* VizNet subset.
            continue;
        }
        tables.push(Table::new(TableId(ti as u32), Vec::new(), columns, labels));
    }

    let mut dataset = Dataset::new("viznet-like", tables, vocab);
    dataset.assign_splits(SplitSpec::default(), config.seed ^ 0x71e7);
    GeneratedBenchmark {
        dataset,
        label_to_type,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kglink_kg::WorldConfig;

    fn bench() -> GeneratedBenchmark {
        let world = SyntheticWorld::generate(&WorldConfig::tiny(9));
        viznet_like(&world, &VizNetConfig::tiny(9))
    }

    #[test]
    fn has_numeric_columns_in_target_band() {
        let world = SyntheticWorld::generate(&WorldConfig::tiny(9));
        let b = viznet_like(
            &world,
            &VizNetConfig {
                n_tables: 200,
                ..VizNetConfig::tiny(9)
            },
        );
        let mut numeric = 0usize;
        let mut total = 0usize;
        for t in &b.dataset.tables {
            for c in 0..t.n_cols() {
                total += 1;
                if t.is_numeric_column(c) {
                    numeric += 1;
                }
            }
        }
        let frac = numeric as f64 / total as f64;
        assert!(
            (0.05..0.40).contains(&frac),
            "numeric fraction {frac} should be in the web-table band (paper: 12.8%)"
        );
    }

    #[test]
    fn every_table_is_multi_column() {
        let b = bench();
        for t in &b.dataset.tables {
            assert!(t.n_cols() >= 2);
        }
    }

    #[test]
    fn contains_unlinkable_column_kinds() {
        let b = bench();
        let has = |name: &str| b.dataset.labels.get(name).is_some();
        assert!(
            has("address") || has("code"),
            "zero-linkage text columns exist"
        );
        assert!(has("name"), "coarse name label exists");
    }

    #[test]
    fn coarse_name_label_spans_multiple_entity_kinds() {
        let world = SyntheticWorld::generate(&WorldConfig::tiny(9));
        let b = viznet_like(
            &world,
            &VizNetConfig {
                n_tables: 120,
                ..VizNetConfig::tiny(9)
            },
        );
        // "name" appears as the subject label of several templates — this is
        // the dataset-side type granularity gap.
        let name = b.dataset.labels.get("name").unwrap();
        let count = b
            .dataset
            .tables
            .iter()
            .flat_map(|t| &t.labels)
            .filter(|&&l| l == name)
            .count();
        assert!(count >= 5, "name label should be common, saw {count}");
    }

    #[test]
    fn label_map_is_partial() {
        let b = bench();
        // Numeric labels have no KG type.
        if let Some(year) = b.dataset.labels.get("year") {
            assert!(!b.label_to_type.contains_key(&year));
        }
        let name = b.dataset.labels.get("name").unwrap();
        assert!(b.label_to_type.contains_key(&name));
    }

    #[test]
    fn deterministic() {
        let world = SyntheticWorld::generate(&WorldConfig::tiny(9));
        let b1 = viznet_like(&world, &VizNetConfig::tiny(9));
        let b2 = viznet_like(&world, &VizNetConfig::tiny(9));
        assert_eq!(b1.dataset.len(), b2.dataset.len());
        for (t1, t2) in b1.dataset.tables.iter().zip(&b2.dataset.tables) {
            assert_eq!(t1.columns, t2.columns);
        }
    }
}
