//! Part 1, Step 3: candidate type generation (paper Eq. 7–8).

use crate::filter::FilteredTable;
use kglink_kg::{EntityId, GraphAccess};
use std::collections::HashMap;

/// A scored candidate type for one column.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateType {
    pub entity: EntityId,
    /// Candidate type score `cts` (Eq. 8).
    pub score: f64,
}

/// Generate up to `max_types` candidate types for every column of a
/// filtered table.
///
/// For each column `c`, the pruned entity sets of all rows are united
/// (Eq. 7); every one-hop neighbor `ct` of a pruned entity `e` accumulates
/// `os_e` into its candidate type score (Eq. 8). Per the paper's label-based
/// filter, neighbors whose named-entity schema is `PERSON` or `DATE` are
/// excluded. The `r2 ≠ r1` constraint of Eq. 8 is honored by requiring a
/// candidate type to be supported by entities from at least two distinct
/// rows. The neighbourhoods are the ones Step 2 read; `graph` answers the
/// schema filter.
pub fn candidate_types(
    filtered: &FilteredTable,
    graph: &dyn GraphAccess,
    max_types: usize,
) -> Vec<Vec<CandidateType>> {
    let n_cols = filtered.cells.len();
    let mut out = Vec::with_capacity(n_cols);
    for c in 0..n_cols {
        let mut scores: HashMap<EntityId, f64> = HashMap::new();
        let mut row_support: HashMap<EntityId, Vec<usize>> = HashMap::new();
        for (r, cell) in filtered.cells[c].iter().enumerate() {
            for pe in &cell.entities {
                if pe.overlap_score == 0 {
                    continue; // fallback entities carry no weight in Eq. 8
                }
                for &ct in filtered.one_hop(pe.entity) {
                    if !graph.schema_of(ct).eligible_as_type() {
                        continue;
                    }
                    *scores.entry(ct).or_insert(0.0) += pe.overlap_score as f64;
                    let support = row_support.entry(ct).or_default();
                    if support.last() != Some(&r) {
                        support.push(r);
                    }
                }
            }
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "order-insensitive: the filter is per-element and the very next statement imposes a total order (score via total_cmp, then entity id) before anything is emitted"
        )]
        let mut ranked: Vec<CandidateType> = scores
            .drain()
            .filter(|(ct, _)| row_support[ct].len() >= 2.min(filtered.table.n_rows()))
            .map(|(entity, score)| CandidateType { entity, score })
            .collect();
        ranked.sort_by(|a, b| {
            b.score
                .total_cmp(&a.score)
                .then_with(|| a.entity.cmp(&b.entity))
        });
        ranked.truncate(max_types);
        out.push(ranked);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RowFilter;
    use crate::filter::prune_and_filter;
    use crate::linking::LinkedTable;
    use kglink_kg::{Entity, KgBuilder, NeSchema};
    use kglink_store::DiskWorld;
    use kglink_table::{CellValue, LabelId, Table, TableId};

    /// Two-column table of musicians and their bands, where `Musician` (a
    /// type entity) is a one-hop neighbor of every musician, so it should
    /// emerge as the top candidate type for column 0.
    fn setup() -> (kglink_kg::KnowledgeGraph, Table, EntityId, EntityId) {
        let mut b = KgBuilder::new();
        let musician = b.add_type("Musician", None);
        let band_ty = b.add_type("Musical group", None);
        let member_of = b.predicate("member of");
        let band1 = b.add_instance(
            Entity::new("The Velvet Owls", NeSchema::Organization),
            band_ty,
        );
        let band2 = b.add_instance(
            Entity::new("Iron Prophets", NeSchema::Organization),
            band_ty,
        );
        let names = ["Peter Steele", "Anna Kovacs", "Luca Rossi"];
        let bands = [band1, band2, band1];
        for (name, band) in names.iter().zip(bands) {
            let m = b.add_instance(Entity::new(*name, NeSchema::Person), musician);
            b.relate(m, member_of, band);
        }
        let g = b.build();
        let table = Table::new(
            TableId(0),
            vec![],
            vec![
                names.iter().map(|n| CellValue::parse(n)).collect(),
                vec![
                    CellValue::parse("The Velvet Owls"),
                    CellValue::parse("Iron Prophets"),
                    CellValue::parse("The Velvet Owls"),
                ],
            ],
            vec![LabelId(0), LabelId(1)],
        );
        (g, table, musician, band_ty)
    }

    fn run(
        g: &kglink_kg::KnowledgeGraph,
        table: &Table,
        max_types: usize,
    ) -> Vec<Vec<CandidateType>> {
        let world = DiskWorld::from_graph(g).unwrap();
        let linked = LinkedTable::link(table, &world.backend, 10);
        let filtered = prune_and_filter(table, &linked, &world.graph, 25, RowFilter::LinkScore);
        candidate_types(&filtered, &world.graph, max_types)
    }

    #[test]
    fn type_entity_wins_for_musician_column() {
        let (g, table, musician, _) = setup();
        let cts = run(&g, &table, 3);
        assert!(!cts[0].is_empty(), "column 0 should have candidate types");
        assert_eq!(cts[0][0].entity, musician, "Musician is the top candidate");
    }

    #[test]
    fn band_column_gets_group_type() {
        let (g, table, _, band_ty) = setup();
        let cts = run(&g, &table, 3);
        assert!(
            cts[1].iter().any(|ct| ct.entity == band_ty),
            "Musical group should be among column 1's candidates: {:?}",
            cts[1]
        );
    }

    #[test]
    fn person_entities_are_filtered_from_types() {
        let (g, table, ..) = setup();
        let cts = run(&g, &table, 10);
        for col in &cts {
            for ct in col {
                assert!(
                    g.entity(ct.entity).schema.eligible_as_type(),
                    "PERSON/DATE must not appear as candidate types"
                );
            }
        }
    }

    #[test]
    fn max_types_caps_output() {
        let (g, table, ..) = setup();
        let cts = run(&g, &table, 1);
        for col in &cts {
            assert!(col.len() <= 1);
        }
    }

    #[test]
    fn scores_are_sorted_descending() {
        let (g, table, ..) = setup();
        let cts = run(&g, &table, 5);
        for col in &cts {
            for pair in col.windows(2) {
                assert!(pair[0].score >= pair[1].score);
            }
        }
    }

    #[test]
    fn single_row_support_requirement_relaxes_for_tiny_tables() {
        // A one-row table can still produce candidate types (2.min(1) == 1).
        let (g, _, musician, _) = setup();
        let table = Table::new(
            TableId(1),
            vec![],
            vec![
                vec![CellValue::parse("Peter Steele")],
                vec![CellValue::parse("The Velvet Owls")],
            ],
            vec![LabelId(0), LabelId(1)],
        );
        let cts = run(&g, &table, 3);
        assert!(cts[0].iter().any(|ct| ct.entity == musician));
    }
}
