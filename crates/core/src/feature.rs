//! Part 1, feature sequence construction (paper Eq. 9).

use crate::filter::FilteredTable;
use kglink_kg::GraphAccess;

/// Build the feature sequence `S(e)` for every column of a filtered table.
///
/// Per the paper: from the filtered table, select each column's first cell
/// (the rows are already sorted by row linking score, so the first cell has
/// the best total linking score), take that cell's best-linked entity `e`,
/// and serialize `e` with its one-hop neighborhood:
///
/// `S(e) = s || (‖_{o ∈ N(e)} p || o)`
///
/// where `s` is the entity's label and `p` the predicate name connecting it
/// to neighbor `o`. Columns with no linked entity (numeric columns, or no
/// KG match at all) yield `None`, which the serializer turns into a padding
/// sequence.
pub fn feature_sequences(filtered: &FilteredTable, graph: &dyn GraphAccess) -> Vec<Option<String>> {
    filtered
        .cells
        .iter()
        .map(|col| {
            // First row with a linked cell; rows are in filter order, so
            // this is the best-linked row for the column.
            let best = col.iter().find_map(|cell| cell.best_entity());
            best.map(|pe| {
                let mut parts = vec![graph.label(pe.entity)];
                for (p, o) in graph.one_hop_with_predicates(pe.entity) {
                    parts.push(graph.predicate_name(p));
                    parts.push(graph.label(o));
                }
                parts.join(" ")
            })
        })
        .collect()
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

    fn setup() -> (kglink_kg::KnowledgeGraph, Table) {
        let mut b = KgBuilder::new();
        let musician = b.add_type("Musician", None);
        let album_ty = b.add_type("Album", None);
        let steele = b.add_instance(Entity::new("Peter Steele", NeSchema::Person), musician);
        let rust_album = b.add_instance(Entity::new("Rust", NeSchema::Work), album_ty);
        let performer = b.predicate("performer");
        b.relate(rust_album, performer, steele);
        let g = b.build();
        let table = Table::new(
            TableId(0),
            vec![],
            vec![
                vec![CellValue::parse("Peter Steele")],
                vec![CellValue::parse("1995")],
            ],
            vec![LabelId(0), LabelId(1)],
        );
        (g, table)
    }

    fn features(g: &kglink_kg::KnowledgeGraph, table: &Table) -> Vec<Option<String>> {
        let world = DiskWorld::from_graph(g).unwrap();
        let linked = LinkedTable::link(table, &world.backend, 10);
        let filtered = prune_and_filter(table, &linked, &world.graph, 25, RowFilter::LinkScore);
        feature_sequences(&filtered, &world.graph)
    }

    #[test]
    fn linked_column_serializes_neighborhood() {
        let (g, table) = setup();
        let f = features(&g, &table);
        let s = f[0].as_ref().expect("column 0 links");
        assert!(s.starts_with("Peter Steele"));
        assert!(s.contains("instance of"));
        assert!(s.contains("Musician"));
        assert!(s.contains("performer"));
        assert!(s.contains("Rust"));
    }

    #[test]
    fn numeric_column_has_no_feature_sequence() {
        let (g, table) = setup();
        let f = features(&g, &table);
        assert!(f[1].is_none(), "date/numeric columns yield padding");
    }

    #[test]
    fn unlinkable_text_column_has_no_feature_sequence() {
        let (g, _) = setup();
        let table = Table::new(
            TableId(1),
            vec![],
            vec![vec![CellValue::parse("qq zz unknown")]],
            vec![LabelId(0)],
        );
        let f = features(&g, &table);
        assert!(f[0].is_none());
    }
}
