//! Part 1, Step 1: table cell mention linking (paper Eq. 1–2).
//!
//! Linking goes through the fallible [`KgBackend`] trait: a retrieval
//! failure (timeout, transient fault, outage, open circuit breaker) is a
//! first-class outcome recorded on the [`CellLink`], not a panic. Failed
//! cells carry no candidates, which downstream turns into the paper's
//! no-linkage path (Table IV).

use kglink_kg::EntityId;
use kglink_search::{Deadline, KgBackend};
use kglink_table::{MentionKind, Table};

/// KG linkage of a single cell.
#[derive(Debug, Clone)]
pub struct CellLink {
    /// Named-entity-schema verdict for the cell.
    pub kind: MentionKind,
    /// Retrieved candidate entities with BM25 linking scores, best first.
    /// Empty for numeric/date/empty cells (their linking score is 0 by the
    /// paper's rule) and for mentions with no KG match.
    pub candidates: Vec<(EntityId, f32)>,
    /// True when retrieval was attempted but *failed* (as opposed to
    /// succeeding with no hits). Failed cells degrade to the no-linkage
    /// path.
    pub failed: bool,
}

impl CellLink {
    /// The cell's raw linking score before entity pruning: the best
    /// candidate's BM25 score, or 0.
    pub fn best_score(&self) -> f32 {
        self.candidates.first().map_or(0.0, |&(_, s)| s)
    }

    /// Whether any KG entity was retrieved.
    pub fn is_linked(&self) -> bool {
        !self.candidates.is_empty()
    }
}

/// The linked form of a table: one [`CellLink`] per cell, column-major.
#[derive(Debug, Clone)]
pub struct LinkedTable {
    /// `cells[c][r]` aligns with `table.columns[c][r]`.
    pub cells: Vec<Vec<CellLink>>,
}

impl LinkedTable {
    /// Link every cell of `table` against the KG through `backend`,
    /// retrieving up to `max_entities` candidates per mention with no
    /// deadline.
    ///
    /// Cells the named-entity schema classifies as numeric or date are
    /// assigned a linking score of 0 (no retrieval) — the paper: "For
    /// instances where the cell mention corresponds to a number or a date,
    /// it is inappropriate to link it to the KG."
    pub fn link(table: &Table, backend: &dyn KgBackend, max_entities: usize) -> Self {
        Self::link_with_deadline(table, backend, max_entities, Deadline::UNBOUNDED)
    }

    /// [`link`](Self::link) with a per-query retrieval deadline. Retrieval
    /// errors leave the cell unlinked with `failed = true`.
    ///
    /// Every entity mention of the table goes to the backend as one
    /// [`KgBackend::search_batch`], column-major, and each answer is put
    /// back at its cell by index; a batch that answers short fails the
    /// cells it left out.
    pub fn link_with_deadline(
        table: &Table,
        backend: &dyn KgBackend,
        max_entities: usize,
        deadline: Deadline,
    ) -> Self {
        let mut queries = Vec::new();
        let mut cells: Vec<Vec<CellLink>> = table
            .columns
            .iter()
            .map(|col| {
                col.iter()
                    .map(|cell| {
                        let kind = cell.mention_kind();
                        if kind == MentionKind::Entity {
                            queries.push(cell.surface());
                        }
                        CellLink {
                            kind,
                            candidates: Vec::new(),
                            failed: false,
                        }
                    })
                    .collect()
            })
            .collect();
        let mut answers = backend
            .search_batch(queries, max_entities, deadline)
            .into_iter();
        for link in cells.iter_mut().flatten() {
            if link.kind == MentionKind::Entity {
                match answers.next() {
                    Some(Ok(outcome)) => link.candidates = outcome.hits,
                    Some(Err(_)) | None => link.failed = true,
                }
            }
        }
        LinkedTable { cells }
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.cells.len()
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.cells.first().map_or(0, Vec::len)
    }

    /// The link record of `(row, col)`.
    pub fn cell(&self, row: usize, col: usize) -> &CellLink {
        &self.cells[col][row]
    }

    /// Whether any retrieval in column `c` failed.
    pub fn column_failed(&self, c: usize) -> bool {
        self.cells[c].iter().any(|link| link.failed)
    }

    /// Total cells whose retrieval failed.
    pub fn failed_cells(&self) -> usize {
        self.cells
            .iter()
            .flat_map(|col| col.iter())
            .filter(|link| link.failed)
            .count()
    }

    /// Drop every candidate in column `c` — the full-column degradation
    /// applied when any of its retrievals failed, so the whole column takes
    /// the deterministic no-linkage path instead of a partial one.
    pub fn degrade_column(&mut self, c: usize) {
        for link in &mut self.cells[c] {
            link.candidates.clear();
        }
    }

    /// Fraction of linkable cells that retrieved at least one entity.
    pub fn linkage_rate(&self) -> f64 {
        let mut linkable = 0usize;
        let mut linked = 0usize;
        for col in &self.cells {
            for cell in col {
                if cell.kind == MentionKind::Entity {
                    linkable += 1;
                    if cell.is_linked() {
                        linked += 1;
                    }
                }
            }
        }
        if linkable == 0 {
            0.0
        } else {
            linked as f64 / linkable as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kglink_kg::{Entity, KgBuilder, NeSchema};
    use kglink_search::{FaultConfig, FaultyBackend};
    use kglink_store::DiskWorld;
    use kglink_table::{CellValue, LabelId, TableId};

    fn setup() -> (DiskWorld, Table) {
        let mut b = KgBuilder::new();
        let musician = b.add_type("Musician", None);
        b.add_instance(Entity::new("Peter Steele", NeSchema::Person), musician);
        let world = DiskWorld::from_graph(&b.build()).unwrap();
        let table = Table::new(
            TableId(0),
            vec![],
            vec![
                vec![
                    CellValue::parse("Peter Steele"),
                    CellValue::parse("Unknown Nobody Xyz"),
                ],
                vec![CellValue::parse("1990"), CellValue::parse("42")],
            ],
            vec![LabelId(0), LabelId(1)],
        );
        (world, table)
    }

    #[test]
    fn linkable_cells_retrieve_entities() {
        let (world, table) = setup();
        let linked = LinkedTable::link(&table, &world.backend, 5);
        assert!(linked.cell(0, 0).is_linked());
        assert!(linked.cell(0, 0).best_score() > 0.0);
        assert!(!linked.cell(0, 0).failed);
    }

    #[test]
    fn numeric_and_date_cells_get_zero_score() {
        let (world, table) = setup();
        let linked = LinkedTable::link(&table, &world.backend, 5);
        // Column 1 holds a year (date) and a number.
        assert_eq!(linked.cell(0, 1).kind, MentionKind::Date);
        assert_eq!(linked.cell(1, 1).kind, MentionKind::Numeric);
        assert_eq!(linked.cell(0, 1).best_score(), 0.0);
        assert_eq!(linked.cell(1, 1).best_score(), 0.0);
        assert!(!linked.cell(0, 1).is_linked());
    }

    #[test]
    fn unmatched_mentions_stay_unlinked() {
        let (world, table) = setup();
        let linked = LinkedTable::link(&table, &world.backend, 5);
        assert!(!linked.cell(1, 0).is_linked());
        assert_eq!(linked.cell(1, 0).best_score(), 0.0);
        assert!(
            !linked.cell(1, 0).failed,
            "an empty result set is not a failure"
        );
    }

    #[test]
    fn linkage_rate_counts_only_entity_cells() {
        let (world, table) = setup();
        let linked = LinkedTable::link(&table, &world.backend, 5);
        // Two entity cells, one linked.
        assert!((linked.linkage_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn retrieval_failures_mark_cells_and_columns() {
        let (world, table) = setup();
        let dead = FaultyBackend::new(&world.backend, FaultConfig::with_fault_rate(1, 1.0));
        let linked = LinkedTable::link(&table, &dead, 5);
        // Entity cells fail; numeric/date cells never attempt retrieval.
        assert!(linked.cell(0, 0).failed);
        assert!(linked.cell(1, 0).failed);
        assert!(!linked.cell(0, 1).failed);
        assert!(linked.column_failed(0));
        assert!(!linked.column_failed(1));
        assert_eq!(linked.failed_cells(), 2);
        assert_eq!(linked.linkage_rate(), 0.0);
    }

    #[test]
    fn degrade_column_clears_candidates() {
        let (world, table) = setup();
        let mut linked = LinkedTable::link(&table, &world.backend, 5);
        assert!(linked.cell(0, 0).is_linked());
        linked.degrade_column(0);
        assert!(!linked.cell(0, 0).is_linked());
    }
}
