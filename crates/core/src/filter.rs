//! Part 1, Step 2: entity pruning and the row filter (paper Eq. 3–6).

use crate::config::RowFilter;
use crate::linking::LinkedTable;
use kglink_kg::{EntityId, GraphAccess, IdMap};
use kglink_table::Table;

/// A candidate entity that survived pruning.
#[derive(Debug, Clone, Copy)]
pub struct PrunedEntity {
    pub entity: EntityId,
    /// BM25 linking score from Step 1.
    pub linking_score: f32,
    /// Overlapping score (Eq. 6): how many times this entity appears in the
    /// one-hop neighborhoods of candidate entities from *other* columns of
    /// the same row. Zero for fallback entities.
    pub overlap_score: u32,
}

/// The pruned candidate set `Ê` of one cell.
#[derive(Debug, Clone, Default)]
pub struct PrunedCell {
    /// Entities of `Ê`, best linking score first.
    pub entities: Vec<PrunedEntity>,
    /// True when the intersection of Eq. 3 was empty and the best raw
    /// candidate was kept instead (overlap score 0). The paper's formulas
    /// leave this case implicit; keeping the best entity preserves the
    /// feature-vector coverage reported in their Table III (SemTab has no
    /// columns without feature-vector information despite imperfect
    /// overlap).
    pub fallback: bool,
}

impl PrunedCell {
    /// Cell linking score (Eq. 4): max over the pruned set.
    pub fn linking_score(&self) -> f32 {
        self.entities
            .iter()
            .map(|e| e.linking_score)
            .fold(0.0, f32::max)
    }

    /// The entity with the best linking score, if any.
    pub fn best_entity(&self) -> Option<PrunedEntity> {
        self.entities
            .iter()
            .copied()
            .max_by(|a, b| a.linking_score.total_cmp(&b.linking_score))
    }
}

/// The output of Step 2: a row-filtered table with pruned candidate sets.
#[derive(Debug, Clone)]
pub struct FilteredTable {
    /// Top-k rows of the original table, in filter order.
    pub table: Table,
    /// `cells[c][r]` aligned with `table`.
    pub cells: Vec<Vec<PrunedCell>>,
    /// Original row indices that were kept, in kept order.
    pub row_order: Vec<usize>,
    /// Row linking scores (Eq. 5) of the kept rows.
    pub row_scores: Vec<f32>,
    /// The batch's one-hop answers for every candidate `e` of the
    /// unfiltered table, back to back: with `i = hop_of[e]`, the list is
    /// `hop_ids[hop_starts[i]..hop_starts[i + 1]]`. Step 3 reads them through
    /// [`FilteredTable::one_hop`] instead of asking the graph again; two
    /// buffers rather than one `Vec` a list, which the filter frees, because
    /// the table outlives Step 3 (hundreds of live lists measured 15–30 µs
    /// slower a hot table in the stages after it).
    hop_of: IdMap<usize>,
    hop_starts: Vec<usize>,
    hop_ids: Vec<EntityId>,
}

impl FilteredTable {
    /// The one-hop neighbourhood `prune_and_filter` read for `entity`, which
    /// must be one of its candidates (every entity of `cells` is).
    pub(crate) fn one_hop(&self, entity: EntityId) -> &[EntityId] {
        let i = self.hop_of[&entity];
        &self.hop_ids[self.hop_starts[i]..self.hop_starts[i + 1]]
    }
}

/// Prune candidate entity sets with the one-hop-intersection rule (Eq. 3),
/// compute overlapping scores (Eq. 6), and keep the top-`k` rows by row
/// linking score (Eq. 4–5) — or the first `k` rows when `row_filter` is
/// [`RowFilter::Original`] (the Table V baseline).
pub fn prune_and_filter(
    table: &Table,
    linked: &LinkedTable,
    graph: &dyn GraphAccess,
    k: usize,
    row_filter: RowFilter,
) -> FilteredTable {
    let n_rows = table.n_rows();
    let n_cols = table.n_cols();
    // One graph read per distinct candidate of the chunk, asked as one
    // batch in first-use order (row, column, rank); `hop_of` maps an id to
    // its answer's index, and the rows below and Step 3 only borrow the
    // answers. Both maps are probed by id, never iterated.
    let mut hop_of: IdMap<usize> = IdMap::default();
    let mut ids = Vec::new();
    for r in 0..n_rows {
        for c in 0..n_cols {
            for &(e, _) in &linked.cell(r, c).candidates {
                hop_of.entry(e).or_insert_with(|| {
                    ids.push(e);
                    ids.len() - 1
                });
            }
        }
    }
    let hops = graph.one_hop_batch(ids);
    let one_hop = |e: &EntityId| hops[hop_of[e]].as_slice();

    // Prune every cell row by row.
    let mut pruned: Vec<Vec<PrunedCell>> = vec![vec![PrunedCell::default(); n_rows]; n_cols];
    let mut row_scores = vec![0.0f32; n_rows];
    // Per column: multiset of one-hop neighbors of all candidates of the
    // current row; the maps keep their capacity from row to row.
    let mut neighbor_counts: Vec<IdMap<u32>> = vec![IdMap::default(); n_cols];
    for r in 0..n_rows {
        for (c, counts) in neighbor_counts.iter_mut().enumerate() {
            counts.clear();
            for (e, _) in &linked.cell(r, c).candidates {
                for &n in one_hop(e) {
                    *counts.entry(n).or_insert(0) += 1;
                }
            }
        }
        for (c1, pruned_col) in pruned.iter_mut().enumerate() {
            let link = linked.cell(r, c1);
            if link.candidates.is_empty() {
                continue;
            }
            let mut kept: Vec<PrunedEntity> = Vec::new();
            for &(e, ls) in &link.candidates {
                // Eq. 3 / Eq. 6: membership count across other columns.
                let os: u32 = (0..n_cols)
                    .filter(|&c2| c2 != c1)
                    .map(|c2| neighbor_counts[c2].get(&e).copied().unwrap_or(0))
                    .sum();
                if os > 0 {
                    kept.push(PrunedEntity {
                        entity: e,
                        linking_score: ls,
                        overlap_score: os,
                    });
                }
            }
            let fallback = kept.is_empty();
            if fallback {
                // Keep the single best raw candidate with zero overlap.
                let &(e, ls) = &link.candidates[0];
                kept.push(PrunedEntity {
                    entity: e,
                    linking_score: ls,
                    overlap_score: 0,
                });
            }
            kept.sort_by(|a, b| b.linking_score.total_cmp(&a.linking_score));
            let cell = PrunedCell {
                entities: kept,
                fallback,
            };
            row_scores[r] += cell.linking_score();
            pruned_col[r] = cell;
        }
    }

    // Row selection.
    let keep = k.min(n_rows).max(usize::from(n_rows > 0));
    let row_order: Vec<usize> = match row_filter {
        RowFilter::LinkScore => {
            let mut idx: Vec<usize> = (0..n_rows).collect();
            // Stable ordering: score descending, then original index.
            idx.sort_by(|&a, &b| row_scores[b].total_cmp(&row_scores[a]).then(a.cmp(&b)));
            idx.truncate(keep);
            idx
        }
        RowFilter::Original => (0..keep.min(n_rows)).collect(),
    };

    let filtered_table = table.select_rows(&row_order);
    let cells: Vec<Vec<PrunedCell>> = (0..n_cols)
        .map(|c| row_order.iter().map(|&r| pruned[c][r].clone()).collect())
        .collect();
    let kept_scores: Vec<f32> = row_order.iter().map(|&r| row_scores[r]).collect();
    let mut hop_starts = Vec::with_capacity(hops.len() + 1);
    hop_starts.push(0);
    let mut hop_ids = Vec::with_capacity(hops.iter().map(Vec::len).sum());
    for h in &hops {
        hop_ids.extend_from_slice(h);
        hop_starts.push(hop_ids.len());
    }
    FilteredTable {
        table: filtered_table,
        cells,
        row_order,
        row_scores: kept_scores,
        hop_of,
        hop_starts,
        hop_ids,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kglink_kg::{Entity, KgBuilder, NeSchema};
    use kglink_store::DiskWorld;
    use kglink_table::{CellValue, LabelId, TableId};

    /// Build the paper's Figure 5 situation: album "Rust" performed by
    /// "Peter Steele", plus an unrelated city "Rustville" that also matches
    /// the mention "Rust".
    fn figure5() -> (kglink_kg::KnowledgeGraph, Table, EntityId, EntityId) {
        let mut b = KgBuilder::new();
        let musician = b.add_type("Musician", None);
        let album_ty = b.add_type("Album", None);
        let city_ty = b.add_type("City", None);
        let steele = b.add_instance(Entity::new("Peter Steele", NeSchema::Person), musician);
        let rust_album = b.add_instance(Entity::new("Rust", NeSchema::Work), album_ty);
        let _rust_city = b.add_instance(Entity::new("Rust", NeSchema::Place), city_ty);
        let performer = b.predicate("performer");
        b.relate(rust_album, performer, steele);
        let g = b.build();
        let table = Table::new(
            TableId(0),
            vec![],
            vec![
                vec![CellValue::parse("Rust")],
                vec![CellValue::parse("Peter Steele")],
            ],
            vec![LabelId(0), LabelId(1)],
        );
        (g, table, rust_album, steele)
    }

    #[test]
    fn overlap_disambiguates_figure5() {
        let (g, table, rust_album, steele) = figure5();
        let world = DiskWorld::from_graph(&g).unwrap();
        let linked = LinkedTable::link(&table, &world.backend, 10);
        // Both Rust entities are retrieved for the ambiguous mention.
        assert!(linked.cell(0, 0).candidates.len() >= 2);
        let filtered = prune_and_filter(&table, &linked, &world.graph, 10, RowFilter::LinkScore);
        // The album survives pruning with positive overlap (its neighbor
        // Peter Steele is a candidate of column 1); the city falls back out.
        let cell = &filtered.cells[0][0];
        assert!(!cell.fallback);
        assert_eq!(cell.entities.len(), 1);
        assert_eq!(cell.entities[0].entity, rust_album);
        assert!(cell.entities[0].overlap_score > 0);
        // Symmetric for Peter Steele.
        let cell1 = &filtered.cells[1][0];
        assert!(cell1
            .entities
            .iter()
            .any(|e| e.entity == steele && e.overlap_score > 0));
    }

    #[test]
    fn fallback_keeps_best_raw_candidate() {
        let mut b = KgBuilder::new();
        let city_ty = b.add_type("City", None);
        b.add_instance(Entity::new("Springfield", NeSchema::Place), city_ty);
        let g = b.build();
        // Single linkable column: no other column to overlap with.
        let table = Table::new(
            TableId(0),
            vec![],
            vec![vec![CellValue::parse("Springfield")]],
            vec![LabelId(0)],
        );
        let world = DiskWorld::from_graph(&g).unwrap();
        let linked = LinkedTable::link(&table, &world.backend, 10);
        let filtered = prune_and_filter(&table, &linked, &world.graph, 5, RowFilter::LinkScore);
        let cell = &filtered.cells[0][0];
        assert!(cell.fallback);
        assert_eq!(cell.entities.len(), 1);
        assert_eq!(cell.entities[0].overlap_score, 0);
        assert!(cell.linking_score() > 0.0);
    }

    #[test]
    fn top_k_keeps_best_rows() {
        let mut b = KgBuilder::new();
        let city_ty = b.add_type("City", None);
        let country_ty = b.add_type("Country", None);
        let norland = b.add_instance(Entity::new("Norland", NeSchema::Place), country_ty);
        let spring = b.add_instance(Entity::new("Springfield", NeSchema::Place), city_ty);
        let located = b.predicate("country");
        b.relate(spring, located, norland);
        let g = b.build();
        let table = Table::new(
            TableId(0),
            vec![],
            vec![
                vec![
                    CellValue::parse("Nowhere Qqq"),
                    CellValue::parse("Springfield"),
                ],
                vec![CellValue::parse("Zzz Yyy"), CellValue::parse("Norland")],
            ],
            vec![LabelId(0), LabelId(1)],
        );
        let world = DiskWorld::from_graph(&g).unwrap();
        let linked = LinkedTable::link(&table, &world.backend, 10);
        let filtered = prune_and_filter(&table, &linked, &world.graph, 1, RowFilter::LinkScore);
        assert_eq!(filtered.table.n_rows(), 1);
        // Row 1 (Springfield/Norland) links; row 0 does not — row 1 wins.
        assert_eq!(filtered.row_order, vec![1]);
        assert!(filtered.row_scores[0] > 0.0);
        // The filtered table's cells moved accordingly.
        assert_eq!(
            filtered.table.cell(0, 0),
            &CellValue::Text("Springfield".into())
        );
    }

    #[test]
    fn original_filter_preserves_order() {
        let (g, table, ..) = figure5();
        let world = DiskWorld::from_graph(&g).unwrap();
        let linked = LinkedTable::link(&table, &world.backend, 10);
        let filtered = prune_and_filter(&table, &linked, &world.graph, 1, RowFilter::Original);
        assert_eq!(filtered.row_order, vec![0]);
    }

    /// Step 2 runs on the shipped path: over disk worlds, most linked kept
    /// cells of the generated benchmarks' row-coherent tables hold an
    /// entity with a positive overlap score (Eq. 6).
    #[test]
    fn generated_tables_reach_positive_overlap_on_disk_worlds() {
        use crate::config::KgLinkConfig;
        use kglink_datagen::{semtab_like, viznet_like, SemTabConfig, VizNetConfig};
        use kglink_kg::{SyntheticWorld, WorldConfig};

        let cfg = KgLinkConfig::default();
        for seed in [77, 301, 523, 907] {
            let world = SyntheticWorld::generate(&WorldConfig::tiny(seed));
            let disk = DiskWorld::from_graph(&world.graph).unwrap();
            let semtab = semtab_like(&world, &SemTabConfig::tiny(seed)).dataset;
            let viznet = viznet_like(&world, &VizNetConfig::tiny(seed)).dataset;
            for (name, dataset) in [("SemTab-like", semtab), ("VizNet-like", viznet)] {
                let (mut linked, mut overlapping) = (0usize, 0usize);
                for table in &dataset.tables {
                    let links =
                        LinkedTable::link(table, &disk.backend, cfg.max_entities_per_mention);
                    let filtered = prune_and_filter(
                        table,
                        &links,
                        &disk.graph,
                        cfg.top_k_rows,
                        cfg.row_filter,
                    );
                    for cell in filtered.cells.iter().flatten() {
                        if !cell.entities.is_empty() {
                            linked += 1;
                            overlapping +=
                                usize::from(cell.entities.iter().any(|e| e.overlap_score > 0));
                        }
                    }
                }
                assert!(
                    linked > 0 && overlapping * 2 >= linked,
                    "{name} seed {seed}: {overlapping} of {linked} linked cells overlap"
                );
            }
        }
    }

    #[test]
    fn k_larger_than_rows_keeps_all() {
        let (g, table, ..) = figure5();
        let world = DiskWorld::from_graph(&g).unwrap();
        let linked = LinkedTable::link(&table, &world.backend, 10);
        let filtered = prune_and_filter(&table, &linked, &world.graph, 100, RowFilter::LinkScore);
        assert_eq!(filtered.table.n_rows(), table.n_rows());
    }
}
