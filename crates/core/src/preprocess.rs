//! Part 1 orchestration: linking → filtering → candidate types → features.
//!
//! Retrieval runs through the fallible [`KgBackend`] trait. Columns whose
//! retrieval failed are *degraded*: every candidate is dropped and the
//! column takes the same no-linkage path as a column the KG simply knows
//! nothing about (paper Table IV) — `[MASK]`-only serialization, numeric
//! statistics when applicable, no candidate types, no feature vector.

use crate::candidates::{candidate_types, CandidateType};
use crate::config::KgLinkConfig;
use crate::error::KgLinkError;
use crate::feature::feature_sequences;
use crate::filter::prune_and_filter;
use crate::linking::LinkedTable;
use kglink_kg::GraphAccess;
use kglink_obs::Tracer;
use kglink_search::{Deadline, KgBackend};
use kglink_table::table::NumericStats;
use kglink_table::{LabelId, Table};

/// The fully preprocessed form of one (column-chunk of a) table, ready for
/// Part 2 serialization.
#[derive(Debug, Clone)]
pub struct ProcessedTable {
    /// Row-filtered table (top-k rows in filter order, ≤ max_columns cols).
    pub table: Table,
    /// Per column: candidate type labels, best first (empty when the KG
    /// yielded nothing — the serializer emits padding instead).
    pub candidate_type_names: Vec<Vec<String>>,
    /// Per column: scored candidate type entities (for analysis).
    pub candidate_type_entities: Vec<Vec<CandidateType>>,
    /// Per column: numeric statistics when the column is numeric (these
    /// replace candidate types in the serialization, per the paper).
    pub numeric_stats: Vec<Option<NumericStats>>,
    /// Per column: feature sequence `S(e)`, or `None` (padding).
    pub feature_seqs: Vec<Option<String>>,
    /// Per column: whether any cell linked to the KG.
    pub has_linkage: Vec<bool>,
    /// Per column: true when KG retrieval failed for at least one cell and
    /// the whole column was degraded to the no-linkage path.
    pub degraded: Vec<bool>,
    /// Cells of this chunk whose retrieval was attempted but failed.
    pub failed_cells: usize,
    /// Ground-truth labels (copied from the table for convenience).
    pub labels: Vec<LabelId>,
}

impl ProcessedTable {
    /// Whether column `c` is numeric (Table III definition).
    pub fn is_numeric_column(&self, c: usize) -> bool {
        self.numeric_stats[c].is_some() && self.table.is_numeric_column(c)
    }

    /// Number of degraded columns in this chunk.
    pub fn degraded_columns(&self) -> usize {
        self.degraded.iter().filter(|&&d| d).count()
    }
}

/// Runs Part 1 for tables against a fixed KG + retrieval backend.
pub struct Preprocessor<'a> {
    pub graph: &'a (dyn GraphAccess + 'a),
    pub backend: &'a (dyn KgBackend + 'a),
    pub config: KgLinkConfig,
    /// Observability sink for the `retrieval` / `filter` / `feature` stage
    /// spans and `degrade.column` events; disabled by default.
    pub tracer: Tracer,
}

impl<'a> Preprocessor<'a> {
    pub fn new(
        graph: &'a (dyn GraphAccess + 'a),
        backend: &'a (dyn KgBackend + 'a),
        config: KgLinkConfig,
    ) -> Self {
        Preprocessor {
            graph,
            backend,
            config,
            tracer: Tracer::disabled(),
        }
    }

    /// Attach a tracer to every table this preprocessor handles.
    pub fn with_tracer(mut self, tracer: &Tracer) -> Self {
        self.tracer = tracer.clone();
        self
    }

    /// Process one table. Tables wider than `max_columns` are split into
    /// chunks (the paper: ">8 columns … divide it into multiple tables"),
    /// each processed independently.
    ///
    /// Degenerate inputs (zero-column tables) are *skipped* — the result is
    /// empty rather than a panic. Use [`try_process`](Self::try_process) to
    /// observe the error.
    pub fn process(&self, table: &Table) -> Vec<ProcessedTable> {
        self.try_process(table).unwrap_or_default()
    }

    /// [`process`](Self::process) with typed errors: a zero-column table is
    /// [`KgLinkError::DegenerateTable`], a zero `max_columns` configuration
    /// is [`KgLinkError::InvalidConfig`].
    pub fn try_process(&self, table: &Table) -> Result<Vec<ProcessedTable>, KgLinkError> {
        if self.config.max_columns == 0 {
            return Err(KgLinkError::invalid_config("max_columns must be positive"));
        }
        if table.n_cols() == 0 {
            return Err(KgLinkError::degenerate(table.id, "table has no columns"));
        }
        Ok(table
            .split_columns(self.config.max_columns)
            .into_iter()
            .map(|chunk| {
                preprocess_table_traced(
                    &chunk,
                    self.graph,
                    self.backend,
                    &self.config,
                    &self.tracer,
                )
            })
            .collect())
    }
}

/// Run Part 1 on a single (≤ max_columns) table.
///
/// Retrieval failures never propagate from here: a column with any failed
/// cell is degraded to the no-linkage path and reported through
/// [`ProcessedTable::degraded`] / [`ProcessedTable::failed_cells`].
pub fn preprocess_table(
    table: &Table,
    graph: &dyn GraphAccess,
    backend: &dyn KgBackend,
    config: &KgLinkConfig,
) -> ProcessedTable {
    preprocess_table_traced(table, graph, backend, config, &Tracer::disabled())
}

/// [`preprocess_table`] with stage spans: `retrieval` covers linking and
/// degradation, `filter` the row filter, `feature` candidate types, feature
/// sequences, and assembly. Every degraded column emits a `degrade.column`
/// event while the `retrieval` span is open, so event order is causal.
pub fn preprocess_table_traced(
    table: &Table,
    graph: &dyn GraphAccess,
    backend: &dyn KgBackend,
    config: &KgLinkConfig,
    tracer: &Tracer,
) -> ProcessedTable {
    let deadline = Deadline::from_us(config.retrieval_deadline_us);
    let (linked, failed_cells, degraded) = {
        let _retrieval = tracer.span("retrieval");
        let mut linked = LinkedTable::link_with_deadline(
            table,
            backend,
            config.max_entities_per_mention,
            deadline,
        );
        let failed_cells = linked.failed_cells();
        let degraded: Vec<bool> = (0..table.n_cols())
            .map(|c| linked.column_failed(c))
            .collect();
        for (c, &was_degraded) in degraded.iter().enumerate() {
            if was_degraded {
                // Full-column degradation: a partially linked column would make
                // results depend on *which* cells happened to fail; clearing all
                // candidates reproduces the deterministic no-linkage path.
                linked.degrade_column(c);
                tracer.event_with(
                    "degrade.column",
                    vec![("table", table.id.0.to_string()), ("column", c.to_string())],
                );
            }
        }
        (linked, failed_cells, degraded)
    };
    let filtered = {
        let _filter = tracer.span("filter");
        prune_and_filter(table, &linked, graph, config.top_k_rows, config.row_filter)
    };
    let _feature = tracer.span("feature");
    let cts = candidate_types(&filtered, graph, config.max_candidate_types);
    let feats = feature_sequences(&filtered, graph);
    let n_cols = filtered.table.n_cols();
    let numeric_stats: Vec<Option<NumericStats>> = (0..n_cols)
        .map(|c| {
            if filtered.table.is_numeric_column(c) {
                filtered.table.numeric_stats(c)
            } else {
                None
            }
        })
        .collect();
    let has_linkage: Vec<bool> = (0..n_cols)
        .map(|c| {
            filtered.cells[c]
                .iter()
                .any(|cell| !cell.entities.is_empty())
        })
        .collect();
    let candidate_type_names: Vec<Vec<String>> = cts
        .iter()
        .map(|col| col.iter().map(|ct| graph.label(ct.entity)).collect())
        .collect();
    let labels = filtered.table.labels.clone();
    ProcessedTable {
        table: filtered.table,
        candidate_type_names,
        candidate_type_entities: cts,
        numeric_stats,
        feature_seqs: feats,
        has_linkage,
        degraded,
        failed_cells,
        labels,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kglink_datagen::{semtab_like, SemTabConfig};
    use kglink_kg::{SyntheticWorld, WorldConfig};
    use kglink_search::{FaultConfig, FaultyBackend};
    use kglink_store::DiskWorld;
    use kglink_table::{CellValue, TableId};

    #[test]
    fn preprocess_semtab_like_tables_end_to_end() {
        let world = SyntheticWorld::generate(&WorldConfig::tiny(21));
        let bench = semtab_like(&world, &SemTabConfig::tiny(21));
        let disk = DiskWorld::from_graph(&world.graph).unwrap();
        let pre = Preprocessor::new(&disk.graph, &disk.backend, KgLinkConfig::fast_test());
        let mut with_ct = 0usize;
        let mut with_fv = 0usize;
        let mut total = 0usize;
        for table in bench.dataset.tables.iter().take(10) {
            for pt in pre.process(table) {
                assert!(pt.table.n_rows() <= pre.config.top_k_rows);
                assert_eq!(pt.candidate_type_names.len(), pt.table.n_cols());
                assert_eq!(pt.feature_seqs.len(), pt.table.n_cols());
                assert_eq!(pt.degraded.len(), pt.table.n_cols());
                assert_eq!(pt.failed_cells, 0, "healthy backend never fails");
                for c in 0..pt.table.n_cols() {
                    total += 1;
                    if !pt.candidate_type_names[c].is_empty() {
                        with_ct += 1;
                    }
                    if pt.feature_seqs[c].is_some() {
                        with_fv += 1;
                    }
                    assert!(pt.candidate_type_names[c].len() <= pre.config.max_candidate_types);
                    // SemTab-like has no numeric columns.
                    assert!(pt.numeric_stats[c].is_none());
                    assert!(!pt.degraded[c]);
                }
            }
        }
        assert!(total > 0);
        // SemTab-like is KG-derived: most columns have KG information.
        assert!(
            with_fv * 10 >= total * 9,
            "feature vectors should cover nearly all columns: {with_fv}/{total}"
        );
        assert!(
            with_ct * 2 >= total,
            "candidate types should cover most columns: {with_ct}/{total}"
        );
    }

    #[test]
    fn wide_tables_are_split() {
        let world = SyntheticWorld::generate(&WorldConfig::tiny(22));
        let disk = DiskWorld::from_graph(&world.graph).unwrap();
        let mut cfg = KgLinkConfig::fast_test();
        cfg.max_columns = 2;
        let pre = Preprocessor::new(&disk.graph, &disk.backend, cfg);
        // Build the wide table directly instead of hoping the generator
        // produced one (a degenerate dataset used to panic here).
        let wide = Table::new(
            TableId(900),
            vec![],
            (0..5)
                .map(|c| vec![CellValue::parse(&format!("cell {c}"))])
                .collect(),
            (0..5u32).map(LabelId).collect(),
        );
        let parts = pre.process(&wide);
        assert!(parts.len() >= 2);
        let total_cols: usize = parts.iter().map(|p| p.table.n_cols()).sum();
        assert_eq!(total_cols, wide.n_cols());
    }

    #[test]
    fn zero_column_table_is_a_typed_error_not_a_panic() {
        let world = SyntheticWorld::generate(&WorldConfig::tiny(23));
        let disk = DiskWorld::from_graph(&world.graph).unwrap();
        let pre = Preprocessor::new(&disk.graph, &disk.backend, KgLinkConfig::fast_test());
        let empty = Table::new(TableId(901), vec![], vec![], vec![]);
        match pre.try_process(&empty) {
            Err(KgLinkError::DegenerateTable { table, .. }) => assert_eq!(table, TableId(901)),
            other => panic!("expected DegenerateTable, got {other:?}"),
        }
        // The infallible path skips instead of panicking.
        assert!(pre.process(&empty).is_empty());
    }

    #[test]
    fn zero_max_columns_is_an_invalid_config_error() {
        let world = SyntheticWorld::generate(&WorldConfig::tiny(24));
        let disk = DiskWorld::from_graph(&world.graph).unwrap();
        let mut cfg = KgLinkConfig::fast_test();
        cfg.max_columns = 0;
        let pre = Preprocessor::new(&disk.graph, &disk.backend, cfg);
        let bench = semtab_like(&world, &SemTabConfig::tiny(24));
        let table = &bench.dataset.tables[0];
        assert!(matches!(
            pre.try_process(table),
            Err(KgLinkError::InvalidConfig { .. })
        ));
        assert!(pre.process(table).is_empty());
    }

    #[test]
    fn full_outage_degrades_every_linkable_column() {
        let world = SyntheticWorld::generate(&WorldConfig::tiny(25));
        let bench = semtab_like(&world, &SemTabConfig::tiny(25));
        let disk = DiskWorld::from_graph(&world.graph).unwrap();
        let dead = FaultyBackend::new(&disk.backend, FaultConfig::with_fault_rate(7, 1.0));
        let pre = Preprocessor::new(&disk.graph, &dead, KgLinkConfig::fast_test());
        let healthy_pre = Preprocessor::new(&disk.graph, &disk.backend, KgLinkConfig::fast_test());
        let mut degraded_cols = 0usize;
        let mut failed = 0usize;
        for table in bench.dataset.tables.iter().take(5) {
            for pt in pre.process(table) {
                degraded_cols += pt.degraded_columns();
                failed += pt.failed_cells;
                for c in 0..pt.table.n_cols() {
                    // Degraded columns carry zero KG information — exactly
                    // the no-linkage serialization path.
                    if pt.degraded[c] {
                        assert!(!pt.has_linkage[c]);
                        assert!(pt.candidate_type_names[c].is_empty());
                        assert!(pt.feature_seqs[c].is_none());
                    }
                }
            }
            // Every column the healthy run links must be degraded here.
            for (pt_dead, pt_ok) in pre.process(table).iter().zip(healthy_pre.process(table)) {
                for c in 0..pt_ok.table.n_cols() {
                    if pt_ok.has_linkage[c] {
                        assert!(pt_dead.degraded[c]);
                    }
                }
            }
        }
        assert!(
            degraded_cols > 0,
            "SemTab-like tables have linkable columns"
        );
        assert!(failed > 0);
    }
}
