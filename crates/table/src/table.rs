//! Tables: headers, column-major cells, and per-column labels.

use crate::cell::CellValue;
use crate::dataset::LabelId;
use serde::{Deserialize, Serialize};

/// Identifier of a table inside a dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TableId(pub u32);

/// Reference to one column of one table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ColumnRef {
    pub table: TableId,
    pub column: usize,
}

/// A relational web table.
///
/// Cells are stored column-major (`columns[c][r]`), matching how every stage
/// of the pipeline traverses them. All columns have the same number of rows;
/// missing values are [`CellValue::Empty`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table {
    pub id: TableId,
    /// Optional header strings (may be empty — many VizNet tables have none).
    pub headers: Vec<String>,
    /// Column-major cells: `columns[c][r]`.
    pub columns: Vec<Vec<CellValue>>,
    /// Ground-truth semantic type per column.
    pub labels: Vec<LabelId>,
}

impl Table {
    /// Build a table from column-major data. Ragged columns are padded with
    /// [`CellValue::Empty`] to the longest column.
    ///
    /// # Panics
    /// Panics if `labels.len() != columns.len()`, or if `headers` is
    /// non-empty with a mismatched length.
    pub fn new(
        id: TableId,
        headers: Vec<String>,
        mut columns: Vec<Vec<CellValue>>,
        labels: Vec<LabelId>,
    ) -> Self {
        assert_eq!(columns.len(), labels.len(), "one label per column");
        assert!(
            headers.is_empty() || headers.len() == columns.len(),
            "headers must match column count when present"
        );
        let rows = columns.iter().map(Vec::len).max().unwrap_or(0);
        for col in &mut columns {
            col.resize(rows, CellValue::Empty);
        }
        Table {
            id,
            headers,
            columns,
            labels,
        }
    }

    /// Number of columns.
    #[inline]
    pub fn n_cols(&self) -> usize {
        self.columns.len()
    }

    /// Number of rows.
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.columns.first().map_or(0, Vec::len)
    }

    /// Cell at `(row, col)`.
    #[inline]
    pub fn cell(&self, row: usize, col: usize) -> &CellValue {
        &self.columns[col][row]
    }

    /// One column's cells.
    #[inline]
    pub fn column(&self, col: usize) -> &[CellValue] {
        &self.columns[col]
    }

    /// Whether a column is numeric per the paper's Table III definition:
    /// every non-empty cell is a number or date, and at least one such cell
    /// exists.
    pub fn is_numeric_column(&self, col: usize) -> bool {
        let mut any = false;
        for cell in &self.columns[col] {
            match cell {
                CellValue::Number(_) | CellValue::Date(_) => any = true,
                CellValue::Empty => {}
                CellValue::Text(_) => return false,
            }
        }
        any
    }

    /// Mean, variance and median of a column's numeric cells. Dates count
    /// via their leading year. Returns `None` if the column has no numeric
    /// content. KGLink injects these three statistics in place of candidate
    /// types for numeric columns (paper §III-A step 3).
    pub fn numeric_stats(&self, col: usize) -> Option<NumericStats> {
        let mut values: Vec<f64> = self.columns[col]
            .iter()
            .filter_map(|c| match c {
                CellValue::Number(n) => Some(*n),
                CellValue::Date(d) => d.get(..4).and_then(|y| y.parse::<f64>().ok()),
                _ => None,
            })
            .collect();
        if values.is_empty() {
            return None;
        }
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let variance = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
        values.sort_by(|a, b| a.total_cmp(b));
        let median = values[values.len() / 2];
        Some(NumericStats {
            mean,
            variance,
            median,
        })
    }

    /// Project onto a subset of rows (used by the row filter). Row indices
    /// may repeat and are taken in the given order.
    pub fn select_rows(&self, rows: &[usize]) -> Table {
        let columns = self
            .columns
            .iter()
            .map(|col| rows.iter().map(|&r| col[r].clone()).collect())
            .collect();
        Table {
            id: self.id,
            headers: self.headers.clone(),
            columns,
            labels: self.labels.clone(),
        }
    }

    /// Split into chunks of at most `max_cols` columns, preserving order.
    /// The paper: "we impose a maximum limit of 8 columns per table. If a
    /// table contains more than 8 columns, we divide it into multiple tables
    /// … and conduct the encoding and annotation process separately."
    pub fn split_columns(&self, max_cols: usize) -> Vec<Table> {
        assert!(max_cols > 0);
        if self.n_cols() <= max_cols {
            return vec![self.clone()];
        }
        let mut out = Vec::new();
        let mut start = 0;
        while start < self.n_cols() {
            let end = (start + max_cols).min(self.n_cols());
            out.push(Table {
                id: self.id,
                headers: if self.headers.is_empty() {
                    Vec::new()
                } else {
                    self.headers[start..end].to_vec()
                },
                columns: self.columns[start..end].to_vec(),
                labels: self.labels[start..end].to_vec(),
            });
            start = end;
        }
        out
    }
}

/// Summary statistics of a numeric column.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NumericStats {
    pub mean: f64,
    pub variance: f64,
    pub median: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cells(vals: &[&str]) -> Vec<CellValue> {
        vals.iter().map(|v| CellValue::parse(v)).collect()
    }

    fn sample() -> Table {
        Table::new(
            TableId(0),
            vec!["name".into(), "team".into(), "height".into()],
            vec![
                cells(&["Alice Smith", "Bob Jones"]),
                cells(&["Hawks", "Tigers"]),
                cells(&["180", "", "190"]),
            ],
            vec![LabelId(0), LabelId(1), LabelId(2)],
        )
    }

    #[test]
    fn ragged_columns_are_padded() {
        let t = sample();
        assert_eq!(t.n_rows(), 3);
        assert_eq!(t.cell(2, 0), &CellValue::Empty);
        assert_eq!(t.cell(2, 2), &CellValue::Number(190.0));
    }

    #[test]
    fn numeric_column_detection() {
        let t = sample();
        assert!(!t.is_numeric_column(0));
        assert!(
            t.is_numeric_column(2),
            "empty cells do not break numeric-ness"
        );
        let all_empty = Table::new(TableId(1), vec![], vec![cells(&["", ""])], vec![LabelId(0)]);
        assert!(
            !all_empty.is_numeric_column(0),
            "all-empty column is not numeric"
        );
    }

    #[test]
    fn numeric_stats_mean_variance_median() {
        let t = Table::new(
            TableId(2),
            vec![],
            vec![cells(&["1", "2", "3", "4"])],
            vec![LabelId(0)],
        );
        let s = t.numeric_stats(0).unwrap();
        assert_eq!(s.mean, 2.5);
        assert_eq!(s.variance, 1.25);
        assert_eq!(s.median, 3.0);
        assert!(sample().numeric_stats(0).is_none());
    }

    #[test]
    fn dates_contribute_years_to_stats() {
        let t = Table::new(
            TableId(3),
            vec![],
            vec![cells(&["1990-04-01", "2000"])],
            vec![LabelId(0)],
        );
        let s = t.numeric_stats(0).unwrap();
        assert_eq!(s.mean, 1995.0);
    }

    #[test]
    fn select_rows_projects_in_order() {
        let t = sample();
        let sel = t.select_rows(&[1, 0]);
        assert_eq!(sel.n_rows(), 2);
        assert_eq!(sel.cell(0, 0), &CellValue::Text("Bob Jones".into()));
        assert_eq!(sel.cell(1, 0), &CellValue::Text("Alice Smith".into()));
        assert_eq!(sel.labels, t.labels);
    }

    #[test]
    fn split_columns_chunks_wide_tables() {
        let cols: Vec<Vec<CellValue>> = (0..10).map(|i| cells(&[&i.to_string()])).collect();
        let labels = (0..10).map(LabelId).collect();
        let t = Table::new(TableId(4), vec![], cols, labels);
        let parts = t.split_columns(8);
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].n_cols(), 8);
        assert_eq!(parts[1].n_cols(), 2);
        assert_eq!(parts[1].labels, vec![LabelId(8), LabelId(9)]);
        // Narrow table returned unchanged.
        assert_eq!(sample().split_columns(8).len(), 1);
    }

    #[test]
    #[should_panic(expected = "one label per column")]
    fn mismatched_labels_panic() {
        Table::new(TableId(0), vec![], vec![cells(&["a"])], vec![]);
    }
}
