//! Minimal CSV ingestion — the adoption path for annotating real tables.
//!
//! Hand-rolled (no external dependency): handles quoted fields with
//! embedded commas/newlines and doubled quotes, header detection, and
//! typed-cell parsing through [`CellValue::parse`].

use crate::cell::CellValue;
use crate::dataset::LabelId;
use crate::table::{Table, TableId};

/// CSV parse errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CsvError {
    /// A quoted field was never closed.
    UnterminatedQuote { line: usize },
    /// The input contained no rows.
    Empty,
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsvError::UnterminatedQuote { line } => {
                write!(f, "unterminated quoted field starting on line {line}")
            }
            CsvError::Empty => write!(f, "empty CSV input"),
        }
    }
}

impl std::error::Error for CsvError {}

/// Split CSV text into records of raw fields.
pub fn parse_records(text: &str) -> Result<Vec<Vec<String>>, CsvError> {
    let mut records = Vec::new();
    let mut record: Vec<String> = Vec::new();
    let mut field = String::new();
    let mut chars = text.chars().peekable();
    let mut in_quotes = false;
    let mut line = 1usize;
    let mut quote_start_line = 1usize;
    let mut any = false;
    while let Some(c) = chars.next() {
        any = true;
        if in_quotes {
            match c {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        field.push('"');
                    } else {
                        in_quotes = false;
                    }
                }
                '\n' => {
                    line += 1;
                    field.push('\n');
                }
                other => field.push(other),
            }
        } else {
            match c {
                '"' => {
                    in_quotes = true;
                    quote_start_line = line;
                }
                ',' => {
                    record.push(std::mem::take(&mut field));
                }
                '\r' => {}
                '\n' => {
                    line += 1;
                    record.push(std::mem::take(&mut field));
                    records.push(std::mem::take(&mut record));
                }
                other => field.push(other),
            }
        }
    }
    if in_quotes {
        return Err(CsvError::UnterminatedQuote {
            line: quote_start_line,
        });
    }
    if !field.is_empty() || !record.is_empty() {
        record.push(field);
        records.push(record);
    }
    // Drop fully-empty trailing records.
    records.retain(|r| !(r.len() == 1 && r[0].is_empty()));
    if !any || records.is_empty() {
        return Err(CsvError::Empty);
    }
    Ok(records)
}

/// How [`table_from_csv_with`] treats the first record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HeaderMode {
    /// Sniff with [`looks_like_header`].
    #[default]
    Auto,
    /// The first record is a header.
    Present,
    /// Every record is data.
    Absent,
}

/// Header sniffer, in the spirit of Python's `csv.Sniffer`: the first
/// record is a header when none of its fields parse as a number or date
/// and either (a) some column's body is mostly numeric under a text head,
/// or (b) no first-row field reappears in its own column's body.
///
/// Like every sniffer this is a heuristic — an all-text, headerless table
/// whose first row happens to be unique will be misjudged; pass
/// [`HeaderMode::Absent`] when you know better.
pub fn looks_like_header(records: &[Vec<String>]) -> bool {
    if records.len() < 2 {
        return false;
    }
    let first = &records[0];
    let n_cols = first.len();
    let mut numeric_signal = false;
    let mut any_head_reappears = false;
    for c in 0..n_cols {
        let head = first.get(c).map(String::as_str).unwrap_or("");
        if matches!(
            CellValue::parse(head),
            CellValue::Number(_) | CellValue::Date(_)
        ) {
            return false; // numeric heads are data
        }
        let body_numeric = records[1..]
            .iter()
            .filter(|r| {
                matches!(
                    CellValue::parse(r.get(c).map(String::as_str).unwrap_or("")),
                    CellValue::Number(_) | CellValue::Date(_)
                )
            })
            .count();
        if body_numeric * 2 > records.len() - 1 {
            numeric_signal = true;
        }
        if records[1..]
            .iter()
            .any(|r| r.get(c).map(String::as_str) == Some(head))
        {
            any_head_reappears = true;
        }
    }
    numeric_signal || !any_head_reappears
}

/// Parse CSV text into a [`Table`] with header auto-detection. Column
/// labels are initialized to `LabelId(0)` — the annotator fills them in.
/// Ragged rows are padded.
pub fn table_from_csv(id: TableId, text: &str) -> Result<Table, CsvError> {
    table_from_csv_with(id, text, HeaderMode::Auto)
}

/// Parse CSV text into a [`Table`] with explicit header handling.
pub fn table_from_csv_with(id: TableId, text: &str, mode: HeaderMode) -> Result<Table, CsvError> {
    let records = parse_records(text)?;
    let has_header = match mode {
        HeaderMode::Auto => looks_like_header(&records),
        HeaderMode::Present => true,
        HeaderMode::Absent => false,
    };
    let (headers, body) = if has_header {
        (records[0].clone(), &records[1..])
    } else {
        (Vec::new(), &records[..])
    };
    if body.is_empty() {
        return Err(CsvError::Empty);
    }
    let n_cols = body.iter().map(Vec::len).max().unwrap_or(0);
    let mut columns: Vec<Vec<CellValue>> = vec![Vec::with_capacity(body.len()); n_cols];
    for row in body {
        for (c, col) in columns.iter_mut().enumerate() {
            let raw = row.get(c).map(String::as_str).unwrap_or("");
            col.push(CellValue::parse(raw));
        }
    }
    let labels = vec![LabelId(0); n_cols];
    let headers = if has_header {
        let mut h = headers;
        h.resize(n_cols, String::new());
        h
    } else {
        Vec::new()
    };
    Ok(Table::new(id, headers, columns, labels))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_csv() {
        let t = table_from_csv(TableId(0), "name,team\nAlice,Hawks\nBob,Tigers\n").unwrap();
        assert_eq!(t.headers, vec!["name", "team"]);
        assert_eq!(t.n_rows(), 2);
        assert_eq!(t.cell(0, 0), &CellValue::Text("Alice".into()));
    }

    #[test]
    fn quoted_fields_with_commas_and_quotes() {
        let recs = parse_records("a,\"x, y\",\"he said \"\"hi\"\"\"\n1,2,3\n").unwrap();
        assert_eq!(recs[0], vec!["a", "x, y", "he said \"hi\""]);
        assert_eq!(recs[1], vec!["1", "2", "3"]);
    }

    #[test]
    fn quoted_newline_stays_in_field() {
        let recs = parse_records("\"line1\nline2\",b\n").unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0][0], "line1\nline2");
    }

    #[test]
    fn unterminated_quote_errors() {
        assert_eq!(
            parse_records("a,\"oops\nmore"),
            Err(CsvError::UnterminatedQuote { line: 1 })
        );
    }

    #[test]
    fn empty_input_errors() {
        assert_eq!(parse_records(""), Err(CsvError::Empty));
        assert!(table_from_csv(TableId(0), "\n\n").is_err());
    }

    #[test]
    fn header_detection() {
        let with = parse_records("height,age\n180,25\n190,30\n").unwrap();
        assert!(looks_like_header(&with));
        let without = parse_records("180,25\n190,30\n").unwrap();
        assert!(!looks_like_header(&without));
        // All-text table whose head values recur in the body: no header.
        let recurring = parse_records("Hawks,red\nTigers,blue\nHawks,red\n").unwrap();
        assert!(!looks_like_header(&recurring));
    }

    #[test]
    fn explicit_header_modes_override_sniffing() {
        let text = "Alice,Hawks\nBob,Tigers\n";
        let forced = table_from_csv_with(TableId(9), text, HeaderMode::Present).unwrap();
        assert_eq!(forced.headers, vec!["Alice", "Hawks"]);
        assert_eq!(forced.n_rows(), 1);
        let data = table_from_csv_with(TableId(9), text, HeaderMode::Absent).unwrap();
        assert!(data.headers.is_empty());
        assert_eq!(data.n_rows(), 2);
    }

    #[test]
    fn headerless_table_has_no_headers() {
        let t = table_from_csv(TableId(1), "1,2\n3,4\n").unwrap();
        assert!(t.headers.is_empty());
        assert_eq!(t.n_rows(), 2);
        assert!(t.is_numeric_column(0));
    }

    #[test]
    fn ragged_rows_are_padded() {
        let t = table_from_csv(TableId(2), "name,team\nAlice,Hawks\nBob\n").unwrap();
        assert_eq!(t.n_cols(), 2);
        assert_eq!(t.cell(1, 1), &CellValue::Empty);
    }

    #[test]
    fn crlf_line_endings() {
        let t = table_from_csv(TableId(3), "name,team\r\nAlice,Hawks\r\n").unwrap();
        assert_eq!(t.n_rows(), 1);
        assert_eq!(t.cell(0, 1), &CellValue::Text("Hawks".into()));
    }

    #[test]
    fn typed_cells_come_from_parse() {
        let t = table_from_csv(TableId(4), "city,population\nSpringfield,30000\n").unwrap();
        assert_eq!(t.cell(0, 1), &CellValue::Number(30000.0));
    }
}
