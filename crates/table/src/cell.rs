//! Typed table cells and the named-entity-schema mention detector.

use serde::{Deserialize, Serialize};

/// A table cell value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CellValue {
    /// Free text — the only kind that gets linked to the KG.
    Text(String),
    /// A numeric value (integers and floats both normalize here).
    Number(f64),
    /// A date kept in `YYYY-MM-DD` (or `YYYY`) surface form.
    Date(String),
    /// Missing value.
    Empty,
}

/// What the named-entity schema says about a cell mention.
///
/// KGLink uses spaCy to decide whether a mention "represents a number or a
/// date… unsuitable for linking to the KG. In such cases, we set the linking
/// score of that cell to 0" (paper §IV). This enum is the rule-based
/// equivalent of that decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MentionKind {
    /// Linkable free-text mention.
    Entity,
    /// Numeric — linking score 0.
    Numeric,
    /// Date — linking score 0.
    Date,
    /// Empty — nothing to link.
    Empty,
}

impl CellValue {
    /// Parse a raw string into a typed cell: numbers and dates are detected,
    /// everything else stays text. Empty/whitespace becomes [`CellValue::Empty`].
    pub fn parse(raw: &str) -> CellValue {
        let s = raw.trim();
        if s.is_empty() {
            return CellValue::Empty;
        }
        if let Some(d) = detect_date(s) {
            return CellValue::Date(d);
        }
        if let Some(n) = detect_number(s) {
            return CellValue::Number(n);
        }
        CellValue::Text(s.to_string())
    }

    /// The named-entity-schema category of this cell.
    pub fn mention_kind(&self) -> MentionKind {
        match self {
            CellValue::Text(_) => MentionKind::Entity,
            CellValue::Number(_) => MentionKind::Numeric,
            CellValue::Date(_) => MentionKind::Date,
            CellValue::Empty => MentionKind::Empty,
        }
    }

    /// Whether this cell may be linked to the knowledge graph.
    #[inline]
    pub fn is_linkable(&self) -> bool {
        self.mention_kind() == MentionKind::Entity
    }

    /// Surface form used when serializing the table for the language model.
    pub fn surface(&self) -> String {
        match self {
            CellValue::Text(s) => s.clone(),
            CellValue::Number(n) => format_number(*n),
            CellValue::Date(d) => d.clone(),
            CellValue::Empty => String::new(),
        }
    }

    /// Numeric value, if this is a number.
    pub fn as_number(&self) -> Option<f64> {
        match self {
            CellValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// Text content, if this is text.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            CellValue::Text(s) => Some(s),
            _ => None,
        }
    }
}

/// Render a float without a trailing `.0` for integral values.
fn format_number(n: f64) -> String {
    if n.fract() == 0.0 && n.abs() < 1e15 {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

/// Detect a numeric mention: optional sign, digits with optional thousands
/// separators and decimal part, optionally a leading currency symbol or a
/// trailing percent sign.
fn detect_number(s: &str) -> Option<f64> {
    let mut t = s;
    if let Some(stripped) = t.strip_prefix(['$', '€', '£']) {
        t = stripped.trim_start();
    }
    if let Some(stripped) = t.strip_suffix('%') {
        t = stripped.trim_end();
    }
    let cleaned: String = t.chars().filter(|&c| c != ',').collect();
    if cleaned.is_empty() {
        return None;
    }
    let body = cleaned.strip_prefix(['-', '+']).unwrap_or(&cleaned);
    if !body.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        return None;
    }
    if !body.chars().all(|c| c.is_ascii_digit() || c == '.') {
        return None;
    }
    cleaned.parse::<f64>().ok()
}

/// Detect a date mention. Recognizes `YYYY-MM-DD`, `DD/MM/YYYY`,
/// `Month DD, YYYY` (English month names), and bare 4-digit years in the
/// plausible range 1000–2399. Returns a normalized surface form.
fn detect_date(s: &str) -> Option<String> {
    // ISO: 1990-04-01
    let parts: Vec<&str> = s.split('-').collect();
    if parts.len() == 3
        && parts[0].len() == 4
        && parts
            .iter()
            .all(|p| !p.is_empty() && p.chars().all(|c| c.is_ascii_digit()))
    {
        return Some(s.to_string());
    }
    // Slashed: 01/04/1990
    let parts: Vec<&str> = s.split('/').collect();
    if parts.len() == 3
        && parts
            .iter()
            .all(|p| !p.is_empty() && p.chars().all(|c| c.is_ascii_digit()))
    {
        let (d, m, y) = (parts[0], parts[1], parts[2]);
        if y.len() == 4 {
            return Some(format!("{y}-{m:0>2}-{d:0>2}"));
        }
    }
    // "April 1, 1990" / "Apr 1 1990"
    const MONTHS: [&str; 12] = [
        "january",
        "february",
        "march",
        "april",
        "may",
        "june",
        "july",
        "august",
        "september",
        "october",
        "november",
        "december",
    ];
    let words: Vec<&str> = s.split([' ', ',']).filter(|w| !w.is_empty()).collect();
    if words.len() == 3 {
        let month = words[0].to_lowercase();
        if let Some(mi) = MONTHS
            .iter()
            .position(|m| m.starts_with(&month) && month.len() >= 3)
        {
            let day_ok = words[1].chars().all(|c| c.is_ascii_digit());
            let year_ok = words[2].len() == 4 && words[2].chars().all(|c| c.is_ascii_digit());
            if day_ok && year_ok {
                return Some(format!("{}-{:0>2}-{:0>2}", words[2], mi + 1, words[1]));
            }
        }
    }
    // Bare year.
    if s.len() == 4 && s.chars().all(|c| c.is_ascii_digit()) {
        let year: u32 = s.parse().ok()?;
        if (1000..2400).contains(&year) {
            return Some(s.to_string());
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_plain_text() {
        assert_eq!(
            CellValue::parse("Peter Steele"),
            CellValue::Text("Peter Steele".into())
        );
        assert_eq!(
            CellValue::parse("  trimmed  "),
            CellValue::Text("trimmed".into())
        );
    }

    #[test]
    fn parses_numbers() {
        assert_eq!(CellValue::parse("42"), CellValue::Number(42.0));
        assert_eq!(CellValue::parse("-3.5"), CellValue::Number(-3.5));
        assert_eq!(
            CellValue::parse("1,234,567"),
            CellValue::Number(1_234_567.0)
        );
        assert_eq!(CellValue::parse("$99.95"), CellValue::Number(99.95));
        assert_eq!(CellValue::parse("85%"), CellValue::Number(85.0));
    }

    #[test]
    fn parses_dates() {
        assert_eq!(
            CellValue::parse("1990-04-01"),
            CellValue::Date("1990-04-01".into())
        );
        assert_eq!(
            CellValue::parse("01/04/1990"),
            CellValue::Date("1990-04-01".into())
        );
        assert_eq!(
            CellValue::parse("April 1, 1990"),
            CellValue::Date("1990-04-01".into())
        );
        // Bare plausible year is a date (the paper treats Year columns as numeric/date-like).
        assert_eq!(CellValue::parse("1990"), CellValue::Date("1990".into()));
        // Implausible "year" is a number.
        assert_eq!(CellValue::parse("9999"), CellValue::Number(9999.0));
    }

    #[test]
    fn empty_cells() {
        assert_eq!(CellValue::parse(""), CellValue::Empty);
        assert_eq!(CellValue::parse("   "), CellValue::Empty);
        assert_eq!(CellValue::Empty.mention_kind(), MentionKind::Empty);
    }

    #[test]
    fn mention_kinds_gate_linkability() {
        assert!(CellValue::parse("Springfield").is_linkable());
        assert!(!CellValue::parse("42").is_linkable());
        assert!(!CellValue::parse("1990-04-01").is_linkable());
        assert!(!CellValue::Empty.is_linkable());
    }

    #[test]
    fn text_with_digits_is_still_text() {
        assert_eq!(CellValue::parse("BRC1"), CellValue::Text("BRC1".into()));
        assert_eq!(
            CellValue::parse("Area 51 Base"),
            CellValue::Text("Area 51 Base".into())
        );
    }

    #[test]
    fn surface_round_trips() {
        assert_eq!(CellValue::Number(42.0).surface(), "42");
        assert_eq!(CellValue::Number(3.25).surface(), "3.25");
        assert_eq!(CellValue::Text("x".into()).surface(), "x");
        assert_eq!(CellValue::Empty.surface(), "");
    }

    #[test]
    fn accessors() {
        assert_eq!(CellValue::Number(5.0).as_number(), Some(5.0));
        assert_eq!(CellValue::Text("t".into()).as_number(), None);
        assert_eq!(CellValue::Text("t".into()).as_text(), Some("t"));
    }

    #[test]
    fn signs_and_malformed_numbers() {
        assert_eq!(CellValue::parse("+7"), CellValue::Number(7.0));
        // Not numbers:
        assert!(matches!(CellValue::parse("3rd"), CellValue::Text(_)));
        assert!(matches!(CellValue::parse("1.2.3"), CellValue::Text(_)));
        assert!(matches!(CellValue::parse("-"), CellValue::Text(_)));
    }
}
