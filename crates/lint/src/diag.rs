//! Findings and report formatting (human `file:line` lines + JSONL).

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Stable rule id, e.g. `lock-order`.
    pub rule: &'static str,
    /// Repo-relative path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    pub message: String,
}

impl Finding {
    pub fn new(rule: &'static str, path: &str, line: u32, message: impl Into<String>) -> Self {
        Finding {
            rule,
            path: path.to_string(),
            line,
            message: message.into(),
        }
    }

    /// Human-readable one-liner: `path:line: [rule] message`.
    pub fn render(&self) -> String {
        format!(
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }

    /// One JSON object (a JSONL record) — hand-rolled, std-only.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"rule\":{},\"path\":{},\"line\":{},\"message\":{}}}",
            json_str(self.rule),
            json_str(&self.path),
            self.line,
            json_str(&self.message)
        )
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Outcome of a lint run.
#[derive(Debug, Default)]
pub struct Report {
    /// Unsuppressed findings, sorted by (path, line, rule).
    pub findings: Vec<Finding>,
    /// Findings silenced by a justified `allow(...)` comment.
    pub suppressed: usize,
    pub files_scanned: usize,
    /// Suppression audit: per-rule counts of silenced findings, sorted by
    /// rule id. Deterministic, so it is safe to persist in `lint.jsonl`.
    pub suppressed_by_rule: Vec<(String, usize)>,
}

impl Report {
    pub fn sort(&mut self) {
        self.findings
            .sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    }

    pub fn summary(&self) -> String {
        format!(
            "{} finding(s), {} suppressed, {} file(s) scanned",
            self.findings.len(),
            self.suppressed,
            self.files_scanned
        )
    }

    /// One-line JSON record summarising the suppression audit, suitable for
    /// appending to `lint.jsonl`. Fully deterministic.
    pub fn audit_json(&self) -> String {
        let by_rule: Vec<String> = self
            .suppressed_by_rule
            .iter()
            .map(|(rule, n)| format!("{}:{n}", json_str(rule)))
            .collect();
        format!(
            "{{\"record\":\"suppression-audit\",\"suppressed\":{},\"by_rule\":{{{}}}}}",
            self.suppressed,
            by_rule.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping() {
        let f = Finding::new("r", "a/b.rs", 3, "say \"hi\"\n\\tab\u{1}");
        let j = f.to_json();
        assert!(j.contains("\\\"hi\\\""));
        assert!(j.contains("\\n"));
        assert!(j.contains("\\\\tab"));
        assert!(j.contains("\\u0001"));
        assert!(j.starts_with('{') && j.ends_with('}'));
    }
}
