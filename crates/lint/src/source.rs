//! Per-file lint context: scope classification, `#[cfg(test)]` regions,
//! and `// kglink-lint: allow(...)` suppression comments.

use crate::lexer::{lex, Tok, TokKind};

/// Where a file sits in the workspace, decided from its path. Rules declare
/// which scopes they apply to; e.g. `hot-path-alloc` skips [`Scope::Test`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// Library code under a crate's `src/` (or the root `src/`).
    Lib,
    /// Binary entry points (`src/main.rs`, `src/bin/*`) and the experiment
    /// harness crate (`crates/bench/`): product code, but panics abort a
    /// process the operator owns, not a caller's.
    Bin,
    /// Integration tests (`tests/` directories).
    Test,
    /// `benches/` directories.
    Bench,
    /// `examples/` directories.
    Example,
}

/// Classify a repo-relative path (forward slashes).
pub fn classify_path(path: &str) -> Scope {
    let has = |seg: &str| path.split('/').any(|c| c == seg);
    if has("tests") {
        return Scope::Test;
    }
    if has("benches") {
        return Scope::Bench;
    }
    if has("examples") {
        return Scope::Example;
    }
    // The bench crate is the experiment harness: binaries plus the shared
    // harness lib they link. It measures wall-clock time and unwraps on
    // setup failure by design.
    if path.starts_with("crates/bench/") {
        return Scope::Bin;
    }
    if has("bin") || path.ends_with("/main.rs") || path == "src/main.rs" {
        return Scope::Bin;
    }
    Scope::Lib
}

/// One `// kglink-lint: allow(rule-a, rule-b) — justification` comment.
#[derive(Debug, Clone)]
pub struct Suppression {
    /// Rule ids listed inside `allow(...)`.
    pub rules: Vec<String>,
    /// 1-based line the suppression *applies to*: the first line at or after
    /// the comment that carries a code token (so a comment directly above a
    /// statement, or trailing on the same line, both work).
    pub target_line: u32,
    /// 1-based line of the comment itself (for diagnostics).
    pub comment_line: u32,
    /// Free text after the closing `)` — the required justification.
    pub justification: String,
    /// Set by the engine when a finding is actually suppressed.
    pub used: std::cell::Cell<bool>,
}

/// A lexed source file plus everything rules need to scope their checks.
pub struct SourceFile {
    /// Repo-relative path with forward slashes.
    pub path: String,
    pub text: String,
    pub scope: Scope,
    /// Full token tiling of `text`.
    pub tokens: Vec<Tok>,
    /// Indices into `tokens` of non-trivia tokens, in order.
    pub code: Vec<usize>,
    /// Byte ranges of `#[cfg(test)]`-gated items (inline test modules).
    test_regions: Vec<(usize, usize)>,
    pub suppressions: Vec<Suppression>,
}

impl SourceFile {
    pub fn new(path: String, text: String) -> Self {
        let scope = classify_path(&path);
        let tokens = lex(&text);
        let code: Vec<usize> = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| !t.is_trivia())
            .map(|(i, _)| i)
            .collect();
        let mut f = SourceFile {
            path,
            text,
            scope,
            tokens,
            code,
            test_regions: Vec::new(),
            suppressions: Vec::new(),
        };
        f.test_regions = find_cfg_test_regions(&f);
        f.suppressions = find_suppressions(&f);
        f
    }

    /// Text of the `i`-th *code* token (0-based index into `self.code`).
    pub fn code_text(&self, i: usize) -> &str {
        self.code
            .get(i)
            .and_then(|&ti| self.tokens.get(ti))
            .map(|t| t.text(&self.text))
            .unwrap_or("")
    }

    /// The `i`-th code token itself.
    pub fn code_tok(&self, i: usize) -> Option<&Tok> {
        self.code.get(i).and_then(|&ti| self.tokens.get(ti))
    }

    pub fn code_kind(&self, i: usize) -> Option<TokKind> {
        self.code_tok(i).map(|t| t.kind)
    }

    pub fn code_line(&self, i: usize) -> u32 {
        self.code_tok(i).map(|t| t.line).unwrap_or(0)
    }

    /// True if the byte offset falls inside a `#[cfg(test)]` item.
    pub fn in_test_region(&self, byte: usize) -> bool {
        self.test_regions
            .iter()
            .any(|&(s, e)| byte >= s && byte < e)
    }

    /// True if the `i`-th code token is in test code (inline `#[cfg(test)]`
    /// module) — path-level scoping is separate, via [`SourceFile::scope`].
    pub fn code_in_test(&self, i: usize) -> bool {
        self.code_tok(i)
            .map(|t| self.in_test_region(t.start))
            .unwrap_or(false)
    }
}

/// Scan for `#` `[` `cfg` `(` … `test` … `)` `]` attributes and record the
/// byte range of the item they gate (through the matching close brace, or
/// the terminating semicolon for `mod tests;` forms).
fn find_cfg_test_regions(f: &SourceFile) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let n = f.code.len();
    let mut i = 0usize;
    while i < n {
        if f.code_text(i) == "#" && f.code_text(i + 1) == "[" && f.code_text(i + 2) == "cfg" {
            // Find the attribute's closing `]` and check `test` appears as an
            // identifier inside (covers cfg(test) and cfg(all(test, ...))).
            let mut j = i + 3;
            let mut depth = 0i32;
            let mut saw_test = false;
            let mut attr_end = None;
            while j < n {
                match f.code_text(j) {
                    "[" | "(" => depth += 1,
                    "]" if depth == 0 => {
                        attr_end = Some(j);
                        break;
                    }
                    ")" | "]" => depth -= 1,
                    "test" if f.code_kind(j) == Some(TokKind::Ident) => saw_test = true,
                    _ => {}
                }
                j += 1;
            }
            let Some(attr_end) = attr_end else { break };
            if saw_test {
                if let Some(region) = item_extent(f, attr_end + 1) {
                    let start = f.code_tok(i).map(|t| t.start).unwrap_or(0);
                    regions.push((start, region));
                }
            }
            i = attr_end + 1;
        } else {
            i += 1;
        }
    }
    regions
}

/// Byte offset one past the end of the item starting at code index `from`:
/// skips further attributes, then runs to the matching `}` of the first
/// brace block, or the first `;` before any brace opens.
fn item_extent(f: &SourceFile, mut from: usize) -> Option<usize> {
    let n = f.code.len();
    // Skip stacked attributes (`#[cfg(test)] #[allow(...)] mod t { ... }`).
    while from < n && f.code_text(from) == "#" && f.code_text(from + 1) == "[" {
        let mut depth = 0i32;
        let mut j = from + 2;
        while j < n {
            match f.code_text(j) {
                "[" | "(" => depth += 1,
                "]" if depth == 0 => break,
                "]" | ")" => depth -= 1,
                _ => {}
            }
            j += 1;
        }
        from = j + 1;
    }
    let mut depth = 0i32;
    let mut j = from;
    while j < n {
        match f.code_text(j) {
            ";" if depth == 0 => return f.code_tok(j).map(|t| t.end),
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return f.code_tok(j).map(|t| t.end);
                }
            }
            _ => {}
        }
        j += 1;
    }
    // Unbalanced file: gate everything to the end (conservative: treats the
    // remainder as test code rather than producing noise on broken input).
    Some(f.text.len())
}

/// Extract `kglink-lint: allow(...)` comments. The marker must *start* the
/// comment (after the `//`/`//!`/`///`/`/*` opener and whitespace) so prose
/// that merely mentions the syntax — rule docs, this function's own doc —
/// is not parsed as a live suppression.
fn find_suppressions(f: &SourceFile) -> Vec<Suppression> {
    const MARKER: &str = "kglink-lint:";
    let mut out = Vec::new();
    for (ti, tok) in f.tokens.iter().enumerate() {
        if !matches!(tok.kind, TokKind::LineComment | TokKind::BlockComment) {
            continue;
        }
        let body = tok.text(&f.text);
        let opener_len = if matches!(tok.kind, TokKind::LineComment) {
            body.len() - body.trim_start_matches(['/', '!']).len()
        } else {
            body.len() - body.trim_start_matches(['/', '*', '!']).len()
        };
        let content = body[opener_len..].trim_start();
        if !content.starts_with(MARKER) {
            continue;
        }
        let m = body.len() - content.len();
        let rest = body[m + MARKER.len()..].trim_start();
        let Some(rest) = rest.strip_prefix("allow") else {
            continue;
        };
        let rest = rest.trim_start();
        let Some(rest) = rest.strip_prefix('(') else {
            continue;
        };
        let Some(close) = rest.find(')') else {
            continue;
        };
        let rules: Vec<String> = rest[..close]
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty())
            .collect();
        let mut justification = rest[close + 1..].trim();
        justification = justification
            .trim_start_matches(['—', '-', ':', ' '])
            .trim_end_matches("*/")
            .trim();
        // The suppression applies to the first line at/after the comment
        // that carries a code token.
        let target_line = f.tokens[ti + 1..]
            .iter()
            .find(|t| !t.is_trivia())
            .map(|t| t.line)
            // Trailing comment: it ends the line, so the code it guards is
            // the line the comment starts on.
            .unwrap_or(tok.line);
        let trailing = f.tokens[..ti]
            .iter()
            .rev()
            .take_while(|t| t.line == tok.line)
            .any(|t| !t.is_trivia());
        let target_line = if trailing { tok.line } else { target_line };
        out.push(Suppression {
            rules,
            target_line,
            comment_line: tok.line,
            justification: justification.to_string(),
            used: std::cell::Cell::new(false),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_classification() {
        assert_eq!(classify_path("crates/kg/src/io.rs"), Scope::Lib);
        assert_eq!(classify_path("crates/kg/tests/x.rs"), Scope::Test);
        assert_eq!(classify_path("tests/serve.rs"), Scope::Test);
        assert_eq!(classify_path("benches/b.rs"), Scope::Bench);
        assert_eq!(classify_path("examples/quickstart.rs"), Scope::Example);
        assert_eq!(classify_path("crates/bench/src/lib.rs"), Scope::Bin);
        assert_eq!(classify_path("crates/lint/src/main.rs"), Scope::Bin);
        assert_eq!(classify_path("crates/serve/src/bin/tool.rs"), Scope::Bin);
        assert_eq!(classify_path("src/lib.rs"), Scope::Lib);
    }

    #[test]
    fn cfg_test_regions_cover_inline_modules() {
        let src = "fn lib_code() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn more() {}\n";
        let f = SourceFile::new("crates/x/src/lib.rs".into(), src.into());
        let unwrap_at = src.find("unwrap").unwrap_or(0);
        assert!(f.in_test_region(unwrap_at));
        let more_at = src.rfind("more").unwrap_or(0);
        assert!(!f.in_test_region(more_at));
        let lib_at = src.find("lib_code").unwrap_or(0);
        assert!(!f.in_test_region(lib_at));
    }

    #[test]
    fn cfg_all_test_counts_and_stacked_attrs_skipped() {
        let src = "#[cfg(all(test, feature = \"x\"))]\n#[allow(dead_code)]\nmod t { fn f() {} }\nfn after() {}\n";
        let f = SourceFile::new("crates/x/src/lib.rs".into(), src.into());
        assert!(f.in_test_region(src.find("fn f").unwrap_or(0)));
        assert!(!f.in_test_region(src.find("after").unwrap_or(0)));
    }

    #[test]
    fn suppressions_target_next_code_line_or_same_line() {
        let src = "\
// kglink-lint: allow(hot-path-alloc) — capacity invariant, checked at build
let a = x.to_vec();
let b = y.unwrap(); // kglink-lint: allow(lock-order): poison audited
";
        let f = SourceFile::new("crates/x/src/lib.rs".into(), src.into());
        assert_eq!(f.suppressions.len(), 2);
        assert_eq!(f.suppressions[0].rules, vec!["hot-path-alloc".to_string()]);
        assert_eq!(f.suppressions[0].target_line, 2);
        assert!(f.suppressions[0].justification.contains("capacity"));
        assert_eq!(f.suppressions[1].target_line, 3);
        assert_eq!(f.suppressions[1].justification, "poison audited");
    }

    #[test]
    fn suppression_in_string_literal_is_ignored() {
        let src = "let s = \"kglink-lint: allow(hot-path-alloc)\";\n";
        let f = SourceFile::new("crates/x/src/lib.rs".into(), src.into());
        assert!(f.suppressions.is_empty());
    }

    #[test]
    fn doc_prose_mentioning_the_syntax_is_not_a_suppression() {
        let src = "\
//! Escape hatch: a `// kglink-lint: allow(hot-path-alloc)` comment.
/// Use `kglink-lint: allow(...)` to silence a rule.
fn f() {}
/* kglink-lint: allow(single-percentile) — block form, at comment start */
fn g() {}
";
        let f = SourceFile::new("crates/x/src/lib.rs".into(), src.into());
        assert_eq!(f.suppressions.len(), 1);
        assert_eq!(
            f.suppressions[0].rules,
            vec!["single-percentile".to_string()]
        );
    }
}
