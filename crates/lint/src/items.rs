//! The item model: a lightweight, total parse of one file into the
//! items the interprocedural engine needs — functions (with signatures,
//! bodies, and enclosing `impl` types), inline modules, and `use` aliases.
//!
//! Built directly on the property-tested [`lexer`](crate::lexer) token
//! tiling, with the same two hard guarantees (see `tests/items_prop.rs`):
//!
//! 1. **Never panics**, for arbitrary input.
//! 2. **Spans tile**: [`tile`] partitions the file into alternating gap and
//!    item segments whose concatenation reproduces the source byte-exactly.
//!
//! Like the lexer, this is deliberately *not* a Rust parser. It recognizes
//! exactly the shapes the interprocedural rules consume: `fn` items (name,
//! params with textual types, return type, body token range), the `impl`
//! block each method lives in, nested `mod` blocks, and `use` renames. An
//! unrecognized construct degrades to "tokens belonging to no item", never
//! to a parse failure.

use crate::lexer::TokKind;
use crate::source::SourceFile;
use std::collections::BTreeMap;

/// One function parameter: the binding name and its type as joined token
/// text (`"Deadline"`, `"& mut Vec < f32 >"` — exact enough for
/// `contains("Deadline")`-style checks).
#[derive(Debug, Clone)]
pub struct Param {
    pub name: String,
    pub ty: String,
}

/// One `fn` item found in a file. All indices are *code-token* indices into
/// the owning [`SourceFile`]'s `code` vector.
#[derive(Debug, Clone)]
pub struct FnItem {
    pub name: String,
    /// Type name of the enclosing `impl` block, if any (`impl Foo { .. }`
    /// and `impl Trait for Foo { .. }` both yield `Foo`).
    pub self_ty: Option<String>,
    /// Inline `mod` path from the file root down to this item.
    pub module: Vec<String>,
    /// Non-`self` parameters, in order.
    pub params: Vec<Param>,
    /// Whether the parameter list starts with a `self` receiver.
    pub has_self: bool,
    /// Return type as joined token text; empty for `()`-returning fns.
    pub ret_ty: String,
    /// Code index of the `fn` keyword.
    pub decl_ix: usize,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Code-token range `[start, end)` of the body interior (between the
    /// braces); `None` for bodiless trait signatures.
    pub body: Option<(usize, usize)>,
    /// Byte span of the whole item, `fn` keyword through closing brace or
    /// semicolon. Used by [`tile`].
    pub byte_span: (usize, usize),
    /// True when the item sits inside an inline `#[cfg(test)]` region.
    pub in_test: bool,
}

/// Everything the item parse extracts from one file.
#[derive(Debug, Default)]
pub struct FileItems {
    pub fns: Vec<FnItem>,
    /// `use` renames and imports: local name → last real path segment
    /// (`use x::Foo as Bar` → `Bar → Foo`; `use x::Foo` → `Foo → Foo`).
    pub aliases: BTreeMap<String, String>,
}

/// Rust keywords that can never be call or item names; used to reject
/// look-alike token shapes (`if (..)`, `match (..)`).
pub const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub",
    "ref", "return", "self", "Self", "static", "struct", "super", "trait", "type", "unsafe", "use",
    "where", "while", "yield",
];

/// Per-code-token brace depth, computed once per file: `depth_of[i]` is the
/// nesting depth *inside which* token `i` sits. An opening `{` and its
/// matching `}` share the same (outer) depth value, so "the close of the
/// block containing `i`" is the first `}` at `depth_of[i] - 1`.
pub fn brace_depths(f: &SourceFile) -> Vec<u32> {
    let mut out = Vec::with_capacity(f.code.len());
    let mut depth = 0u32;
    for i in 0..f.code.len() {
        match f.code_text(i) {
            "{" => {
                out.push(depth);
                depth += 1;
            }
            "}" => {
                depth = depth.saturating_sub(1);
                out.push(depth);
            }
            _ => out.push(depth),
        }
    }
    out
}

/// Parse one file's item model. Total: malformed input yields fewer items,
/// never an error or a panic.
pub fn parse_items(f: &SourceFile) -> FileItems {
    let mut items = FileItems::default();
    let n = f.code.len();
    // Context stack: (is_impl, name, depth-inside-the-block). Innermost
    // `impl` entry supplies `self_ty`; `mod` entries build the module path.
    let mut stack: Vec<(bool, String, u32)> = Vec::new();
    let depths = brace_depths(f);
    let mut i = 0usize;
    while i < n {
        // Pop contexts whose block has closed.
        while let Some(&(_, _, d)) = stack.last() {
            if depths[i] < d {
                stack.pop();
            } else {
                break;
            }
        }
        match f.code_text(i) {
            "use" => {
                i = parse_use(f, i, &mut items.aliases);
            }
            "mod" if f.code_kind(i + 1) == Some(TokKind::Ident) => {
                // `mod name {` opens a context; `mod name;` declares only.
                if f.code_text(i + 2) == "{" {
                    stack.push((false, f.code_text(i + 1).to_string(), depths[i + 2] + 1));
                    i += 3;
                } else {
                    i += 2;
                }
            }
            "impl" => {
                let (ty, open) = parse_impl_header(f, i);
                if let Some(open) = open {
                    stack.push((true, ty.unwrap_or_default(), depths[open] + 1));
                    i = open + 1;
                } else {
                    i += 1;
                }
            }
            "fn" if f.code_kind(i + 1) == Some(TokKind::Ident) => {
                let self_ty = stack
                    .iter()
                    .rev()
                    .find(|(is_impl, name, _)| *is_impl && !name.is_empty())
                    .map(|(_, name, _)| name.clone());
                let module: Vec<String> = stack
                    .iter()
                    .filter(|(is_impl, _, _)| !is_impl)
                    .map(|(_, name, _)| name.clone())
                    .collect();
                let (item, next) = parse_fn(f, i, self_ty, module);
                if let Some(item) = item {
                    items.fns.push(item);
                }
                // Continue scanning *inside* the body so nested items are
                // found too; `next` only skips the signature.
                i = next;
            }
            _ => i += 1,
        }
    }
    items
}

/// Parse `use a::b::{c, d as e};` into alias entries. Returns the code index
/// just past the terminating `;` (or wherever scanning stopped).
fn parse_use(f: &SourceFile, start: usize, aliases: &mut BTreeMap<String, String>) -> usize {
    let n = f.code.len();
    let mut i = start + 1;
    // Walk the statement, tracking the most recent path segment; on `,`,
    // `}` or `;` commit the pending (segment, alias) pair.
    let mut last_seg: Option<String> = None;
    let mut alias: Option<String> = None;
    let mut after_as = false;
    while i < n {
        let t = f.code_text(i);
        match t {
            ";" => break,
            "as" => after_as = true,
            "," | "}" => {
                commit_alias(aliases, &mut last_seg, &mut alias);
                after_as = false;
            }
            "{" | ":" | "*" => {}
            _ if f.code_kind(i) == Some(TokKind::Ident) => {
                if after_as {
                    alias = Some(t.to_string());
                } else {
                    last_seg = Some(t.to_string());
                }
            }
            _ => {}
        }
        i += 1;
    }
    commit_alias(aliases, &mut last_seg, &mut alias);
    i + 1
}

fn commit_alias(
    aliases: &mut BTreeMap<String, String>,
    last_seg: &mut Option<String>,
    alias: &mut Option<String>,
) {
    if let Some(seg) = last_seg.take() {
        // `use x::y::{self}` and crate/super segments carry no new name.
        if !KEYWORDS.contains(&seg.as_str()) {
            let name = alias.take().unwrap_or_else(|| seg.clone());
            aliases.insert(name, seg);
        }
    }
    *alias = None;
}

/// From an `impl` keyword, extract the implemented type name and the code
/// index of the opening `{`. `impl<T> Trait for Foo<T> where ... {` → `Foo`.
fn parse_impl_header(f: &SourceFile, start: usize) -> (Option<String>, Option<usize>) {
    let n = f.code.len();
    let mut i = start + 1;
    let mut angle = 0i32;
    let mut after_for = false;
    let mut candidate: Option<String> = None;
    let mut first: Option<String> = None;
    while i < n {
        let t = f.code_text(i);
        match t {
            "{" if angle <= 0 => {
                return (candidate.or(first), Some(i));
            }
            ";" if angle <= 0 => return (None, None),
            "<" => angle += 1,
            // `->` must not close a generic bracket.
            ">" if f.code_text(i.wrapping_sub(1)) != "-" => angle -= 1,
            "for" if angle <= 0 => {
                after_for = true;
                candidate = None;
            }
            "where" if angle <= 0 => {
                // Type name is settled before the where clause.
                after_for = false;
            }
            _ if f.code_kind(i) == Some(TokKind::Ident) && angle <= 0 && !KEYWORDS.contains(&t) => {
                if first.is_none() {
                    first = Some(t.to_string());
                }
                if after_for && candidate.is_none() {
                    candidate = Some(t.to_string());
                } else if !after_for && candidate.is_none() {
                    // Pre-`for` segments keep updating `first` only via
                    // the initial capture; the last pre-brace ident of a
                    // bare `impl Foo` path is handled by `first` +
                    // path-tail preference below.
                    first = Some(pick_path_tail(f, i, first.take()));
                }
            }
            _ => {}
        }
        i += 1;
    }
    (None, None)
}

/// For `impl a::b::Foo`, prefer the tail segment over the head: if ident at
/// `i` follows `::`, it replaces the running candidate.
fn pick_path_tail(f: &SourceFile, i: usize, prev: Option<String>) -> String {
    let follows_path = i >= 2 && f.code_text(i - 1) == ":" && f.code_text(i - 2) == ":";
    if follows_path || prev.is_none() {
        f.code_text(i).to_string()
    } else {
        prev.unwrap_or_default()
    }
}

/// Parse one `fn` item starting at the `fn` keyword. Returns the item (if a
/// well-formed signature was found) and the code index to resume scanning
/// at — just *inside* the body, so nested items are still discovered.
fn parse_fn(
    f: &SourceFile,
    start: usize,
    self_ty: Option<String>,
    module: Vec<String>,
) -> (Option<FnItem>, usize) {
    let n = f.code.len();
    let name = f.code_text(start + 1).to_string();
    let mut i = start + 2;
    // Optional generics: `<...>`, with `->` protection for `Fn() -> T` bounds.
    if f.code_text(i) == "<" {
        let mut angle = 0i32;
        while i < n {
            match f.code_text(i) {
                "<" => angle += 1,
                ">" if f.code_text(i.wrapping_sub(1)) != "-" => {
                    angle -= 1;
                    if angle == 0 {
                        i += 1;
                        break;
                    }
                }
                "(" | "{" | ";" => break, // malformed generics: bail to params
                _ => {}
            }
            i += 1;
        }
    }
    if f.code_text(i) != "(" {
        return (None, start + 2);
    }
    let params_start = i + 1;
    let mut depth = 0i32;
    while i < n {
        match f.code_text(i) {
            "(" | "[" => depth += 1,
            ")" | "]" => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            _ => {}
        }
        i += 1;
    }
    if i >= n {
        return (None, n);
    }
    let params_end = i;
    let (params, has_self) = parse_params(f, params_start, params_end);
    // Return type and where clause, up to the body `{` or a `;`.
    i += 1;
    let ret_start = i;
    let mut depth = 0i32;
    while i < n {
        match f.code_text(i) {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            ";" if depth <= 0 => {
                let item = make_fn(
                    f, start, name, self_ty, module, params, has_self, ret_start, i, None,
                );
                return (Some(item), i + 1);
            }
            "{" if depth <= 0 => break,
            _ => {}
        }
        i += 1;
    }
    if i >= n {
        return (None, n);
    }
    let body_open = i;
    let depths = brace_depths(f);
    let close = matching_close(f, &depths, body_open);
    let body = Some((body_open + 1, close));
    let item = make_fn(
        f, start, name, self_ty, module, params, has_self, ret_start, body_open, body,
    );
    (Some(item), body_open + 1)
}

#[expect(
    clippy::too_many_arguments,
    reason = "one argument per FnItem field the signature scan produced"
)]
fn make_fn(
    f: &SourceFile,
    start: usize,
    name: String,
    self_ty: Option<String>,
    module: Vec<String>,
    params: Vec<Param>,
    has_self: bool,
    ret_start: usize,
    ret_end: usize,
    body: Option<(usize, usize)>,
) -> FnItem {
    let ret_ty = join_tokens(f, ret_start, ret_end)
        .trim_start_matches(['-', '>', ' '])
        .trim()
        .to_string();
    let span_start = f.code_tok(start).map(|t| t.start).unwrap_or(0);
    let span_end = match body {
        // `close` is the index of `}`; include it.
        Some((_, close)) => f.code_tok(close).map(|t| t.end).unwrap_or(f.text.len()),
        None => f.code_tok(ret_end).map(|t| t.end).unwrap_or(f.text.len()),
    };
    FnItem {
        name,
        self_ty,
        module,
        params,
        has_self,
        ret_ty,
        decl_ix: start,
        line: f.code_line(start),
        body,
        byte_span: (span_start, span_end),
        in_test: f.code_in_test(start),
    }
}

/// Find the matching `}` for the `{` at code index `open` (see
/// [`brace_depths`]); falls back to the last token for unbalanced input.
pub fn matching_close(f: &SourceFile, depths: &[u32], open: usize) -> usize {
    let want = depths.get(open).copied().unwrap_or(0);
    for (j, d) in depths.iter().enumerate().skip(open + 1) {
        if f.code_text(j) == "}" && *d == want {
            return j;
        }
    }
    f.code.len().saturating_sub(1).max(open)
}

/// Split the parameter range at top-level commas into (name, type) pairs.
fn parse_params(f: &SourceFile, start: usize, end: usize) -> (Vec<Param>, bool) {
    let mut params = Vec::new();
    let mut has_self = false;
    let mut seg_start = start;
    let mut depth = 0i32;
    let mut i = start;
    while i <= end {
        let at_end = i == end;
        let t = if at_end { "," } else { f.code_text(i) };
        match t {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            "<" => depth += 1,
            ">" if f.code_text(i.wrapping_sub(1)) != "-" => depth -= 1,
            "," if depth <= 0 => {
                if let Some(p) = parse_one_param(f, seg_start, i, &mut has_self) {
                    params.push(p);
                }
                seg_start = i + 1;
            }
            _ => {}
        }
        i += 1;
    }
    (params, has_self)
}

/// One `name: Ty` segment (or a `self` receiver, which sets `has_self`).
fn parse_one_param(f: &SourceFile, start: usize, end: usize, has_self: &mut bool) -> Option<Param> {
    // Locate the top-level `:` (skipping `::`).
    let mut colon = None;
    let mut depth = 0i32;
    for i in start..end {
        match f.code_text(i) {
            "(" | "[" | "<" => depth += 1,
            ")" | "]" => depth -= 1,
            ">" if f.code_text(i.wrapping_sub(1)) != "-" => depth -= 1,
            ":" if depth <= 0
                && f.code_text(i + 1) != ":"
                && (i == start || f.code_text(i - 1) != ":") =>
            {
                colon = Some(i);
                break;
            }
            _ => {}
        }
    }
    let Some(colon) = colon else {
        // No `:` — a receiver (`self`, `&mut self`) or malformed.
        if (start..end).any(|i| f.code_text(i) == "self") {
            *has_self = true;
        }
        return None;
    };
    // Binding name: last identifier before the colon (`mut x: T` → `x`;
    // destructuring patterns yield their last binding, which is enough for
    // "is this name ever mentioned in the body" checks).
    let name = (start..colon)
        .rev()
        .find(|&i| f.code_kind(i) == Some(TokKind::Ident) && f.code_text(i) != "mut")
        .map(|i| f.code_text(i).to_string())?;
    let ty = join_tokens(f, colon + 1, end);
    Some(Param { name, ty })
}

/// Joined text of code tokens `[start, end)`, single-space separated.
pub fn join_tokens(f: &SourceFile, start: usize, end: usize) -> String {
    let mut out = String::new();
    for i in start..end.min(f.code.len()) {
        if !out.is_empty() {
            out.push(' ');
        }
        out.push_str(f.code_text(i));
    }
    out
}

/// A byte segment of the file: either one top-level item's span or the gap
/// between items. The segments partition `[0, text.len())` exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    pub start: usize,
    pub end: usize,
    /// True for a recognized item span, false for inter-item text.
    pub is_item: bool,
}

/// Partition the file into item/gap segments. Only outermost items count
/// (a fn nested in another fn's body is covered by its parent's span), so
/// the segments are disjoint and cover the file byte-exactly — the
/// property `tests/items_prop.rs` pins for arbitrary input.
pub fn tile(f: &SourceFile, items: &FileItems) -> Vec<Segment> {
    let mut spans: Vec<(usize, usize)> = Vec::new();
    for item in &items.fns {
        let (s, e) = item.byte_span;
        let (s, e) = (s.min(f.text.len()), e.min(f.text.len()));
        if e <= s {
            continue;
        }
        // Keep only spans not contained in an already-kept span. Items are
        // emitted in source order, so a parent precedes its nested fns.
        if spans.iter().any(|&(ps, pe)| ps <= s && e <= pe) {
            continue;
        }
        spans.push((s, e));
    }
    spans.sort_unstable();
    // Drop any overlapping stragglers (malformed input can confuse brace
    // matching); tiling correctness beats span completeness.
    let mut kept: Vec<(usize, usize)> = Vec::new();
    for (s, e) in spans {
        if kept.last().is_none_or(|&(_, pe)| s >= pe) {
            kept.push((s, e));
        }
    }
    let mut out = Vec::new();
    let mut pos = 0usize;
    for (s, e) in kept {
        if s > pos {
            out.push(Segment {
                start: pos,
                end: s,
                is_item: false,
            });
        }
        out.push(Segment {
            start: s,
            end: e,
            is_item: true,
        });
        pos = e;
    }
    if pos < f.text.len() {
        out.push(Segment {
            start: pos,
            end: f.text.len(),
            is_item: false,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> (SourceFile, FileItems) {
        let f = SourceFile::new("crates/x/src/a.rs".into(), src.into());
        let items = parse_items(&f);
        (f, items)
    }

    #[test]
    fn finds_fns_with_impl_types_and_modules() {
        let src = "\
impl<T: Clone> BoundedQueue<T> {
    pub fn push(&self, item: T, policy: AdmissionPolicy) -> Result<Option<T>, PushError> {
        self.inner(item)
    }
}
impl KgBackend for DiskBackend {
    fn search_entities(&self, query: &str, top_k: usize, deadline: Deadline) -> Out { x }
}
mod inner {
    fn helper(n: u32) {}
}
fn free() {}
";
        let (_, items) = parse(src);
        let names: Vec<(String, Option<String>)> = items
            .fns
            .iter()
            .map(|f| (f.name.clone(), f.self_ty.clone()))
            .collect();
        assert_eq!(
            names,
            vec![
                ("push".into(), Some("BoundedQueue".into())),
                ("search_entities".into(), Some("DiskBackend".into())),
                ("helper".into(), None),
                ("free".into(), None),
            ]
        );
        assert_eq!(items.fns[2].module, vec!["inner".to_string()]);
        assert!(items.fns[0].has_self);
        let se = &items.fns[1];
        assert_eq!(se.params.len(), 3);
        assert_eq!(se.params[2].name, "deadline");
        assert_eq!(se.params[2].ty, "Deadline");
        assert!(items.fns[0].ret_ty.contains("Result"));
    }

    #[test]
    fn trait_signatures_have_no_body_and_nested_fns_are_found() {
        let src = "\
trait B { fn go(&self, deadline: Deadline) -> u32; }
fn outer() {
    fn inner(x: u32) -> u32 { x }
    inner(1);
}
";
        let (_, items) = parse(src);
        assert_eq!(items.fns.len(), 3);
        assert!(items.fns[0].body.is_none());
        assert_eq!(items.fns[1].name, "outer");
        assert_eq!(items.fns[2].name, "inner");
        assert!(items.fns[2].body.is_some());
    }

    #[test]
    fn use_aliases_including_groups_and_renames() {
        let src = "\
use std::collections::BTreeMap;
use crate::queue::{BoundedQueue, AdmissionPolicy as Policy};
use foo::bar as baz;
";
        let (_, items) = parse(src);
        assert_eq!(
            items.aliases.get("BTreeMap").map(String::as_str),
            Some("BTreeMap")
        );
        assert_eq!(
            items.aliases.get("Policy").map(String::as_str),
            Some("AdmissionPolicy")
        );
        assert_eq!(items.aliases.get("baz").map(String::as_str), Some("bar"));
    }

    #[test]
    fn tiling_covers_the_file_exactly() {
        let src = "// header\nfn a() { fn nested() {} }\nstruct S;\nfn b(x: u32) -> u32 { x }\n";
        let (f, items) = parse(src);
        let segs = tile(&f, &items);
        let mut pos = 0usize;
        for s in &segs {
            assert_eq!(s.start, pos, "gap or overlap at {pos}");
            pos = s.end;
        }
        assert_eq!(pos, src.len());
        assert_eq!(segs.iter().filter(|s| s.is_item).count(), 2, "{segs:?}");
    }

    #[test]
    fn cfg_test_items_are_marked() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\n";
        let (_, items) = parse(src);
        assert!(!items.fns[0].in_test);
        assert!(items.fns[1].in_test);
    }

    #[test]
    fn malformed_input_degrades_without_panic() {
        for src in [
            "fn",
            "fn (",
            "fn f(",
            "impl {",
            "fn f<T(x: u32) {}",
            "use ;",
            "mod m { fn f() {",
            "}}}}",
        ] {
            let (f, items) = parse(src);
            let segs = tile(&f, &items);
            let mut pos = 0usize;
            for s in &segs {
                assert_eq!(s.start, pos);
                pos = s.end;
            }
            assert_eq!(pos, src.len());
        }
    }
}
