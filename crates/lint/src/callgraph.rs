//! The call graph: extract call sites from function bodies and resolve
//! them to workspace functions.
//!
//! Resolution is *name-based with type narrowing*, not full type inference
//! (std-only crate; `syn` and rustc internals are off the table):
//!
//! - `self.helper(..)` resolves within the caller's `impl` type first, and
//!   `s.take(..)` on a parameter `s: &mut Scratch` within `Scratch`.
//! - `Type::assoc(..)` resolves to fns whose `impl` type matches `Type`
//!   (through `use` renames), and to nothing else: `Vec::with_capacity` is
//!   std's, not a same-name fn's, even where the workspace implements a
//!   trait for `Vec`.
//! - `recv.method(..)` and bare `helper(..)` resolve by name, same-file
//!   candidates preferred; a bare call to a parameter of the caller
//!   (`load()` with `load: F`) resolves to nothing.
//!
//! A name that matches more than [`AMBIG_LIMIT`] candidates resolves to
//! *nothing*: a fan-out that wide (e.g. `.len()`) carries no signal, and
//! wiring it up would let one noisy name poison every summary downstream.
//! Test-scoped functions are never resolution candidates — library code
//! cannot call them, and letting a test helper shadow a product fn would
//! propagate phantom facts into lib summaries.

use crate::items::{FnItem, KEYWORDS};
use crate::lexer::TokKind;
use crate::source::{Scope, SourceFile};
use std::collections::BTreeMap;

/// Above this many same-name candidates, a call site resolves to nothing.
pub const AMBIG_LIMIT: usize = 4;

/// How a call site is written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallKind {
    /// `recv.name(..)`
    Method,
    /// `Qual::name(..)`
    Path,
    /// `name(..)`
    Bare,
}

/// One syntactic call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    pub kind: CallKind,
    pub name: String,
    /// Dotted receiver text for method calls (`self.queue`); `None` when
    /// the receiver is itself a call/index expression.
    pub receiver: Option<String>,
    /// `Qual` for path calls.
    pub qualifier: Option<String>,
    /// Code index of the name token.
    pub ix: usize,
    pub line: u32,
}

/// A call site plus the workspace functions it may reach (indices into the
/// workspace fn table; empty when unresolved or too ambiguous).
#[derive(Debug, Clone)]
pub struct ResolvedCall {
    pub site: CallSite,
    pub callees: Vec<usize>,
}

/// The dotted receiver path ending at the `.` at code index `dot`:
/// `self.state.lock()` → `self.state`; `shard.lock()` → `shard`. `None`
/// when the receiver is a call or index expression (`shard_for(k).lock()`).
pub fn receiver_path(f: &SourceFile, dot: usize) -> Option<String> {
    let mut parts: Vec<String> = Vec::new();
    let mut j = dot; // points at the `.` before the method name
    while j > 0 {
        let prev = j - 1;
        if f.code_kind(prev) == Some(TokKind::Ident) {
            parts.push(f.code_text(prev).to_string());
            if prev > 0 && f.code_text(prev - 1) == "." {
                j = prev - 1;
                continue;
            }
        }
        break;
    }
    if parts.is_empty() {
        return None;
    }
    parts.reverse();
    Some(parts.join("."))
}

/// Extract every call site within the code-token ranges `owned` (a fn's
/// body minus any nested fns, so each call attributes to exactly one fn).
pub fn extract_calls(f: &SourceFile, owned: &[(usize, usize)]) -> Vec<CallSite> {
    let mut out = Vec::new();
    for &(start, end) in owned {
        let end = end.min(f.code.len());
        for i in start..end {
            if f.code_kind(i) != Some(TokKind::Ident) || !opens_call(f, i + 1, end) {
                continue;
            }
            let name = f.code_text(i);
            if KEYWORDS.contains(&name) {
                continue;
            }
            let prev = if i > start { f.code_text(i - 1) } else { "" };
            let site = if prev == "." {
                CallSite {
                    kind: CallKind::Method,
                    name: name.to_string(),
                    receiver: receiver_path(f, i - 1),
                    qualifier: None,
                    ix: i,
                    line: f.code_line(i),
                }
            } else if prev == ":" && i >= 3 && f.code_text(i - 2) == ":" {
                let qual = (f.code_kind(i - 3) == Some(TokKind::Ident))
                    .then(|| f.code_text(i - 3).to_string());
                CallSite {
                    kind: CallKind::Path,
                    name: name.to_string(),
                    receiver: None,
                    qualifier: qual,
                    ix: i,
                    line: f.code_line(i),
                }
            } else if prev != "fn" {
                CallSite {
                    kind: CallKind::Bare,
                    name: name.to_string(),
                    receiver: None,
                    qualifier: None,
                    ix: i,
                    line: f.code_line(i),
                }
            } else {
                continue;
            };
            out.push(site);
        }
    }
    out
}

/// True when the tokens from `at` open a call's argument list: `(`, or a
/// turbofish `::<..>` and then `(` (`add::<A>(..)`, `.sum::<u64>()`).
fn opens_call(f: &SourceFile, at: usize, end: usize) -> bool {
    if f.code_text(at) == "(" {
        return true;
    }
    if (f.code_text(at), f.code_text(at + 1), f.code_text(at + 2)) != (":", ":", "<") {
        return false;
    }
    let mut depth = 0usize;
    for j in at + 2..end {
        match f.code_text(j) {
            "<" => depth += 1,
            // The `>` of a `->` in `Fn(..) -> T` closes nothing.
            ">" if f.code_text(j - 1) != "-" => {
                depth -= 1;
                if depth == 0 {
                    return f.code_text(j + 1) == "(";
                }
            }
            ";" | "{" | "}" => return false,
            _ => {}
        }
    }
    false
}

/// Name tables over the workspace fn list, for call resolution.
pub struct Resolver {
    /// fn name → candidate fn indices (non-test fns only).
    by_name: BTreeMap<String, Vec<usize>>,
    /// (impl type, fn name) → candidate fn indices.
    by_ty: BTreeMap<(String, String), Vec<usize>>,
}

/// True when a fn can be a resolution target: product code, not tests.
fn is_candidate(file: &SourceFile, item: &FnItem) -> bool {
    !item.in_test && !matches!(file.scope, Scope::Test | Scope::Bench | Scope::Example)
}

impl Resolver {
    /// `fns` pairs each item with its owning file (parallel to the
    /// workspace fn table the returned indices point into).
    pub fn new(fns: &[(usize, FnItem)], files: &[SourceFile]) -> Resolver {
        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut by_ty: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
        for (ix, (file_ix, item)) in fns.iter().enumerate() {
            let Some(file) = files.get(*file_ix) else {
                continue;
            };
            if !is_candidate(file, item) {
                continue;
            }
            by_name.entry(item.name.clone()).or_default().push(ix);
            if let Some(ty) = &item.self_ty {
                by_ty
                    .entry((ty.clone(), item.name.clone()))
                    .or_default()
                    .push(ix);
            }
        }
        Resolver { by_name, by_ty }
    }

    /// Resolve one call site made from `caller`, which lives in
    /// `caller_file`.
    pub fn resolve(
        &self,
        site: &CallSite,
        caller_file_ix: usize,
        caller: &FnItem,
        fns: &[(usize, FnItem)],
        aliases: &BTreeMap<String, String>,
    ) -> Vec<usize> {
        match site.kind {
            CallKind::Method => {
                // `self.helper()` → same impl type wins outright, and so
                // does the declared type of a parameter receiver.
                let recv_ty = match site.receiver.as_deref() {
                    Some("self") => caller.self_ty.as_deref(),
                    Some(r) => caller
                        .params
                        .iter()
                        .find(|p| p.name == r)
                        .and_then(|p| named_type(&p.ty)),
                    None => None,
                };
                if let Some(ty) = recv_ty {
                    if let Some(c) = self.by_ty.get(&(ty.to_string(), site.name.clone())) {
                        return c.clone();
                    }
                }
                // The by-name fallback has no receiver type, so std
                // vocabulary would alias every `Vec::push`, `AtomicU64::load`
                // or `Condvar::wait` in the workspace onto an unrelated
                // method that happens to share the name. Those stay
                // unresolved; locks, condvar waits, channel recvs and the
                // like are modelled directly by the summaries instead.
                if UBIQUITOUS_METHODS.contains(&site.name.as_str()) {
                    return Vec::new();
                }
                let all = self.by_name.get(&site.name);
                capped(
                    all.map(|v| {
                        v.iter()
                            .copied()
                            .filter(|&ix| fns[ix].1.has_self)
                            .collect::<Vec<_>>()
                    })
                    .unwrap_or_default(),
                )
            }
            CallKind::Path => {
                let qual = site
                    .qualifier
                    .as_deref()
                    .map(|q| aliases.get(q).map(String::as_str).unwrap_or(q));
                if let Some(q) = qual {
                    let q = if q == "Self" {
                        caller.self_ty.as_deref().unwrap_or(q)
                    } else {
                        q
                    };
                    if let Some(c) = self.by_ty.get(&(q.to_string(), site.name.clone())) {
                        return c.clone();
                    }
                    if q.starts_with(char::is_uppercase) {
                        return Vec::new();
                    }
                }
                capped(self.by_name.get(&site.name).cloned().unwrap_or_default())
            }
            CallKind::Bare => {
                // A call to the caller's own parameter (`load()` with
                // `load: F`) runs whatever closure the caller was handed,
                // never the workspace fns that share its name.
                if caller.params.iter().any(|p| p.name == site.name) {
                    return Vec::new();
                }
                let all = self.by_name.get(&site.name).cloned().unwrap_or_default();
                let same_file: Vec<usize> = all
                    .iter()
                    .copied()
                    .filter(|&ix| fns[ix].0 == caller_file_ix)
                    .collect();
                if !same_file.is_empty() {
                    return capped(same_file);
                }
                capped(all)
            }
        }
    }
}

/// Method names owned by std containers, atomics, and sync primitives:
/// never resolved through the receiver-blind by-name fallback. `self.x()`
/// calls to same-impl methods of these names still resolve via `by_ty`.
const UBIQUITOUS_METHODS: &[&str] = &[
    "clear",
    "clone",
    "collect",
    "compare_exchange",
    "contains",
    "drain",
    "entry",
    "expect",
    "extend",
    "fetch_add",
    "fetch_sub",
    "flush",
    "get",
    "get_mut",
    "insert",
    "is_empty",
    "iter",
    "join",
    "len",
    "load",
    "lock",
    "map",
    "max",
    "min",
    "next",
    "pop",
    "pop_back",
    "pop_front",
    "push",
    "push_back",
    "push_front",
    "read",
    "recv",
    "remove",
    "replace",
    "send",
    "store",
    "swap",
    "take",
    "unwrap",
    "wait",
    "write",
];

/// The type a parameter of type `ty` (space-joined tokens) names, past
/// references, `mut`, lifetimes and a module path: `Scratch` for
/// `&'s mut kernels::Scratch`. `None` for generic or compound types.
fn named_type(ty: &str) -> Option<&str> {
    let mut name = None;
    for tok in ty.split(' ') {
        match tok {
            "&" | "mut" | ":" => {}
            t if t.starts_with('\'') => {}
            t if t.chars().all(|c| c.is_alphanumeric() || c == '_') => name = Some(t),
            _ => return None,
        }
    }
    name
}

fn capped(v: Vec<usize>) -> Vec<usize> {
    if v.len() > AMBIG_LIMIT {
        Vec::new()
    } else {
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::parse_items;

    fn sites(src: &str) -> Vec<(CallKind, String, Option<String>)> {
        let f = SourceFile::new("crates/x/src/a.rs".into(), src.into());
        let items = parse_items(&f);
        let body = items.fns[0].body.unwrap();
        extract_calls(&f, &[body])
            .into_iter()
            .map(|c| (c.kind, c.name, c.receiver.or(c.qualifier)))
            .collect()
    }

    #[test]
    fn method_path_and_bare_calls_are_classified() {
        let got = sites(
            "fn f(&self) { self.state.lock(); File::open(p); helper(1); if (x) {} m!(y); }\n",
        );
        assert_eq!(
            got,
            vec![
                (CallKind::Method, "lock".into(), Some("self.state".into())),
                (CallKind::Path, "open".into(), Some("File".into())),
                (CallKind::Bare, "helper".into(), None),
            ]
        );
    }

    #[test]
    fn turbofish_calls_are_call_sites() {
        let got = sites(
            "fn f() { s.add::<A>(k); v.iter().sum::<u64>(); g::<Vec<fn() -> u8>>(); h::<T>; }\n",
        );
        let names: Vec<&str> = got.iter().map(|(_, n, _)| n.as_str()).collect();
        assert_eq!(names, ["add", "iter", "sum", "g"]);
        assert_eq!(got[0].0, CallKind::Method);
        assert_eq!(got[3].0, CallKind::Bare);
    }

    #[test]
    fn chained_receiver_is_none_and_keywords_are_skipped() {
        let got = sites("fn f() { shard_for(k).lock(); match (a, b) { _ => {} } }\n");
        assert_eq!(got.len(), 2);
        assert_eq!(got[0], (CallKind::Bare, "shard_for".into(), None));
        assert_eq!(got[1], (CallKind::Method, "lock".into(), None));
    }

    /// Every fn's call sites in `src`, each resolved from its own caller.
    fn resolved(src: &str) -> Vec<Vec<Vec<usize>>> {
        let f = SourceFile::new("crates/x/src/a.rs".into(), src.into());
        let items = parse_items(&f);
        let fns: Vec<(usize, FnItem)> = items.fns.iter().map(|i| (0usize, i.clone())).collect();
        let files = vec![f];
        let r = Resolver::new(&fns, &files);
        fns.iter()
            .map(|(_, item)| {
                let body: Vec<_> = item.body.into_iter().collect();
                extract_calls(&files[0], &body)
                    .iter()
                    .map(|c| r.resolve(c, 0, item, &fns, &BTreeMap::new()))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn self_method_resolves_within_impl_type() {
        let src = "\
impl Foo {
    fn a(&self) { self.b(); }
    fn b(&self) {}
}
impl Bar {
    fn b(&self) {}
}
";
        // Resolves to Foo::b only, not Bar::b.
        assert_eq!(resolved(src)[0], vec![vec![1]]);
    }

    #[test]
    fn receivers_and_type_paths_resolve_within_declared_types() {
        let src = "\
fn caller(s: &'a mut kernels::Scratch, v: Vec<u32>) {
    s.take(4);
    v.take();
    Vec::with_capacity(4);
    Scratch::with_capacity(4);
    scratch::reset();
}
impl Scratch {
    fn take(&mut self, n: usize) {}
    fn with_capacity(n: usize) -> Scratch { Self::reset() }
    fn reset() {}
}
impl Pool {
    fn take(&mut self, n: usize) {}
}
";
        let got = resolved(src);
        // A parameter's declared type narrows `take` to `Scratch::take`; a
        // generic one names nothing, and `take` stays ubiquitous. std's
        // `Vec` is not ours; a module path still resolves by name.
        assert_eq!(got[0], vec![vec![1], vec![], vec![], vec![2], vec![3]]);
        assert_eq!(got[2], vec![vec![3]], "`Self::` is the impl type");
    }

    #[test]
    fn a_call_to_a_parameter_resolves_to_nothing() {
        let src = "\
fn get_or_try_load<F>(key: u32, load: F) -> u32 { load(); helper() }
fn load() {}
fn helper() {}
";
        assert_eq!(resolved(src)[0], vec![vec![], vec![2]]);
    }

    #[test]
    fn test_fns_are_not_candidates_and_wide_fanout_is_dropped() {
        let mut src = String::from("fn caller() { frob(); common(); }\nfn frob() {}\n");
        for i in 0..6 {
            src.push_str(&format!("impl T{i} {{ fn common(&self) {{}} }}\n"));
        }
        let f = SourceFile::new("crates/x/src/a.rs".into(), src);
        let t = SourceFile::new(
            "crates/x/tests/t.rs".into(),
            "fn frob() { panic!() }\n".into(),
        );
        let items = parse_items(&f);
        let titems = parse_items(&t);
        let mut fns: Vec<(usize, FnItem)> = items.fns.iter().map(|i| (0usize, i.clone())).collect();
        fns.extend(titems.fns.iter().map(|i| (1usize, i.clone())));
        let files = vec![f, t];
        let r = Resolver::new(&fns, &files);
        let body = fns[0].1.body.unwrap();
        let calls = extract_calls(&files[0], &[body]);
        let frob = r.resolve(&calls[0], 0, &fns[0].1, &fns, &BTreeMap::new());
        assert_eq!(frob, vec![1], "test-scope frob is not a candidate");
        let common = r.resolve(&calls[1], 0, &fns[0].1, &fns, &BTreeMap::new());
        assert!(common.is_empty(), "6 candidates exceed AMBIG_LIMIT");
    }
}
