//! `nondeterminism`: protect the bit-identity invariants.
//!
//! Kill+resume (PR 4) and multi-worker serving (PR 2) are verified to be
//! bit-identical; both break the moment wall-clock time or hash-map
//! iteration order leaks into an output. This rule flags, in library code:
//!
//! - `Instant::now` / `SystemTime::now` — wall-clock reads. `crates/obs/`
//!   is allowlisted wholesale (timing is its whole job); the serving
//!   layer's queue-wait timestamps carry per-site allow-comments.
//! - iteration over a local/parameter known to be a `HashMap`/`HashSet`
//!   (`for .. in map`, `map.iter()`, `.keys()`, `.values()`, `.drain()`,
//!   `.into_iter()`), unless the same statement visibly sorts. Iteration
//!   order is randomized per process in principle; anything it feeds into
//!   an output must be order-insensitive — if it is, say so in an
//!   allow-comment.

use super::{is_lib_code, range_has, stmt_range, Rule};
use crate::diag::Finding;
use crate::lexer::TokKind;
use crate::source::SourceFile;
use crate::workspace::Workspace;
use std::collections::BTreeSet;

pub struct Nondeterminism;

/// Files whose entire purpose is measurement.
const PATH_ALLOWLIST: &[&str] = &["crates/obs/"];

const MAP_TYPES: &[&str] = &["HashMap", "HashSet"];
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
];
/// Evidence of re-ordering in the same statement: the iteration result is
/// sorted (or funneled through an ordered collection) before use.
const SORT_EVIDENCE: &[&str] = &[
    "sort",
    "sort_unstable",
    "sort_by",
    "sort_by_key",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "BTreeMap",
    "BTreeSet",
    "BinaryHeap",
];

impl Rule for Nondeterminism {
    fn id(&self) -> &'static str {
        "nondeterminism"
    }

    fn describe(&self) -> &'static str {
        "no wall-clock reads or HashMap-iteration-order dependence in library code"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        let audited = |f: &&SourceFile| !PATH_ALLOWLIST.iter().any(|p| f.path.starts_with(p));
        for f in ws.files.iter().filter(audited) {
            let maps = known_maps(f);
            for i in 0..f.code.len() {
                if f.code_kind(i) != Some(TokKind::Ident) || !is_lib_code(f, i) {
                    continue;
                }
                let t = f.code_text(i);
                // Instant::now / SystemTime::now
                if (t == "Instant" || t == "SystemTime")
                    && f.code_text(i + 1) == ":"
                    && f.code_text(i + 2) == ":"
                    && f.code_text(i + 3) == "now"
                {
                    out.push(Finding::new(
                        self.id(),
                        &f.path,
                        f.code_line(i),
                        format!(
                            "`{t}::now()` in library code: wall-clock reads break resume/serve \
                             bit-identity; take time as an input or move it behind kglink-obs"
                        ),
                    ));
                    continue;
                }
                // for .. in <map>
                if t == "for" {
                    if let Some((name, line)) = for_loop_over(f, i, &maps) {
                        out.push(map_iter_finding(self.id(), f, line, &name));
                    }
                    continue;
                }
                // <map>.iter() / .keys() / ...
                if maps.contains(t)
                    && f.code_text(i + 1) == "."
                    && ITER_METHODS.contains(&f.code_text(i + 2))
                    && f.code_text(i + 3) == "("
                {
                    let (s, e) = stmt_range(f, i);
                    if !range_has(f, s, e, |w| SORT_EVIDENCE.contains(&w)) {
                        out.push(map_iter_finding(self.id(), f, f.code_line(i), t));
                    }
                }
            }
        }
    }
}

fn map_iter_finding(id: &'static str, f: &SourceFile, line: u32, name: &str) -> Finding {
    Finding::new(
        id,
        &f.path,
        line,
        format!(
            "iteration over the HashMap/HashSet `{name}`: iteration order is \
             unspecified; sort before it reaches an output, or justify \
             order-insensitivity with an allow-comment"
        ),
    )
}

/// Names declared in this file with a `HashMap`/`HashSet` type: binds via
/// `name: HashMap<...>` (lets, fn params, struct fields) and via
/// `let [mut] name = HashMap::new()`-style constructor calls.
fn known_maps(f: &SourceFile) -> BTreeSet<String> {
    let mut maps = BTreeSet::new();
    for i in 0..f.code.len() {
        let t = f.code_text(i);
        if !MAP_TYPES.contains(&t) {
            continue;
        }
        // `name : HashMap` (possibly `&HashMap`, `&mut HashMap`).
        let mut j = i;
        while j >= 1 && matches!(f.code_text(j - 1), "&" | "mut") {
            j -= 1;
        }
        if j >= 2 && f.code_text(j - 1) == ":" && f.code_kind(j - 2) == Some(TokKind::Ident) {
            maps.insert(f.code_text(j - 2).to_string());
            continue;
        }
        // `name = HashMap::new(...)` / `with_capacity` / `default` / `from`.
        if j >= 2
            && f.code_text(j - 1) == "="
            && f.code_kind(j - 2) == Some(TokKind::Ident)
            && f.code_text(i + 1) == ":"
            && f.code_text(i + 2) == ":"
        {
            maps.insert(f.code_text(j - 2).to_string());
        }
    }
    maps
}

/// If the `for` loop starting at code index `i` iterates directly over a
/// known map (`for .. in [&[mut]] name {`), return (name, line-of-for).
fn for_loop_over(f: &SourceFile, i: usize, maps: &BTreeSet<String>) -> Option<(String, u32)> {
    // Find `in` at pattern depth 0, within a bounded window.
    let mut j = i + 1;
    let mut depth = 0i32;
    let limit = (i + 40).min(f.code.len());
    while j < limit {
        match f.code_text(j) {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            "in" if depth == 0 => break,
            "{" => return None,
            _ => {}
        }
        j += 1;
    }
    if j >= limit || f.code_text(j) != "in" {
        return None;
    }
    // Collect the iterated expression up to the body `{`; flag only the
    // direct form: optional `&`/`mut` then exactly one identifier.
    let mut name: Option<&str> = None;
    let mut k = j + 1;
    while k < (j + 6).min(f.code.len()) {
        match f.code_text(k) {
            "&" | "mut" => {}
            "{" => return name.map(|n| (n.to_string(), f.code_line(i))),
            w if f.code_kind(k) == Some(TokKind::Ident) && name.is_none() => {
                if !maps.contains(w) {
                    return None;
                }
                name = Some(w);
            }
            _ => return None,
        }
        k += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(path: &str, src: &str) -> Vec<u32> {
        let ws = Workspace::from_sources(vec![(path, src)]);
        let mut out = Vec::new();
        Nondeterminism.check(&ws, &mut out);
        out.into_iter().map(|x| x.line).collect()
    }

    #[test]
    fn flags_wall_clock_in_lib_but_not_in_obs_or_tests() {
        let src = "fn f() { let t = Instant::now(); let s = SystemTime::now(); }\n";
        assert_eq!(run("crates/serve/src/x.rs", src), vec![1, 1]);
        assert!(run("crates/obs/src/tracer.rs", src).is_empty());
        assert!(run("crates/serve/tests/x.rs", src).is_empty());
    }

    #[test]
    fn flags_for_loop_and_method_iteration_over_known_maps() {
        let src = "\
fn f(acc: HashMap<u32, f32>) {
    let mut tf: HashMap<&str, u32> = HashMap::new();
    for (k, v) in &acc { use_it(k, v); }
    let keys: Vec<_> = tf.keys().collect();
}
";
        assert_eq!(run("crates/search/src/x.rs", src), vec![3, 4]);
    }

    #[test]
    fn sorted_in_same_statement_is_clean_and_vecs_are_ignored() {
        let src = "\
fn f(m: HashMap<u32, u32>, v: Vec<u32>) {
    let mut ks: Vec<_> = m.keys().copied().collect::<Vec<_>>().sort_unstable();
    for x in &v { use_it(x); }
    for (k, w) in m.iter().collect::<std::collections::BTreeMap<_, _>>() { use_it(k, w); }
}
";
        assert!(run("crates/search/src/x.rs", src).is_empty());
    }

    #[test]
    fn constructor_bind_is_tracked() {
        let src = "fn f() { let seen = HashSet::new(); for s in &seen { g(s); } }\n";
        assert_eq!(run("crates/kg/src/x.rs", src), vec![1]);
    }
}
