//! `panic-in-lib`: no panic paths in library crates.
//!
//! The PR-1 bug class: a `.unwrap()` on a data-dependent value deep in the
//! retrieval or training pipeline turns one malformed table into a crashed
//! worker. Library code must return typed errors; the only sanctioned
//! escapes are a `// kglink-lint: allow(panic-in-lib) — <why the invariant
//! holds>` comment, or genuinely test-scoped code (`tests/`, `benches/`,
//! `examples/`, binaries, and inline `#[cfg(test)]` modules are exempt).
//!
//! A finding is a witness chain to a panic site (`summary::scan` records
//! them; nothing here matches tokens):
//!
//! 1. **Zero-length chains** — every panic macro and `.unwrap()`/`.expect()`
//!    at a lib-scope token, inside a fn or in the gaps between fns
//!    (`const`/`static` initialisers), reported at the site.
//! 2. **Cross-scope reach** — a lib function calling (through any resolved
//!    chain) a function whose panic site lives *outside* lib scope, reported
//!    at the call. Sites inside lib scope are not re-reported through calls:
//!    layer 1 already anchors them, and one finding per site keeps
//!    allow-comments one-per-site too. A panic site excused by a justified
//!    allow does not propagate — the vouched invariant covers callers as
//!    well.

use super::Rule;
use crate::diag::Finding;
use crate::source::Scope;
use crate::workspace::Workspace;
use std::collections::BTreeSet;

pub struct PanicInLib;

impl Rule for PanicInLib {
    fn id(&self) -> &'static str {
        "panic-in-lib"
    }

    fn describe(&self) -> &'static str {
        "no panic paths in library code, including calls into non-lib helpers that panic"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        for (file_ix, summary) in ws.summaries() {
            let f = &ws.files[file_ix];
            if f.scope != Scope::Lib {
                continue;
            }
            for site in &summary.panic_sites {
                let advice = if site.what.ends_with("!`") {
                    "return a typed error instead"
                } else {
                    "propagate the error (`?`) or handle it; if the invariant is \
                     structural, justify with an allow-comment"
                };
                out.push(Finding::new(
                    self.id(),
                    &f.path,
                    site.line,
                    format!("{} in library code: {advice}", site.what),
                ));
            }
        }
        // Lib fn → (chain) → panic site outside lib scope. One finding per
        // (caller line, callee) even when several callees resolve.
        let mut seen: BTreeSet<(usize, u32, String)> = BTreeSet::new();
        for (i, (file_ix, item)) in ws.fns.iter().enumerate() {
            let f = &ws.files[*file_ix];
            if f.scope != Scope::Lib || item.in_test {
                continue;
            }
            for call in &ws.calls[i] {
                for &callee in &call.callees {
                    let Some(w) = &ws.props[callee].may_panic else {
                        continue;
                    };
                    if ws.files[w.site.file].scope == Scope::Lib {
                        continue; // anchored at the site itself
                    }
                    if !seen.insert((*file_ix, call.site.line, call.site.name.clone())) {
                        continue;
                    }
                    out.push(Finding::new(
                        self.id(),
                        &f.path,
                        call.site.line,
                        format!(
                            "calls `{}` which can panic at {}:{} ({}){} — the site is \
                             outside lib scope so it is not flagged where it stands; \
                             return a typed error from the helper or isolate the call",
                            call.site.name,
                            ws.files[w.site.file].path,
                            w.site.line,
                            w.site.what,
                            w.via_text(),
                        ),
                    ));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(files: Vec<(&str, &str)>) -> Vec<(String, u32, String)> {
        let ws = Workspace::from_sources(files);
        let mut out = Vec::new();
        PanicInLib.check(&ws, &mut out);
        out.into_iter()
            .map(|x| (x.path, x.line, x.message))
            .collect()
    }

    fn run_one(path: &str, src: &str) -> Vec<(u32, String)> {
        run(vec![(path, src)])
            .into_iter()
            .map(|(_, l, m)| (l, m))
            .collect()
    }

    #[test]
    fn flags_unwrap_expect_and_macros_in_lib() {
        let src = "fn f() {\n x.unwrap();\n y.expect(\"m\");\n panic!(\"no\");\n unreachable!()\n}\n";
        let hits = run_one("crates/kg/src/io.rs", src);
        assert_eq!(
            hits.iter().map(|(l, _)| *l).collect::<Vec<_>>(),
            vec![2, 3, 4, 5]
        );
    }

    #[test]
    fn ignores_lookalikes_and_non_lib_scopes() {
        // unwrap_or / expect_err / should_panic are different identifiers;
        // strings and comments are opaque; tests and bins are out of scope.
        let src = "fn f() { x.unwrap_or(0); y.expect_err(\"m\"); }\n// x.unwrap()\nlet s = \"panic!\";\n";
        assert!(run_one("crates/kg/src/io.rs", src).is_empty());
        let panicky = "fn f() { x.unwrap(); }";
        assert!(run_one("crates/kg/tests/t.rs", panicky).is_empty());
        assert!(run_one("crates/bench/src/lib.rs", panicky).is_empty());
        assert!(run_one("src/main.rs", panicky).is_empty());
    }

    #[test]
    fn cfg_test_modules_inside_lib_files_are_exempt() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n fn t() { x.unwrap(); }\n}\n";
        assert!(run_one("crates/kg/src/io.rs", src).is_empty());
    }

    #[test]
    fn const_initialisers_outside_any_fn_are_seen() {
        let src = "const LIMIT: u32 = parse(\"7\").unwrap();\nstatic S: u8 = unreachable!();\nfn f() {}\n";
        let hits = run_one("crates/kg/src/io.rs", src);
        assert_eq!(hits.iter().map(|(l, _)| *l).collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn panic_path_reference_without_bang_is_fine() {
        assert!(run_one("crates/serve/src/x.rs", "use std::panic::catch_unwind;\n").is_empty());
    }

    #[test]
    fn lib_call_into_panicking_bin_helper_is_flagged_at_the_call() {
        let hits = run(vec![
            (
                "crates/serve/src/a.rs",
                "use crate::util::must;\npub fn entry() -> u32 {\n    must(3)\n}\n",
            ),
            (
                "crates/bench/src/lib.rs",
                "pub fn must(x: u32) -> u32 { x.checked_mul(2).unwrap() }\n",
            ),
        ]);
        assert_eq!(hits.len(), 1, "{hits:?}");
        let (path, line, msg) = &hits[0];
        assert!(path.ends_with("a.rs"));
        assert_eq!(*line, 3);
        assert!(msg.contains("`must`") && msg.contains("bench/src/lib.rs:1"), "{msg}");
    }

    #[test]
    fn lib_to_lib_panics_are_reported_once_at_the_site_only() {
        let hits = run(vec![
            ("crates/serve/src/a.rs", "pub fn entry() { helper(); }\n"),
            (
                "crates/serve/src/b.rs",
                "pub fn helper() { x.unwrap(); }\n",
            ),
        ]);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].0.ends_with("b.rs"));
    }

    #[test]
    fn excused_panic_site_does_not_propagate_to_callers() {
        let hits = run(vec![
            ("crates/serve/src/a.rs", "pub fn entry() { vouched(); }\n"),
            (
                "crates/bench/src/lib.rs",
                "pub fn vouched() {\n    // kglink-lint: allow(panic-in-lib) — bounded at construction\n    x.unwrap();\n}\n",
            ),
        ]);
        assert!(hits.is_empty(), "{hits:?}");
    }
}
