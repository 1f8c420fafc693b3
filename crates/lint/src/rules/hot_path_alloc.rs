//! `hot-path-alloc`: kernel and layer forward/backward bodies must not
//! allocate — including through the helpers they call.
//!
//! The kernel layer's whole contract is that steady-state inference
//! performs zero heap allocations: every buffer comes from a preallocated
//! [`Scratch`] arena (`kglink_kernels::Scratch`), and the counting-allocator
//! test in `crates/nn/tests/alloc.rs` enforces the end-to-end guarantee.
//! That test only covers the paths it drives, though — a `vec![0.0; n]`
//! added to a rarely-taken branch regresses the per-call allocation count
//! without failing it. This rule is the static backstop. The allocation
//! idioms (`Vec::new()`, `vec![`, `.to_vec()`, `.clone()`) are recognised by
//! `summary::scan`; a finding is a witness chain from a hot body to one:
//!
//! 1. **Zero-length chains** — an allocation site inside a
//!    `fn forward`/`fn backward` body (fns nested in that body included) in
//!    the kernel crate (`crates/kernels/`) and the layer zoo
//!    (`crates/nn/src/layers/`), reported at the site.
//! 2. **Reach through helpers** — a forward/backward body calling (through
//!    any resolved chain) a function in those same hot-path crates whose
//!    body allocates. The helper itself is legal (`hot-path-alloc` only
//!    polices hot bodies), but calling it from a hot body moves the
//!    allocation onto the steady-state path; flagged at the call site.
//!    Allocations outside the hot-path crates are out of scope — the rest
//!    of the workspace allocates freely, and hot code calling into it
//!    (e.g. error construction on a cold branch) is the allocation-counting
//!    test's business, not this rule's.
//!
//! Training-path allocations that are *owned past the call* — a cache that
//! must outlive the caller's borrow of the input, for example — are
//! legitimate; they carry a justified
//! `// kglink-lint: allow(hot-path-alloc)` comment, which also stops the
//! site from propagating to callers.
//!
//! [`Scratch`]: ../../../kernels/src/scratch.rs

use super::Rule;
use crate::diag::Finding;
use crate::items::FnItem;
use crate::source::{Scope, SourceFile};
use crate::workspace::Workspace;
use std::collections::BTreeSet;

pub struct HotPathAlloc;

/// Path prefixes whose forward/backward bodies are hot-path code. The rest
/// of the workspace allocates freely.
const PATH_SCOPE: &[&str] = &["crates/kernels/", "crates/nn/src/layers/"];

/// Function names whose bodies the rule polices.
const HOT_FNS: &[&str] = &["forward", "backward"];

fn in_scope(f: &SourceFile) -> bool {
    f.scope == Scope::Lib && PATH_SCOPE.iter().any(|p| f.path.starts_with(p))
}

fn is_hot(f: &SourceFile, item: &FnItem) -> bool {
    in_scope(f) && !item.in_test && HOT_FNS.contains(&item.name.as_str())
}

impl Rule for HotPathAlloc {
    fn id(&self) -> &'static str {
        "hot-path-alloc"
    }

    fn describe(&self) -> &'static str {
        "kernel/layer forward and backward bodies allocate only through scratch arenas, including via helpers"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        // Own sites. Fns are listed in source order, a parent before the fns
        // nested in its body, so "inside the current hot body" is one
        // comparison against where that body closes.
        let mut hot_until: Option<(usize, usize)> = None;
        for (i, (file_ix, item)) in ws.fns.iter().enumerate() {
            let f = &ws.files[*file_ix];
            if !hot_until.is_some_and(|(hf, close)| hf == *file_ix && item.decl_ix < close) {
                hot_until = item.body.filter(|_| is_hot(f, item)).map(|(_, close)| (*file_ix, close));
            }
            if hot_until.is_none() {
                continue;
            }
            for site in &ws.locals[i].alloc_sites {
                out.push(Finding::new(
                    self.id(),
                    &f.path,
                    site.line,
                    format!(
                        "{} in a hot-path forward/backward body: take the buffer \
                         from the scratch arena (`kernels::with_thread_scratch`) or hoist \
                         it out of the call; if the allocation is a training cache that \
                         must own its data, justify it with an allow comment",
                        site.what
                    ),
                ));
            }
        }
        let mut seen: BTreeSet<(usize, u32, String)> = BTreeSet::new();
        for (i, (file_ix, item)) in ws.fns.iter().enumerate() {
            let f = &ws.files[*file_ix];
            if !is_hot(f, item) {
                continue;
            }
            for call in &ws.calls[i] {
                for &callee in &call.callees {
                    if callee == i {
                        continue;
                    }
                    let Some(w) = &ws.props[callee].may_alloc else {
                        continue;
                    };
                    let wf = &ws.files[w.site.file];
                    if !in_scope(wf) {
                        continue; // out-of-scope code allocates freely
                    }
                    // The fn owning the witness site is the last hop of the
                    // chain (or the callee itself); if that is a hot body in
                    // scope, the site is already reported where it stands.
                    let owner = w
                        .via
                        .last()
                        .map(String::as_str)
                        .unwrap_or(ws.fns[callee].1.name.as_str());
                    if HOT_FNS.contains(&owner) {
                        continue;
                    }
                    if !seen.insert((*file_ix, call.site.line, call.site.name.clone())) {
                        continue;
                    }
                    out.push(Finding::new(
                        self.id(),
                        &f.path,
                        call.site.line,
                        format!(
                            "`{}` body calls `{}` which allocates at {}:{} ({}){} — \
                             the helper puts a heap allocation on the steady-state \
                             path; take the buffer from the scratch arena or hoist \
                             it out of the hot body",
                            item.name,
                            call.site.name,
                            wf.path,
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

    fn run_files(files: Vec<(&str, &str)>) -> Vec<(String, u32, String)> {
        let ws = Workspace::from_sources(files);
        let mut out = Vec::new();
        HotPathAlloc.check(&ws, &mut out);
        out.into_iter()
            .map(|x| (x.path, x.line, x.message))
            .collect()
    }

    fn run(path: &str, src: &str) -> Vec<u32> {
        run_files(vec![(path, src)])
            .into_iter()
            .map(|(_, l, _)| l)
            .collect()
    }

    const HOT: &str = "\
pub fn forward(&self, x: &Tensor) -> Tensor {
    let cache = x.clone();
    let ids = self.ids.to_vec();
    let mut buf = vec![0.0f32; 8];
    let mut tails = Vec::new();
    buf[0] = 1.0;
    cache
}
";

    #[test]
    fn flags_all_four_patterns_in_forward() {
        assert_eq!(
            run("crates/nn/src/layers/linear.rs", HOT),
            vec![2, 3, 4, 5]
        );
        assert_eq!(run("crates/kernels/src/gemm.rs", HOT), vec![2, 3, 4, 5]);
    }

    #[test]
    fn backward_is_scanned_and_other_fns_are_not() {
        let src = "\
fn backward(&self) { let d = dy.clone(); }
fn infer(&self) { let y = x.clone(); }
fn helper() { let v = Vec::new(); }
";
        assert_eq!(run("crates/nn/src/layers/ffn.rs", src), vec![1]);
    }

    #[test]
    fn out_of_scope_paths_tests_and_signatures_are_exempt() {
        assert!(run("crates/core/src/train.rs", HOT).is_empty());
        assert!(run("crates/nn/src/encoder.rs", HOT).is_empty());
        assert!(run("crates/nn/tests/alloc.rs", HOT).is_empty());
        let inline = "#[cfg(test)]\nmod t {\n    fn forward() { let v = x.clone(); }\n}\n";
        assert!(run("crates/nn/src/layers/linear.rs", inline).is_empty());
        let sig = "trait Layer { fn forward(&self, x: &Tensor) -> Tensor; }\n";
        assert!(run("crates/nn/src/layers/linear.rs", sig).is_empty());
    }

    #[test]
    fn fn_nested_in_a_hot_body_is_part_of_it() {
        let src = "\
fn forward(&self) {
    fn pad(n: usize) -> Vec<f32> { vec![0.0; n] }
}
fn pad_cold(n: usize) -> Vec<f32> { vec![0.0; n] }
";
        assert_eq!(run("crates/nn/src/layers/linear.rs", src), vec![2]);
    }

    #[test]
    fn clone_with_arguments_and_plain_idents_do_not_match() {
        // `clone_from(...)`, a field named `clone`, and `to_vec` without a
        // receiver are not the flagged idioms.
        let src = "\
fn forward(&self) {
    a.clone_from(&b);
    let c = self.clone;
    let d = to_vec(x);
}
";
        assert!(run("crates/nn/src/layers/linear.rs", src).is_empty());
    }

    #[test]
    fn forward_calling_allocating_helper_is_flagged_at_the_call() {
        let src = "\
pub fn forward(x: &[f32]) -> f32 {
    let s = scale(x);
    s
}
fn scale(x: &[f32]) -> f32 {
    let owned = x.to_vec();
    owned[0]
}
";
        let hits = run_files(vec![("crates/kernels/src/norm.rs", src)]);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].1, 2);
        assert!(hits[0].2.contains("`scale`") && hits[0].2.contains("norm.rs:6"), "{}", hits[0].2);
    }

    #[test]
    fn helper_outside_hot_crates_is_not_flagged() {
        let hits = run_files(vec![
            (
                "crates/kernels/src/norm.rs",
                "pub fn forward(x: &[f32]) -> f32 { cold_error(x) }\n",
            ),
            (
                "crates/core/src/err.rs",
                "pub fn cold_error(x: &[f32]) -> f32 { let v = x.to_vec(); v[0] }\n",
            ),
        ]);
        assert!(hits.is_empty(), "{hits:?}");
    }
}
