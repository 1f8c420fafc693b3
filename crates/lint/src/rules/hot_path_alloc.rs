//! `hot-path-alloc`: steady-state inference allocates nothing — checked
//! from the packed encoder forward down through every helper it reaches —
//! and neither does the graph's answer tier's own code on a read.
//!
//! Inference runs `Encoder::forward_packed` → `block_rows` → `gemm_rows`
//! (`crates/nn/src/encoder.rs`), and every buffer they need comes from a
//! preallocated [`Scratch`] arena (`kglink_kernels::Scratch`). The
//! counting-allocator test in `crates/nn/tests/alloc.rs` pins the real
//! allocation count to zero, but only on the paths it drives — a
//! `vec![0.0; n]` added to a rarely-taken branch regresses it without
//! failing. This rule is the static backstop. The allocation idioms
//! `summary::scan` recognises (`Vec::new()`, `Vec::with_capacity(..)`,
//! `vec![..]`, `.to_vec()`, `.clone()`) are flagged where they stand in
//! the three roots and in every non-test fn of `crates/kernels/src` and
//! `crates/nn/src` the roots reach through resolved calls; the message
//! carries the chain from the root. Code outside those crates allocates
//! freely — a cold error branch that formats a message is the counting
//! test's business, not this rule's.
//!
//! The store's answer tier (`crates/store/src/hoptier.rs`) is the second
//! root: `AnswerTier::get` runs for nearly every label, schema and
//! neighbourhood a hot table reads. What is checked there is the tier's
//! own code on that path — its probe, its copy-forward and its flip —
//! which writes only into the generations' preallocated arrays. The
//! decoder that builds the caller's answer (`A::read`, a `Vec` or `String`
//! on every hit) resolves to no workspace fn and is not checked: the
//! answer is the caller's to own, as a block read's was before.
//!
//! The one sanctioned site is `Scratch::take`'s pool miss: it happens
//! during warm-up only and carries a justified
//! `// kglink-lint: allow(hot-path-alloc)`. A root that no longer exists is
//! itself a finding once its crate is linted, so renaming one fails the
//! gate instead of silently checking nothing.
//!
//! [`Scratch`]: ../../../kernels/src/scratch.rs

use super::Rule;
use crate::diag::Finding;
use crate::source::Scope;
use crate::workspace::Workspace;
use std::collections::VecDeque;

pub struct HotPathAlloc;

/// The file holding the packed inference forward.
const ROOT_FILE: &str = "crates/nn/src/encoder.rs";

/// The file holding the store's answer tier.
const TIER_FILE: &str = "crates/store/src/hoptier.rs";

/// Where reachability starts: the inference forward's fns in
/// [`ROOT_FILE`] and the tier's read in [`TIER_FILE`].
const ROOTS: &[(&str, &str)] = &[
    (ROOT_FILE, "forward_packed"),
    (ROOT_FILE, "block_rows"),
    (ROOT_FILE, "gemm_rows"),
    (TIER_FILE, "get"),
];

/// Code whose fns are on a hot path once a root reaches them.
const HELPER_SCOPE: &[&str] = &["crates/kernels/src/", "crates/nn/src/", TIER_FILE];

/// The `crates/<name>/src/` directory holding `path`.
fn crate_src(path: &str) -> &str {
    path.find("/src/")
        .map_or(path, |i| &path[..i + "/src/".len()])
}

impl Rule for HotPathAlloc {
    fn id(&self) -> &'static str {
        "hot-path-alloc"
    }

    fn describe(&self) -> &'static str {
        "the packed inference forward and every kernels/nn fn it reaches allocate only through scratch arenas; the answer tier's probe, copy-forward and flip allocate nothing (the decoder that builds the caller's answer is not checked)"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        let on_path = |i: usize| {
            let (file_ix, item) = &ws.fns[i];
            let f = &ws.files[*file_ix];
            f.scope == Scope::Lib
                && !item.in_test
                && HELPER_SCOPE.iter().any(|p| f.path.starts_with(p))
        };
        // Breadth-first from the roots over resolved calls; `chain[i]` is
        // the call chain that first reached fn `i`, root name first.
        let mut chain: Vec<Option<Vec<String>>> = vec![None; ws.fns.len()];
        let mut queue = VecDeque::new();
        for &(file, root) in ROOTS {
            // Only a run that lints a root's crate can hold the root.
            if !ws.files.iter().any(|f| f.path.starts_with(crate_src(file))) {
                continue;
            }
            let found = (0..ws.fns.len()).find(|&i| {
                let (file_ix, item) = &ws.fns[i];
                ws.files[*file_ix].path == file
                    && item.name == root
                    && item.body.is_some()
                    && on_path(i)
            });
            let Some(i) = found else {
                out.push(Finding::new(
                    self.id(),
                    file,
                    0,
                    format!(
                        "hot-path root `fn {root}` not found in {file}: the rule would check \
                         nothing; point `ROOTS` at its new name"
                    ),
                ));
                continue;
            };
            chain[i] = Some(vec![root.to_string()]);
            queue.push_back(i);
        }
        while let Some(i) = queue.pop_front() {
            for call in &ws.calls[i] {
                for &callee in &call.callees {
                    if chain[callee].is_some() || !on_path(callee) {
                        continue;
                    }
                    let mut via = chain[i].clone().unwrap_or_default();
                    via.push(call.site.name.clone());
                    chain[callee] = Some(via);
                    queue.push_back(callee);
                }
            }
        }
        for (i, via) in chain.iter().enumerate() {
            let Some(via) = via else { continue };
            let f = &ws.files[ws.fns[i].0];
            for site in &ws.locals[i].alloc_sites {
                out.push(Finding::new(
                    self.id(),
                    &f.path,
                    site.line,
                    format!(
                        "{} on a hot path (`{}`): take the buffer from the scratch arena \
                         or hoist it out of the call",
                        site.what,
                        via.join(" → "),
                    ),
                ));
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
        HotPathAlloc.check(&ws, &mut out);
        out.into_iter()
            .map(|x| (x.path, x.line, x.message))
            .collect()
    }

    fn lines(files: Vec<(&str, &str)>) -> Vec<(String, u32)> {
        run(files).into_iter().map(|(p, l, _)| (p, l)).collect()
    }

    /// All three roots, allocation-free, calling `helper` from `gemm_rows`.
    const ROOTS_SRC: &str = "\
fn forward_packed(&self) { block_rows(); }
fn block_rows() { gemm_rows(); }
fn gemm_rows() { helper(); }
";

    #[test]
    fn flags_every_idiom_in_a_root() {
        let src = "\
fn forward_packed(&self, x: &Tensor) { block_rows(); gemm_rows(); }
fn block_rows(x: &Tensor) {
    let a = x.clone();
    let b = x.ids.to_vec();
    let c = vec![0.0f32; 8];
    let d = Vec::new();
    let e = Vec::with_capacity(8);
}
fn gemm_rows() {}
";
        let got = lines(vec![(ROOT_FILE, src)]);
        let want: Vec<(String, u32)> = (3..=7).map(|l| (ROOT_FILE.to_string(), l)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn reachable_helper_is_flagged_at_its_site_with_the_chain() {
        let hits = run(vec![
            (ROOT_FILE, ROOTS_SRC),
            (
                "crates/kernels/src/norm.rs",
                "pub fn helper() { scale(); }\nfn scale(x: &[f32]) { let o = x.to_vec(); }\n",
            ),
        ]);
        assert_eq!(hits.len(), 1, "{hits:?}");
        let (path, line, msg) = &hits[0];
        assert_eq!((path.as_str(), *line), ("crates/kernels/src/norm.rs", 2));
        assert!(msg.contains("`gemm_rows → helper → scale`"), "{msg}");
    }

    #[test]
    fn unreachable_test_and_out_of_scope_code_is_exempt() {
        let hits = lines(vec![
            (ROOT_FILE, ROOTS_SRC),
            // Reached, but outside the kernels/nn crates.
            (
                "crates/core/src/err.rs",
                "pub fn helper() { let v = Vec::new(); }\n",
            ),
            // In scope, but no root reaches it (training code).
            (
                "crates/nn/src/layers/linear.rs",
                "pub fn forward(x: &Tensor) { let c = x.clone(); }\n",
            ),
            // Reached by name, but test code.
            (
                "crates/nn/src/tensor.rs",
                "#[cfg(test)]\nmod t {\n    fn helper() { let v = vec![1]; }\n}\n",
            ),
        ]);
        assert!(hits.is_empty(), "{hits:?}");
    }

    #[test]
    fn lookalikes_do_not_match() {
        // `clone_from(...)`, a field named `clone`, `to_vec` without a
        // receiver, and `Vec::from` are not the flagged idioms.
        let src = "\
fn forward_packed() { block_rows(); gemm_rows(); }
fn block_rows(&self) {
    a.clone_from(&b);
    let c = self.clone;
    let d = to_vec(x);
    let e = Vec::from(x);
}
fn gemm_rows() {}
";
        assert!(lines(vec![(ROOT_FILE, src)]).is_empty());
    }

    #[test]
    fn a_missing_root_is_a_finding_once_the_nn_crate_is_linted() {
        let renamed =
            "fn forward_packed() { block_rows(); }\nfn block_rows() {}\nfn gemm_rows_v2() {}\n";
        let hits = run(vec![(ROOT_FILE, renamed)]);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!((hits[0].0.as_str(), hits[0].1), (ROOT_FILE, 0));
        assert!(hits[0].2.contains("`fn gemm_rows`"), "{}", hits[0].2);
        // A moved file loses all three roots.
        let moved = run(vec![("crates/nn/src/forward.rs", ROOTS_SRC)]);
        assert_eq!(moved.len(), 3, "{moved:?}");
        // A run that does not lint the nn crate has no roots to look for.
        assert!(run(vec![("crates/kernels/src/gemm.rs", "fn gemm() {}\n")]).is_empty());
        // One that lints the store crate looks for the tier's read.
        let hits = run(vec![("crates/store/src/backend.rs", "fn get() {}\n")]);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!((hits[0].0.as_str(), hits[0].1), (TIER_FILE, 0));
    }

    #[test]
    fn the_tier_read_and_what_it_reaches_in_the_tier_are_checked() {
        let tier = "\
impl AnswerTier {
    pub(crate) fn get<A: Answer>(&self, id: EntityId) -> Option<A> {
        let words = self.find(id);
        self.keep::<A>(words);
        Some(A::read(words))
    }
    fn find(&self, id: EntityId) -> &[u32] { &self.arena[..] }
    fn keep<A: Answer>(&mut self, words: &[u32]) { self.young = words.to_vec(); }
    fn insert(&self, list: &[u32]) { let owned = list.to_vec(); }
}
impl Answer for String {
    fn read(words: &[u32]) -> Self { String::from_utf8(words.to_vec()) }
}
";
        // `keep` is reached through its turbofish; `insert` is not, and
        // `A::read` resolves to
        // no workspace fn (the decoder builds the caller's answer).
        let got = lines(vec![
            (TIER_FILE, tier),
            (
                "crates/store/src/backend.rs",
                "fn get() { let v = Vec::new(); }\n",
            ),
        ]);
        assert_eq!(got, vec![(TIER_FILE.to_string(), 8)]);
    }
}
