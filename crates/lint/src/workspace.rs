//! The model every rule runs over: every file's tokens and item model, the
//! resolved call graph, and per-function summaries (local +
//! fixpoint-propagated), assembled once per lint run.

use crate::callgraph::{extract_calls, ResolvedCall, Resolver};
use crate::items::{brace_depths, parse_items, FnItem};
use crate::source::SourceFile;
use crate::summary::{
    local_summary, propagate, scan, wire_guard_returns, LocalSummary, Propagated,
};
use std::collections::BTreeMap;

/// Workspace-wide analysis state. All `Vec`s indexed by *fn index* are
/// parallel to [`Workspace::fns`].
pub struct Workspace {
    pub files: Vec<SourceFile>,
    /// `(file index, item)` for every fn in the workspace, in file order.
    pub fns: Vec<(usize, FnItem)>,
    /// Per-file `use` aliases (local name → real name).
    pub aliases: Vec<BTreeMap<String, String>>,
    /// Per-fn code-token ranges owned by that fn: its body minus any nested
    /// fns, so every token belongs to exactly one function.
    pub owned: Vec<Vec<(usize, usize)>>,
    /// Per-fn resolved call sites.
    pub calls: Vec<Vec<ResolvedCall>>,
    /// Per-fn local summaries.
    pub locals: Vec<LocalSummary>,
    /// Per-*file* summaries of the tokens no fn owns (signatures,
    /// `const`/`static` initialisers, macro bodies): sites only — a gap
    /// makes no calls and is nobody's callee.
    pub gaps: Vec<LocalSummary>,
    /// Per-fn propagated (transitive) summaries.
    pub props: Vec<Propagated>,
    /// Per-file brace-depth arrays (see [`brace_depths`]).
    pub depths: Vec<Vec<u32>>,
}

impl Workspace {
    pub fn build(files: Vec<SourceFile>) -> Workspace {
        let mut fns: Vec<(usize, FnItem)> = Vec::new();
        let mut aliases: Vec<BTreeMap<String, String>> = Vec::new();
        for (file_ix, f) in files.iter().enumerate() {
            let items = parse_items(f);
            aliases.push(items.aliases);
            fns.extend(items.fns.into_iter().map(|it| (file_ix, it)));
        }
        let depths: Vec<Vec<u32>> = files.iter().map(brace_depths).collect();
        let owned: Vec<Vec<(usize, usize)>> =
            (0..fns.len()).map(|i| owned_ranges(&fns, i)).collect();
        let resolver = Resolver::new(&fns, &files);
        let calls: Vec<Vec<ResolvedCall>> = fns
            .iter()
            .enumerate()
            .map(|(i, (file_ix, item))| {
                let f = &files[*file_ix];
                extract_calls(f, &owned[i])
                    .into_iter()
                    .map(|site| {
                        let callees =
                            resolver.resolve(&site, *file_ix, item, &fns, &aliases[*file_ix]);
                        ResolvedCall { site, callees }
                    })
                    .collect()
            })
            .collect();
        let mut locals: Vec<LocalSummary> = fns
            .iter()
            .enumerate()
            .map(|(i, (file_ix, item))| {
                local_summary(
                    &files[*file_ix],
                    *file_ix,
                    item,
                    &owned[i],
                    &depths[*file_ix],
                )
            })
            .collect();
        wire_guard_returns(&files, &fns, &calls, &mut locals);
        let props = propagate(fns.len(), &calls, &locals);
        let mut taken: Vec<Vec<(usize, usize)>> = vec![Vec::new(); files.len()];
        for (i, (file_ix, _)) in fns.iter().enumerate() {
            taken[*file_ix].extend(&owned[i]);
        }
        let gaps: Vec<LocalSummary> = files
            .iter()
            .enumerate()
            .map(|(file_ix, f)| {
                taken[file_ix].sort_unstable();
                let free = complement(&taken[file_ix], 0, f.code.len());
                scan(f, file_ix, None, &free, &depths[file_ix])
            })
            .collect();
        Workspace {
            files,
            fns,
            aliases,
            owned,
            calls,
            locals,
            gaps,
            props,
            depths,
        }
    }

    /// Build from `(path, text)` pairs — the rule-test entry point.
    pub fn from_sources<P: Into<String>, T: Into<String>>(sources: Vec<(P, T)>) -> Workspace {
        Workspace::build(
            sources
                .into_iter()
                .map(|(p, t)| SourceFile::new(p.into(), t.into()))
                .collect(),
        )
    }

    /// Every local summary with its file index — fns, then gaps — so a rule
    /// about sites covers each code token of a file exactly once.
    pub fn summaries(&self) -> impl Iterator<Item = (usize, &LocalSummary)> {
        let own = self
            .fns
            .iter()
            .zip(&self.locals)
            .map(|((file_ix, _), l)| (*file_ix, l));
        own.chain(self.gaps.iter().enumerate())
    }
}

/// The body of fn `i` minus the extents of fns nested inside it.
fn owned_ranges(fns: &[(usize, FnItem)], i: usize) -> Vec<(usize, usize)> {
    let (file_ix, item) = &fns[i];
    let Some((s, e)) = item.body else {
        return Vec::new();
    };
    // Extent of a nested fn in code tokens: `fn` keyword through its close
    // brace (or just the keyword pair for bodiless signatures).
    let mut holes: Vec<(usize, usize)> = fns
        .iter()
        .filter(|(fi, it)| fi == file_ix && it.decl_ix >= s && it.decl_ix < e)
        .map(|(_, it)| {
            let end = it
                .body
                .map(|(_, close)| close + 1)
                .unwrap_or(it.decl_ix + 2);
            (it.decl_ix, end.min(e))
        })
        .collect();
    holes.sort_unstable();
    complement(&holes, s, e)
}

/// The parts of `[start, end)` not covered by the sorted ranges `taken`.
fn complement(taken: &[(usize, usize)], start: usize, end: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut pos = start;
    for &(ts, te) in taken {
        if ts > pos {
            out.push((pos, ts));
        }
        pos = pos.max(te);
    }
    if pos < end {
        out.push((pos, end));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_fn_tokens_belong_to_the_nested_fn_only() {
        let ws = Workspace::from_sources(vec![(
            "crates/x/src/a.rs",
            "fn outer() {\n    before();\n    fn inner() { x.to_vec(); }\n    after();\n}\n\
             fn first() {\n    fn leading() { y.to_vec(); }\n}\n",
        )]);
        assert_eq!(ws.fns.len(), 4);
        // A nested fn that opens the body is still a hole in its parent.
        assert!(ws.locals[2].alloc_sites.is_empty() && ws.owned[2].is_empty());
        // outer sees its own calls but not inner's allocation.
        assert!(ws.locals[0].alloc_sites.is_empty());
        assert_eq!(ws.locals[1].alloc_sites.len(), 1);
        // And outer's owned ranges are split around inner.
        assert_eq!(ws.owned[0].len(), 2);
    }

    #[test]
    fn cross_file_resolution_feeds_propagation() {
        let ws = Workspace::from_sources(vec![
            (
                "crates/serve/src/a.rs",
                "use crate::b::helper;\npub fn entry() { helper(); }\n",
            ),
            (
                "crates/serve/src/b.rs",
                "pub fn helper() { std::fs::read(\"x\"); }\n",
            ),
        ]);
        let entry = ws
            .fns
            .iter()
            .position(|(_, it)| it.name == "entry")
            .expect("entry exists");
        let w = ws.props[entry].may_block.as_ref().expect("fs::read blocks");
        assert_eq!(w.via, vec!["helper".to_string()]);
    }
}
