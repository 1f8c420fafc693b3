//! `deadline-drop`: a function that receives a `Deadline` and reaches a
//! `KgBackend` retrieval call must forward the deadline it was given.
//!
//! Deadline propagation is the PR-1/PR-2 contract: the serve layer budgets
//! each request, and every retrieval hop subtracts what it spent, so a
//! stalling KG backend degrades one column (the paper's Table IV no-linkage
//! fallback) instead of wedging a worker. A function that *accepts* a
//! `Deadline` parameter but reaches `search_entities`/`link_mention` —
//! directly or through any resolved call chain — without ever mentioning
//! that parameter has silently opted its subtree out of the budget: the
//! backend call runs unbounded (or on a deadline it invented), and the
//! caller's budget math is fiction.
//!
//! The check is name-based on the per-fn summaries: the parameter's type
//! text must contain `Deadline`, and "forwarded" means the parameter name
//! appears anywhere in the function's own body (passing it on, checking
//! `remaining()`, or rebudgeting from it all count). Findings anchor at the
//! `fn` declaration line, so a justified allow sits on the signature.
//! Bodiless trait signatures are exempt — the obligation is the
//! implementor's.

use super::Rule;
use crate::diag::Finding;
use crate::source::Scope;
use crate::workspace::Workspace;

pub struct DeadlineDrop;

impl Rule for DeadlineDrop {
    fn id(&self) -> &'static str {
        "deadline-drop"
    }

    fn describe(&self) -> &'static str {
        "a fn receiving a Deadline that reaches a KgBackend call must forward the deadline"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        for (i, (file_ix, item)) in ws.fns.iter().enumerate() {
            let f = &ws.files[*file_ix];
            if f.scope != Scope::Lib || item.in_test || item.body.is_none() {
                continue;
            }
            let dropped: Vec<&str> = ws.locals[i]
                .deadline_params
                .iter()
                .filter(|(_, used)| !used)
                .map(|(name, _)| name.as_str())
                .collect();
            if dropped.is_empty() {
                continue;
            }
            // Does this fn reach a backend call at all?
            let reach = ws.locals[i]
                .backend_calls
                .first()
                .map(|s| {
                    (
                        ws.files[s.file].path.clone(),
                        s.line,
                        s.what.clone(),
                        String::new(),
                    )
                })
                .or_else(|| {
                    ws.calls[i].iter().find_map(|call| {
                        call.callees.iter().find_map(|&callee| {
                            if callee == i {
                                return None;
                            }
                            ws.props[callee].reaches_backend.as_ref().map(|w| {
                                (
                                    ws.files[w.site.file].path.clone(),
                                    w.site.line,
                                    w.site.what.clone(),
                                    format!(
                                        " via `{}`{}",
                                        call.site.name,
                                        w.via_text().replace(" via ", " → "),
                                    ),
                                )
                            })
                        })
                    })
                });
            let Some((wpath, wline, what, via)) = reach else {
                continue;
            };
            for name in dropped {
                out.push(Finding::new(
                    self.id(),
                    &f.path,
                    item.line,
                    format!(
                        "`{}` receives `{name}: Deadline` but reaches {what} at \
                         {wpath}:{wline}{via} without ever using `{name}` — the \
                         backend call escapes the caller's budget; forward the \
                         deadline (or rebudget from it)",
                        item.name,
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
        DeadlineDrop.check(&ws, &mut out);
        out.into_iter()
            .map(|x| (x.path, x.line, x.message))
            .collect()
    }

    #[test]
    fn forwarded_and_rebudgeted_deadlines_are_clean() {
        let src = "\
impl R {
    fn fetch(&self, q: &str, deadline: Deadline) -> Hits {
        self.backend.search_entities(q, 5, deadline)
    }
    fn careful(&self, q: &str, deadline: Deadline) -> Hits {
        let per_hop = deadline.split(2);
        self.backend.search_entities(q, 5, per_hop)
    }
}
";
        assert!(run(vec![("crates/kg/src/retry.rs", src)]).is_empty());
    }

    #[test]
    fn dropped_deadline_before_a_direct_backend_call_is_flagged() {
        let src = "\
impl R {
    fn fetch(&self, q: &str, deadline: Deadline) -> Hits {
        self.backend.search_entities(q, 5, Deadline::UNBOUNDED)
    }
}
";
        let hits = run(vec![("crates/kg/src/retry.rs", src)]);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].1, 2, "anchored at the fn declaration");
        assert!(hits[0].2.contains("`deadline: Deadline`"), "{}", hits[0].2);
    }

    #[test]
    fn dropped_deadline_before_an_indirect_backend_call_is_flagged() {
        let src = "\
impl R {
    fn annotate(&self, col: &Column, deadline: Deadline) {
        self.resolve_all(col);
    }
    fn resolve_all(&self, col: &Column) {
        self.backend.link_mention(col.cell(0), Deadline::UNBOUNDED);
    }
}
";
        let hits = run(vec![("crates/serve/src/svc.rs", src)]);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].1, 2);
        assert!(
            hits[0].2.contains("via `resolve_all`") && hits[0].2.contains("link_mention"),
            "{}",
            hits[0].2
        );
    }

    #[test]
    fn terminal_fns_trait_sigs_and_tests_are_exempt() {
        // No backend call anywhere below: dropping the deadline is fine
        // (e.g. an in-memory backend that answers instantly).
        let terminal = "\
impl Mem {
    fn search(&self, q: &str, _deadline: Deadline) -> Hits {
        self.table.get(q)
    }
}
";
        assert!(run(vec![("crates/kg/src/mem.rs", terminal)]).is_empty());
        let sig = "trait KgBackend { fn search_entities(&self, q: &str, k: usize, deadline: Deadline) -> Hits; }\n";
        assert!(run(vec![("crates/kg/src/backend.rs", sig)]).is_empty());
        let test_file = "\
fn drive(b: &B, deadline: Deadline) {
    b.search_entities(\"q\", 5, Deadline::UNBOUNDED);
}
";
        assert!(run(vec![("crates/kg/tests/t.rs", test_file)]).is_empty());
    }
}
