//! `lock-order`: deadlock-freedom and poison-audit hygiene in the
//! concurrent crates (`crates/serve`, `crates/search`).
//!
//! Three checks:
//!
//! 1. **Pairwise acquisition order, across calls.** Every function's
//!    acquisition sequence comes from its local summary (lock receivers
//!    qualified by `impl` type, so `self.state` in two `BoundedQueue`
//!    methods is one lock), recording all ordered pairs. On top of that,
//!    every call made *while a guard is held* (the summary's hold region
//!    covers the call site) contributes pairs against everything the callee
//!    transitively acquires. If any function establishes `A` before `B` and
//!    another `B` before `A` — directly or through calls — both witnesses
//!    are flagged: the classic ABBA deadlock shape. Local pair recording is
//!    deliberately hold-*insensitive* (sequential acquire/release still
//!    defines an order); call-edge pairs are hold-gated. False positives on
//!    genuinely release-separated sequences take a justified allow.
//! 2. **Reentrancy.** A call reachable while `A` is held into a callee
//!    that (transitively) acquires `A` again is a guaranteed self-deadlock
//!    with `std::sync::Mutex` — flagged at the call site with the chain.
//! 3. **Poison audit.** PR 4 established that serve/search locks recover
//!    from a panicked sibling with `unwrap_or_else(PoisonError::into_inner)`
//!    after arguing each guarded structure is re-validatable. A bare
//!    `.lock().unwrap()` / `.read().expect(...)` bypasses that audit and
//!    re-introduces poison cascades; it is flagged here (on top of
//!    clippy's `expect_used`/`unwrap_used` in lib code) even in binaries
//!    and outside fn bodies.

use super::Rule;
use crate::diag::Finding;
use crate::source::SourceFile;
use crate::workspace::Workspace;
use std::collections::{BTreeMap, BTreeSet};

pub struct LockOrder;

#[derive(Clone)]
struct Witness {
    path: String,
    func: String,
    line: u32,
}

/// Crates whose locking discipline this rule audits.
const CRATE_ALLOWLIST: &[&str] = &["crates/serve/", "crates/search/"];

impl Rule for LockOrder {
    fn id(&self) -> &'static str {
        "lock-order"
    }

    fn describe(&self) -> &'static str {
        "consistent lock order across call chains; no reentrant acquisition; no bare lock().unwrap() past the poison audit"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        // Poison audit: every non-test token of the audited crates, any
        // scope, in a fn or between fns.
        for (file_ix, summary) in ws.summaries() {
            let f = &ws.files[file_ix];
            if !in_scope(f) {
                continue;
            }
            for site in &summary.poison_sites {
                out.push(Finding::new(
                    self.id(),
                    &f.path,
                    site.line,
                    format!(
                        "{} bypasses the PoisonError::into_inner audit: a \
                         panicked sibling poisons this lock and the panic \
                         cascades; recover with \
                         `unwrap_or_else(PoisonError::into_inner)` after checking \
                         the guarded state is re-validatable",
                        site.what,
                    ),
                ));
            }
        }
        // (first, second) → earliest witness establishing that order.
        let mut pairs: BTreeMap<(String, String), Witness> = BTreeMap::new();
        let mut reentrant: BTreeSet<(String, u32, String)> = BTreeSet::new();
        for (i, (file_ix, item)) in ws.fns.iter().enumerate() {
            let f = &ws.files[*file_ix];
            if !in_scope(f) || item.in_test {
                continue;
            }
            let locks = &ws.locals[i].locks;
            // Local ordered pairs.
            let mut ordered: Vec<&str> = Vec::new();
            for lk in locks {
                if ordered.contains(&lk.name.as_str()) {
                    continue;
                }
                for &prev in &ordered {
                    pairs
                        .entry((prev.to_string(), lk.name.clone()))
                        .or_insert_with(|| Witness {
                            path: f.path.clone(),
                            func: item.name.clone(),
                            line: lk.line,
                        });
                }
                ordered.push(&lk.name);
            }
            // Call-edge pairs: calls made while a guard is held order the
            // held lock before everything the callee transitively acquires.
            for call in &ws.calls[i] {
                let held: Vec<_> = locks
                    .iter()
                    .filter(|lk| lk.hold.0 < call.site.ix && call.site.ix < lk.hold.1)
                    .collect();
                if held.is_empty() {
                    continue;
                }
                for &callee in &call.callees {
                    if callee == i {
                        continue;
                    }
                    for (acq, w) in &ws.props[callee].acquires {
                        for lk in &held {
                            if *acq == lk.name {
                                if reentrant.insert((f.path.clone(), call.site.line, acq.clone())) {
                                    out.push(Finding::new(
                                        self.id(),
                                        &f.path,
                                        call.site.line,
                                        format!(
                                            "`{}` calls `{}` while holding `{}`, and the \
                                             callee acquires `{}` again{} — guaranteed \
                                             self-deadlock with std::sync::Mutex",
                                            item.name,
                                            call.site.name,
                                            lk.name,
                                            acq,
                                            w.via_text(),
                                        ),
                                    ));
                                }
                            } else {
                                pairs
                                    .entry((lk.name.clone(), acq.clone()))
                                    .or_insert_with(|| Witness {
                                        path: f.path.clone(),
                                        func: format!("{} (via `{}`)", item.name, call.site.name),
                                        line: call.site.line,
                                    });
                            }
                        }
                    }
                }
            }
        }
        for ((a, b), w) in &pairs {
            let Some(rev) = pairs.get(&(b.clone(), a.clone())) else {
                continue;
            };
            // Report each conflicting pair once, from the lexicographically
            // first side, anchored at both witnesses.
            if a >= b {
                continue;
            }
            for (here, there, first, second) in [(w, rev, a, b), (rev, w, b, a)] {
                out.push(Finding::new(
                    self.id(),
                    &here.path,
                    here.line,
                    format!(
                        "inconsistent lock order: `{}` acquires `{first}` then \
                         `{second}`, but `{}` ({}:{}) acquires them in the opposite \
                         order — potential ABBA deadlock",
                        here.func, there.func, there.path, there.line
                    ),
                ));
            }
        }
    }
}

fn in_scope(f: &SourceFile) -> bool {
    CRATE_ALLOWLIST.iter().any(|p| f.path.starts_with(p))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(files: Vec<(&str, &str)>) -> Vec<(String, u32, String)> {
        let ws = Workspace::from_sources(files);
        let mut out = Vec::new();
        LockOrder.check(&ws, &mut out);
        out.into_iter()
            .map(|x| (x.path, x.line, x.message))
            .collect()
    }

    #[test]
    fn abba_order_is_flagged_at_both_sites() {
        let ab = "fn f(&self) {\n let a = self.a.lock();\n let b = self.b.lock();\n}\n";
        let ba = "fn g(&self) {\n let b = self.b.lock();\n let a = self.a.lock();\n}\n";
        let hits = run(vec![
            ("crates/serve/src/x.rs", ab),
            ("crates/search/src/y.rs", ba),
        ]);
        assert_eq!(hits.len(), 2, "{hits:?}");
        assert!(hits.iter().any(|(p, l, _)| p.ends_with("x.rs") && *l == 3));
        assert!(hits.iter().any(|(p, l, _)| p.ends_with("y.rs") && *l == 3));
        assert!(hits[0].2.contains("ABBA"));
    }

    #[test]
    fn consistent_order_and_single_locks_are_clean() {
        let ab = "fn f(&self) { let a = self.a.lock(); let b = self.b.lock(); }\n";
        let ab2 = "fn g(&self) { let a = self.a.lock(); let b = self.b.lock(); }\nfn h(&self) { self.b.lock(); }\n";
        assert!(run(vec![
            ("crates/serve/src/x.rs", ab),
            ("crates/serve/src/y.rs", ab2),
        ])
        .is_empty());
    }

    #[test]
    fn bare_unwrap_on_lock_is_flagged_but_poison_recovery_is_not() {
        let src = "\
fn f(&self) {
    self.state.lock().unwrap();
    self.state.lock().unwrap_or_else(PoisonError::into_inner);
    self.log.read().expect(\"poisoned\");
}
";
        let hits = run(vec![("crates/serve/src/x.rs", src)]);
        assert_eq!(
            hits.iter().map(|(_, l, _)| *l).collect::<Vec<_>>(),
            vec![2, 4]
        );
    }

    #[test]
    fn io_read_write_with_args_are_not_acquisitions() {
        let src = "fn f(&self) { file.read(&mut buf); sock.write(bytes); }\n";
        assert!(run(vec![("crates/serve/src/x.rs", src)]).is_empty());
    }

    #[test]
    fn other_crates_are_out_of_scope() {
        let src = "fn f(&self) { self.state.lock().unwrap(); }\n";
        assert!(run(vec![("crates/kg/src/x.rs", src)]).is_empty());
    }

    #[test]
    fn abba_through_a_call_chain_is_flagged() {
        // f holds A and calls g; g locks B. h locks B then A. No pair is
        // visible inside f alone — this is the cross-function case.
        let src = "\
impl S {
    fn f(&self) {
        let a = self.a.lock();
        self.g();
    }
    fn g(&self) {
        let b = self.b.lock();
    }
    fn h(&self) {
        let b = self.b.lock();
        let a = self.a.lock();
    }
}
";
        let hits = run(vec![("crates/serve/src/x.rs", src)]);
        assert_eq!(hits.len(), 2, "{hits:?}");
        assert!(
            hits.iter()
                .any(|(_, l, m)| *l == 4 && m.contains("via `g`")),
            "{hits:?}"
        );
        assert!(hits.iter().any(|(_, l, _)| *l == 11));
    }

    #[test]
    fn reentrant_acquisition_through_helper_is_flagged() {
        let src = "\
impl S {
    fn outer(&self) {
        let g = self.state.lock();
        self.depth();
    }
    fn depth(&self) -> usize {
        self.state.lock().unwrap_or_else(PoisonError::into_inner).len()
    }
}
";
        let hits = run(vec![("crates/serve/src/x.rs", src)]);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].1, 4);
        assert!(hits[0].2.contains("self-deadlock"), "{}", hits[0].2);
    }

    #[test]
    fn call_after_guard_drop_is_clean() {
        let src = "\
impl S {
    fn outer(&self) {
        let g = self.state.lock();
        drop(g);
        self.depth();
    }
    fn depth(&self) -> usize {
        self.state.lock().unwrap_or_else(PoisonError::into_inner).len()
    }
}
";
        assert!(run(vec![("crates/serve/src/x.rs", src)]).is_empty());
    }
}
