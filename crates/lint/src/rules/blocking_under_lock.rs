//! `blocking-under-lock`: no blocking operation — `Condvar` waits, channel
//! `recv`s, thread joins/sleeps, file I/O, `KgBackend` retrieval — may be
//! reachable while a `MutexGuard`/`RwLock` guard is live in the concurrent
//! crates (`crates/serve`, `crates/search`).
//!
//! A worker parked inside such a region stalls every sibling contending on
//! the lock: queue hand-offs back up, deadline budgets burn while holding
//! shared state, and under overload the degradation ladder cannot shed
//! what it cannot reach. The check is interprocedural: a call made while a
//! guard is held is flagged when *anything* the callee transitively does
//! blocks.
//!
//! The one sanctioned shape is the Condvar protocol itself:
//! `guard = cv.wait(guard)` *consumes* the guard of its own mutex —
//! the lock is released while parked — so the wait's own lock never counts
//! as held. A wait while holding a *second* lock is still flagged.

use super::Rule;
use crate::diag::Finding;
use crate::source::{Scope, SourceFile};
use crate::workspace::Workspace;
use std::collections::BTreeSet;

pub struct BlockingUnderLock;

const CRATE_ALLOWLIST: &[&str] = &["crates/serve/", "crates/search/"];

fn in_scope(f: &SourceFile) -> bool {
    f.scope == Scope::Lib && CRATE_ALLOWLIST.iter().any(|p| f.path.starts_with(p))
}

impl Rule for BlockingUnderLock {
    fn id(&self) -> &'static str {
        "blocking-under-lock"
    }

    fn describe(&self) -> &'static str {
        "no condvar wait / channel recv / file I/O / KgBackend call reachable while a lock guard is live in serve/search"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        let mut seen: BTreeSet<(usize, u32, String)> = BTreeSet::new();
        for (i, (file_ix, item)) in ws.fns.iter().enumerate() {
            let f = &ws.files[*file_ix];
            if !in_scope(f) || item.in_test {
                continue;
            }
            let locks = &ws.locals[i].locks;
            // Direct blocking sites under a held guard.
            for b in &ws.locals[i].blocking {
                let Some(lk) = locks.iter().find(|lk| {
                    lk.hold.0 < b.ix
                        && b.ix < lk.hold.1
                        && (b.consumes.is_none() || b.consumes != lk.binding)
                }) else {
                    continue;
                };
                if !seen.insert((*file_ix, b.line, b.what.clone())) {
                    continue;
                }
                out.push(Finding::new(
                    self.id(),
                    &f.path,
                    b.line,
                    format!(
                        "`{}` blocks on {} while holding `{}` — siblings contending \
                         on the lock stall for the full wait; release the guard \
                         first (drop it or narrow its scope)",
                        item.name, b.what, lk.name,
                    ),
                ));
            }
            // Calls under a held guard into (transitively) blocking callees.
            for call in &ws.calls[i] {
                let Some(lk) = locks
                    .iter()
                    .find(|lk| lk.hold.0 < call.site.ix && call.site.ix < lk.hold.1)
                else {
                    continue;
                };
                for &callee in &call.callees {
                    if callee == i {
                        continue;
                    }
                    let Some(w) = &ws.props[callee].may_block else {
                        continue;
                    };
                    if !seen.insert((*file_ix, call.site.line, call.site.name.clone())) {
                        continue;
                    }
                    out.push(Finding::new(
                        self.id(),
                        &f.path,
                        call.site.line,
                        format!(
                            "`{}` calls `{}` while holding `{}`, and the callee \
                             blocks on {}{} — the lock is held across the wait; \
                             release the guard before the call",
                            item.name,
                            call.site.name,
                            lk.name,
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
        BlockingUnderLock.check(&ws, &mut out);
        out.into_iter()
            .map(|x| (x.path, x.line, x.message))
            .collect()
    }

    #[test]
    fn condvar_wait_on_own_guard_is_the_sanctioned_protocol() {
        let src = "\
impl Q {
    fn pop(&self) -> T {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        while state.items.is_empty() {
            state = self.not_empty.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
        state.items.remove(0)
    }
}
";
        assert!(run(vec![("crates/serve/src/queue.rs", src)]).is_empty());
    }

    #[test]
    fn wait_while_holding_a_second_lock_is_flagged() {
        let src = "\
impl Q {
    fn bad(&self) {
        let stats = self.stats.lock().unwrap_or_else(PoisonError::into_inner);
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        state = self.not_empty.wait(state).unwrap_or_else(PoisonError::into_inner);
        stats.record(state.len());
    }
}
";
        let hits = run(vec![("crates/serve/src/queue.rs", src)]);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].1, 5);
        assert!(hits[0].2.contains("Q.stats"), "{}", hits[0].2);
    }

    #[test]
    fn backend_call_and_file_io_under_lock_are_flagged() {
        let src = "\
impl Cache {
    fn fill(&self, q: &str) {
        let mut map = self.map.lock().unwrap_or_else(PoisonError::into_inner);
        let hits = self.backend.search_entities(q, 5, deadline);
        let raw = fs::read(path);
        map.insert(q, hits);
    }
}
";
        let hits = run(vec![("crates/search/src/cache.rs", src)]);
        assert_eq!(
            hits.iter().map(|(_, l, _)| *l).collect::<Vec<_>>(),
            vec![4, 5],
            "{hits:?}"
        );
    }

    #[test]
    fn blocking_reached_through_a_callee_is_flagged_at_the_call() {
        let src = "\
impl W {
    fn tick(&self) {
        let g = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        self.drain();
        g.len();
    }
    fn drain(&self) {
        let batch = self.rx.recv();
    }
}
";
        let hits = run(vec![("crates/serve/src/worker.rs", src)]);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].1, 4);
        assert!(hits[0].2.contains("`drain`"), "{}", hits[0].2);
    }

    #[test]
    fn blocking_after_guard_drop_and_out_of_scope_crates_are_clean() {
        let dropped = "\
impl W {
    fn tick(&self) {
        let g = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        drop(g);
        let batch = self.rx.recv();
    }
}
";
        assert!(run(vec![("crates/serve/src/worker.rs", dropped)]).is_empty());
        let other = "\
impl W {
    fn tick(&self) {
        let g = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let batch = self.rx.recv();
    }
}
";
        assert!(run(vec![("crates/store/src/cache.rs", other)]).is_empty());
    }
}
