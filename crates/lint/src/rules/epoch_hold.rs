//! `epoch-hold`: the lifecycle epoch mutex is a slot, not a region.
//!
//! The zero-downtime swap design (DESIGN.md §15) hinges on the epoch lock
//! being held only long enough to clone or replace what the slot holds:
//! workers clone it once per request and serve from the clone lock-free,
//! and `promote` stores into the slot *between* requests. If any
//! serve-path code holds the epoch guard across a request boundary —
//! taking the next request, serving one, or anything that blocks — a
//! promotion stalls behind live traffic and the "swap between requests"
//! guarantee silently becomes "swap when the slowest request finishes".
//! This rule flags any acquisition of an epoch lock (receiver containing
//! `epoch`) in `crates/serve` lib code whose guard outlives its own
//! statement *and* whose hold region reaches a blocking operation, a call
//! into (transitively) blocking code, or a request boundary function.
//!
//! The slot has a second half: what it *holds* is immutable. Serving code
//! must never reach into a published `ModelEpoch` and mutate weights in
//! place (`Arc::get_mut` / `Arc::make_mut` in a statement naming an epoch) —
//! a worker mid-request would observe a torn model, which is exactly what the
//! epoch handle exists to prevent. The only way weights change is a whole
//! new epoch through `swap_model`.

use super::Rule;
use crate::diag::Finding;
use crate::lexer::TokKind;
use crate::rules::stmt_range;
use crate::source::Scope;
use crate::workspace::Workspace;

pub struct EpochHold;

/// Functions that constitute a request boundary on the serve path. A
/// queue take (`BoundedQueue::next`, or a `pop`) is matched by name: both
/// names are std vocabulary the call graph never resolves by name.
const BOUNDARY_FNS: &[&str] = &[
    "pop",
    "next",
    "serve_request",
    "annotate_request",
    "annotate",
];

impl Rule for EpochHold {
    fn id(&self) -> &'static str {
        "epoch-hold"
    }

    fn describe(&self) -> &'static str {
        "in serve lib code the epoch mutex is never held across a request boundary and a live epoch is never mutated in place"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        let serve_lib = |f: &&crate::source::SourceFile| {
            f.scope == Scope::Lib && f.path.starts_with("crates/serve/")
        };
        for f in ws.files.iter().filter(serve_lib) {
            for i in 0..f.code.len() {
                let mutates = f.code_text(i) == "Arc"
                    && f.code_text(i + 1) == ":"
                    && f.code_text(i + 2) == ":"
                    && matches!(f.code_text(i + 3), "get_mut" | "make_mut")
                    && !f.code_in_test(i);
                if !mutates {
                    continue;
                }
                let (s, e) = stmt_range(f, i);
                let names_epoch = (s..e).any(|j| {
                    f.code_kind(j) == Some(TokKind::Ident)
                        && f.code_text(j).to_ascii_lowercase().contains("epoch")
                });
                if names_epoch {
                    out.push(Finding::new(
                        self.id(),
                        &f.path,
                        f.code_line(i),
                        format!(
                            "`Arc::{}` on a live ModelEpoch: published epochs are \
                             immutable — a worker mid-request would observe a torn model; \
                             install a new epoch via swap_model instead",
                            f.code_text(i + 3)
                        ),
                    ));
                }
            }
        }
        for (i, (file_ix, item)) in ws.fns.iter().enumerate() {
            let f = &ws.files[*file_ix];
            if !serve_lib(&f) || item.in_test {
                continue;
            }
            for lk in &ws.locals[i].locks {
                if !lk.name.to_ascii_lowercase().contains("epoch") {
                    continue;
                }
                // A guard confined to its own statement (clone-out /
                // replace-in) is the sanctioned slot access.
                let (_, stmt_end) = stmt_range(f, lk.ix);
                let reach = reaches_boundary(ws, i, stmt_end.max(lk.hold.0), lk.hold.1);
                let Some(why) = reach else { continue };
                out.push(Finding::new(
                    self.id(),
                    &f.path,
                    lk.line,
                    format!(
                        "`{}` holds the epoch lock `{}` across {} — promotion \
                         stalls behind live traffic; clone the `Arc` out of the \
                         slot and drop the guard before the boundary",
                        item.name, lk.name, why,
                    ),
                ));
            }
        }
    }
}

/// First request-boundary reason inside code range `[from, to)` of fn
/// `i`: a direct blocking site, a boundary-named call, or a call into a
/// (transitively) blocking callee.
fn reaches_boundary(ws: &Workspace, i: usize, from: usize, to: usize) -> Option<String> {
    for b in &ws.locals[i].blocking {
        if from <= b.ix && b.ix < to {
            return Some(format!("a blocking {}", b.what));
        }
    }
    for call in &ws.calls[i] {
        if call.site.ix < from || call.site.ix >= to {
            continue;
        }
        if BOUNDARY_FNS.contains(&call.site.name.as_str()) {
            return Some(format!("the request boundary `{}`", call.site.name));
        }
        for &callee in &call.callees {
            if callee == i {
                continue;
            }
            if let Some(w) = &ws.props[callee].may_block {
                return Some(format!(
                    "`{}`, which blocks on {}{}",
                    call.site.name,
                    w.site.what,
                    w.via_text()
                ));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(files: Vec<(&str, &str)>) -> Vec<(String, u32, String)> {
        let ws = Workspace::from_sources(files);
        let mut out = Vec::new();
        EpochHold.check(&ws, &mut out);
        out.into_iter()
            .map(|x| (x.path, x.line, x.message))
            .collect()
    }

    #[test]
    fn slot_clone_and_slot_replace_are_the_sanctioned_shapes() {
        let src = "\
impl Lifecycle {
    fn current(&self) -> Arc<ModelEpoch> {
        Arc::clone(&self.epoch.lock().unwrap_or_else(PoisonError::into_inner))
    }
    fn install(&self, next: Arc<ModelEpoch>) -> Arc<ModelEpoch> {
        let mut slot = self.epoch.lock().unwrap_or_else(PoisonError::into_inner);
        mem::replace(&mut *slot, next)
    }
}
";
        assert!(run(vec![("crates/serve/src/lifecycle.rs", src)]).is_empty());
    }

    #[test]
    fn epoch_guard_held_across_pop_is_flagged() {
        let src = "\
impl Worker {
    fn turn(&self, queue: &BoundedQueue<Req>) {
        let epoch = self.lifecycle.epoch.lock().unwrap_or_else(PoisonError::into_inner);
        let request = queue.pop();
        serve(&epoch, request);
    }
}
";
        let hits = run(vec![("crates/serve/src/worker.rs", src)]);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].1, 3);
        assert!(
            hits[0].2.contains("request boundary `pop`"),
            "{}",
            hits[0].2
        );
    }

    #[test]
    fn epoch_guard_held_across_the_queue_take_is_flagged() {
        let src = "\
impl Worker {
    fn turn(&self, ctx: &WorkerContext) {
        let epoch = ctx.lifecycle.epoch.lock().unwrap_or_else(PoisonError::into_inner);
        let taken = ctx.queue.next();
        drop(epoch);
        serve(taken);
    }
}
";
        let hits = run(vec![("crates/serve/src/worker.rs", src)]);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(
            hits[0].2.contains("request boundary `next`"),
            "{}",
            hits[0].2
        );
    }

    #[test]
    fn epoch_guard_held_across_blocking_callee_is_flagged() {
        let src = "\
impl Worker {
    fn turn(&self) {
        let guard = self.epoch_slot.lock().unwrap_or_else(PoisonError::into_inner);
        self.refill();
        guard.version;
    }
    fn refill(&self) {
        let next = self.rx.recv();
    }
}
";
        let hits = run(vec![("crates/serve/src/worker.rs", src)]);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].2.contains("`refill`"), "{}", hits[0].2);
    }

    #[test]
    fn in_place_mutation_of_a_live_epoch_is_flagged_in_serve_lib_only() {
        let src = "\
fn hot_patch(epoch: &mut Arc<ModelEpoch>, x: &mut Arc<Vec<u8>>) {
    let m = Arc::get_mut(epoch).unwrap();
    let n = Arc::make_mut(&mut current_epoch);
    Arc::get_mut(x);
}
";
        let lines = |path| {
            run(vec![(path, src)])
                .into_iter()
                .map(|(_, l, _)| l)
                .collect::<Vec<_>>()
        };
        assert_eq!(lines("crates/serve/src/worker.rs"), vec![2, 3]);
        // The registry and the core pipeline never hold an epoch.
        assert!(lines("crates/core/src/pipeline.rs").is_empty());
    }

    #[test]
    fn dropped_guard_and_non_epoch_locks_are_clean() {
        let dropped = "\
impl Worker {
    fn turn(&self, queue: &BoundedQueue<Req>) {
        let epoch = self.lifecycle.epoch.lock().unwrap_or_else(PoisonError::into_inner);
        let current = Arc::clone(&epoch);
        drop(epoch);
        let request = queue.pop();
    }
}
";
        assert!(run(vec![("crates/serve/src/worker.rs", dropped)]).is_empty());
        let other_lock = "\
impl Worker {
    fn turn(&self, queue: &BoundedQueue<Req>) {
        let stats = self.stats.lock().unwrap_or_else(PoisonError::into_inner);
        let request = queue.pop();
    }
}
";
        assert!(run(vec![("crates/serve/src/worker.rs", other_lock)]).is_empty());
    }
}
