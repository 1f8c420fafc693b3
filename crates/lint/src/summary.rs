//! Per-function summaries and their fixpoint propagation.
//!
//! [`scan`] is the one place that knows what an allocation idiom, a lock
//! acquisition, a bare `.lock().unwrap()` or a blocking call looks like:
//! rules never match those tokens themselves, they read the facts
//! recorded here. For every workspace function — and for the tokens
//! outside every fn body, the *gaps* where `const`/`static` initialisers and
//! macro bodies live — the engine computes a [`LocalSummary`]:
//!
//! - **Lock acquisitions with hold regions.** A let-bound guard is held to
//!   the end of its enclosing block (or an explicit `drop(name)`); a guard
//!   bound by `if let` / `while let` / `match` is held through that
//!   construct's block; an un-bound guard (expression statement) lives for
//!   its statement only. Calls to functions *returning* a guard type
//!   (`MutexGuard`, `RwLock*Guard`) count as acquisitions of the callee's
//!   lock — that is how `let state = self.lock_state();` is seen.
//! - **Allocation sites** (`Vec::new()`, `Vec::with_capacity(..)`,
//!   `vec![..]`, `.to_vec()`, `.clone()`), excluding inline `#[cfg(test)]`
//!   code.
//! - **Poison-audit bypasses**: `.lock().unwrap()` / `.read().expect(..)`.
//! - **Blocking sites**: `Condvar` waits (with the guard binding they
//!   consume — waiting *releases* that one lock), channel `recv`s, thread
//!   joins/sleeps, file I/O, and `KgBackend` retrieval calls.
//! - **`Deadline` discipline**: which parameters are deadlines and whether
//!   the body ever mentions them.
//!
//! [`propagate`] then folds callee summaries into callers over the resolved
//! call graph until fixpoint: `may_block`, `reaches_backend`, and the
//! transitive lock-acquisition set, each carried with a [`Witness`] (the
//! originating site plus the call chain to it) so findings can say *why*,
//! not just *that*.

use crate::callgraph::ResolvedCall;
use crate::items::{brace_depths, matching_close, FnItem};
use crate::lexer::TokKind;
use crate::rules::stmt_range;
use crate::source::SourceFile;
use std::collections::BTreeMap;

/// Cap on per-fn transitive lock sets: bounds fixpoint work, and a fn that
/// transitively touches more locks than this has bigger problems than ABBA.
const ACQUIRE_CAP: usize = 16;

/// Cap on recorded call-chain length in witnesses (display only).
const VIA_CAP: usize = 4;

/// The origin of a propagated fact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Site {
    /// Index into the workspace file list.
    pub file: usize,
    pub line: u32,
    /// Short human description of the site (`\`.to_vec()\``, `Condvar wait`).
    pub what: String,
}

impl Site {
    fn new(file: usize, line: u32, what: String) -> Site {
        Site { file, line, what }
    }
}

/// A fact plus the call chain from the summarized fn down to its origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Witness {
    pub site: Site,
    /// Callee names walked to reach the site; empty for the fn's own sites.
    pub via: Vec<String>,
}

impl Witness {
    /// `via f → g` suffix for finding messages; empty for direct sites.
    pub fn via_text(&self) -> String {
        if self.via.is_empty() {
            String::new()
        } else {
            format!(" via `{}`", self.via.join(" → "))
        }
    }
}

/// One lock acquisition and the code-token range its guard is held for.
#[derive(Debug, Clone)]
pub struct LockAcquire {
    /// Qualified lock name: `self.` receivers are prefixed with the `impl`
    /// type (`BoundedQueue.state`), so helper methods of the same type
    /// agree on identity across functions.
    pub name: String,
    /// Let-binding the guard lives in, if any (`None` = statement temp).
    pub binding: Option<String>,
    pub ix: usize,
    pub line: u32,
    /// Code-token range `[ix, end)` during which the guard is live.
    pub hold: (usize, usize),
}

/// One blocking operation.
#[derive(Debug, Clone)]
pub struct BlockingSite {
    pub ix: usize,
    pub line: u32,
    pub what: String,
    /// For `Condvar::wait(guard)`: the guard binding the wait consumes —
    /// that lock is *released* while parked and must not count as held.
    pub consumes: Option<String>,
}

/// Facts visible in one function's own body.
#[derive(Debug, Clone, Default)]
pub struct LocalSummary {
    pub alloc_sites: Vec<Site>,
    /// `.lock().unwrap()`-shaped acquisitions that skip poison recovery.
    pub poison_sites: Vec<Site>,
    pub blocking: Vec<BlockingSite>,
    pub backend_calls: Vec<Site>,
    pub locks: Vec<LockAcquire>,
    /// `Some(lock)` when this fn returns a live guard for `lock`.
    pub returns_guard: Option<String>,
    /// Deadline-typed parameters and whether the body mentions them.
    pub deadline_params: Vec<(String, bool)>,
}

/// Facts reachable from a function through any chain of resolved calls
/// (seeded with the function's own sites).
#[derive(Debug, Clone, Default)]
pub struct Propagated {
    pub may_block: Option<Witness>,
    pub reaches_backend: Option<Witness>,
    /// Lock name → earliest witness of its (transitive) acquisition.
    pub acquires: BTreeMap<String, Witness>,
}

const PANIC_METHODS: &[&str] = &["unwrap", "expect"];
const ACQUIRE_METHODS: &[&str] = &["lock", "read", "write"];
const GUARD_TYPES: &[&str] = &["MutexGuard", "RwLockReadGuard", "RwLockWriteGuard"];
const CONDVAR_WAITS: &[&str] = &["wait", "wait_timeout", "wait_while", "wait_timeout_while"];
const RECV_METHODS: &[&str] = &["recv", "recv_timeout", "recv_deadline"];
/// `KgBackend` surface: retrieval I/O, blocking by nature.
pub const BACKEND_METHODS: &[&str] = &["search_entities", "link_mention"];
const FS_FNS: &[&str] = &[
    "read",
    "read_to_string",
    "read_dir",
    "write",
    "copy",
    "rename",
    "remove_file",
    "remove_dir_all",
    "create_dir_all",
    "metadata",
    "canonicalize",
];
const FILE_FNS: &[&str] = &["open", "create", "create_new"];

/// Prefix a `self.`-rooted receiver with the `impl` type name.
pub fn qualify_lock(recv: &str, self_ty: Option<&str>) -> String {
    match self_ty {
        Some(ty) if recv == "self" => ty.to_string(),
        Some(ty) => recv
            .strip_prefix("self.")
            .map(|rest| format!("{ty}.{rest}"))
            .unwrap_or_else(|| recv.to_string()),
        None => recv.to_string(),
    }
}

/// Compute the local summary of one fn. `owned` is its body minus nested
/// fns, so every token is summarised by exactly one fn.
pub fn local_summary(
    f: &SourceFile,
    file_ix: usize,
    item: &FnItem,
    owned: &[(usize, usize)],
    depths: &[u32],
) -> LocalSummary {
    let mut s = scan(f, file_ix, item.self_ty.as_deref(), owned, depths);
    if GUARD_TYPES.iter().any(|g| item.ret_ty.contains(g)) {
        s.returns_guard = s.locks.first().map(|l| l.name.clone());
    }
    s.deadline_params = item
        .params
        .iter()
        .filter(|p| p.ty.contains("Deadline"))
        .map(|p| {
            let used = owned
                .iter()
                .any(|&(a, b)| (a..b.min(f.code.len())).any(|i| f.code_text(i) == p.name));
            (p.name.clone(), used)
        })
        .collect();
    s
}

/// The one token scanner: every site-shaped fact in the code-token `ranges`
/// of `f` (a fn's owned ranges, or a file's gaps between fns). `self_ty`
/// qualifies `self.`-rooted lock receivers.
pub fn scan(
    f: &SourceFile,
    file_ix: usize,
    self_ty: Option<&str>,
    ranges: &[(usize, usize)],
    depths: &[u32],
) -> LocalSummary {
    let mut s = LocalSummary::default();
    for &(start, end) in ranges {
        scan_range(f, file_ix, self_ty, start, end, depths, &mut s);
    }
    s
}

fn scan_range(
    f: &SourceFile,
    file_ix: usize,
    self_ty: Option<&str>,
    start: usize,
    end: usize,
    depths: &[u32],
    s: &mut LocalSummary,
) {
    let end = end.min(f.code.len());
    for i in start..end {
        if f.code_kind(i) != Some(TokKind::Ident) || f.code_in_test(i) {
            continue;
        }
        let t = f.code_text(i);
        let line = f.code_line(i);
        let after_dot = i > 0 && f.code_text(i - 1) == ".";
        let called = f.code_text(i + 1) == "(";
        // Allocation sites (the hot-path idioms).
        let alloc = match t {
            // `Vec::new(` / `Vec::with_capacity(` — `::` lexes as two `:` tokens.
            "Vec" if f.code_text(i + 1) == ":" && f.code_text(i + 2) == ":" => {
                match (f.code_text(i + 3), f.code_text(i + 4)) {
                    ("new", "(") => Some("`Vec::new()`"),
                    ("with_capacity", "(") => Some("`Vec::with_capacity(..)`"),
                    _ => None,
                }
            }
            "vec" if f.code_text(i + 1) == "!" => Some("`vec![...]`"),
            "to_vec" if after_dot && called => Some("`.to_vec()`"),
            "clone" if after_dot && called && f.code_text(i + 2) == ")" => Some("`.clone()`"),
            _ => None,
        };
        if let Some(what) = alloc {
            s.alloc_sites
                .push(Site::new(file_ix, line, what.to_string()));
            continue;
        }
        // Direct lock acquisitions: `.lock()` / `.read()` / `.write()`.
        if after_dot && called && ACQUIRE_METHODS.contains(&t) && f.code_text(i + 2) == ")" {
            // Bare `.lock().unwrap()`: the guard is taken without the
            // `PoisonError::into_inner` recovery the audited locks use.
            let bypass = f.code_text(i + 4);
            if f.code_text(i + 3) == "."
                && PANIC_METHODS.contains(&bypass)
                && f.code_text(i + 5) == "("
            {
                let what = format!("`.{t}().{bypass}(...)`");
                s.poison_sites
                    .push(Site::new(file_ix, f.code_line(i + 4), what));
            }
            if let Some(recv) = crate::callgraph::receiver_path(f, i - 1) {
                let name = qualify_lock(&recv, self_ty);
                let (binding, hold) = hold_region(f, i, depths);
                s.locks.push(LockAcquire {
                    name,
                    binding,
                    ix: i,
                    line,
                    hold,
                });
            }
            continue;
        }
        // Blocking operations.
        if after_dot && called {
            if CONDVAR_WAITS.contains(&t) {
                let consumes = (f.code_kind(i + 2) == Some(TokKind::Ident))
                    .then(|| f.code_text(i + 2).to_string());
                s.blocking.push(BlockingSite {
                    ix: i,
                    line,
                    what: format!("`Condvar::{t}`"),
                    consumes,
                });
                continue;
            }
            if RECV_METHODS.contains(&t) {
                s.blocking.push(BlockingSite {
                    ix: i,
                    line,
                    what: format!("channel `.{t}()`"),
                    consumes: None,
                });
                continue;
            }
            if t == "join" && f.code_text(i + 2) == ")" {
                s.blocking.push(BlockingSite {
                    ix: i,
                    line,
                    what: "`.join()`".to_string(),
                    consumes: None,
                });
                continue;
            }
            if BACKEND_METHODS.contains(&t) {
                s.backend_calls
                    .push(Site::new(file_ix, line, format!("`KgBackend::{t}`")));
                s.blocking.push(BlockingSite {
                    ix: i,
                    line,
                    what: format!("`KgBackend::{t}` (retrieval I/O)"),
                    consumes: None,
                });
                continue;
            }
        }
        // Path-call blocking: `File::open`, `fs::read`, `thread::sleep`.
        if called && i >= 3 && f.code_text(i - 1) == ":" && f.code_text(i - 2) == ":" {
            let qual = f.code_text(i - 3);
            let what = match qual {
                "File" if FILE_FNS.contains(&t) => Some(format!("`File::{t}`")),
                "fs" if FS_FNS.contains(&t) => Some(format!("`fs::{t}`")),
                "thread" if t == "sleep" => Some("`thread::sleep`".to_string()),
                _ => None,
            };
            if let Some(what) = what {
                s.blocking.push(BlockingSite {
                    ix: i,
                    line,
                    what,
                    consumes: None,
                });
            }
        }
    }
}

/// Guard lifetime for the acquisition whose method name sits at code index
/// `ix`: `(binding, [ix, end))`. See the module docs for the model.
pub fn hold_region(f: &SourceFile, ix: usize, depths: &[u32]) -> (Option<String>, (usize, usize)) {
    let (stmt_start, stmt_end) = stmt_range(f, ix);
    let first = f.code_text(stmt_start);
    // `let [mut] name = ...`
    if first == "let" {
        let mut j = stmt_start + 1;
        while f.code_text(j) == "mut" {
            j += 1;
        }
        if f.code_kind(j) == Some(TokKind::Ident) {
            let binding = f.code_text(j).to_string();
            if binding == "_" {
                return (None, (ix, stmt_end));
            }
            let end = block_close(f, ix, depths);
            let end = drop_site(f, &binding, stmt_end, end).unwrap_or(end);
            return (Some(binding), (ix, end));
        }
        // Destructuring let: hold to end of block, no single binding name.
        return (None, (ix, block_close(f, ix, depths)));
    }
    // `if let` / `while let` / `match` on the acquisition: the guard lives
    // through the construct's block, which opens where the statement scan
    // stopped (`stmt_end` points at its `{`).
    let has_let = (stmt_start..stmt_end).any(|i| f.code_text(i) == "let");
    if ((matches!(first, "if" | "while") && has_let) || first == "match")
        && f.code_text(stmt_end) == "{"
    {
        let close = matching_close(f, depths, stmt_end);
        let binding = (stmt_start..stmt_end)
            .find(|&i| {
                f.code_text(i) == "="
                    && i > stmt_start
                    && f.code_kind(i - 1) == Some(TokKind::Ident)
            })
            .map(|i| f.code_text(i - 1).to_string());
        return (binding, (ix, close));
    }
    // Statement temp: dropped at the end of the statement.
    (None, (ix, stmt_end))
}

/// First `drop(name)` between `from` and `limit`, as a hold endpoint.
fn drop_site(f: &SourceFile, name: &str, from: usize, limit: usize) -> Option<usize> {
    (from..limit.min(f.code.len())).find(|&i| {
        f.code_text(i) == "drop"
            && f.code_text(i + 1) == "("
            && f.code_text(i + 2) == name
            && f.code_text(i + 3) == ")"
    })
}

/// Code index of the `}` closing the innermost block containing `ix`
/// (`f.code.len()` when at file depth — unbalanced or top-level input).
fn block_close(f: &SourceFile, ix: usize, depths: &[u32]) -> usize {
    let Some(&d) = depths.get(ix) else {
        return f.code.len();
    };
    if d == 0 {
        return f.code.len();
    }
    for (j, dj) in depths.iter().enumerate().skip(ix + 1) {
        if f.code_text(j) == "}" && *dj == d - 1 {
            return j;
        }
    }
    f.code.len()
}

/// Add acquisitions for calls to guard-returning helpers, and propagate
/// `returns_guard` through forwarding helpers. Runs after every fn's first
/// pass, before [`propagate`].
pub fn wire_guard_returns(
    files: &[SourceFile],
    fns: &[(usize, FnItem)],
    calls: &[Vec<ResolvedCall>],
    locals: &mut [LocalSummary],
) {
    // A helper that returns a guard type but acquires nothing itself is
    // forwarding another helper's guard; adopt the callee's lock (2 passes
    // cover forward-of-forward chains).
    for _ in 0..2 {
        for i in 0..fns.len() {
            if locals[i].returns_guard.is_some()
                || !GUARD_TYPES.iter().any(|g| fns[i].1.ret_ty.contains(g))
            {
                continue;
            }
            let adopted = calls[i]
                .iter()
                .flat_map(|c| c.callees.iter())
                .find_map(|&callee| locals[callee].returns_guard.clone());
            locals[i].returns_guard = adopted;
        }
    }
    // `let g = self.lock_state();` — the caller now holds the callee's lock.
    for i in 0..fns.len() {
        let (file_ix, _) = fns[i];
        let Some(f) = files.get(file_ix) else {
            continue;
        };
        let depths = brace_depths(f);
        let mut extra = Vec::new();
        for c in &calls[i] {
            let Some(lock) = c
                .callees
                .iter()
                .find_map(|&callee| locals[callee].returns_guard.clone())
            else {
                continue;
            };
            let (binding, hold) = hold_region(f, c.site.ix, &depths);
            extra.push(LockAcquire {
                name: lock,
                binding,
                ix: c.site.ix,
                line: c.site.line,
                hold,
            });
        }
        locals[i].locks.extend(extra);
        locals[i].locks.sort_by_key(|l| l.ix);
    }
}

/// Fold callee facts into callers until fixpoint. Every fact keeps its
/// first witness (deterministic: fns and call sites are visited in source
/// order, merges only fill empty slots).
pub fn propagate(
    fns_len: usize,
    calls: &[Vec<ResolvedCall>],
    locals: &[LocalSummary],
) -> Vec<Propagated> {
    let mut props: Vec<Propagated> = (0..fns_len)
        .map(|i| {
            let l = &locals[i];
            Propagated {
                may_block: l.blocking.first().map(|b| Witness {
                    site: Site::new(usize::MAX, b.line, b.what.clone()),
                    via: Vec::new(),
                }),
                reaches_backend: l.backend_calls.first().map(own_witness),
                acquires: l
                    .locks
                    .iter()
                    .take(ACQUIRE_CAP)
                    .map(|lk| {
                        (
                            lk.name.clone(),
                            Witness {
                                site: Site::new(
                                    usize::MAX,
                                    lk.line,
                                    format!("acquires `{}`", lk.name),
                                ),
                                via: Vec::new(),
                            },
                        )
                    })
                    .collect(),
            }
        })
        .collect();
    // Blocking/lock witnesses above use the owning fn's file implicitly;
    // patch in the real file index from the call-graph walk below is not
    // needed — rules report at the *call site*, the witness only carries
    // line + description. Backend witnesses need the file for
    // scope checks, which `own_witness` preserves.
    loop {
        let mut changed = false;
        for caller in 0..fns_len {
            for rc in &calls[caller] {
                let name_of = rc.site.name.clone();
                for &callee in &rc.callees {
                    if callee == caller {
                        continue;
                    }
                    let callee_prop = props[callee].clone();
                    let p = &mut props[caller];
                    changed |= merge(&mut p.may_block, &callee_prop.may_block, &name_of);
                    changed |= merge(
                        &mut p.reaches_backend,
                        &callee_prop.reaches_backend,
                        &name_of,
                    );
                    for (lock, w) in &callee_prop.acquires {
                        if p.acquires.len() >= ACQUIRE_CAP {
                            break;
                        }
                        if !p.acquires.contains_key(lock) {
                            p.acquires.insert(lock.clone(), extend(w, &name_of));
                            changed = true;
                        }
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    props
}

fn own_witness(s: &Site) -> Witness {
    Witness {
        site: s.clone(),
        via: Vec::new(),
    }
}

fn merge(slot: &mut Option<Witness>, from: &Option<Witness>, callee_name: &str) -> bool {
    if slot.is_some() {
        return false;
    }
    let Some(w) = from else { return false };
    *slot = Some(extend(w, callee_name));
    true
}

fn extend(w: &Witness, callee_name: &str) -> Witness {
    let mut via = Vec::with_capacity(w.via.len() + 1);
    via.push(callee_name.to_string());
    via.extend(w.via.iter().take(VIA_CAP.saturating_sub(1)).cloned());
    Witness {
        site: w.site.clone(),
        via,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::parse_items;

    fn summarize(src: &str) -> (SourceFile, Vec<FnItem>, Vec<LocalSummary>) {
        let f = SourceFile::new("crates/serve/src/a.rs".into(), src.into());
        let items = parse_items(&f);
        let depths = brace_depths(&f);
        let sums = items
            .fns
            .iter()
            .map(|it| {
                let owned = it.body.map(|b| vec![b]).unwrap_or_default();
                local_summary(&f, 0, it, &owned, &depths)
            })
            .collect();
        (f, items.fns, sums)
    }

    #[test]
    fn let_bound_guard_holds_to_block_end_or_drop() {
        let src = "\
impl Q {
    fn a(&self) {
        let g = self.state.lock();
        self.use_it();
        drop(g);
        self.after();
    }
    fn b(&self) {
        self.state.lock();
        self.after();
    }
}
";
        let (f, _, sums) = summarize(src);
        let a = &sums[0].locks[0];
        assert_eq!(a.name, "Q.state");
        assert_eq!(a.binding.as_deref(), Some("g"));
        // Hold ends exactly at the drop(g) token.
        assert_eq!(f.code_text(a.hold.1), "drop");
        let b = &sums[1].locks[0];
        assert!(b.binding.is_none());
        // Statement temp: hold ends just past the `;`.
        assert!(b.hold.1 - b.hold.0 < 8);
    }

    #[test]
    fn condvar_wait_records_consumed_binding() {
        let src = "\
fn pop(&self) {
    let mut state = self.lock_state();
    while state.is_empty() {
        state = self.not_empty.wait(state);
    }
}
";
        let (_, _, sums) = summarize(src);
        assert_eq!(sums[0].blocking.len(), 1);
        assert_eq!(sums[0].blocking[0].consumes.as_deref(), Some("state"));
    }

    #[test]
    fn deadline_params_track_usage() {
        let src = "\
fn fwd(&self, q: &str, deadline: Deadline) { self.inner.search_entities(q, 5, deadline); }
fn dropped(&self, q: &str, deadline: Deadline) { self.inner.search_entities(q, 5, Deadline::UNBOUNDED); }
";
        let (_, _, sums) = summarize(src);
        assert_eq!(
            sums[0].deadline_params,
            vec![("deadline".to_string(), true)]
        );
        assert_eq!(
            sums[1].deadline_params,
            vec![("deadline".to_string(), false)]
        );
        assert_eq!(sums[0].backend_calls.len(), 1);
    }

    #[test]
    fn guard_returning_helper_counts_as_acquisition_in_caller() {
        let src = "\
impl Q {
    fn lock_state(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
    fn depth(&self) -> usize {
        let s = self.lock_state();
        s.items.len()
    }
}
";
        let f = SourceFile::new("crates/serve/src/q.rs".into(), src.into());
        let items = parse_items(&f);
        let files = vec![f];
        let fns: Vec<(usize, FnItem)> = items.fns.iter().map(|i| (0, i.clone())).collect();
        let depths = brace_depths(&files[0]);
        let mut locals: Vec<LocalSummary> = fns
            .iter()
            .map(|(_, it)| {
                let owned = it.body.map(|b| vec![b]).unwrap_or_default();
                local_summary(&files[0], 0, it, &owned, &depths)
            })
            .collect();
        let resolver = crate::callgraph::Resolver::new(&fns, &files);
        let calls: Vec<Vec<ResolvedCall>> = fns
            .iter()
            .map(|(_, it)| {
                let owned = it.body.map(|b| vec![b]).unwrap_or_default();
                crate::callgraph::extract_calls(&files[0], &owned)
                    .into_iter()
                    .map(|site| {
                        let callees = resolver.resolve(&site, 0, it, &fns, &items.aliases);
                        ResolvedCall { site, callees }
                    })
                    .collect()
            })
            .collect();
        assert_eq!(locals[0].returns_guard.as_deref(), Some("Q.state"));
        wire_guard_returns(&files, &fns, &calls, &mut locals);
        assert_eq!(locals[1].locks.len(), 1);
        assert_eq!(locals[1].locks[0].name, "Q.state");
        assert_eq!(locals[1].locks[0].binding.as_deref(), Some("s"));
    }

    #[test]
    fn propagation_reaches_through_two_calls_with_via_chain() {
        let src = "\
fn top() { mid(); }
fn mid() { bottom(); }
fn bottom() { std::thread::sleep(d); }
";
        let ws = crate::workspace::Workspace::from_sources(vec![("crates/serve/src/a.rs", src)]);
        let props = &ws.props;
        let w = props[0].may_block.as_ref().expect("top reaches a sleep");
        assert_eq!(w.via, vec!["mid".to_string(), "bottom".to_string()]);
        assert_eq!(w.site.line, 3);
        assert!(props[2]
            .may_block
            .as_ref()
            .expect("own site")
            .via
            .is_empty());
    }
}
