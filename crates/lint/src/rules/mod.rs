//! The rule engine's rule set.
//!
//! Every rule has a stable kebab-case id (used in diagnostics and in
//! `// kglink-lint: allow(<id>)` suppressions), declares which path scopes
//! it applies to, and reports findings anchored to the first token of the
//! offending pattern. See DESIGN.md §11 for the catalog and the policy on
//! adding rules.

mod atomic_write;
mod blocking_under_lock;
mod deadline_drop;
mod epoch_hold;
mod hot_path_alloc;
mod lock_order;
mod nondeterminism;
mod single_percentile;

pub use atomic_write::AtomicWrite;
pub use blocking_under_lock::BlockingUnderLock;
pub use deadline_drop::DeadlineDrop;
pub use epoch_hold::EpochHold;
pub use hot_path_alloc::HotPathAlloc;
pub use lock_order::LockOrder;
pub use nondeterminism::Nondeterminism;
pub use single_percentile::SinglePercentile;

use crate::diag::Finding;
use crate::source::SourceFile;
use crate::workspace::Workspace;

/// A lint rule: runs once over the assembled [`Workspace`]. Token rules
/// iterate `ws.files`; rules about allocations, locks and blocking
/// read the per-fn summaries (`ws.locals`, `ws.gaps`) for their own sites
/// and the propagated ones (`ws.props`) for sites reached through calls —
/// a direct finding is the zero-length chain of the fact propagation uses.
pub trait Rule {
    fn id(&self) -> &'static str;
    /// One-line description for `--list-rules`.
    fn describe(&self) -> &'static str;
    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>);
}

/// The rule set.
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(Nondeterminism),
        Box::new(AtomicWrite),
        Box::new(SinglePercentile),
        Box::new(LockOrder),
        Box::new(HotPathAlloc),
        Box::new(BlockingUnderLock),
        Box::new(DeadlineDrop),
        Box::new(EpochHold),
    ]
}

/// Ids of the engine-level suppression-hygiene checks (not `Rule` impls;
/// they run over the suppression table itself). Kept here so `--list-rules`
/// and the fixture harness see one namespace.
pub const META_RULES: &[(&str, &str)] = &[
    (
        "allow-missing-justification",
        "every kglink-lint: allow(...) must carry a justification after the closing paren",
    ),
    (
        "allow-unknown-rule",
        "allow(...) names a rule id the linter does not define",
    ),
    (
        "allow-unused",
        "allow(...) that suppressed nothing — the code it excused is gone; delete the comment",
    ),
];

/// True when code-token `i` of `f` is product library code: file in `Lib`
/// scope and token outside any inline `#[cfg(test)]` item.
pub fn is_lib_code(f: &SourceFile, i: usize) -> bool {
    f.scope == crate::source::Scope::Lib && !f.code_in_test(i)
}

/// Code-token index range `[start, end)` of the statement containing code
/// token `i`: back to just after the nearest `;`/`{`/`}`, forward through
/// the nearest `;` (or a block end). An approximation — good enough to ask
/// "does this statement mention a checkpoint?" or "is this chain sorted?".
pub fn stmt_range(f: &SourceFile, i: usize) -> (usize, usize) {
    let mut start = i;
    while start > 0 {
        match f.code_text(start - 1) {
            ";" | "{" | "}" => break,
            _ => start -= 1,
        }
    }
    let mut end = i;
    let n = f.code.len();
    while end < n {
        match f.code_text(end) {
            ";" => {
                end += 1;
                break;
            }
            "{" | "}" => break,
            _ => end += 1,
        }
    }
    (start, end)
}

/// True if any code token in `[start, end)` passes `pred` (given its text).
pub fn range_has(f: &SourceFile, start: usize, end: usize, mut pred: impl FnMut(&str) -> bool) -> bool {
    (start..end.min(f.code.len())).any(|j| pred(f.code_text(j)))
}
