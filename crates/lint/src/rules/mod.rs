//! The rule engine's rule set.
//!
//! Every rule has a stable kebab-case id (used in diagnostics and in
//! `// kglink-lint: allow(<id>)` suppressions), declares which path scopes
//! it applies to, and reports findings anchored to the first token of the
//! offending pattern. See DESIGN.md §11 for the catalog and the policy on
//! adding rules.

mod blocking_under_lock;
mod deadline_drop;
mod epoch_hold;
mod hot_path_alloc;
mod lock_order;
mod single_percentile;

pub use blocking_under_lock::BlockingUnderLock;
pub use deadline_drop::DeadlineDrop;
pub use epoch_hold::EpochHold;
pub use hot_path_alloc::HotPathAlloc;
pub use lock_order::LockOrder;
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

/// Code-token index range `[start, end)` of the statement containing code
/// token `i`: back to just after the nearest `;`/`{`/`}`, forward through
/// the nearest `;` (or a block end). An approximation — good enough to ask
/// "does this statement name an epoch?" or "where does this guard end?".
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
