//! `unbounded-channel`: serving-path queues must be bounded.
//!
//! The whole point of the serve crate's admission layer is that load has
//! one front door — [`BoundedQueue`] — where backpressure, shedding, and
//! the adaptive admission limit apply. An unbounded `mpsc::channel()` on a
//! serving path is a second, invisible queue: under overload it absorbs
//! work without limit, memory grows, and every latency bound the admission
//! controller enforces is quietly voided one hop downstream.
//!
//! The rule flags `mpsc::channel()` calls in the library code of the
//! serving-path crates (`crates/serve/`, `crates/search/`). Channels that
//! are bounded by construction — a reply channel that carries exactly one
//! message, an exit-notification channel bounded by the worker count —
//! carry a justified `// kglink-lint: allow(unbounded-channel)` comment.
//! `mpsc::sync_channel(n)` is bounded and never flagged; tests and other
//! crates are out of scope.
//!
//! [`BoundedQueue`]: ../../../serve/src/queue.rs

use super::Rule;
use crate::diag::Finding;
use crate::lexer::TokKind;
use crate::source::{Scope, SourceFile};
use crate::workspace::Workspace;

pub struct UnboundedChannel;

/// Crates whose lib code is a serving path; everything else may buffer
/// freely (experiments, datagen, training).
const CRATE_ALLOWLIST: &[&str] = &["crates/serve/", "crates/search/"];

impl Rule for UnboundedChannel {
    fn id(&self) -> &'static str {
        "unbounded-channel"
    }

    fn describe(&self) -> &'static str {
        "serving-path crates queue work only through bounded queues, never mpsc::channel()"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        let serving_lib = |f: &&SourceFile| {
            f.scope == Scope::Lib && CRATE_ALLOWLIST.iter().any(|p| f.path.starts_with(p))
        };
        for f in ws.files.iter().filter(serving_lib) {
            for i in 0..f.code.len() {
                if f.code_kind(i) != Some(TokKind::Ident) || f.code_in_test(i) {
                    continue;
                }
                // `mpsc::channel(` — `::` lexes as two `:` tokens. Plain
                // `channel()` after `use mpsc::channel` would dodge this, but
                // the codebase convention is module-qualified calls and the
                // fixture pins it.
                let is_unbounded = f.code_text(i) == "mpsc"
                    && f.code_text(i + 1) == ":"
                    && f.code_text(i + 2) == ":"
                    && f.code_text(i + 3) == "channel"
                    && f.code_text(i + 4) == "(";
                if is_unbounded {
                    out.push(Finding::new(
                        self.id(),
                        &f.path,
                        f.code_line(i),
                        "unbounded `mpsc::channel()` on a serving path: a hidden queue that \
                         voids admission control under overload; use `BoundedQueue`, \
                         `mpsc::sync_channel`, or justify why this channel is bounded by \
                         construction"
                            .to_string(),
                    ));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(path: &str, src: &str) -> Vec<u32> {
        let ws = Workspace::from_sources(vec![(path, src)]);
        let mut out = Vec::new();
        UnboundedChannel.check(&ws, &mut out);
        out.into_iter().map(|x| x.line).collect()
    }

    #[test]
    fn flags_unbounded_channels_in_serving_lib_code() {
        let src = "\
fn wire() {
    let (tx, rx) = mpsc::channel();
    let (btx, brx) = mpsc::sync_channel(8);
    let (qtx, qrx) = std::sync::mpsc::channel();
}
";
        assert_eq!(run("crates/serve/src/service.rs", src), vec![2, 4]);
        assert_eq!(run("crates/search/src/resilience.rs", src), vec![2, 4]);
    }

    #[test]
    fn other_crates_tests_and_inline_test_mods_are_exempt() {
        let src = "fn f() { let (tx, rx) = mpsc::channel(); }\n";
        assert!(run("crates/core/src/pipeline.rs", src).is_empty());
        assert!(run("crates/datagen/src/world.rs", src).is_empty());
        assert!(run("crates/serve/tests/serve.rs", src).is_empty());
        assert!(run("crates/bench/src/bin/exp_serve.rs", src).is_empty());
        let inline = "#[cfg(test)]\nmod t { fn f() { let (tx, rx) = mpsc::channel(); } }\n";
        assert!(run("crates/serve/src/queue.rs", inline).is_empty());
    }
}
