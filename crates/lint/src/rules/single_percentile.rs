//! `single-percentile`: all percentile/quantile math lives in kglink-obs.
//!
//! Port of the old `ci.sh` grep gate. PR 3 unified three drifting
//! hand-rolled percentile implementations into `kglink_obs::Histogram`;
//! re-introducing one anywhere (including tests — a test-local reference
//! implementation is how the drift started) brings the drift back. The
//! canonical implementation in `crates/obs` carries allow-comments, so the
//! gate survives file renames instead of hanging off a `grep -v` path.

use super::Rule;
use crate::diag::Finding;
use crate::lexer::TokKind;
use crate::source::SourceFile;
use crate::workspace::Workspace;

pub struct SinglePercentile;

impl Rule for SinglePercentile {
    fn id(&self) -> &'static str {
        "single-percentile"
    }

    fn describe(&self) -> &'static str {
        "no percentile/quantile implementations outside kglink_obs::Histogram"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        for f in &ws.files {
            // All scopes on purpose: the old gate scanned tests and examples too.
            for i in 0..f.code.len() {
                if f.code_text(i) != "fn" || f.code_kind(i + 1) != Some(TokKind::Ident) {
                    continue;
                }
                // `#[test]` functions merely *exercise* the canonical quantile —
                // their names mention it, they don't reimplement it. Test-module
                // *helpers* (a `fn reference_quantile` reference implementation)
                // carry no `#[test]` attribute and are still flagged.
                if is_test_fn(f, i) {
                    continue;
                }
                let name = f.code_text(i + 1);
                let lower = name.to_ascii_lowercase();
                if lower.contains("percentile") || lower.contains("quantile") {
                    out.push(Finding::new(
                        self.id(),
                        &f.path,
                        f.code_line(i + 1),
                        format!(
                            "`fn {name}`: percentile/quantile math belongs to \
                             kglink_obs::Histogram; a second implementation reintroduces \
                             cross-layer drift"
                        ),
                    ));
                }
            }
        }
    }
}

/// True when the `fn` at code index `fn_idx` is stacked directly under an
/// exact `#[test]` attribute (other attributes may sit in between).
fn is_test_fn(f: &SourceFile, fn_idx: usize) -> bool {
    let mut i = fn_idx;
    while i >= 4 && f.code_text(i - 1) == "]" {
        let mut depth = 1i32;
        let mut j = i - 1;
        while j > 0 && depth > 0 {
            j -= 1;
            match f.code_text(j) {
                "]" => depth += 1,
                "[" => depth -= 1,
                _ => {}
            }
        }
        if j == 0 || depth != 0 || f.code_text(j - 1) != "#" {
            return false;
        }
        if i - 1 == j + 2 && f.code_text(j + 1) == "test" {
            return true;
        }
        i = j - 1;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(path: &str, src: &str) -> Vec<u32> {
        let ws = Workspace::from_sources(vec![(path, src)]);
        let mut out = Vec::new();
        SinglePercentile.check(&ws, &mut out);
        out.into_iter().map(|x| x.line).collect()
    }

    #[test]
    fn flags_percentile_fns_everywhere_including_tests() {
        let src = "fn percentile_us(v: &[u64]) -> u64 { 0 }\nfn my_quantile(q: f64) -> f64 { q }\n";
        assert_eq!(run("crates/serve/src/metrics.rs", src), vec![1, 2]);
        assert_eq!(run("tests/serve.rs", src), vec![1, 2]);
    }

    #[test]
    fn calls_and_mentions_are_fine() {
        let src = "fn f(h: &Histogram) -> u64 { h.quantile(0.99) } // percentile\n";
        assert!(run("crates/serve/src/metrics.rs", src).is_empty());
    }

    #[test]
    fn test_fns_exercising_quantiles_are_exempt_but_helpers_are_not() {
        let src = "\
#[test]
fn percentiles_match_histogram() { check(); }
#[cfg(test)]
fn reference_quantile(v: &[u64], q: f64) -> u64 { v[0] }
";
        assert_eq!(run("crates/serve/src/metrics.rs", src), vec![4]);
    }
}
