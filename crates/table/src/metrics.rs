//! CTA evaluation metrics: accuracy, weighted/macro F1, per-class reports.
//!
//! These mirror scikit-learn's definitions, which is what the paper (and
//! every baseline it cites) reports: *weighted F1* averages per-class F1
//! weighted by class support in the ground truth.

use crate::dataset::LabelId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Aggregate evaluation result.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EvalSummary {
    /// Fraction of columns whose predicted label equals the ground truth.
    pub accuracy: f64,
    /// Support-weighted mean of per-class F1.
    pub weighted_f1: f64,
    /// Unweighted mean of per-class F1 over classes with support.
    pub macro_f1: f64,
    /// Number of evaluated columns.
    pub support: usize,
}

impl EvalSummary {
    /// Compute metrics from parallel prediction/truth slices.
    ///
    /// # Panics
    /// Panics if the slices have different lengths.
    pub fn compute(predictions: &[LabelId], truths: &[LabelId]) -> Self {
        assert_eq!(predictions.len(), truths.len());
        let n = truths.len();
        if n == 0 {
            return EvalSummary {
                accuracy: 0.0,
                weighted_f1: 0.0,
                macro_f1: 0.0,
                support: 0,
            };
        }
        let correct = predictions
            .iter()
            .zip(truths)
            .filter(|(p, t)| p == t)
            .count();
        // Ascending label order: f64 addition is not associative, so a
        // hash-ordered sum could differ in its last bits between processes.
        let report = per_class_report(predictions, truths);
        let mut weighted = 0.0;
        let mut macro_sum = 0.0;
        let mut classes = 0usize;
        for r in report.values() {
            if r.support > 0 {
                weighted += r.f1 * r.support as f64;
                macro_sum += r.f1;
                classes += 1;
            }
        }
        EvalSummary {
            accuracy: correct as f64 / n as f64,
            weighted_f1: weighted / n as f64,
            macro_f1: if classes > 0 {
                macro_sum / classes as f64
            } else {
                0.0
            },
            support: n,
        }
    }

    /// Accuracy as a percentage, the unit used in the paper's tables.
    pub fn accuracy_pct(&self) -> f64 {
        self.accuracy * 100.0
    }

    /// Weighted F1 as a percentage.
    pub fn weighted_f1_pct(&self) -> f64 {
        self.weighted_f1 * 100.0
    }
}

/// Precision/recall/F1/support for one class.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClassReport {
    pub precision: f64,
    pub recall: f64,
    pub f1: f64,
    /// Ground-truth occurrences of this class.
    pub support: usize,
}

/// Per-class precision/recall/F1, for every class that is true or
/// predicted at least once, in ascending label order.
pub fn per_class_report(
    predictions: &[LabelId],
    truths: &[LabelId],
) -> BTreeMap<LabelId, ClassReport> {
    assert_eq!(predictions.len(), truths.len());
    // Per class: true positives, false positives, false negatives, support.
    let mut counts: BTreeMap<LabelId, [usize; 4]> = BTreeMap::new();
    for (&p, &t) in predictions.iter().zip(truths) {
        counts.entry(t).or_default()[3] += 1;
        if p == t {
            counts.entry(t).or_default()[0] += 1;
        } else {
            counts.entry(p).or_default()[1] += 1;
            counts.entry(t).or_default()[2] += 1;
        }
    }
    counts
        .into_iter()
        .map(|(c, [tp, fp, fn_, support])| {
            let (tp_c, fp_c, fn_c) = (tp as f64, fp as f64, fn_ as f64);
            let precision = if tp_c + fp_c > 0.0 { tp_c / (tp_c + fp_c) } else { 0.0 };
            let recall = if tp_c + fn_c > 0.0 { tp_c / (tp_c + fn_c) } else { 0.0 };
            let f1 = if precision + recall > 0.0 {
                2.0 * precision * recall / (precision + recall)
            } else {
                0.0
            };
            let report = ClassReport {
                precision,
                recall,
                f1,
                support,
            };
            (c, report)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(ids: &[u32]) -> Vec<LabelId> {
        ids.iter().map(|&i| LabelId(i)).collect()
    }

    #[test]
    fn perfect_predictions() {
        let s = EvalSummary::compute(&l(&[0, 1, 2]), &l(&[0, 1, 2]));
        assert_eq!(s.accuracy, 1.0);
        assert_eq!(s.weighted_f1, 1.0);
        assert_eq!(s.macro_f1, 1.0);
        assert_eq!(s.support, 3);
    }

    #[test]
    fn all_wrong_predictions() {
        let s = EvalSummary::compute(&l(&[1, 2, 0]), &l(&[0, 1, 2]));
        assert_eq!(s.accuracy, 0.0);
        assert_eq!(s.weighted_f1, 0.0);
    }

    #[test]
    fn weighted_f1_matches_sklearn_example() {
        // truths:      [0,0,0,0, 1,1]  preds: [0,0,0,1, 1,0]
        // class0: tp=3 fp=1 fn=1 -> p=0.75 r=0.75 f1=0.75, support 4
        // class1: tp=1 fp=1 fn=1 -> p=0.5  r=0.5  f1=0.5,  support 2
        // weighted = (0.75*4 + 0.5*2)/6 = 4/6 ≈ 0.6667
        let s = EvalSummary::compute(&l(&[0, 0, 0, 1, 1, 0]), &l(&[0, 0, 0, 0, 1, 1]));
        assert!((s.weighted_f1 - 2.0 / 3.0).abs() < 1e-9, "{}", s.weighted_f1);
        assert!((s.accuracy - 4.0 / 6.0).abs() < 1e-9);
        assert!((s.macro_f1 - 0.625).abs() < 1e-9);
    }

    #[test]
    fn per_class_report_details() {
        let preds = l(&[0, 0, 1, 2]);
        let truths = l(&[0, 1, 1, 1]);
        let report = per_class_report(&preds, &truths);
        let c0 = report[&LabelId(0)];
        assert_eq!(c0.support, 1);
        assert!((c0.precision - 0.5).abs() < 1e-9);
        assert_eq!(c0.recall, 1.0);
        let c1 = report[&LabelId(1)];
        assert_eq!(c1.support, 3);
        assert_eq!(c1.precision, 1.0);
        assert!((c1.recall - 1.0 / 3.0).abs() < 1e-9);
        // Class 2 was predicted but never true: precision 0, support 0.
        let c2 = report[&LabelId(2)];
        assert_eq!(c2.support, 0);
        assert_eq!(c2.precision, 0.0);
    }

    #[test]
    fn f1_sums_run_in_ascending_label_order() {
        // 24 labels, 20 of them true somewhere, with uneven supports and
        // confusions: per-class F1s are unrelated fractions, so the sum's
        // last bits depend on its order. Never-true labels 1, 7, 13 and 19
        // are predicted, so the report holds them and the sums skip them.
        let mut preds = Vec::new();
        let mut truths = Vec::new();
        for i in 0u32..600 {
            let t = (i * i / 7 + 3 * i) % 24;
            let p = if i % 5 < 3 { t } else { (i * 13 + 5) % 24 };
            truths.push(LabelId(t));
            preds.push(LabelId(p));
        }
        let s = EvalSummary::compute(&preds, &truths);
        let (mut weighted, mut macro_sum, mut classes) = (0.0f64, 0.0f64, 0usize);
        for c in (0u32..24).map(LabelId) {
            let count = |pred: Option<LabelId>, truth: Option<LabelId>| {
                preds
                    .iter()
                    .zip(&truths)
                    .filter(|&(&p, &t)| pred.is_none_or(|x| p == x) && truth.is_none_or(|x| t == x))
                    .count() as f64
            };
            let support = count(None, Some(c));
            if support == 0.0 {
                continue;
            }
            let tp = count(Some(c), Some(c));
            let (precision, recall) = (tp / count(Some(c), None), tp / support);
            let f1 = 2.0 * precision * recall / (precision + recall);
            weighted += f1 * support;
            macro_sum += f1;
            classes += 1;
        }
        assert_eq!(classes, 20);
        assert_eq!(s.weighted_f1.to_bits(), (weighted / 600.0).to_bits());
        assert_eq!(s.macro_f1.to_bits(), (macro_sum / classes as f64).to_bits());
        let order: Vec<LabelId> = per_class_report(&preds, &truths).into_keys().collect();
        assert_eq!(order, (0u32..24).map(LabelId).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input() {
        let s = EvalSummary::compute(&[], &[]);
        assert_eq!(s.support, 0);
        assert_eq!(s.accuracy, 0.0);
    }

    #[test]
    fn percentage_helpers() {
        let s = EvalSummary::compute(&l(&[0, 0]), &l(&[0, 1]));
        assert!((s.accuracy_pct() - 50.0).abs() < 1e-9);
        assert!(s.weighted_f1_pct() <= 100.0);
    }

    #[test]
    #[should_panic]
    fn mismatched_lengths_panic() {
        EvalSummary::compute(&l(&[0]), &l(&[0, 1]));
    }
}
