//! Loss functions: cross-entropy, DMLM distillation, uncertainty weighting.

use crate::layers::param::{HasParams, Param};
use crate::kernels::{exp, log_softmax, softmax};
use crate::tensor::Tensor;

/// Cross-entropy of a single logit row against a target class (paper
/// Eq. 16). Returns `(loss, dlogits)`.
pub fn cross_entropy(logits: &[f32], target: usize) -> (f32, Vec<f32>) {
    assert!(target < logits.len(), "target out of range");
    let lp = log_softmax(logits);
    let loss = -lp[target];
    let mut grad: Vec<f32> = lp.iter().map(|&l| exp(l)).collect();
    grad[target] -= 1.0;
    (loss, grad)
}

/// DMLM distillation loss (paper Eq. 13–14).
///
/// Both the student (`[MASK]`-token projection, `Y_msk`) and the teacher
/// (ground-truth-token projection, `Y_gt`) are temperature-softened
/// distributions over the vocabulary:
///
/// `Y = softmax(W_o(H / T))`, `L = -Σ_voc y_gt log y_msk`
///
/// The teacher is detached (no gradient flows through `Y_gt`), which is the
/// standard distillation reading of the paper's formulation. Returns
/// `(loss, d_student_logits)`; the returned gradient is w.r.t. the student's
/// *pre-temperature* logits (the `1/T` factor is already applied).
pub fn dmlm_loss(student_logits: &[f32], teacher_logits: &[f32], temperature: f32) -> (f32, Vec<f32>) {
    assert_eq!(student_logits.len(), teacher_logits.len());
    assert!(temperature > 0.0);
    let inv_t = 1.0 / temperature;
    let s_scaled: Vec<f32> = student_logits.iter().map(|&v| v * inv_t).collect();
    let t_scaled: Vec<f32> = teacher_logits.iter().map(|&v| v * inv_t).collect();
    let log_p_student = log_softmax(&s_scaled);
    let p_teacher = softmax(&t_scaled);
    let loss: f32 = -p_teacher
        .iter()
        .zip(&log_p_student)
        .map(|(t, ls)| t * ls)
        .sum::<f32>();
    // d/ds_scaled = p_student - p_teacher; chain through the 1/T scaling.
    let grad: Vec<f32> = log_p_student
        .iter()
        .zip(&p_teacher)
        .map(|(&ls, t)| (exp(ls) - t) * inv_t)
        .collect();
    (loss, grad)
}

/// The two KGLink training tasks whose losses the uncertainty weighting
/// combines (Eq. 17). Using an enum instead of a raw index makes "which
/// task?" a compile-time question — there is no third variant to pass, so
/// the old `panic!("two tasks only")` guard is unrepresentable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Task {
    /// DMLM distillation (Eq. 13–14); weighted by `σ0`.
    Dmlm,
    /// Column-type classification cross-entropy (Eq. 16); weighted by `σ1`.
    Classify,
}

/// Kendall-style uncertainty weighting of the two KGLink tasks (Eq. 17):
///
/// `L_total = 1/(2σ0²) L_DMLM + 1/(2σ1²) L_CE + log σ0 σ1`
///
/// Parameterized by `s_i = log σ_i²` for unconstrained optimization, so
///
/// `L_total = ½ e^{-s0} L0 + ½ e^{-s1} L1 + ½ (s0 + s1)`
///
/// The `s_i` are trainable; task-loss gradients must be scaled by the
/// corresponding [`UncertaintyWeights::weight`] before backprop.
#[derive(Debug, Clone)]
pub struct UncertaintyWeights {
    /// `s0 = log σ0²` (DMLM task).
    pub s0: Param,
    /// `s1 = log σ1²` (classification task).
    pub s1: Param,
}

impl UncertaintyWeights {
    /// Initialize both log-variances to `init` (0 ⇒ σ² = 1).
    pub fn new(init: f32) -> Self {
        UncertaintyWeights {
            s0: Param::new_no_decay(Tensor::from_vec(1, 1, vec![init])),
            s1: Param::new_no_decay(Tensor::from_vec(1, 1, vec![init])),
        }
    }

    /// Fix the log-variances to explicit values (for the Figure 8(a)
    /// sensitivity sweep, where σ is not trained).
    pub fn fixed(s0: f32, s1: f32) -> Self {
        UncertaintyWeights {
            s0: Param::new_no_decay(Tensor::from_vec(1, 1, vec![s0])),
            s1: Param::new_no_decay(Tensor::from_vec(1, 1, vec![s1])),
        }
    }

    /// Current `s_i` values.
    pub fn log_sigmas(&self) -> (f32, f32) {
        (self.s0.value.data()[0], self.s1.value.data()[0])
    }

    /// Multiplier applied to the task's loss (and its gradient):
    /// `½ e^{-s_i}`.
    pub fn weight(&self, task: Task) -> f32 {
        let s = match task {
            Task::Dmlm => self.s0.value.data()[0],
            Task::Classify => self.s1.value.data()[0],
        };
        0.5 * exp(-s)
    }

    /// Combined loss value and gradient accumulation on `s0`/`s1` given the
    /// two raw task losses. Call once per optimization step *before* the
    /// optimizer update.
    pub fn combine(&mut self, loss_dmlm: f32, loss_ce: f32) -> f32 {
        let (s0, s1) = self.log_sigmas();
        let w0 = 0.5 * exp(-s0);
        let w1 = 0.5 * exp(-s1);
        let total = w0 * loss_dmlm + w1 * loss_ce + 0.5 * (s0 + s1);
        // dL/ds_i = -½ e^{-s_i} L_i + ½
        self.s0.grad.data_mut()[0] += -w0 * loss_dmlm + 0.5;
        self.s1.grad.data_mut()[0] += -w1 * loss_ce + 0.5;
        total
    }
}

impl HasParams for UncertaintyWeights {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.s0);
        f(&mut self.s1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_entropy_perfect_prediction_is_near_zero() {
        let logits = [10.0f32, -10.0, -10.0];
        let (loss, grad) = cross_entropy(&logits, 0);
        assert!(loss < 1e-3);
        assert!(grad[0].abs() < 1e-3);
    }

    #[test]
    fn cross_entropy_uniform_logits() {
        let logits = [0.0f32; 4];
        let (loss, grad) = cross_entropy(&logits, 2);
        assert!((loss - (4.0f32).ln()).abs() < 1e-5);
        assert!((grad[2] - (0.25 - 1.0)).abs() < 1e-5);
        assert!((grad[0] - 0.25).abs() < 1e-5);
        // Gradient sums to zero.
        assert!(grad.iter().sum::<f32>().abs() < 1e-5);
    }

    #[test]
    fn cross_entropy_gradient_matches_finite_difference() {
        let logits = [0.5f32, -0.3, 1.2];
        let (_, grad) = cross_entropy(&logits, 1);
        let eps = 1e-3f32;
        for i in 0..3 {
            let mut lp = logits;
            lp[i] += eps;
            let mut lm = logits;
            lm[i] -= eps;
            let num = (cross_entropy(&lp, 1).0 - cross_entropy(&lm, 1).0) / (2.0 * eps);
            assert!((num - grad[i]).abs() < 1e-3);
        }
    }

    #[test]
    fn dmlm_zero_when_student_equals_teacher_minus_entropy() {
        // When distributions match, loss equals teacher entropy (> 0) and
        // the gradient vanishes.
        let logits = [0.2f32, -0.4, 0.9];
        let (loss, grad) = dmlm_loss(&logits, &logits, 2.0);
        assert!(loss > 0.0);
        for g in grad {
            assert!(g.abs() < 1e-6);
        }
    }

    #[test]
    fn dmlm_gradient_matches_finite_difference() {
        let student = [0.1f32, 0.7, -0.5];
        let teacher = [1.0f32, 0.0, -1.0];
        let t = 2.0;
        let (_, grad) = dmlm_loss(&student, &teacher, t);
        let eps = 1e-3f32;
        for i in 0..3 {
            let mut sp = student;
            sp[i] += eps;
            let mut sm = student;
            sm[i] -= eps;
            let num = (dmlm_loss(&sp, &teacher, t).0 - dmlm_loss(&sm, &teacher, t).0) / (2.0 * eps);
            assert!(
                (num - grad[i]).abs() < 1e-3,
                "dim {i}: {num} vs {}",
                grad[i]
            );
        }
    }

    #[test]
    fn dmlm_temperature_softens_gradients() {
        let student = [2.0f32, -2.0];
        let teacher = [-2.0f32, 2.0];
        let (_, g1) = dmlm_loss(&student, &teacher, 1.0);
        let (_, g4) = dmlm_loss(&student, &teacher, 4.0);
        assert!(g4[0].abs() < g1[0].abs());
    }

    #[test]
    fn uncertainty_combine_matches_formula() {
        let mut uw = UncertaintyWeights::fixed(0.4, 1.0);
        let total = uw.combine(2.0, 3.0);
        let expect = 0.5 * (-0.4f32).exp() * 2.0 + 0.5 * (-1.0f32).exp() * 3.0 + 0.5 * 1.4;
        assert!((total - expect).abs() < 1e-5);
        // Gradient signs: large task loss pushes s up (weight down).
        assert!(uw.s0.grad.data()[0] < 0.5);
    }

    #[test]
    fn uncertainty_gradients_match_finite_difference() {
        let (l0, l1) = (1.7f32, 0.9f32);
        let mut uw = UncertaintyWeights::new(0.3);
        uw.combine(l0, l1);
        let analytic = uw.s0.grad.data()[0];
        let eps = 1e-3f32;
        let f = |s: f32| 0.5 * (-s).exp() * l0 + 0.5 * (-0.3f32).exp() * l1 + 0.5 * (s + 0.3);
        let num = (f(0.3 + eps) - f(0.3 - eps)) / (2.0 * eps);
        assert!((num - analytic).abs() < 1e-3);
    }

    #[test]
    fn weight_halves_exp_neg_s() {
        let uw = UncertaintyWeights::fixed(0.0, 2.0f32.ln());
        assert!((uw.weight(Task::Dmlm) - 0.5).abs() < 1e-6);
        assert!((uw.weight(Task::Classify) - 0.25).abs() < 1e-6);
    }
}
