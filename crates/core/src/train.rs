//! Part 2 training: multi-task fine-tuning with the adaptive combined loss.

use crate::config::KgLinkConfig;
use crate::error::KgLinkError;
use crate::memo::FeatureMemo;
use crate::model::KgLinkModel;
use crate::preprocess::ProcessedTable;
use crate::serialize::{serialize_features, serialize_table, SerializedTable, SlotFill};
use kglink_nn::checkpoint::{
    load_train_state, save_train_state, CheckpointError, Checkpointer, TrainCheckpoint,
};
use kglink_nn::frame::{Reader, Writer};
use kglink_nn::layers::param::HasParams;
use kglink_nn::serialize::{load_params, save_params};
use kglink_nn::{cross_entropy, dmlm_loss, AdamW, LinearDecay, Task, Tensor, Tokenizer};
use kglink_obs::Tracer;
use kglink_table::{EvalSummary, LabelId, LabelVocab};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;

/// A table fully prepared for the network: serialized masked input, the
/// optional ground-truth teacher table, feature sequences, and labels.
#[derive(Debug, Clone)]
pub struct PreparedTable {
    pub masked: SerializedTable,
    /// Teacher table — present only for training tables with the mask task.
    pub gt: Option<SerializedTable>,
    pub features: Vec<Option<Vec<u32>>>,
    pub labels: Vec<LabelId>,
}

/// Serialize processed tables for the network. `with_teacher` builds the
/// ground-truth tables (training split only — the paper: "during model
/// evaluation, the ground truth table is not created to prevent leakage").
pub fn prepare_tables(
    processed: &[ProcessedTable],
    tokenizer: &Tokenizer,
    labels: &LabelVocab,
    config: &KgLinkConfig,
    with_teacher: bool,
) -> Vec<PreparedTable> {
    processed
        .iter()
        .map(|pt| PreparedTable {
            masked: serialize_table(pt, tokenizer, labels, config, SlotFill::Mask),
            gt: (with_teacher && config.use_mask_task)
                .then(|| serialize_table(pt, tokenizer, labels, config, SlotFill::GroundTruth)),
            features: serialize_features(pt, tokenizer, config),
            labels: pt.labels.clone(),
        })
        .collect()
}

/// Per-epoch training trace.
#[derive(Debug, Clone, Default)]
pub struct TrainReport {
    /// Mean combined loss per epoch.
    pub epoch_loss: Vec<f32>,
    /// Validation accuracy per epoch.
    pub val_accuracy: Vec<f64>,
    /// `(log σ0², log σ1²)` at the end of each epoch (Figure 8(b)).
    pub sigma_trajectory: Vec<(f32, f32)>,
    /// Epoch whose weights were kept (early stopping).
    pub best_epoch: usize,
    /// Optimizer steps whose loss or gradients were non-finite.
    pub nonfinite_steps: u64,
    /// Times [`GuardPolicy::Rollback`] restored the last checkpointed state.
    pub rollbacks: u64,
    /// Global step of the checkpoint this run resumed from, if any.
    pub resumed_from_step: Option<u64>,
    /// `true` when the run stopped at [`FitOptions::halt_after_step`]
    /// (simulated kill) instead of training to completion.
    pub halted: bool,
}

/// What the training loop does when a step's loss or gradients come back
/// non-finite (NaN/∞ — numerical divergence, bad batch, hardware fault).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GuardPolicy {
    /// No guard: the step is applied as-is and non-finite values propagate
    /// into the weights (the pre-guard behavior; kept for ablation).
    #[default]
    Off,
    /// Drop the poisoned gradients, skip the optimizer step, and keep
    /// training. Counted in [`TrainReport::nonfinite_steps`] and surfaced
    /// as a `train.nonfinite` tracer event.
    SkipStep,
    /// Like [`SkipStep`](Self::SkipStep), but after `max_consecutive` bad
    /// steps in a row, restore weights + optimizer moments from the last
    /// checkpoint (or the initial state when none was written yet). The
    /// step cursor and RNG keep advancing past the bad region, so a
    /// deterministic fault cannot cause an infinite replay loop.
    Rollback { max_consecutive: usize },
}

/// Crash-safety options for [`train_with`] / [`KgLink::fit_with`].
///
/// ```ignore
/// let options = FitOptions::new()
///     .checkpoint_every("run/model.kgck", 50)
///     .resume_from("run/model.kgck")
///     .guard(GuardPolicy::SkipStep);
/// ```
///
/// [`KgLink::fit_with`]: crate::pipeline::KgLink::fit_with
#[derive(Debug, Default)]
pub struct FitOptions {
    /// Atomic checkpoint writer invoked every N optimizer steps.
    pub checkpointer: Option<Checkpointer>,
    /// Resume from this checkpoint file before the first step.
    pub resume_from: Option<PathBuf>,
    /// Divergence-guard policy.
    pub guard: GuardPolicy,
    /// Chaos hook: stop (as if killed) right after this global optimizer
    /// step, leaving the last checkpoint on disk.
    pub halt_after_step: Option<u64>,
    /// Chaos hook: poison the gradients with NaN at these global steps
    /// (1-based), exercising the guard policy deterministically.
    pub fault_steps: Vec<u64>,
}

impl FitOptions {
    pub fn new() -> Self {
        Self::default()
    }

    /// Write an atomic checkpoint to `path` every `every_n_steps`
    /// optimizer steps.
    pub fn checkpoint_every(mut self, path: impl Into<PathBuf>, every_n_steps: u64) -> Self {
        self.checkpointer = Some(Checkpointer::new(path, every_n_steps));
        self
    }

    /// Resume training from a checkpoint written by a previous run.
    pub fn resume_from(mut self, path: impl Into<PathBuf>) -> Self {
        self.resume_from = Some(path.into());
        self
    }

    /// Set the divergence-guard policy.
    pub fn guard(mut self, policy: GuardPolicy) -> Self {
        self.guard = policy;
        self
    }

    /// Chaos hook: simulate a kill right after global step `step`.
    pub fn halt_after_step(mut self, step: u64) -> Self {
        self.halt_after_step = Some(step);
        self
    }

    /// Chaos hook: inject a non-finite gradient at each listed global step.
    pub fn inject_nonfinite_at(mut self, steps: &[u64]) -> Self {
        self.fault_steps = steps.to_vec();
        self
    }
}

/// One training step over a single table. Accumulates gradients into the
/// model and returns `(mean CE loss, mean DMLM loss)` over its columns.
///
/// Dropout is applied to the encoder's output states (inverted-dropout
/// scaling), which is where BERT's final dropout sits before the task
/// heads; the mask is replayed on the backward path.
fn train_table(
    model: &mut KgLinkModel,
    config: &KgLinkConfig,
    pt: &PreparedTable,
    rng: &mut StdRng,
) -> (f32, f32) {
    let (mut hidden, cache) = model.encoder.forward(&pt.masked.ids);
    let dropout_mask = if config.dropout > 0.0 {
        let keep = 1.0 - config.dropout;
        let scale = 1.0 / keep;
        let mask: Vec<f32> = (0..hidden.numel())
            .map(|_| {
                if rng.gen_bool(keep as f64) {
                    scale
                } else {
                    0.0
                }
            })
            .collect();
        for (h, &m) in hidden.data_mut().iter_mut().zip(&mask) {
            *h *= m;
        }
        Some(mask)
    } else {
        None
    };
    let teacher_hidden = match (&pt.gt, config.use_mask_task) {
        (Some(gt), true) => Some(model.encoder.infer(&gt.ids)),
        _ => None,
    };
    let mut d_hidden = Tensor::zeros(hidden.rows(), hidden.cols());
    let d = hidden.cols();
    let n_cols = pt.labels.len();
    let visible = (0..n_cols)
        .filter(|&c| pt.masked.cls[c] < hidden.rows())
        .count()
        .max(1);
    let inv = 1.0 / visible as f32;
    let (w0, w1) = if config.use_mask_task {
        (model.uw.weight(Task::Dmlm), model.uw.weight(Task::Classify))
    } else {
        (0.0, 1.0)
    };
    let mut ce_sum = 0.0f32;
    let mut dmlm_sum = 0.0f32;
    for c in 0..n_cols {
        let cls = pt.masked.cls[c];
        if cls >= hidden.rows() {
            continue; // truncated away by the encoder's context limit
        }
        // ---- Column representation: Y_col = φ(Y_cls, Y_fv) -------------
        let mut y_col = Tensor::from_vec(1, d, hidden.row(cls).to_vec());
        let feature_ids = if config.use_feature_vector {
            pt.features[c].as_ref()
        } else {
            None
        };
        let feature_ctx = feature_ids.map(|fids| {
            let (fh, fcache) = model.encoder.forward(fids);
            let fv = Tensor::from_vec(1, d, fh.row(0).to_vec());
            let (proj, pcache) = model.feature_proj.forward(&fv);
            y_col.add_assign(&proj);
            (fh.rows(), fcache, pcache)
        });
        // ---- Classification loss (Eq. 16) -------------------------------
        let (logits, ccache) = model.classifier.forward(&y_col);
        let (ce, mut dlogits) = cross_entropy(logits.row(0), pt.labels[c].index());
        ce_sum += ce;
        for g in &mut dlogits {
            *g *= w1 * inv;
        }
        let dlogits_t = Tensor::from_vec(1, dlogits.len(), dlogits);
        let dy_col = model.classifier.backward(&ccache, &dlogits_t);
        for (g, &v) in d_hidden.row_mut(cls).iter_mut().zip(dy_col.row(0)) {
            *g += v;
        }
        if let Some((f_rows, fcache, pcache)) = feature_ctx {
            let dfv = model.feature_proj.backward(&pcache, &dy_col);
            let mut dfh = Tensor::zeros(f_rows, d);
            dfh.row_mut(0).copy_from_slice(dfv.row(0));
            model.encoder.backward(&fcache, &dfh);
        }
        // ---- DMLM representation-generation loss (Eq. 13–14) ------------
        if let Some(teacher) = &teacher_hidden {
            let slot = pt.masked.slot[c];
            if slot < hidden.rows() && slot < teacher.rows() {
                let student_logits = model.head.infer_row(hidden.row(slot));
                let teacher_logits = model.head.infer_row(teacher.row(slot));
                let (dm, mut dstudent) =
                    dmlm_loss(&student_logits, &teacher_logits, config.temperature);
                dmlm_sum += dm;
                for g in &mut dstudent {
                    *g *= w0 * inv;
                }
                let x = Tensor::from_vec(1, d, hidden.row(slot).to_vec());
                let (_, hcache) = model.head.proj.forward(&x);
                let dstudent_t = Tensor::from_vec(1, dstudent.len(), dstudent);
                let dx = model.head.proj.backward(&hcache, &dstudent_t);
                for (g, &v) in d_hidden.row_mut(slot).iter_mut().zip(dx.row(0)) {
                    *g += v;
                }
            }
        }
    }
    if let Some(mask) = &dropout_mask {
        for (g, &m) in d_hidden.data_mut().iter_mut().zip(mask) {
            *g *= m;
        }
    }
    model.encoder.backward(&cache, &d_hidden);
    let ce_mean = ce_sum * inv;
    let dmlm_mean = dmlm_sum * inv;
    if config.use_mask_task {
        // Uncertainty-weight gradients + the regularizer (Eq. 17).
        model.uw.combine(dmlm_mean, ce_mean);
    }
    (ce_mean, dmlm_mean)
}

/// Predict labels for one prepared table (inference path, no gradients).
/// Untraced convenience over [`predict_table_traced`].
pub fn predict_table(
    model: &KgLinkModel,
    config: &KgLinkConfig,
    pt: &PreparedTable,
) -> Vec<LabelId> {
    predict_table_traced(model, config, pt, &Tracer::disabled())
}

/// [`predict_chunks`] over one prepared table, without a memo.
pub fn predict_table_traced(
    model: &KgLinkModel,
    config: &KgLinkConfig,
    pt: &PreparedTable,
    tracer: &Tracer,
) -> Vec<LabelId> {
    predict_chunks(model, config, std::slice::from_ref(pt), None, tracer)
}

/// Where one column's feature vector comes from.
enum FeatureRow {
    /// No feature vector: the column is its CLS row alone.
    Absent,
    /// Remembered by the memo.
    Remembered(Vec<f32>),
    /// Row 0 of this segment of the forward.
    Encoded(usize),
}

/// Batched prediction over the chunks of one table, labels concatenated in
/// chunk order: each column's arg-max logit, class 0 for a column truncated
/// away. Every chunk's masked table and every feature sequence `memo` does
/// not already hold are encoded in **one** batched forward —
/// one GEMM per projection per layer across all of them — recorded under
/// an `nn.forward` tracer span. Classification only reads one CLS row per
/// column (plus each feature sequence's row 0), so the forward runs
/// through [`Encoder::infer_batch_rows`], which skips the final block's
/// row-local work for every other row. Every row read is bit-identical to
/// encoding each sequence separately, so a remembered row is too, and the
/// rows encoded here are inserted into `memo` afterwards. A memo must only
/// ever have seen this `model`'s weights.
///
/// [`Encoder::infer_batch_rows`]: kglink_nn::Encoder::infer_batch_rows
pub fn predict_chunks(
    model: &KgLinkModel,
    config: &KgLinkConfig,
    prepared: &[PreparedTable],
    memo: Option<&FeatureMemo>,
    tracer: &Tracer,
) -> Vec<LabelId> {
    let mut labels = Vec::with_capacity(prepared.iter().map(|pt| pt.labels.len()).sum());
    chunk_logits(model, config, prepared, memo, tracer, |logits| {
        let best = logits
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap_or(0);
        labels.push(LabelId(best as u32));
    });
    labels
}

/// The classifier logits behind [`predict_chunks`], column by column in
/// chunk order, handed to `each` (empty for a column truncated away).
pub(crate) fn chunk_logits(
    model: &KgLinkModel,
    config: &KgLinkConfig,
    prepared: &[PreparedTable],
    memo: Option<&FeatureMemo>,
    tracer: &Tracer,
    mut each: impl FnMut(&[f32]),
) {
    if prepared.is_empty() {
        return;
    }
    let max_len = model.encoder.config.max_len;
    // Segment `i` is chunk `i`'s masked table; the feature sequences to
    // encode follow. The classifier reads the CLS row of every in-bounds
    // column, then row 0 of each feature segment.
    let mut seqs: Vec<&[u32]> = prepared.iter().map(|pt| pt.masked.ids.as_slice()).collect();
    let mut needed: Vec<(usize, usize)> = Vec::new();
    let mut features: Vec<Vec<FeatureRow>> = Vec::with_capacity(prepared.len());
    for (si, pt) in prepared.iter().enumerate() {
        let len = pt.masked.ids.len().min(max_len);
        let cls = &pt.masked.cls[..pt.labels.len()];
        needed.extend(cls.iter().filter(|&&r| r < len).map(|&r| (si, r)));
        let rows = cls
            .iter()
            .enumerate()
            .map(|(c, &r)| match &pt.features[c] {
                Some(fids) if config.use_feature_vector && r < len => {
                    match memo.and_then(|m| m.get(fids)) {
                        Some(row) => FeatureRow::Remembered(row),
                        None => {
                            seqs.push(fids);
                            FeatureRow::Encoded(seqs.len() - 1)
                        }
                    }
                }
                _ => FeatureRow::Absent,
            })
            .collect();
        features.push(rows);
    }
    needed.sort_unstable();
    needed.dedup();
    needed.extend((prepared.len()..seqs.len()).map(|si| (si, 0)));
    kglink_nn::with_encoder_scratch(|es| {
        let batch = {
            let _forward = tracer.span("nn.forward");
            model.encoder.infer_batch_rows(&seqs, &needed, es)
        };
        for (si, (pt, rows)) in prepared.iter().zip(&features).enumerate() {
            for (&cls, row) in pt.masked.cls.iter().zip(rows) {
                if cls >= batch.len(si) {
                    each(&[]);
                    continue;
                }
                let fv = match row {
                    FeatureRow::Absent => None,
                    FeatureRow::Remembered(fv) => Some(fv.as_slice()),
                    FeatureRow::Encoded(fi) => Some(batch.row(*fi, 0)),
                };
                each(&model.classify(&model.compose(batch.row(si, cls), fv)));
            }
        }
        if let Some(memo) = memo {
            for (fi, fids) in seqs.iter().enumerate().skip(prepared.len()) {
                memo.insert(fids, batch.row(fi, 0));
            }
        }
    })
}

/// Evaluate a model over prepared tables.
pub fn evaluate(
    model: &KgLinkModel,
    config: &KgLinkConfig,
    tables: &[PreparedTable],
) -> EvalSummary {
    let mut preds = Vec::new();
    let mut truths = Vec::new();
    for pt in tables {
        preds.extend(predict_table(model, config, pt));
        truths.extend(pt.labels.iter().copied());
    }
    EvalSummary::compute(&preds, &truths)
}

/// Fine-tune `model` on `train` with early stopping on `val` accuracy.
/// Restores the best-epoch weights before returning.
#[expect(
    clippy::expect_used,
    reason = "structural: every TrainError is a checkpoint I/O failure, and default FitOptions do no checkpoint I/O"
)]
pub fn train(
    model: &mut KgLinkModel,
    config: &KgLinkConfig,
    train_tables: &[PreparedTable],
    val_tables: &[PreparedTable],
) -> TrainReport {
    train_with(
        model,
        config,
        train_tables,
        val_tables,
        &FitOptions::default(),
        &Tracer::disabled(),
    )
    .expect("training without checkpoint I/O cannot fail")
}

// ---- loop-state codec (checkpoint `extra` section) ------------------------
//
// Everything the outer loop mutates that is NOT model/optimizer/RNG state
// lives here, so a mid-epoch resume replays bit-identically: the epoch
// shuffle order, the f32 loss accumulator (exact bits), and the
// early-stopping bookkeeping including the serialized best-epoch weights.
// Fields go through `kglink_nn::frame`'s writer and reader, like every
// other section of the checkpoint.

struct LoopState {
    epoch: u64,
    /// Next chunk index within the epoch (the saved step completed
    /// `chunk - 1`).
    chunk: u64,
    global_step: u64,
    consecutive_bad: u64,
    bad_epochs: u64,
    n_tables: u64,
    epoch_loss: f32,
    best_acc: f64,
    order: Vec<usize>,
    best_blob: Option<Vec<u8>>,
    report: TrainReport,
}

impl LoopState {
    fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u64(self.epoch)
            .u64(self.chunk)
            .u64(self.global_step)
            .u64(self.consecutive_bad)
            .u64(self.bad_epochs)
            .u64(self.n_tables)
            .f32(self.epoch_loss)
            .f64(self.best_acc)
            .u64(self.order.len() as u64);
        for &i in &self.order {
            w.u64(i as u64);
        }
        match &self.best_blob {
            Some(blob) => w.u64(1 + blob.len() as u64).bytes(blob),
            None => w.u64(0),
        };
        let r = &self.report;
        w.u64(r.best_epoch as u64)
            .u64(r.nonfinite_steps)
            .u64(r.rollbacks)
            .u64(r.epoch_loss.len() as u64);
        for &l in &r.epoch_loss {
            w.f32(l);
        }
        w.u64(r.val_accuracy.len() as u64);
        for &a in &r.val_accuracy {
            w.f64(a);
        }
        w.u64(r.sigma_trajectory.len() as u64);
        for &(s0, s1) in &r.sigma_trajectory {
            w.f32(s0).f32(s1);
        }
        w.into_vec()
    }

    fn decode(blob: &[u8]) -> Result<Self, CheckpointError> {
        let mut r = Reader::new(blob);
        // Struct fields evaluate in the order written: the wire order.
        let state = LoopState {
            epoch: r.u64()?,
            chunk: r.u64()?,
            global_step: r.u64()?,
            consecutive_bad: r.u64()?,
            bad_epochs: r.u64()?,
            n_tables: r.u64()?,
            epoch_loss: r.f32()?,
            best_acc: r.f64()?,
            order: {
                let mut order = Vec::new();
                for _ in 0..r.u64()? {
                    order.push(r.u64()? as usize);
                }
                order
            },
            best_blob: match r.count()? {
                0 => None,
                tag => Some(r.take(tag - 1)?.to_vec()),
            },
            report: {
                let mut report = TrainReport {
                    best_epoch: r.u64()? as usize,
                    nonfinite_steps: r.u64()?,
                    rollbacks: r.u64()?,
                    ..TrainReport::default()
                };
                for _ in 0..r.u64()? {
                    report.epoch_loss.push(r.f32()?);
                }
                for _ in 0..r.u64()? {
                    report.val_accuracy.push(r.f64()?);
                }
                for _ in 0..r.u64()? {
                    report.sigma_trajectory.push((r.f32()?, r.f32()?));
                }
                report
            },
        };
        r.finish()?;
        Ok(state)
    }
}

/// Poison one gradient with NaN (deterministic, RNG-free) — the chaos
/// harness's stand-in for numerical divergence.
fn poison_one_grad(model: &mut dyn HasParams) {
    let mut done = false;
    model.visit_params(&mut |p| {
        if !done {
            if let Some(g) = p.grad.data_mut().first_mut() {
                *g = f32::NAN;
                done = true;
            }
        }
    });
}

/// [`train`] plus crash safety: periodic atomic checkpoints, resume, and
/// divergence guards per [`FitOptions`].
///
/// Determinism contract: for a fixed `(config, tables, options.guard,
/// options.fault_steps)`, killing the run after any step (via
/// [`FitOptions::halt_after_step`] or an actual crash) and resuming from
/// the last checkpoint produces **bit-identical** final parameters to the
/// uninterrupted run. Checkpoints capture the exact RNG stream position,
/// the epoch shuffle order, and every accumulator the loop mutates, and
/// re-running the steps between the checkpoint and the kill point is pure
/// replay.
pub fn train_with(
    model: &mut KgLinkModel,
    config: &KgLinkConfig,
    train_tables: &[PreparedTable],
    val_tables: &[PreparedTable],
    options: &FitOptions,
    tracer: &Tracer,
) -> Result<TrainReport, KgLinkError> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let batch = config.batch_size.max(1);
    let steps_per_epoch = train_tables.len().div_ceil(batch);
    let mut opt = AdamW::new(
        config.optimizer,
        Some(LinearDecay {
            total_steps: steps_per_epoch * config.epochs,
        }),
    );
    let mut report = TrainReport::default();
    let mut best_acc = f64::NEG_INFINITY;
    let mut best_blob: Option<Vec<u8>> = None;
    let mut bad_epochs = 0usize;
    let mut consecutive_bad = 0usize;
    let mut global_step = 0u64;
    let mut epoch_loss = 0.0f32;
    let mut n_tables = 0usize;
    let mut order: Vec<usize> = (0..train_tables.len()).collect();
    let mut epoch = 0usize;
    let mut start_chunk = 0usize;
    let mut mid_epoch = false;

    if let Some(path) = &options.resume_from {
        let ckpt = Checkpointer::load(path).map_err(KgLinkError::Checkpoint)?;
        ckpt.restore(model).map_err(KgLinkError::Checkpoint)?;
        opt.set_steps(ckpt.opt_step as usize);
        rng = StdRng::from_state(ckpt.rng_state);
        let state = LoopState::decode(&ckpt.extra).map_err(KgLinkError::Checkpoint)?;
        epoch = state.epoch as usize;
        start_chunk = state.chunk as usize;
        global_step = state.global_step;
        consecutive_bad = state.consecutive_bad as usize;
        bad_epochs = state.bad_epochs as usize;
        n_tables = state.n_tables as usize;
        epoch_loss = state.epoch_loss;
        best_acc = state.best_acc;
        order = state.order;
        best_blob = state.best_blob;
        report = state.report;
        report.resumed_from_step = Some(ckpt.step);
        mid_epoch = true;
        tracer.incr("train.resume", 1);
        tracer.event_with(
            "train.resume",
            vec![
                ("step", ckpt.step.to_string()),
                ("epoch", epoch.to_string()),
            ],
        );
    }

    // Rollback target: the last durable checkpoint, or the (possibly
    // resumed) starting state before any step is taken.
    let mut last_good = (save_train_state(model), opt.steps());

    'epochs: while epoch < config.epochs {
        if !mid_epoch {
            order.shuffle(&mut rng);
            epoch_loss = 0.0;
            n_tables = 0;
            start_chunk = 0;
        }
        mid_epoch = false;
        let n_chunks = order.len().div_ceil(batch);
        for ci in start_chunk..n_chunks {
            let chunk = &order[ci * batch..((ci + 1) * batch).min(order.len())];
            let mut chunk_loss = 0.0f32;
            for &ti in chunk {
                let (ce, dm) = train_table(model, config, &train_tables[ti], &mut rng);
                let (w0, w1) = if config.use_mask_task {
                    (model.uw.weight(Task::Dmlm), model.uw.weight(Task::Classify))
                } else {
                    (0.0, 1.0)
                };
                chunk_loss += w0 * dm + w1 * ce;
                n_tables += 1;
            }
            global_step += 1;
            if options.fault_steps.contains(&global_step) {
                poison_one_grad(model);
                chunk_loss = f32::NAN;
            }
            model.scale_grads(1.0 / chunk.len() as f32);
            let finite = chunk_loss.is_finite() && model.grad_norm().is_finite();
            if finite {
                consecutive_bad = 0;
                epoch_loss += chunk_loss;
                opt.step(model);
            } else {
                report.nonfinite_steps += 1;
                tracer.incr("train.nonfinite", 1);
                tracer.event_with("train.nonfinite", vec![("step", global_step.to_string())]);
                match options.guard {
                    GuardPolicy::Off => {
                        // Pre-guard behavior: apply the poisoned step.
                        epoch_loss += chunk_loss;
                        opt.step(model);
                    }
                    GuardPolicy::SkipStep => {
                        model.zero_grads();
                        consecutive_bad += 1;
                    }
                    GuardPolicy::Rollback { max_consecutive } => {
                        model.zero_grads();
                        consecutive_bad += 1;
                        if consecutive_bad >= max_consecutive.max(1) {
                            #[expect(
                                clippy::expect_used,
                                reason = "structural: the snapshot was serialized from this very model this run, so decode cannot fail"
                            )]
                            load_train_state(model, &last_good.0)
                                .expect("restoring own snapshot cannot fail");
                            opt.set_steps(last_good.1);
                            consecutive_bad = 0;
                            report.rollbacks += 1;
                            tracer.incr("train.rollback", 1);
                            tracer.event_with(
                                "train.rollback",
                                vec![
                                    ("step", global_step.to_string()),
                                    ("to_opt_step", last_good.1.to_string()),
                                ],
                            );
                        }
                    }
                }
            }
            if let Some(cp) = &options.checkpointer {
                if cp.is_due(global_step) {
                    let state = LoopState {
                        epoch: epoch as u64,
                        chunk: (ci + 1) as u64,
                        global_step,
                        consecutive_bad: consecutive_bad as u64,
                        bad_epochs: bad_epochs as u64,
                        n_tables: n_tables as u64,
                        epoch_loss,
                        best_acc,
                        order: order.clone(),
                        best_blob: best_blob.clone(),
                        report: report.clone(),
                    };
                    let ckpt = TrainCheckpoint::capture(
                        model,
                        opt.steps() as u64,
                        rng.state(),
                        epoch as u64,
                        global_step,
                        state.encode(),
                    );
                    cp.save(&ckpt).map_err(KgLinkError::Checkpoint)?;
                    last_good = (ckpt.train_state, opt.steps());
                    tracer.incr("train.checkpoint", 1);
                }
            }
            if options.halt_after_step == Some(global_step) {
                report.halted = true;
                return Ok(report);
            }
        }
        report.epoch_loss.push(epoch_loss / n_tables.max(1) as f32);
        let acc = if val_tables.is_empty() {
            0.0
        } else {
            evaluate(model, config, val_tables).accuracy
        };
        report.val_accuracy.push(acc);
        report.sigma_trajectory.push(model.uw.log_sigmas());
        // Without a validation split there is no early-stopping signal:
        // train to the end and keep the final weights.
        if !val_tables.is_empty() {
            if acc > best_acc {
                best_acc = acc;
                report.best_epoch = epoch;
                best_blob = Some(save_params(model).to_vec());
                bad_epochs = 0;
            } else {
                bad_epochs += 1;
                if config.patience > 0 && bad_epochs >= config.patience {
                    break 'epochs;
                }
            }
        } else {
            report.best_epoch = epoch;
        }
        epoch += 1;
    }
    if let Some(blob) = best_blob {
        #[expect(
            clippy::expect_used,
            reason = "structural: best_blob came from save_params on this model during this run; shapes always match"
        )]
        load_params(model, &blob).expect("restoring own weights cannot fail");
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preprocess::Preprocessor;
    use kglink_datagen::{pretrain_corpus, semtab_like, SemTabConfig};
    use kglink_kg::{SyntheticWorld, WorldConfig};
    use kglink_nn::{Tokenizer, Vocab};
    use kglink_store::DiskWorld;
    use kglink_table::Split;

    fn setup() -> (
        Vec<PreparedTable>,
        Vec<PreparedTable>,
        KgLinkConfig,
        usize,
        usize,
    ) {
        let world = SyntheticWorld::generate(&WorldConfig::tiny(55));
        let bench = semtab_like(&world, &SemTabConfig::tiny(55));
        let disk = DiskWorld::from_graph(&world.graph).unwrap();
        let config = KgLinkConfig::fast_test();
        let pre = Preprocessor::new(&disk.graph, &disk.backend, config.clone());
        let corpus = pretrain_corpus(&world, 1);
        let mut texts: Vec<String> = corpus;
        for (_, name) in bench.dataset.labels.iter() {
            texts.push(name.to_string());
        }
        let vocab = Vocab::build(texts.iter().map(String::as_str), 1, 4000);
        let vocab_size = vocab.len();
        let tokenizer = Tokenizer::new(vocab);
        let process = |split: Split| -> Vec<ProcessedTable> {
            bench
                .dataset
                .tables_in(split)
                .flat_map(|t| pre.process(t))
                .collect()
        };
        let train_pt = process(Split::Train);
        let test_pt = process(Split::Test);
        let train_prep =
            prepare_tables(&train_pt, &tokenizer, &bench.dataset.labels, &config, true);
        let test_prep = prepare_tables(&test_pt, &tokenizer, &bench.dataset.labels, &config, false);
        let n_labels = bench.dataset.labels.len();
        (train_prep, test_prep, config, vocab_size, n_labels)
    }

    #[test]
    fn training_improves_over_untrained() {
        let (train_prep, test_prep, mut config, vocab_size, n_labels) = setup();
        config.epochs = 12;
        let mut model = KgLinkModel::new(&config, vocab_size, n_labels);
        let before = evaluate(&model, &config, &test_prep);
        let report = train(&mut model, &config, &train_prep, &test_prep);
        let after = evaluate(&model, &config, &test_prep);
        assert_eq!(report.epoch_loss.len(), report.val_accuracy.len());
        assert!(
            after.accuracy > before.accuracy + 0.1,
            "training must help: {} -> {}",
            before.accuracy,
            after.accuracy
        );
        assert!(after.accuracy > 1.0 / n_labels as f64, "better than random");
    }

    #[test]
    fn sigma_trajectory_is_recorded_and_moves() {
        let (train_prep, test_prep, config, vocab_size, n_labels) = setup();
        let mut model = KgLinkModel::new(&config, vocab_size, n_labels);
        let report = train(&mut model, &config, &train_prep, &test_prep);
        assert!(!report.sigma_trajectory.is_empty());
        let (s0_first, _) = report.sigma_trajectory[0];
        let _ = s0_first;
        // σ params start at 0 and must have been updated.
        let (s0, s1) = model.uw.log_sigmas();
        assert!(s0 != 0.0 || s1 != 0.0, "uncertainty weights should train");
    }

    #[test]
    fn training_without_mask_task_runs() {
        let (train_prep, test_prep, mut config, vocab_size, n_labels) = setup();
        config.use_mask_task = false;
        // Prepared tables carry slots from the masked config; rebuild minimal.
        let train2: Vec<PreparedTable> = train_prep
            .iter()
            .map(|p| PreparedTable {
                gt: None,
                ..p.clone()
            })
            .collect();
        let mut model = KgLinkModel::new(&config, vocab_size, n_labels);
        let report = train(&mut model, &config, &train2, &test_prep);
        assert!(!report.epoch_loss.is_empty());
        // Sigmas untouched without the multi-task loss.
        assert_eq!(model.uw.log_sigmas(), (0.0, 0.0));
    }

    #[test]
    fn dropout_training_still_converges_and_inference_is_deterministic() {
        let (train_prep, test_prep, mut config, vocab_size, n_labels) = setup();
        config.epochs = 12;
        config.dropout = 0.3;
        let mut model = KgLinkModel::new(&config, vocab_size, n_labels);
        let before = evaluate(&model, &config, &test_prep);
        train(&mut model, &config, &train_prep, &test_prep);
        let after = evaluate(&model, &config, &test_prep);
        assert!(
            after.accuracy > before.accuracy,
            "{} -> {}",
            before.accuracy,
            after.accuracy
        );
        // Dropout is train-only: two evaluations agree exactly.
        let again = evaluate(&model, &config, &test_prep);
        assert_eq!(after.accuracy, again.accuracy);
    }

    #[test]
    fn prediction_shape_matches_labels() {
        let (train_prep, _, config, vocab_size, n_labels) = setup();
        let model = KgLinkModel::new(&config, vocab_size, n_labels);
        for pt in train_prep.iter().take(3) {
            let preds = predict_table(&model, &config, pt);
            assert_eq!(preds.len(), pt.labels.len());
            for p in preds {
                assert!((p.index()) < n_labels);
            }
        }
    }

    /// CRC32 over the `to_bits` of every test column's classifier logits,
    /// after one epoch of fixed-seed training, through the serving path
    /// ([`chunk_logits`], one forward per table). Anything that moves one
    /// logit bit — a kernel rewrite, a reordered sum, a wider vector
    /// target — changes this constant; `scripts/ci.sh` checks it under the
    /// baseline ISA as well as the default build.
    #[test]
    fn classifier_logit_bits_match_the_golden_digest() {
        let (train_prep, test_prep, mut config, vocab_size, n_labels) = setup();
        config.epochs = 1;
        let mut model = KgLinkModel::new(&config, vocab_size, n_labels);
        train(&mut model, &config, &train_prep, &test_prep);
        let mut bits = Vec::new();
        for pt in &test_prep {
            let tracer = Tracer::disabled();
            chunk_logits(
                &model,
                &config,
                std::slice::from_ref(pt),
                None,
                &tracer,
                |logits| {
                    bits.extend(logits.iter().flat_map(|v| v.to_bits().to_le_bytes()));
                },
            );
        }
        assert!(
            bits.len() >= 4 * n_labels * test_prep.len(),
            "every column's logits"
        );
        assert_eq!(kglink_nn::frame::crc32(&bits), 0x6A0E_1173);
    }

    /// CRC32 over the `KGCK` bytes (`TrainCheckpoint::encode`) written after
    /// a few fixed-seed optimizer steps: parameters, AdamW moments and loop
    /// state, so it pins the backward kernels and the optimizer as the
    /// logit digest pins the forward.
    #[test]
    fn checkpoint_bytes_match_the_golden_digest() {
        let (train_prep, test_prep, config, vocab_size, n_labels) = setup();
        let dir = std::env::temp_dir().join(format!("kglink-golden-{}", std::process::id()));
        let path = dir.join("model.kgck");
        let mut model = KgLinkModel::new(&config, vocab_size, n_labels);
        let options = FitOptions::new()
            .checkpoint_every(&path, 3)
            .halt_after_step(3);
        let report = train_with(
            &mut model,
            &config,
            &train_prep,
            &test_prep,
            &options,
            &Tracer::disabled(),
        )
        .unwrap();
        assert!(report.halted, "the fixture must run three steps");
        let bytes = Checkpointer::load(&path).unwrap().encode();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(kglink_nn::frame::crc32(&bytes), 0x5DE1_0060);
    }

    #[test]
    fn loop_state_round_trips_and_every_damage_is_typed() {
        let state = LoopState {
            epoch: 2,
            chunk: 5,
            global_step: 17,
            consecutive_bad: 1,
            bad_epochs: 1,
            n_tables: 19,
            epoch_loss: f32::from_bits(0x3f80_0001),
            best_acc: 0.625,
            order: vec![3, 0, 2, 1],
            best_blob: Some(vec![9, 8, 7]),
            report: TrainReport {
                epoch_loss: vec![1.5, 1.25],
                val_accuracy: vec![0.5, 0.625],
                sigma_trajectory: vec![(0.1, -0.2), (0.3, -0.4)],
                best_epoch: 1,
                nonfinite_steps: 2,
                rollbacks: 1,
                ..TrainReport::default()
            },
        };
        let blob = state.encode();
        // `LoopState` has no `PartialEq`; re-encoding bit for bit is the
        // stronger statement.
        assert_eq!(
            LoopState::decode(&blob).map(|s| s.encode()),
            Ok(blob.clone())
        );
        let empty = LoopState {
            best_blob: None,
            order: Vec::new(),
            ..state
        };
        let blob2 = empty.encode();
        assert_eq!(LoopState::decode(&blob2).map(|s| s.encode()), Ok(blob2));
        for cut in 0..blob.len() {
            assert!(
                matches!(
                    LoopState::decode(&blob[..cut]),
                    Err(CheckpointError::Truncated)
                ),
                "cut at {cut}"
            );
        }
        let mut longer = blob;
        longer.push(0);
        assert!(matches!(
            LoopState::decode(&longer),
            Err(CheckpointError::Malformed(_))
        ));
    }
}
