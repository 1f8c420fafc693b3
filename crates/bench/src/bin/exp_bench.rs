//! exp_bench: standing compute benchmark for the kernel layer.
//!
//! Not a paper table — this is the perf gate for `kglink-kernels`, the
//! batched inference core every forward pass routes through. It measures
//! four things and writes them to `BENCH_kernels.json` (repo root on full
//! runs, `target/smoke/` on `--smoke`) so later PRs have a compute
//! trajectory to move:
//!
//! 1. **Parity gate.** The scalar path (the pre-kernel per-column
//!    `Encoder::infer` loop driving the reference kernel — one serial dot
//!    product per output element, via `set_reference_mode(true)`) and the
//!    fast path (one batched CLS-row-pruned forward per table through the
//!    blocked 4×8-unrolled GEMM) must produce identical labels on the
//!    real trained model over real test tables. This is the end-to-end
//!    echo of the bit-parity proptests in `crates/kernels/tests/parity.rs`.
//! 2. **Annotate throughput.** Tables/sec and columns/sec of classification
//!    over prepared test tables, scalar-per-column vs fast-batched, single
//!    thread. The speedup is the headline number and is asserted against a
//!    floor (the kernel layer's reason to exist).
//! 3. **Train steps/sec.** Optimizer steps per second of `KgLink::fit`,
//!    measured subtractively between two halted runs so one-time dataset
//!    preparation cancels out.
//! 4. **Per-kernel GFLOP/s.** Micro-benchmarks of `gemm`, `softmax_rows`,
//!    `layer_norm_rows`, and `bias_gelu_rows` at encoder-shaped operands,
//!    using nominal flop counts (noted in the JSON field names' comments).
//!
//! Per-column and `nn.forward` latencies are not reported here: this loop is
//! an in-memory world; `nn.forward_us` in `BENCHMARK.json` measures them on
//! the disk world.
//!
//! `--smoke` shrinks the workload; combine with `KGLINK_FAST=1` for the CI
//! gate (parity + the speedup floor).

use kglink_bench::{print_markdown, ExpEnv, Which};
use kglink_core::preprocess::Preprocessor;
use kglink_core::train::{self, prepare_tables, FitOptions, PreparedTable};
use kglink_core::{KgLink, KgLinkConfig, KgLinkModel};
use kglink_nn::kernels::{
    self, bias_gelu_rows, gemm, layer_norm_rows, set_reference_mode, softmax_rows, Mat, MatMut,
    Scratch, Trans,
};
use kglink_table::{LabelId, Split};
use std::time::Instant;

/// Minimum fast-over-scalar throughput ratio. The full run must clear the
/// tentpole target; smoke runs keep a safety margin against tiny-workload
/// jitter on shared CI hosts.
const SPEEDUP_FLOOR_FULL: f64 = 5.0;
const SPEEDUP_FLOOR_SMOKE: f64 = 3.0;

/// The legacy pre-kernel inference shape, kept here as the benchmark
/// baseline: one `Encoder::infer` for the masked table plus one *per
/// eligible feature column*, no cross-sequence batching and no last-block
/// row pruning. Combined with `set_reference_mode(true)` — the canonical
/// scalar kernel, one serial dot product per output element — this is the
/// scalar path the kernel crate replaced. (The old `Tensor::matmul` loop
/// orders partially auto-vectorized on some shapes; the reference kernel
/// is the definitional scalar form that shares its bits.)
fn predict_table_per_column(
    model: &KgLinkModel,
    config: &KgLinkConfig,
    pt: &PreparedTable,
) -> Vec<LabelId> {
    let hidden = model.encoder.infer(&pt.masked.ids);
    (0..pt.labels.len())
        .map(|c| {
            let cls = pt.masked.cls[c];
            if cls >= hidden.rows() {
                return LabelId(0);
            }
            let fv = if config.use_feature_vector {
                pt.features[c]
                    .as_ref()
                    .map(|fids| model.encoder.infer(fids).row(0).to_vec())
            } else {
                None
            };
            let y_col = model.compose(hidden.row(cls), fv.as_deref());
            let logits = model.classify(&y_col);
            let best = logits
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i)
                .unwrap_or(0);
            LabelId(best as u32)
        })
        .collect()
}

/// Wall-time a closure repeated until it has run for at least `min_ms`,
/// returning (total seconds, iterations).
fn time_at_least(min_ms: u64, mut f: impl FnMut()) -> (f64, u64) {
    let t0 = Instant::now();
    let mut iters = 0u64;
    loop {
        f();
        iters += 1;
        if t0.elapsed().as_millis() as u64 >= min_ms {
            return (t0.elapsed().as_secs_f64(), iters);
        }
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let env = ExpEnv::load();
    let which = Which::SemTab;
    let mut config = env.kglink_config(which);
    if smoke {
        config.epochs = 1;
    }
    let resources = env.resources();
    let dataset = &env.bench(which).dataset;
    eprintln!("[bench] training KGLink ({} epochs)…", config.epochs);
    let (model, _) = KgLink::fit(&resources, dataset, config);

    // Prepare the classification workload once: Part 1 + serialization are
    // identical on both paths, so they stay out of the timed region.
    let pre = Preprocessor::new(&env.graph, &*env.searcher, model.config.clone());
    let tables: Vec<_> = dataset
        .tables_in(Split::Test)
        .take(if smoke { 10 } else { usize::MAX })
        .collect();
    let processed: Vec<_> = tables.iter().flat_map(|t| pre.process(t)).collect();
    let prep = prepare_tables(
        &processed,
        &env.tokenizer,
        &model.labels,
        &model.config,
        false,
    );
    let n_cols: usize = prep.iter().map(|p| p.labels.len()).sum();
    eprintln!(
        "[bench] workload: {} tables → {} prepared chunks / {} columns",
        tables.len(),
        prep.len(),
        n_cols
    );

    // --- 1. Parity gate -----------------------------------------------------
    for (i, pt) in prep.iter().enumerate() {
        let fast = train::predict_table(&model.model, &model.config, pt);
        set_reference_mode(true);
        let scalar = predict_table_per_column(&model.model, &model.config, pt);
        set_reference_mode(false);
        assert_eq!(
            fast, scalar,
            "chunk {i}: fast batched labels diverge from the scalar per-column path"
        );
    }
    eprintln!("[bench] parity: scalar and fast paths agree on all {} chunks", prep.len());

    // --- 2. Annotate throughput, single thread ------------------------------
    let min_ms: u64 = if smoke { 300 } else { 2000 };
    set_reference_mode(true);
    let (scalar_s, scalar_iters) = time_at_least(min_ms, || {
        for pt in &prep {
            std::hint::black_box(predict_table_per_column(&model.model, &model.config, pt));
        }
    });
    set_reference_mode(false);
    let scalar_tables_per_s = (prep.len() as u64 * scalar_iters) as f64 / scalar_s;
    let scalar_cols_per_s = (n_cols as u64 * scalar_iters) as f64 / scalar_s;

    let (fast_s, fast_iters) = time_at_least(min_ms, || {
        for pt in &prep {
            std::hint::black_box(train::predict_table(&model.model, &model.config, pt));
        }
    });
    let fast_tables_per_s = (prep.len() as u64 * fast_iters) as f64 / fast_s;
    let fast_cols_per_s = (n_cols as u64 * fast_iters) as f64 / fast_s;
    let speedup = fast_cols_per_s / scalar_cols_per_s.max(1e-9);
    eprintln!(
        "[bench] scalar {scalar_cols_per_s:.0} cols/s, fast {fast_cols_per_s:.0} cols/s \
         → speedup {speedup:.2}×"
    );

    // --- 3. Train steps/sec (subtractive) ------------------------------------
    let steps_lo = 2u64;
    let steps_hi = if smoke { 8 } else { 20 };
    let mut steps_cfg = model.config.clone();
    steps_cfg.epochs = 1000; // never reached: halt_after_step fires first
    let t0 = Instant::now();
    let (_, r_lo) = KgLink::fit_with(
        &resources,
        dataset,
        steps_cfg.clone(),
        &FitOptions::new().halt_after_step(steps_lo),
    )
    .expect("halted fit (lo)");
    let lo_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let (_, r_hi) = KgLink::fit_with(
        &resources,
        dataset,
        steps_cfg,
        &FitOptions::new().halt_after_step(steps_hi),
    )
    .expect("halted fit (hi)");
    let hi_s = t1.elapsed().as_secs_f64();
    assert!(r_lo.halted && r_hi.halted, "steps/sec runs must halt at the step budget");
    let train_steps_per_s = (steps_hi - steps_lo) as f64 / (hi_s - lo_s).max(1e-6);
    eprintln!(
        "[bench] train: {steps_lo} steps in {lo_s:.2}s, {steps_hi} steps in {hi_s:.2}s \
         → {train_steps_per_s:.2} steps/s"
    );

    // --- 4. Per-kernel GFLOP/s ----------------------------------------------
    // Encoder-shaped operands: a max_len×d_model activation against d×d
    // weights, and row-wise kernels over the same activation.
    let (m, k, n) = (192usize, 48usize, 48usize);
    let a: Vec<f32> = (0..m * k).map(|i| (i % 17) as f32 * 0.1 - 0.8).collect();
    let b: Vec<f32> = (0..k * n).map(|i| (i % 13) as f32 * 0.1 - 0.6).collect();
    let mut out = vec![0.0f32; m * n];
    let mut scratch = Scratch::new();
    let micro_ms: u64 = if smoke { 150 } else { 800 };
    let (gemm_s, gemm_iters) = time_at_least(micro_ms, || {
        gemm(
            Mat::new(&a, m, k),
            Mat::new(&b, k, n),
            Trans::No,
            Trans::No,
            &mut MatMut::new(&mut out, m, n),
            &mut scratch,
        );
    });
    // 2·m·n·k flops per GEMM.
    let gemm_gflops = (2 * m * n * k) as f64 * gemm_iters as f64 / gemm_s / 1e9;

    let mut act: Vec<f32> = (0..m * n).map(|i| (i % 23) as f32 * 0.1 - 1.1).collect();
    let gamma = vec![1.0f32; n];
    let beta = vec![0.0f32; n];
    // Nominal flops/element: softmax 5 (max, sub, exp, sum, div),
    // layer-norm 7 (two reduction passes + normalize + affine),
    // bias-GELU 11 (add + tanh-GELU polynomial).
    let (sm_s, sm_iters) = time_at_least(micro_ms, || softmax_rows(&mut act, n));
    let softmax_gflops = (5 * m * n) as f64 * sm_iters as f64 / sm_s / 1e9;
    let (ln_s, ln_iters) = time_at_least(micro_ms, || layer_norm_rows(&mut act, &gamma, &beta));
    let layer_norm_gflops = (7 * m * n) as f64 * ln_iters as f64 / ln_s / 1e9;
    let (bg_s, bg_iters) = time_at_least(micro_ms, || bias_gelu_rows(&mut act, &beta));
    let bias_gelu_gflops = (11 * m * n) as f64 * bg_iters as f64 / bg_s / 1e9;
    // The activation buffer saturates under repeated in-place kernels;
    // that's fine — these are throughput measurements, not accuracy ones.
    kernels::with_thread_scratch(|s| {
        let v = s.take(1);
        s.give(v);
    });
    eprintln!(
        "[bench] kernels: gemm {gemm_gflops:.2} GFLOP/s, softmax {softmax_gflops:.2}, \
         layer_norm {layer_norm_gflops:.2}, bias_gelu {bias_gelu_gflops:.2}"
    );

    // --- Report + JSON -------------------------------------------------------
    let floor = if smoke { SPEEDUP_FLOOR_SMOKE } else { SPEEDUP_FLOOR_FULL };
    print_markdown(
        &format!("exp_bench — kernel layer compute ({})", if smoke { "smoke" } else { "full" }),
        &["metric", "scalar", "fast"],
        &[
            vec!["tables/s".into(), format!("{scalar_tables_per_s:.1}"), format!("{fast_tables_per_s:.1}")],
            vec!["columns/s".into(), format!("{scalar_cols_per_s:.1}"), format!("{fast_cols_per_s:.1}")],
            vec!["speedup ×".into(), "1.00".into(), format!("{speedup:.2}")],
            vec!["train steps/s".into(), "—".into(), format!("{train_steps_per_s:.2}")],
            vec!["gemm GFLOP/s".into(), "—".into(), format!("{gemm_gflops:.2}")],
            vec!["softmax GFLOP/s".into(), "—".into(), format!("{softmax_gflops:.2}")],
            vec!["layer_norm GFLOP/s".into(), "—".into(), format!("{layer_norm_gflops:.2}")],
            vec!["bias_gelu GFLOP/s".into(), "—".into(), format!("{bias_gelu_gflops:.2}")],
        ],
    );

    let json = format!(
        "{{\n  \"experiment\": \"exp_bench\",\n  \"mode\": \"{mode}\",\n  \
         \"tables\": {tables},\n  \"columns\": {cols},\n  \
         \"scalar_tables_per_s\": {scalar_tables_per_s:.2},\n  \
         \"fast_tables_per_s\": {fast_tables_per_s:.2},\n  \
         \"scalar_cols_per_s\": {scalar_cols_per_s:.2},\n  \
         \"fast_cols_per_s\": {fast_cols_per_s:.2},\n  \
         \"speedup\": {speedup:.3},\n  \"speedup_floor\": {floor:.1},\n  \
         \"train_steps_per_s\": {train_steps_per_s:.3},\n  \
         \"gemm_gflops\": {gemm_gflops:.3},\n  \"softmax_gflops\": {softmax_gflops:.3},\n  \
         \"layer_norm_gflops\": {layer_norm_gflops:.3},\n  \
         \"bias_gelu_gflops\": {bias_gelu_gflops:.3}\n}}\n",
        mode = if smoke { "smoke" } else { "full" },
        tables = prep.len(),
        cols = n_cols,
    );
    let out_path = if smoke {
        std::fs::create_dir_all("target/smoke").expect("create target/smoke/");
        std::path::PathBuf::from("target/smoke/BENCH_kernels.json")
    } else {
        std::path::PathBuf::from("BENCH_kernels.json")
    };
    std::fs::write(&out_path, &json).expect("write BENCH_kernels.json");
    eprintln!("[bench] wrote {}", out_path.display());

    assert!(
        speedup >= floor,
        "kernel speedup {speedup:.2}× is below the {floor:.1}× floor — the fast path \
         regressed against the scalar baseline"
    );
    eprintln!("OK: parity holds, speedup {speedup:.2}× ≥ {floor:.1}× floor");
}
