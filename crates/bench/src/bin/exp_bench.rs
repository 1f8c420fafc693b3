//! exp_bench: standing compute benchmark for the kernel layer.
//!
//! Not a paper table — this is the perf gate for `kglink-kernels`, the
//! batched inference core every forward pass routes through. It measures
//! five things and writes them to `BENCH_kernels.json` (repo root on full
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
//!    The in-place kernels run on buffers refilled from a pristine copy
//!    outside the timed region, so every call sees the data the model
//!    feeds it rather than the fixed point of its own output.
//! 5. **Forward split.** The one packed forward the service runs for a
//!    hot benchmark table once its feature rows are in the epoch's memo
//!    ([`HOT_CHUNKS`]) through the trained encoder (`forward_us`), and the
//!    same kernel calls at the same shapes timed family by family
//!    (`forward_split_us`: dense / QKᵀ / S·V / softmax / layer-norm /
//!    bias+GELU; `other` is what the families do not cover — embedding
//!    gather, bias and residual adds, row gather/scatter).
//!    `forward_cold_us` is the same table's forward with the memo cold,
//!    i.e. with its [`HOT_FEATURES`] encoded too; cold minus warm is the
//!    memo's saving at kernel level.
//!
//! The JSON records the CPU level the build targets (`isa`, from
//! [`build_isa`]): kernel numbers from different levels are not comparable.
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
use kglink_nn::encoder::{Encoder, EncoderScratch};
use kglink_nn::kernels::{
    bias_gelu_rows, build_isa, gemm, layer_norm_rows, scaled_softmax_rows, set_reference_mode,
    softmax_rows, Mat, MatMut, Scratch, Trans,
};
use kglink_table::{LabelId, Split};
use std::time::{Duration, Instant};

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

/// Seconds per call of an in-place kernel over `pristine`, timed on a ring
/// of buffers (small enough to stay in L2, as the model's activations do)
/// refilled from it outside the timed region.
fn time_fresh(min_ms: u64, pristine: &[f32], mut f: impl FnMut(&mut [f32])) -> f64 {
    let mut ring = vec![pristine.to_vec(); 8];
    let (t0, mut busy, mut calls) = (Instant::now(), Duration::ZERO, 0u64);
    while (t0.elapsed().as_millis() as u64) < min_ms {
        for buf in &mut ring {
            buf.copy_from_slice(pristine);
        }
        let t = Instant::now();
        for buf in &mut ring {
            f(buf);
        }
        busy += t.elapsed();
        calls += ring.len() as u64;
    }
    busy.as_secs_f64() / calls as f64
}

/// Deterministic activations in [-2, 2): what layer-normed hidden states
/// and pre-activation FFN rows look like.
fn fill(len: usize, salt: usize) -> Vec<f32> {
    (0..len)
        .map(|i| ((i * 37 + salt * 101 + 11) % 4001) as f32 / 1000.0 - 2.0)
        .collect()
}

/// The serialised chunks of one `hot_mixed` benchmark table (10 columns,
/// split at `max_columns = 8`): each chunk's length and how many of its
/// CLS rows the classifier reads. A request encodes all chunks in one
/// forward.
const HOT_CHUNKS: [(usize, usize); 2] = [(152, 8), (38, 2)];

/// The same table's feature sequences, one per linked column: encoded
/// after the chunks only when the memo has not seen them (the classifier
/// reads row 0 of each).
const HOT_FEATURES: [usize; 4] = [18; 4];

/// One forward of the hot table: token ids, `needed` rows, and per segment
/// its length and how many rows the last block computes.
struct HotForward {
    seqs: Vec<Vec<u32>>,
    needed: Vec<(usize, usize)>,
    lens: Vec<usize>,
    queries: Vec<usize>,
}

/// The hot table's forward, with `features` encoded after its chunks.
fn hot_forward(enc: &Encoder, features: &[usize]) -> HotForward {
    let vocab = enc.config.vocab_size;
    let segments: Vec<(usize, usize)> =
        HOT_CHUNKS.iter().copied().chain(features.iter().map(|&len| (len, 1))).collect();
    let seqs = segments
        .iter()
        .enumerate()
        .map(|(s, &(l, _))| (0..l).map(|i| ((i * 31 + s * 7 + 5) % vocab) as u32).collect())
        .collect();
    let needed = segments
        .iter()
        .enumerate()
        .flat_map(|(s, &(l, rows))| (0..rows).map(move |c| (s, c * (l / rows))))
        .collect();
    let (lens, queries) = segments.into_iter().unzip();
    HotForward {
        seqs,
        needed,
        lens,
        queries,
    }
}

/// Microseconds of the hot table's memo-warm forward, then of the same
/// kernel calls per family, and of its memo-cold forward.
#[derive(Debug)]
struct ForwardSplit {
    forward: f64,
    forward_cold: f64,
    dense: f64,
    qk: f64,
    sv: f64,
    softmax: f64,
    layer_norm: f64,
    bias_gelu: f64,
}

impl ForwardSplit {
    /// What the families do not cover.
    fn other(&self) -> f64 {
        self.forward
            - (self.dense + self.qk + self.sv + self.softmax + self.layer_norm + self.bias_gelu)
    }
}

fn timed(f: impl FnOnce()) -> Duration {
    let t = Instant::now();
    f();
    t.elapsed()
}

/// Time the hot table's memo-warm forward through `enc`, and, family by
/// family, the kernel calls `Encoder::infer_batch_rows` makes for it: every
/// block but the last runs all `total` rows; the last projects K/V for all
/// rows and everything else for the needed rows only, attention per segment
/// per head over strided head views. One round runs the real forward, each
/// family and the memo-cold forward once, so a drift in machine speed hits
/// all eight alike; the in-place families get buffers refilled outside
/// their timed pass.
fn forward_split(enc: &Encoder, min_ms: u64) -> ForwardSplit {
    let cfg = enc.config;
    let (d, d_ff, heads) = (cfg.d_model, cfg.d_ff, cfg.n_heads);
    let dh = d / heads;
    let scale = 1.0 / (dh as f32).sqrt();
    let warm = hot_forward(enc, &[]);
    let cold = hot_forward(enc, &HOT_FEATURES);
    // (rows, k, n) dense GEMMs; (query rows, segment length) attention
    // products, one per head; row counts of the row-wise kernels.
    let mut dense: Vec<(usize, usize, usize)> = Vec::new();
    let mut attn: Vec<(usize, usize)> = Vec::new();
    let mut ln_rows: Vec<usize> = Vec::new();
    let mut gelu_rows: Vec<usize> = Vec::new();
    let total: usize = warm.lens.iter().sum();
    let mut block = |rows: usize, queries: &[usize]| {
        dense.extend([(total, d, d), (total, d, d), (rows, d, d), (rows, d, d)]);
        dense.extend([(rows, d, d_ff), (rows, d_ff, d)]);
        attn.extend(queries.iter().zip(&warm.lens).map(|(&q, &l)| (q, l)));
        ln_rows.extend([rows, rows]);
        gelu_rows.push(rows);
    };
    for _ in 1..cfg.n_layers {
        block(total, &warm.lens);
    }
    block(warm.queries.iter().sum(), &warm.queries);
    ln_rows.push(total); // embedding layer norm

    let a = fill(total * d_ff.max(d), 1);
    let w = fill(d_ff * d_ff.max(d), 2);
    let v = fill(total * d, 3);
    let scores = fill(total * total, 4);
    let gamma = fill(d, 5);
    let bias = fill(d_ff, 6);
    let mut out = vec![0.0f32; total * total.max(d_ff)];
    // One buffer per in-place call, refilled from `scores` / `a` each round.
    let mut sm_bufs: Vec<Vec<f32>> = attn
        .iter()
        .flat_map(|&(q, l)| vec![vec![0.0; q * l]; heads])
        .collect();
    let mut ln_bufs: Vec<Vec<f32>> = ln_rows.iter().map(|&r| vec![0.0; r * d]).collect();
    let mut gelu_bufs: Vec<Vec<f32>> = gelu_rows.iter().map(|&r| vec![0.0; r * d_ff]).collect();
    let refill = |bufs: &mut [Vec<f32>], from: &[f32]| {
        for buf in bufs {
            let n = buf.len();
            buf.copy_from_slice(&from[..n]);
        }
    };
    let mut scratch = Scratch::new();
    let mut es = EncoderScratch::new();
    let mut forward = |hot: &HotForward| {
        let refs: Vec<&[u32]> = hot.seqs.iter().map(Vec::as_slice).collect();
        timed(|| {
            std::hint::black_box(enc.infer_batch_rows(&refs, &hot.needed, &mut es).packed());
        })
    };
    let (t0, mut rounds, mut busy) = (Instant::now(), 0u32, [Duration::ZERO; 8]);
    while (t0.elapsed().as_millis() as u64) < min_ms {
        busy[0] += forward(&warm);
        busy[1] += timed(|| {
            for &(m, k, n) in &dense {
                gemm(Mat::new(&a, m, k), Mat::new(&w, k, n), Trans::No, Trans::No, &mut MatMut::new(&mut out, m, n), &mut scratch);
            }
        });
        busy[2] += timed(|| {
            for &(q, l) in &attn {
                for h in 0..heads {
                    gemm(
                        Mat::with_stride(&a[h * dh..], q, dh, d),
                        Mat::with_stride(&v[h * dh..], l, dh, d),
                        Trans::No,
                        Trans::Yes,
                        &mut MatMut::new(&mut out, q, l),
                        &mut scratch,
                    );
                }
            }
        });
        busy[3] += timed(|| {
            for &(q, l) in &attn {
                for h in 0..heads {
                    gemm(
                        Mat::new(&scores, q, l),
                        Mat::with_stride(&v[h * dh..], l, dh, d),
                        Trans::No,
                        Trans::No,
                        &mut MatMut::with_stride(&mut out[h * dh..], q, dh, d),
                        &mut scratch,
                    );
                }
            }
        });
        refill(&mut sm_bufs, &scores);
        busy[4] += timed(|| {
            for (buf, &(_, l)) in sm_bufs.chunks_mut(heads).zip(&attn) {
                for x in buf {
                    scaled_softmax_rows(x, l, scale);
                }
            }
        });
        refill(&mut ln_bufs, &a);
        busy[5] += timed(|| {
            for x in &mut ln_bufs {
                layer_norm_rows(x, &gamma, &bias[..d]);
            }
        });
        refill(&mut gelu_bufs, &a);
        busy[6] += timed(|| {
            for x in &mut gelu_bufs {
                bias_gelu_rows(x, &bias);
            }
        });
        busy[7] += forward(&cold);
        rounds += 1;
    }
    let [forward, dense, qk, sv, softmax, layer_norm, bias_gelu, forward_cold] =
        busy.map(|b| b.as_secs_f64() * 1e6 / f64::from(rounds));
    ForwardSplit {
        forward,
        forward_cold,
        dense,
        qk,
        sv,
        softmax,
        layer_norm,
        bias_gelu,
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

    let act = fill(m * n, 0);
    let gamma = vec![1.0f32; n];
    let beta = vec![0.0f32; n];
    // Nominal flops/element: softmax 5 (max, sub, exp, sum, div),
    // layer-norm 7 (two reduction passes + normalize + affine),
    // bias-GELU 11 (add + tanh-GELU polynomial).
    let gflops = |flops_per_elem: usize, s_per_call: f64| (flops_per_elem * m * n) as f64 / s_per_call / 1e9;
    let softmax_gflops = gflops(5, time_fresh(micro_ms, &act, |x| softmax_rows(x, n)));
    let layer_norm_gflops = gflops(7, time_fresh(micro_ms, &act, |x| layer_norm_rows(x, &gamma, &beta)));
    let bias_gelu_gflops = gflops(11, time_fresh(micro_ms, &act, |x| bias_gelu_rows(x, &beta)));
    eprintln!(
        "[bench] kernels: gemm {gemm_gflops:.2} GFLOP/s, softmax {softmax_gflops:.2}, \
         layer_norm {layer_norm_gflops:.2}, bias_gelu {bias_gelu_gflops:.2}"
    );

    // --- 5. Forward split of one hot benchmark table ------------------------
    let split = forward_split(&model.model.encoder, 2 * micro_ms);
    let (forward_us, forward_cold_us, other_us) = (split.forward, split.forward_cold, split.other());
    eprintln!("[bench] hot-table forward: {split:.0?}, other {other_us:.0} µs");

    // --- Report + JSON -------------------------------------------------------
    let floor = if smoke { SPEEDUP_FLOOR_SMOKE } else { SPEEDUP_FLOOR_FULL };
    print_markdown(
        &format!(
            "exp_bench — kernel layer compute ({}, {})",
            if smoke { "smoke" } else { "full" },
            build_isa()
        ),
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
            vec!["hot-table forward µs (memo warm)".into(), "—".into(), format!("{forward_us:.0}")],
            vec!["hot-table forward µs (memo cold)".into(), "—".into(), format!("{forward_cold_us:.0}")],
        ],
    );

    let json = format!(
        "{{\n  \"experiment\": \"exp_bench\",\n  \"mode\": \"{mode}\",\n  \
         \"isa\": \"{isa}\",\n  \
         \"tables\": {tables},\n  \"columns\": {cols},\n  \
         \"scalar_tables_per_s\": {scalar_tables_per_s:.2},\n  \
         \"fast_tables_per_s\": {fast_tables_per_s:.2},\n  \
         \"scalar_cols_per_s\": {scalar_cols_per_s:.2},\n  \
         \"fast_cols_per_s\": {fast_cols_per_s:.2},\n  \
         \"speedup\": {speedup:.3},\n  \"speedup_floor\": {floor:.1},\n  \
         \"train_steps_per_s\": {train_steps_per_s:.3},\n  \
         \"gemm_gflops\": {gemm_gflops:.3},\n  \"softmax_gflops\": {softmax_gflops:.3},\n  \
         \"layer_norm_gflops\": {layer_norm_gflops:.3},\n  \
         \"bias_gelu_gflops\": {bias_gelu_gflops:.3},\n  \
         \"forward_us\": {forward_us:.1},\n  \"forward_cold_us\": {forward_cold_us:.1},\n  \
         \"forward_split_us\": {{\"dense\": {:.1}, \"qk\": {:.1}, \"sv\": {:.1}, \
         \"softmax\": {:.1}, \"layer_norm\": {:.1}, \"bias_gelu\": {:.1}, \
         \"other\": {other_us:.1}}}\n}}\n",
        split.dense,
        split.qk,
        split.sv,
        split.softmax,
        split.layer_norm,
        split.bias_gelu,
        mode = if smoke { "smoke" } else { "full" },
        isa = build_isa(),
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
