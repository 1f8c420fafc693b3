//! Numeric kernels for the KGLink encoder.
//!
//! This crate is the single home for the encoder's tensor math; `kglink-nn`
//! keeps no matrix product of its own. It exposes:
//!
//! * [`gemm`] / [`gemm_acc`] — one matrix-multiply entry point with
//!   transpose flags, operating on strided [`Mat`] / [`MatMut`] views so
//!   attention heads can be sliced out of a packed `(rows × d_model)`
//!   activation matrix without copying columns;
//! * fused row-wise kernels — [`scaled_softmax_rows`] (the attention
//!   `1/√d_h` scale folded into the softmax), [`layer_norm_rows`], and
//!   [`bias_gelu_rows`] (bias add + GELU in one pass);
//! * [`exp`] / [`tanh`] — the crate's own definitions (no libm), which the
//!   softmax and GELU kernels above are built on;
//! * [`Scratch`] — a per-thread pool of recycled `f32` buffers so the
//!   steady-state inference path performs zero heap allocations;
//! * [`check_cpu`] — the typed startup check, read from `/proc/cpuinfo`,
//!   that the running CPU has every feature this build was compiled for,
//!   and [`build_isa`].
//!
//! # Parity policy
//!
//! Every kernel accumulates each output element over `k` **sequentially,
//! in ascending order, starting from 0.0**, and vectorizes only across
//! independent output elements (a 4-row × 8-column register block). Packing
//! transposed operands is pure data movement. No `mul_add` contraction is
//! used. The fast path is therefore **bit-identical** to the naive
//! reference loops (toggle with [`set_reference_mode`]) and to the legacy
//! `kglink-nn` loops, with one documented exception: the legacy kernels
//! skipped `a[i][k] == 0.0` terms, so outputs can differ in the *sign of an
//! exact zero* (and for non-finite operands, which trained networks never
//! produce). Tests assert exact `==` on finite data.
//!
//! The element-wise kernels need no reference twin: [`exp`] and [`tanh`]
//! are fixed straight-line `f32` op sequences, so a vector lane and a
//! scalar loop compute the same bits, and every row sum stays one
//! sequential chain ascending from 0.0.

#![deny(deprecated)]
#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::allow_attributes,
        clippy::allow_attributes_without_reason,
        clippy::disallowed_methods,
        clippy::iter_over_hash_type
    )
)]

mod cpu;
mod fused;
mod gemm;
mod math;
mod scratch;

pub use cpu::{build_isa, check_cpu, MissingCpuFeature};
pub use fused::{
    add_bias_rows, bias_gelu_rows, gelu, gelu_grad, layer_norm_rows, layer_norm_rows_cached,
    log_softmax, mean, scaled_softmax_rows, softmax, softmax_backward_rows, softmax_rows,
    LAYER_NORM_EPS,
};
pub use gemm::{gemm, gemm_acc, reference_mode, set_reference_mode, Mat, MatMut, Trans};
pub use math::{exp, tanh};
pub use scratch::{with_thread_scratch, Scratch};
