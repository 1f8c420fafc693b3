//! The one public home for numeric kernels.
//!
//! Re-exports the curated surface of the `kglink-kernels` crate: the
//! single [`gemm`]/[`gemm_acc`] matrix-multiply entry point over strided
//! [`Mat`]/[`MatMut`] views, the fused row-wise kernels (softmax with the
//! attention scale folded in, layer norm, bias+GELU), the scalar
//! activation helpers, and the [`Scratch`] arena machinery that keeps the
//! steady-state inference path allocation-free.
//!
//! This module replaces the former `kglink_nn::ops` free functions and
//! the `Tensor::matmul_tn`/`matmul_nt` method variants; downstream crates
//! import from here rather than depending on `kglink-kernels` directly.

pub use kglink_kernels::{
    add_bias_rows, bias_gelu_rows, exp, gelu, gelu_grad, gemm, gemm_acc, layer_norm_rows,
    layer_norm_rows_cached, log_softmax, mean, reference_mode, scaled_softmax_rows,
    set_reference_mode, softmax, softmax_backward_rows, softmax_rows, with_thread_scratch,
    Mat, MatMut, Scratch, Trans, LAYER_NORM_EPS,
};
