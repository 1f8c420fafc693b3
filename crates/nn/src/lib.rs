//! From-scratch neural substrate for the KGLink reproduction.
//!
//! The paper fine-tunes `bert-base-uncased` on an NVIDIA V100. Neither a
//! pre-trained BERT checkpoint nor a GPU is available here, so this crate
//! implements the *minimum complete* equivalent: a transformer encoder with
//! explicit forward/backward passes (no external autodiff), a word-level
//! tokenizer with BERT's special tokens, AdamW with linear learning-rate
//! decay (the paper's optimizer settings), the DMLM distillation loss
//! (Eq. 13–14), Kendall's uncertainty-weighted multi-task combination
//! (Eq. 17), and a masked-language-model pre-training loop that plays the
//! role of BERT's web-scale pre-training.
//!
//! Design notes:
//!
//! * Training processes sequences one at a time at their true length;
//!   mini-batch semantics come from gradient accumulation, so no
//!   padding/attention masks are needed. Inference has a batched path
//!   ([`Encoder::infer_batch`]) that packs many sequences into one
//!   activation matrix and runs one GEMM per projection for the whole
//!   batch — segments keep their true lengths, so still no padding.
//! * Layers return explicit cache structs from `forward`; `backward`
//!   consumes the cache and accumulates parameter gradients. This makes
//!   multi-forward training steps (masked table + ground-truth table +
//!   feature sequences) trivially correct.
//! * Everything is deterministic under a seed.
//! * Model artifacts — checkpoints, weight blobs, and the registry files
//!   built on them — share one codec, [`frame`]: a CRC'd frame, a
//!   bounds-checked reader/writer, and one atomic publish.

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

pub mod checkpoint;
pub mod encoder;
pub mod frame;
pub mod kernels;
pub mod layers;
pub mod loss;
pub mod mlm;
pub mod optim;
pub mod serialize;
pub mod tensor;
pub mod tokenizer;

pub use checkpoint::{CheckpointError, Checkpointer, TrainCheckpoint};
pub use encoder::{
    with_encoder_scratch, BatchHidden, Encoder, EncoderCache, EncoderConfig, EncoderScratch,
};
pub use layers::param::Param;
pub use loss::{cross_entropy, dmlm_loss, Task, UncertaintyWeights};
pub use mlm::{MlmHead, MlmPretrainConfig, MlmPretrainer};
pub use optim::{AdamW, AdamWConfig, LinearDecay};
pub use tensor::Tensor;
pub use tokenizer::{special, Tokenizer, Vocab};
