//! The transformer encoder: embeddings + stacked blocks.
//!
//! Training runs [`Encoder::forward`] one sequence at a time, caching
//! for backprop. Inference packs any number of sequences into one
//! `(Σ lengths × d_model)` matrix ([`Encoder::infer_batch`];
//! [`Encoder::infer`] is a batch of one) and sends every block through
//! one function, `block_rows`: one GEMM per projection per block for the
//! whole batch, attention score products per segment so no sequence
//! attends across its boundary. [`Encoder::infer_batch_rows`] runs the
//! last block only over the rows the caller reads (a column's CLS row);
//! K/V still cover every row. A row's arithmetic does not depend on the
//! rows riding with it, so all of these are bit-identical to each other
//! and to the training forward. Intermediates come from an
//! [`EncoderScratch`], so steady-state inference allocates nothing.

use crate::kernels::{self, Mat, MatMut, Trans};
use crate::layers::block::{BlockCache, TransformerBlock};
use crate::layers::embedding::{Embedding, EmbeddingCache};
use crate::layers::layernorm::{LayerNorm, LayerNormCache};
use crate::layers::linear::Linear;
use crate::layers::param::{HasParams, Param};
use crate::tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;

/// Architecture hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EncoderConfig {
    pub vocab_size: usize,
    pub d_model: usize,
    pub n_heads: usize,
    pub d_ff: usize,
    pub n_layers: usize,
    pub max_len: usize,
    pub seed: u64,
}

impl EncoderConfig {
    /// The reproduction's default "MiniLM" — the stand-in for BERT-base.
    /// Every model in the main results table shares this encoder size, so
    /// comparisons measure method differences, not capacity.
    pub fn mini(vocab_size: usize) -> Self {
        EncoderConfig {
            vocab_size,
            d_model: 48,
            n_heads: 4,
            d_ff: 96,
            n_layers: 2,
            max_len: 192,
            seed: 42,
        }
    }

    /// A larger encoder playing DeBERTa's role in the ablation (Table II's
    /// "KGLink DeBERTa" row): same interface, more capacity.
    pub fn large(vocab_size: usize) -> Self {
        EncoderConfig {
            vocab_size,
            d_model: 64,
            n_heads: 4,
            d_ff: 128,
            n_layers: 3,
            max_len: 192,
            seed: 42,
        }
    }
}

/// BERT-style encoder: token + position embeddings, embedding LayerNorm,
/// then `n_layers` post-LN transformer blocks.
#[derive(Debug, Clone)]
pub struct Encoder {
    pub config: EncoderConfig,
    pub token_emb: Embedding,
    pub pos_emb: Param,
    pub emb_ln: LayerNorm,
    pub blocks: Vec<TransformerBlock>,
}

/// Forward cache.
#[derive(Debug)]
pub struct EncoderCache {
    emb: EmbeddingCache,
    emb_ln: LayerNormCache,
    blocks: Vec<BlockCache>,
}

/// Reusable buffers for [`Encoder::infer_batch`]: the packed hidden-state
/// matrix, the segment offset table, and a kernel [`Scratch`] pool for
/// every intermediate. Warm after one call with the workload's largest
/// shapes, after which batched inference allocates nothing.
///
/// [`Scratch`]: kernels::Scratch
#[derive(Debug, Default)]
pub struct EncoderScratch {
    ks: kernels::Scratch,
    hidden: Tensor,
    offsets: Vec<usize>,
}

impl EncoderScratch {
    pub fn new() -> Self {
        Self::default()
    }

    /// Times the kernel scratch pool had to grow (see
    /// [`Scratch::fresh_allocs`](kernels::Scratch::fresh_allocs)).
    pub fn fresh_allocs(&self) -> u64 {
        self.ks.fresh_allocs()
    }
}

/// The result of a batched forward: hidden states for all segments packed
/// row-wise into one matrix, with an offset table delimiting segments.
/// Borrows the [`EncoderScratch`] it was computed into.
#[derive(Debug)]
pub struct BatchHidden<'s> {
    hidden: &'s Tensor,
    offsets: &'s [usize],
}

impl BatchHidden<'_> {
    /// Number of encoded segments.
    pub fn segments(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Encoded length of segment `seg` (its input length clipped to
    /// `max_len`).
    pub fn len(&self, seg: usize) -> usize {
        self.offsets[seg + 1] - self.offsets[seg]
    }

    /// Hidden-state row `r` of segment `seg`.
    pub fn row(&self, seg: usize, r: usize) -> &[f32] {
        debug_assert!(r < self.len(seg));
        self.hidden.row(self.offsets[seg] + r)
    }

    /// The packed `(Σ lengths × d_model)` hidden matrix.
    pub fn packed(&self) -> &Tensor {
        self.hidden
    }

    /// Cumulative row offsets, one entry per segment plus a final total.
    pub fn offsets(&self) -> &[usize] {
        self.offsets
    }
}

thread_local! {
    static ENC_SCRATCH: RefCell<EncoderScratch> = RefCell::new(EncoderScratch::default());
}

/// Run `f` with this thread's shared [`EncoderScratch`]. Re-entrant: a
/// nested call sees a fresh scratch (its buffers are dropped afterwards).
pub fn with_encoder_scratch<R>(f: impl FnOnce(&mut EncoderScratch) -> R) -> R {
    ENC_SCRATCH.with(|cell| {
        let mut s = cell.take();
        let r = f(&mut s);
        cell.replace(s);
        r
    })
}

impl Encoder {
    /// Build an encoder from a config (deterministic under `config.seed`).
    pub fn new(config: EncoderConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let token_emb = Embedding::new(config.vocab_size, config.d_model, &mut rng);
        let pos_emb = Param::new(Tensor::normal(config.max_len, config.d_model, 0.02, &mut rng));
        let emb_ln = LayerNorm::new(config.d_model);
        let blocks = (0..config.n_layers)
            .map(|_| TransformerBlock::new(config.d_model, config.n_heads, config.d_ff, &mut rng))
            .collect();
        Encoder {
            config,
            token_emb,
            pos_emb,
            emb_ln,
            blocks,
        }
    }

    /// Truncate token ids to the maximum supported length.
    fn clip<'a>(&self, ids: &'a [u32]) -> &'a [u32] {
        &ids[..ids.len().min(self.config.max_len)]
    }

    /// Embed tokens + positions.
    fn embed(&self, ids: &[u32]) -> (Tensor, EmbeddingCache) {
        let (mut x, cache) = self.token_emb.forward(ids);
        for r in 0..x.rows() {
            let pos = self.pos_emb.value.row(r);
            let row = x.row_mut(r);
            for (a, &b) in row.iter_mut().zip(pos) {
                *a += b;
            }
        }
        (x, cache)
    }

    /// Encode a token sequence into `(len × d_model)` hidden states, with a
    /// cache for backprop. Sequences longer than `max_len` are truncated.
    pub fn forward(&self, ids: &[u32]) -> (Tensor, EncoderCache) {
        let ids = self.clip(ids);
        let (x, emb_cache) = self.embed(ids);
        let (mut h, emb_ln_cache) = self.emb_ln.forward(&x);
        let mut block_caches = Vec::with_capacity(self.blocks.len());
        for block in &self.blocks {
            let (next, cache) = block.forward(&h);
            h = next;
            block_caches.push(cache);
        }
        (
            h,
            EncoderCache {
                emb: emb_cache,
                emb_ln: emb_ln_cache,
                blocks: block_caches,
            },
        )
    }

    /// Encode without caching (inference / detached teacher branches).
    /// A batch-of-one wrapper around [`Encoder::infer_batch`].
    pub fn infer(&self, ids: &[u32]) -> Tensor {
        with_encoder_scratch(|es| self.infer_batch(&[ids], es).packed().clone())
    }

    /// Encode a batch of token sequences in one packed forward pass:
    /// bit-identical to [`Encoder::infer`] per sequence, but one GEMM per
    /// projection per layer over all `Σ lengths` rows. Intermediates come
    /// from `scratch`, so in steady state it allocates nothing.
    pub fn infer_batch<'s>(
        &self,
        seqs: &[&[u32]],
        scratch: &'s mut EncoderScratch,
    ) -> BatchHidden<'s> {
        self.forward_packed(seqs, None, scratch)
    }

    /// [`Encoder::infer_batch`] for callers that will only read a known
    /// subset of output rows (classification reads one CLS row per
    /// column, not the whole sequence).
    ///
    /// `needed` lists the `(segment, row)` pairs the caller will read,
    /// grouped by ascending segment with strictly ascending rows within a
    /// segment, every row in bounds after `max_len` clipping. The final
    /// transformer block computes everything but K/V **only for those
    /// rows**. Each listed row is bit-identical to the same row from
    /// [`Encoder::infer_batch`]; *unlisted* rows of the result hold the
    /// final block's input and must not be read.
    pub fn infer_batch_rows<'s>(
        &self,
        seqs: &[&[u32]],
        needed: &[(usize, usize)],
        scratch: &'s mut EncoderScratch,
    ) -> BatchHidden<'s> {
        debug_assert!(
            needed.windows(2).all(|w| w[0] < w[1]),
            "needed rows must be grouped by ascending segment, ascending row"
        );
        self.forward_packed(seqs, Some(needed), scratch)
    }

    /// Embed every sequence into the packed matrix, then run each block
    /// through [`block_rows`]: over every row, except that the last block
    /// runs over `needed` only when it is given.
    fn forward_packed<'s>(
        &self,
        seqs: &[&[u32]],
        needed: Option<&[(usize, usize)]>,
        scratch: &'s mut EncoderScratch,
    ) -> BatchHidden<'s> {
        let d = self.config.d_model;
        let EncoderScratch { ks: s, hidden, offsets } = scratch;
        offsets.clear();
        offsets.push(0);
        let mut total = 0usize;
        for seq in seqs {
            total += seq.len().min(self.config.max_len);
            offsets.push(total);
        }
        hidden.resize(total, d);

        // Embedding: token row + position row, then the embedding LayerNorm.
        for (si, seq) in seqs.iter().enumerate() {
            let ids = self.clip(seq);
            let base = offsets[si];
            for (r, &id) in ids.iter().enumerate() {
                let tok = self.token_emb.table.value.row(id as usize);
                let pos = self.pos_emb.value.row(r);
                let dst = hidden.row_mut(base + r);
                for c in 0..d {
                    dst[c] = tok[c] + pos[c];
                }
            }
        }
        kernels::layer_norm_rows(
            hidden.data_mut(),
            self.emb_ln.gamma.value.data(),
            self.emb_ln.beta.value.data(),
        );

        let last = self.blocks.len().wrapping_sub(1);
        for (bi, block) in self.blocks.iter().enumerate() {
            block_rows(block, needed.filter(|_| bi == last), hidden, offsets, s);
        }
        BatchHidden {
            hidden: &*hidden,
            offsets: offsets.as_slice(),
        }
    }

    /// Backward from `dh` (gradient w.r.t. the final hidden states).
    /// Accumulates into every parameter's gradient buffer.
    pub fn backward(&mut self, cache: &EncoderCache, dh: &Tensor) {
        let mut grad = dh.clone();
        for (block, bcache) in self.blocks.iter_mut().zip(&cache.blocks).rev() {
            grad = block.backward(bcache, &grad);
        }
        let dx = self.emb_ln.backward(&cache.emb_ln, &grad);
        // Position embeddings receive the same gradient rows.
        for r in 0..dx.rows() {
            let d = dx.cols();
            let dst = &mut self.pos_emb.grad.data_mut()[r * d..(r + 1) * d];
            for (g, &v) in dst.iter_mut().zip(dx.row(r)) {
                *g += v;
            }
        }
        self.token_emb.backward(&cache.emb, &dx);
    }

    /// Model width.
    pub fn d_model(&self) -> usize {
        self.config.d_model
    }
}

/// `out = x·W` for a row-major `x` with `lin.d_in()` columns; the
/// caller applies the bias (plain or fused with GELU).
fn gemm_rows(x: &[f32], lin: &Linear, out: &mut [f32], s: &mut kernels::Scratch) {
    let rows = x.len() / lin.d_in();
    kernels::gemm(
        Mat::new(x, rows, lin.d_in()),
        lin.w.value.as_mat(),
        Trans::No,
        Trans::No,
        &mut MatMut::new(out, rows, lin.d_out()),
        s,
    );
}

/// One transformer block of the packed inference forward, in place on
/// `hidden`, for the rows `rows` selects: `None` is every row, `Some`
/// lists `(segment, row)` pairs as [`Encoder::infer_batch_rows`] takes
/// them.
///
/// K and V are projected over every row, since a selected row attends
/// over its whole segment. Everything else — Q, attention, the output
/// projection, both residuals, LN1, the FFN and LN2 — runs on the
/// selected rows only: `hidden` itself for `None`, the gathered rows
/// otherwise. Attention runs once per run of selected rows sharing a
/// segment (for `None`, a whole segment). The outputs are written back
/// to the rows they came from; unselected rows keep the block's input.
/// Each row's arithmetic is the same whichever rows ride with it, so a
/// selected row is bit-identical to the same row of the `None` call.
fn block_rows(
    block: &TransformerBlock,
    rows: Option<&[(usize, usize)]>,
    hidden: &mut Tensor,
    offsets: &[usize],
    s: &mut kernels::Scratch,
) {
    let (total, d) = hidden.shape();
    let n = rows.map_or(total, <[_]>::len);
    if n == 0 {
        return;
    }
    let attn = &block.attn;
    let (n_heads, dh) = (attn.n_heads(), attn.d_head());
    let scale = 1.0 / (dh as f32).sqrt();
    // Packed row of selected row `i`.
    let row_of = |i: usize| rows.map_or(i, |rows| offsets[rows[i].0] + rows[i].1);

    let mut k = s.take(total * d);
    let mut v = s.take(total * d);
    for (dst, lin) in [(&mut k, &attn.wk), (&mut v, &attn.wv)] {
        gemm_rows(hidden.data(), lin, dst, s);
        kernels::add_bias_rows(dst, lin.b.value.data());
    }
    let gathered = rows.map(|rows| {
        let mut xs = s.take(n * d);
        for (i, &(seg, r)) in rows.iter().enumerate() {
            debug_assert!(seg < offsets.len() - 1 && r < offsets[seg + 1] - offsets[seg]);
            xs[i * d..(i + 1) * d].copy_from_slice(hidden.row(row_of(i)));
        }
        xs
    });
    let x = gathered.as_deref().unwrap_or(hidden.data());
    let mut q = s.take(n * d);
    gemm_rows(x, &attn.wq, &mut q, s);
    kernels::add_bias_rows(&mut q, attn.wq.b.value.data());

    // Attention per run of selected rows in one segment, per head, over
    // strided head views; no row attends across its segment's boundary.
    let mut ctx = s.take(n * d);
    let mut i = 0;
    while i < n {
        let (seg, m) = match rows {
            None => {
                let seg = offsets.partition_point(|&o| o <= i) - 1;
                (seg, offsets[seg + 1] - i)
            }
            Some(rows) => (rows[i].0, rows[i..].iter().take_while(|r| r.0 == rows[i].0).count()),
        };
        let (o, l) = (offsets[seg], offsets[seg + 1] - offsets[seg]);
        let mut scores = s.take(m * l);
        for h in 0..n_heads {
            let (q_off, kv_off) = (i * d + h * dh, o * d + h * dh);
            kernels::gemm(
                Mat::with_stride(&q[q_off..], m, dh, d),
                Mat::with_stride(&k[kv_off..], l, dh, d),
                Trans::No,
                Trans::Yes,
                &mut MatMut::new(&mut scores, m, l),
                s,
            );
            kernels::scaled_softmax_rows(&mut scores, l, scale);
            kernels::gemm(
                Mat::new(&scores, m, l),
                Mat::with_stride(&v[kv_off..], l, dh, d),
                Trans::No,
                Trans::No,
                &mut MatMut::with_stride(&mut ctx[q_off..], m, dh, d),
                s,
            );
        }
        s.give(scores);
        i += m;
    }

    // Output projection into q (dead), first residual, LN1: q holds h.
    gemm_rows(&ctx, &attn.wo, &mut q, s);
    kernels::add_bias_rows(&mut q, attn.wo.b.value.data());
    for (a, &x_v) in q.iter_mut().zip(x) {
        *a += x_v;
    }
    kernels::layer_norm_rows(&mut q, block.ln1.gamma.value.data(), block.ln1.beta.value.data());
    if let Some(xs) = gathered {
        s.give(xs);
    }
    // FFN: fused bias+GELU, second projection into ctx (dead).
    let mut ff = s.take(n * block.ffn.fc1.d_out());
    gemm_rows(&q, &block.ffn.fc1, &mut ff, s);
    kernels::bias_gelu_rows(&mut ff, block.ffn.fc1.b.value.data());
    gemm_rows(&ff, &block.ffn.fc2, &mut ctx, s);
    kernels::add_bias_rows(&mut ctx, block.ffn.fc2.b.value.data());
    // Second residual into q, LN2 over all n rows at once, then each row
    // copied to its selected row's home.
    for (h_v, &f_v) in q.iter_mut().zip(ctx.iter()) {
        *h_v += f_v;
    }
    kernels::layer_norm_rows(&mut q, block.ln2.gamma.value.data(), block.ln2.beta.value.data());
    for (i, row) in q.chunks_exact(d).enumerate() {
        hidden.row_mut(row_of(i)).copy_from_slice(row);
    }
    for buf in [k, v, q, ctx, ff] {
        s.give(buf);
    }
}

impl HasParams for Encoder {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.token_emb.visit_params(f);
        f(&mut self.pos_emb);
        self.emb_ln.visit_params(f);
        for b in &mut self.blocks {
            b.visit_params(f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An encoder with every parameter perturbed — biases and layer-norm
    /// gains included, which construction sets to 0 and 1 — so a dropped
    /// or misplaced term moves the output.
    fn perturbed(config: EncoderConfig) -> Encoder {
        let mut enc = Encoder::new(config);
        let mut rng = StdRng::seed_from_u64(config.seed + 1);
        enc.visit_params(&mut |p| {
            let (rows, cols) = p.value.shape();
            p.value.axpy(1.0, &Tensor::normal(rows, cols, 0.05, &mut rng));
        });
        enc
    }

    fn tiny_config() -> EncoderConfig {
        EncoderConfig {
            vocab_size: 20,
            d_model: 8,
            n_heads: 2,
            d_ff: 16,
            n_layers: 2,
            max_len: 16,
            seed: 3,
        }
    }

    #[test]
    fn forward_shapes() {
        let enc = Encoder::new(tiny_config());
        let (h, cache) = enc.forward(&[2, 5, 6, 3]);
        assert_eq!(h.shape(), (4, 8));
        assert_eq!(cache.blocks.len(), 2);
    }

    #[test]
    fn truncates_to_max_len() {
        let enc = Encoder::new(tiny_config());
        let ids: Vec<u32> = (0..40).map(|i| i % 20).collect();
        let h = enc.infer(&ids);
        assert_eq!(h.rows(), 16);
    }

    /// The training forward is the bit reference for inference: every
    /// length up to `max_len`, and one past it (clipped), must agree
    /// exactly.
    #[test]
    fn infer_matches_forward() {
        let enc = perturbed(tiny_config());
        for len in 1..=enc.config.max_len + 3 {
            let ids: Vec<u32> = (0..len as u32).map(|i| (i * 7 + 2) % 20).collect();
            let (h, _) = enc.forward(&ids);
            let h2 = enc.infer(&ids);
            assert_eq!(h.shape(), h2.shape());
            for (i, (a, b)) in h.data().iter().zip(h2.data()).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "length {len}, element {i}");
            }
        }
    }

    /// CRC32 over the output bits of `infer_batch` (every row) and
    /// `infer_batch_rows` (the listed rows) for a seeded mini encoder,
    /// with an empty and a clipped segment in the batch. Anything that
    /// moves one output bit — a reordered sum, a kernel rewrite, a wider
    /// vector target — changes this constant.
    #[test]
    fn forward_output_bits_match_the_golden_digest() {
        let enc = perturbed(EncoderConfig::mini(64));
        let max = enc.config.max_len;
        let seqs_owned: Vec<Vec<u32>> = vec![
            (0..13).map(|i| (i * 5 + 2) % 64).collect(),
            Vec::new(),
            (0..max as u32 + 20).map(|i| (i * 7 + 1) % 64).collect(),
            vec![2, 3],
            (0..40).map(|i| (i * 11 + 4) % 64).collect(),
        ];
        let seqs: Vec<&[u32]> = seqs_owned.iter().map(Vec::as_slice).collect();
        let needed = [(0usize, 0usize), (0, 12), (2, 0), (2, max - 1), (3, 1), (4, 0)];
        let mut scratch = EncoderScratch::new();
        let full = enc.infer_batch(&seqs, &mut scratch).packed().clone();
        let pruned = enc.infer_batch_rows(&seqs, &needed, &mut scratch);
        let rows = needed.iter().flat_map(|&(seg, r)| pruned.row(seg, r));
        let bits: Vec<u8> =
            full.data().iter().chain(rows).flat_map(|v| v.to_bits().to_le_bytes()).collect();
        assert_eq!(crate::frame::crc32(&bits), 0xBD4D_5CFE);
    }

    #[test]
    fn pruned_batch_rows_match_full_batch_bitwise() {
        let enc = Encoder::new(tiny_config());
        let seqs_owned: Vec<Vec<u32>> = vec![
            (0..11).map(|i| (i * 3) % 20).collect(),
            (0..5).map(|i| (i * 7) % 20).collect(),
            (0..9).map(|i| (i * 5 + 1) % 20).collect(),
        ];
        let seqs: Vec<&[u32]> = seqs_owned.iter().map(Vec::as_slice).collect();
        // Several rows in one segment, a lone CLS row in the others.
        let needed = [(0usize, 2usize), (0, 7), (0, 10), (1, 0), (2, 0)];
        let mut full_s = EncoderScratch::new();
        let full: Vec<Vec<f32>> = {
            let b = enc.infer_batch(&seqs, &mut full_s);
            needed.iter().map(|&(seg, r)| b.row(seg, r).to_vec()).collect()
        };
        let mut pruned_s = EncoderScratch::new();
        let b = enc.infer_batch_rows(&seqs, &needed, &mut pruned_s);
        for (&(seg, r), want) in needed.iter().zip(&full) {
            let got = b.row(seg, r);
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(want) {
                assert_eq!(g.to_bits(), w.to_bits(), "row ({seg},{r}) diverged");
            }
        }
    }

    #[test]
    fn construction_is_deterministic() {
        let e1 = Encoder::new(tiny_config());
        let e2 = Encoder::new(tiny_config());
        let h1 = e1.infer(&[2, 5, 3]);
        let h2 = e2.infer(&[2, 5, 3]);
        assert_eq!(h1, h2);
    }

    #[test]
    fn backward_populates_all_gradients() {
        let mut enc = Encoder::new(tiny_config());
        let ids = [2u32, 5, 6, 3];
        let (h, cache) = enc.forward(&ids);
        let mut dh = Tensor::zeros(h.rows(), h.cols());
        dh.data_mut().fill(0.1);
        enc.backward(&cache, &dh);
        let norm = enc.grad_norm();
        assert!(norm > 0.0, "gradients must flow to parameters");
        // Token embedding rows for used ids are non-zero.
        assert!(enc.token_emb.table.grad.row(5).iter().any(|&g| g != 0.0));
        // Unused ids stay zero.
        assert!(enc.token_emb.table.grad.row(19).iter().all(|&g| g == 0.0));
    }

    #[test]
    fn encoder_gradient_check_end_to_end() {
        let mut enc = Encoder::new(EncoderConfig {
            vocab_size: 10,
            d_model: 4,
            n_heads: 2,
            d_ff: 8,
            n_layers: 1,
            max_len: 8,
            seed: 4,
        });
        let ids = [2u32, 5, 3];
        let upstream = Tensor::from_vec(3, 4, (0..12).map(|i| (i as f32 - 6.0) / 10.0).collect());
        let (_, cache) = enc.forward(&ids);
        enc.backward(&cache, &upstream);
        // Finite difference on one token-embedding entry.
        let eps = 1e-2f32;
        let idx = 5 * 4 + 1; // row of token 5, col 1
        let ana = enc.token_emb.table.grad.data()[idx];
        let orig = enc.token_emb.table.value.data()[idx];
        enc.token_emb.table.value.data_mut()[idx] = orig + eps;
        let lp = enc.infer(&ids).dot(&upstream);
        enc.token_emb.table.value.data_mut()[idx] = orig - eps;
        let lm = enc.infer(&ids).dot(&upstream);
        enc.token_emb.table.value.data_mut()[idx] = orig;
        let num = (lp - lm) / (2.0 * eps);
        assert!(
            (num - ana).abs() < 0.05 * (1.0 + ana.abs()),
            "numeric {num} vs analytic {ana}"
        );
    }

    #[test]
    fn batched_forward_is_bit_identical_to_sequential() {
        let enc = Encoder::new(tiny_config());
        let seqs: Vec<Vec<u32>> = vec![
            vec![2, 5, 6, 3],
            vec![2, 7, 3],
            vec![2, 1, 4, 9, 11, 3],
            vec![2, 3],
        ];
        let refs: Vec<&[u32]> = seqs.iter().map(|s| s.as_slice()).collect();
        let mut scratch = EncoderScratch::new();
        let batch = enc.infer_batch(&refs, &mut scratch);
        assert_eq!(batch.segments(), 4);
        for (si, seq) in seqs.iter().enumerate() {
            let single = enc.infer(seq);
            assert_eq!(batch.len(si), single.rows());
            for r in 0..single.rows() {
                assert_eq!(batch.row(si, r), single.row(r), "segment {si} row {r}");
            }
        }
    }

    #[test]
    fn batched_forward_handles_empty_and_overlong_segments() {
        let enc = Encoder::new(tiny_config());
        let long: Vec<u32> = (0..40).map(|i| i % 20).collect();
        let refs: Vec<&[u32]> = vec![&[], &long, &[2, 3]];
        let mut scratch = EncoderScratch::new();
        let batch = enc.infer_batch(&refs, &mut scratch);
        assert_eq!(batch.len(0), 0);
        assert_eq!(batch.len(1), 16, "clipped to max_len");
        assert_eq!(batch.len(2), 2);
        assert_eq!(batch.packed().rows(), 18);
    }

    #[test]
    fn batched_forward_is_allocation_free_in_steady_state() {
        let enc = Encoder::new(tiny_config());
        let seqs: Vec<&[u32]> = vec![&[2, 5, 6, 3], &[2, 7, 9, 11, 3]];
        let mut scratch = EncoderScratch::new();
        // Warm-up call sizes every pool buffer.
        enc.infer_batch(&seqs, &mut scratch);
        let warm = scratch.fresh_allocs();
        for _ in 0..5 {
            enc.infer_batch(&seqs, &mut scratch);
        }
        assert_eq!(
            scratch.fresh_allocs(),
            warm,
            "steady-state batched inference must not grow the scratch pool"
        );
    }

    #[test]
    fn param_count_grows_with_layers() {
        let mut small = Encoder::new(tiny_config());
        let mut cfg = tiny_config();
        cfg.n_layers = 3;
        let mut big = Encoder::new(cfg);
        assert!(big.param_count() > small.param_count());
    }
}
