//! Multi-Head Self-Attention with manual backprop.
//!
//! Implements the MHSA block of the paper's Fig. 1: three linear projections
//! onto `H` heads of dimension `P` (`H·P` need not equal the embedding width
//! `C` — Bioformer (h=8) projects 64 → 8×32 = 256), scaled dot-product
//! attention `softmax(QKᵀ/√P)·V` per head, then an output projection back to
//! `R^C`.

use crate::linear::{FusedActivation, Linear};
use crate::param::Param;
use crate::scratch::TrainScratch;
use bioformer_tensor::matmul::matmul_tn_into;
use bioformer_tensor::ops::{softmax_rows_backward_slice, softmax_rows_slice};
use bioformer_tensor::pack::{
    gemm_packed_with, pack_b_strided, pack_b_t_strided, packed_len, Epilogue, Fp32Kernel,
};
use bioformer_tensor::{Tensor, TensorArena};
use rand::Rng;

/// Multi-head self-attention over `[batch, seq, embed]` tensors.
#[derive(Debug, Clone)]
pub struct MultiHeadSelfAttention {
    wq: Linear,
    wk: Linear,
    wv: Linear,
    wo: Linear,
    embed: usize,
    heads: usize,
    head_dim: usize,
    cache: Option<AttnCache>,
    /// Per-head packed panels, gathered heads and products of the training
    /// step.
    scratch: TrainScratch,
    /// The SIMD tier of the per-head score/AV GEMMs, training and
    /// inference (the projections run their own [`Linear`] layers'
    /// kernels).
    kernel: Fp32Kernel,
}

#[derive(Debug, Clone)]
struct AttnCache {
    batch: usize,
    seq: usize,
    rows: QueryRows,
    /// Queries of the selected rows, `[batch·q, heads·head_dim]`.
    q: Tensor,
    /// Keys and values of every row, `[batch·seq, heads·head_dim]`.
    k: Tensor,
    v: Tensor,
    /// Softmax outputs, one `[q, seq]` block per `(batch, head)` pair at
    /// block `b * heads + h`; drawn from the scratch.
    probs: Vec<f32>,
}

/// Which query rows an inference forward produces. Keys and values cover
/// every row either way: each query attends over the whole sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum QueryRows {
    /// Every token of every sample.
    All,
    /// Each sample's last token — where Bioformer, like ViT, keeps the
    /// class token its head reads.
    Last,
}

impl QueryRows {
    /// Query rows per sample of a `seq`-token sequence.
    pub(crate) fn per_sample(self, seq: usize) -> usize {
        match self {
            QueryRows::All => seq,
            QueryRows::Last => 1,
        }
    }
}

/// Copies the `width`-wide column block at `col` of the row-major `src`
/// (row stride `ld`) into the dense `dst`, one row per `width` floats.
fn gather_cols(src: &[f32], ld: usize, col: usize, width: usize, dst: &mut [f32]) {
    for (r, row) in dst.chunks_mut(width).enumerate() {
        row.copy_from_slice(&src[r * ld + col..r * ld + col + width]);
    }
}

/// Inverse of [`gather_cols`]: writes the dense `width`-wide rows of `src`
/// into the column block at `col` of `dst` (row stride `ld`).
fn scatter_cols(src: &[f32], width: usize, dst: &mut [f32], ld: usize, col: usize) {
    for (r, row) in src.chunks(width).enumerate() {
        dst[r * ld + col..r * ld + col + width].copy_from_slice(row);
    }
}

impl MultiHeadSelfAttention {
    /// Creates an MHSA layer with `heads` heads of width `head_dim` over an
    /// embedding of width `embed`.
    pub fn new(
        name: &str,
        embed: usize,
        heads: usize,
        head_dim: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let inner = heads * head_dim;
        MultiHeadSelfAttention {
            wq: Linear::new(&format!("{name}.wq"), embed, inner, rng),
            wk: Linear::new(&format!("{name}.wk"), embed, inner, rng),
            wv: Linear::new(&format!("{name}.wv"), embed, inner, rng),
            wo: Linear::new(&format!("{name}.wo"), inner, embed, rng),
            embed,
            heads,
            head_dim,
            cache: None,
            scratch: TrainScratch::default(),
            kernel: Fp32Kernel::Dispatch,
        }
    }

    /// Pins the SIMD tier of the per-head GEMMs and all four projection
    /// layers.
    pub fn set_kernel(&mut self, kernel: Fp32Kernel) {
        for w in [&mut self.wq, &mut self.wk, &mut self.wv, &mut self.wo] {
            w.set_kernel(kernel);
        }
        self.kernel = kernel;
    }

    /// Number of attention heads.
    pub fn heads(&self) -> usize {
        self.heads
    }

    /// Per-head projection width `P`.
    pub fn head_dim(&self) -> usize {
        self.head_dim
    }

    /// Embedding width `C`.
    pub fn embed(&self) -> usize {
        self.embed
    }

    /// Number of trainable scalars.
    pub fn num_params(&self) -> usize {
        self.wq.num_params() + self.wk.num_params() + self.wv.num_params() + self.wo.num_params()
    }

    /// Forward pass over `[batch, seq, embed]`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not 3-D with the configured embedding width.
    pub fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        if !train {
            return self.forward_infer(x);
        }
        assert_eq!(x.shape().rank(), 3, "MHSA: input must be [B, S, C]");
        let (batch, seq) = (x.dims()[0], x.dims()[1]);
        let mut y = self.forward_rows(x, QueryRows::All);
        y.reshape_in_place(&[batch, seq, self.embed]);
        y
    }

    /// The training forward for the query rows `rows` selects, over `x`
    /// (`[batch, seq, embed]`, or its `[batch·seq, embed]` row view):
    /// returns `[batch·q, embed]` with `q = rows.per_sample(seq)` rows per
    /// sample, and caches what [`MultiHeadSelfAttention::backward_rows`]
    /// reads.
    ///
    /// Keys and values cover every row; queries, scores, softmax, `A·V`
    /// and `Wo` run for the selected rows only. Each head's keys and
    /// values are packed straight out of the strided projections, and the
    /// per-head products run the dispatched tile into scratch buffers, so
    /// every kept element is the chain the full-row pass computes for it.
    pub(crate) fn forward_rows(&mut self, x: &Tensor, rows: QueryRows) -> Tensor {
        let embed = *x.dims().last().expect("MHSA: empty input shape");
        assert_eq!(embed, self.embed, "MHSA: embedding width mismatch");
        let seq = x.dims()[x.shape().rank() - 2];
        let batch = x.len() / (seq * embed);
        let (inner, p, s) = (self.heads * self.head_dim, self.head_dim, seq);
        let qs = rows.per_sample(s);
        let scale = 1.0 / (p as f32).sqrt();

        let k = self.wk.forward_rows(x.data(), batch * s);
        let v = self.wv.forward_rows(x.data(), batch * s);
        let q = match rows {
            QueryRows::All => self.wq.forward_rows(x.data(), batch * s),
            QueryRows::Last => {
                let mut xq = self.scratch.alloc(batch * embed);
                for (dst, sample) in xq.chunks_mut(embed).zip(x.data().chunks(s * embed)) {
                    dst.copy_from_slice(&sample[(s - 1) * embed..]);
                }
                let q = self.wq.forward_rows(&xq, batch);
                self.scratch.recycle_vec(xq);
                q
            }
        };

        let tile = self.kernel.tile();
        let arena = &mut *self.scratch;
        let mut probs = arena.alloc(batch * self.heads * qs * s);
        let mut concat = arena.alloc(batch * qs * inner);
        let mut k_packed = arena.alloc(packed_len(p, s));
        let mut v_packed = arena.alloc(packed_len(s, p));
        let strided = qs > 1;
        let (mut qh, mut oh) = if strided {
            (arena.alloc(qs * p), arena.alloc(qs * p))
        } else {
            (Vec::new(), Vec::new())
        };
        for b in 0..batch {
            let kv = b * s * inner;
            let q_rows = &q.data()[b * qs * inner..(b + 1) * qs * inner];
            let dst = &mut concat[b * qs * inner..(b + 1) * qs * inner];
            for h in 0..self.heads {
                let col = h * p;
                pack_b_t_strided(&k.data()[kv + col..], inner, s, p, &mut k_packed);
                pack_b_strided(&v.data()[kv + col..], inner, s, p, &mut v_packed);
                let qa: &[f32] = if strided {
                    gather_cols(q_rows, inner, col, p, &mut qh);
                    &qh
                } else {
                    &q_rows[col..col + p]
                };
                let a = &mut probs[(b * self.heads + h) * qs * s..][..qs * s];
                // A = softmax(Q·Kᵀ · scale)
                gemm_packed_with(tile, qa, qs, p, &k_packed, s, a, Epilogue::Scale(scale));
                softmax_rows_slice(a, s);
                // O = A·V, into head h's columns of concat.
                let av = if strided {
                    &mut oh[..]
                } else {
                    &mut dst[col..col + p]
                };
                gemm_packed_with(tile, a, qs, s, &v_packed, p, av, Epilogue::None);
                if strided {
                    scatter_cols(&oh, p, dst, inner, col);
                }
            }
        }
        for buf in [qh, oh, k_packed, v_packed] {
            arena.recycle_vec(buf);
        }
        let y = self.wo.forward_rows(&concat, batch * qs);
        self.scratch.recycle_vec(concat);
        if let Some(old) = self.cache.take() {
            self.scratch.recycle_vec(old.probs);
        }
        self.cache = Some(AttnCache {
            batch,
            seq,
            rows,
            q,
            k,
            v,
            probs,
        });
        y
    }

    /// Inference-only forward over `[batch, seq, embed]` through `&self`:
    /// same arithmetic as `forward(x, false)`, no cache writes, so one
    /// attention layer can serve concurrent readers without cloning.
    ///
    /// Implemented as [`MultiHeadSelfAttention::forward_infer_in`] over a
    /// throwaway arena, so the two paths cannot drift.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not 3-D with the configured embedding width.
    pub fn forward_infer(&self, x: &Tensor) -> Tensor {
        self.forward_infer_in(x, &mut TensorArena::new())
    }

    /// Arena variant of [`MultiHeadSelfAttention::forward_infer`]: every
    /// intermediate (projections, attention scores, packed panels) is drawn
    /// from `arena` and recycled before returning; projections run on the
    /// layers' cached packed weights with the bias fused into the GEMM, and
    /// the `1/√P` scaling is fused into the score GEMM's store loop.
    /// Bit-identical logits to the plain path.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not 3-D with the configured embedding width.
    pub fn forward_infer_in(&self, x: &Tensor, arena: &mut TensorArena) -> Tensor {
        let mut out = self.infer_rows_in(x, QueryRows::All, arena);
        out.reshape_in_place(x.dims());
        out
    }

    /// The one inference body, for the query rows `rows` selects: returns
    /// `[batch·q, embed]` with `q = rows.per_sample(seq)` rows per sample.
    ///
    /// Keys and values are projected over every row (each query attends
    /// over the whole sequence); the queries, scores, softmax, `A·V` and
    /// `Wo` run for the selected rows only. Each head's `Kᵀ` and `V` are
    /// packed straight out of the strided projections. A single query row
    /// per sample is read in place and its `A·V` row stored at the head's
    /// column offset; a taller query block is gathered per head and its
    /// product scattered back. Every output element is the same
    /// ascending-`k` chain on the same kernel tier whichever rows are
    /// selected, so a row's bits do not depend on `rows`.
    pub(crate) fn infer_rows_in(
        &self,
        x: &Tensor,
        rows: QueryRows,
        arena: &mut TensorArena,
    ) -> Tensor {
        assert_eq!(x.shape().rank(), 3, "MHSA: input must be [B, S, C]");
        let (batch, seq, embed) = (x.dims()[0], x.dims()[1], x.dims()[2]);
        assert_eq!(embed, self.embed, "MHSA: embedding width mismatch");
        let inner = self.heads * self.head_dim;
        let (s, p) = (seq, self.head_dim);
        let qs = rows.per_sample(seq);
        let scale = 1.0 / (p as f32).sqrt();

        // Projections straight off the [B,S,E] buffer (row-major [rows, E]
        // by layout — no reshape copy).
        let project = |lin: &Linear, x: &[f32], m: usize, arena: &mut TensorArena| {
            let mut t = arena.alloc(m * inner);
            lin.infer_into(x, m, &mut t, FusedActivation::None);
            t
        };
        let k = project(&self.wk, x.data(), batch * s, arena);
        let v = project(&self.wv, x.data(), batch * s, arena);
        let q = match rows {
            QueryRows::All => project(&self.wq, x.data(), batch * s, arena),
            QueryRows::Last => {
                let mut xq = arena.alloc(batch * embed);
                for (dst, sample) in xq.chunks_mut(embed).zip(x.data().chunks(s * embed)) {
                    dst.copy_from_slice(&sample[(s - 1) * embed..]);
                }
                let q = project(&self.wq, &xq, batch, arena);
                arena.recycle_vec(xq);
                q
            }
        };

        let tile = self.kernel.tile();

        let mut concat = arena.alloc(batch * qs * inner);
        // Per-head scratch, reused across every (batch, head) pair.
        let mut k_packed = arena.alloc(packed_len(p, s));
        let mut v_packed = arena.alloc(packed_len(s, p));
        let mut scores = arena.alloc(qs * s);
        let strided = qs > 1;
        let (mut qh, mut oh) = if strided {
            (arena.alloc(qs * p), arena.alloc(qs * p))
        } else {
            (Vec::new(), Vec::new())
        };
        for b in 0..batch {
            let kv = b * s * inner;
            let q_rows = &q[b * qs * inner..(b + 1) * qs * inner];
            let dst = &mut concat[b * qs * inner..(b + 1) * qs * inner];
            for h in 0..self.heads {
                let col = h * p;
                pack_b_t_strided(&k[kv + col..], inner, s, p, &mut k_packed);
                pack_b_strided(&v[kv + col..], inner, s, p, &mut v_packed);
                let qa: &[f32] = if strided {
                    gather_cols(q_rows, inner, col, p, &mut qh);
                    &qh
                } else {
                    &q_rows[col..col + p]
                };
                // scores[qs,s] = (q · Kᵀ) · scale, scale fused into store.
                let epi = Epilogue::Scale(scale);
                gemm_packed_with(tile, qa, qs, p, &k_packed, s, &mut scores, epi);
                softmax_rows_slice(&mut scores, s);
                // [qs,p] = probs · V, into head h's columns of concat.
                let av = if strided {
                    &mut oh[..]
                } else {
                    &mut dst[col..col + p]
                };
                gemm_packed_with(tile, &scores, qs, s, &v_packed, p, av, Epilogue::None);
                if strided {
                    scatter_cols(&oh, p, dst, inner, col);
                }
            }
        }
        for buf in [q, k, v, qh, oh, k_packed, v_packed, scores] {
            arena.recycle_vec(buf);
        }

        let mut out = arena.tensor(&[batch * qs, embed]);
        self.wo
            .infer_into(&concat, batch * qs, out.data_mut(), FusedActivation::None);
        arena.recycle_vec(concat);
        out
    }

    /// Backward pass: accumulates projection gradients, returns `dx` of
    /// shape `[batch, seq, embed]`.
    ///
    /// # Panics
    ///
    /// Panics if called before a training-mode forward pass.
    pub fn backward(&mut self, dy: &Tensor) -> Tensor {
        let mut dy2 = dy.clone();
        dy2.reshape_in_place(&[dy.len() / self.embed, self.embed]);
        let mut dx = self.backward_rows(&dy2);
        dx.reshape_in_place(dy.dims());
        dx
    }

    /// Backward of [`MultiHeadSelfAttention::forward_rows`]: `dy` is the
    /// gradient of its `[batch·q, embed]` output; returns `dx` as
    /// `[batch·seq, embed]`, every row (the keys and values read them all).
    ///
    /// With one query row per sample, each per-head product is the
    /// full-row pass's for that row: the rows it drops carry zero gradient,
    /// which adds nothing to an ascending-row sum ([`matmul_tn_into`]
    /// skips zero multipliers, and a running sum from `+0` never sits at
    /// `−0`). Their input gradient is the full pass's `+0 + dk·Wk + dv·Wv`.
    ///
    /// # Panics
    ///
    /// Panics if called before a training-mode forward pass.
    pub(crate) fn backward_rows(&mut self, dy: &Tensor) -> Tensor {
        let AttnCache {
            batch,
            seq: s,
            rows,
            q,
            k,
            v,
            probs,
        } = self
            .cache
            .take()
            .expect("MHSA: backward before training-mode forward");
        let (inner, p) = (self.heads * self.head_dim, self.head_dim);
        let qs = rows.per_sample(s);
        let scale = 1.0 / (p as f32).sqrt();

        let dconcat = self.wo.backward(dy);

        let tile = self.kernel.tile();
        let arena = &mut *self.scratch;
        let mut dq = arena.tensor(&[batch * qs, inner]);
        let mut dk = arena.tensor(&[batch * s, inner]);
        let mut dv = arena.tensor(&[batch * s, inner]);
        let mut vt_packed = arena.alloc(packed_len(p, s));
        let mut k_packed = arena.alloc(packed_len(s, p));
        let mut dz = arena.alloc(qs * s);
        let mut dqh = arena.alloc(qs * p);
        let mut dkh = arena.alloc(s * p);
        let mut dvh = arena.alloc(s * p);
        let strided = qs > 1;
        let (mut doh_buf, mut qh_buf) = if strided {
            (arena.alloc(qs * p), arena.alloc(qs * p))
        } else {
            (Vec::new(), Vec::new())
        };
        for b in 0..batch {
            let kv = b * s * inner;
            let q_rows = &q.data()[b * qs * inner..(b + 1) * qs * inner];
            let dq_rows = b * qs * inner..(b + 1) * qs * inner;
            let dkv_rows = kv..kv + s * inner;
            for h in 0..self.heads {
                let col = h * p;
                let a = &probs[(b * self.heads + h) * qs * s..][..qs * s];
                let d_rows = &dconcat.data()[dq_rows.clone()];
                let (doh, qh): (&[f32], &[f32]) = if strided {
                    gather_cols(d_rows, inner, col, p, &mut doh_buf);
                    gather_cols(q_rows, inner, col, p, &mut qh_buf);
                    (&doh_buf, &qh_buf)
                } else {
                    (&d_rows[col..col + p], &q_rows[col..col + p])
                };
                // O = A·V: dA = dO·Vᵀ, dV = Aᵀ·dO.
                pack_b_t_strided(&v.data()[kv + col..], inner, s, p, &mut vt_packed);
                gemm_packed_with(tile, doh, qs, p, &vt_packed, s, &mut dz, Epilogue::None);
                matmul_tn_into(a, qs, s, doh, p, &mut dvh);
                // A = softmax(Z), Z = Q·Kᵀ·scale.
                softmax_rows_backward_slice(a, &mut dz, s);
                pack_b_strided(&k.data()[kv + col..], inner, s, p, &mut k_packed);
                let dq_epi = Epilogue::Scale(scale);
                gemm_packed_with(tile, &dz, qs, s, &k_packed, p, &mut dqh, dq_epi);
                matmul_tn_into(&dz, qs, s, qh, p, &mut dkh);
                for g in &mut dkh {
                    *g *= scale;
                }
                scatter_cols(&dqh, p, &mut dq.data_mut()[dq_rows.clone()], inner, col);
                scatter_cols(&dkh, p, &mut dk.data_mut()[dkv_rows.clone()], inner, col);
                scatter_cols(&dvh, p, &mut dv.data_mut()[dkv_rows.clone()], inner, col);
            }
        }
        for buf in [
            vt_packed, k_packed, dz, dqh, dkh, dvh, doh_buf, qh_buf, probs,
        ] {
            arena.recycle_vec(buf);
        }

        let dxq = self.wq.backward(&dq);
        let mut dx = self.wk.backward(&dk);
        // dx = dq·Wq + dk·Wk + dv·Wv, added in that order; a row without a
        // query adds the `+0` the full-row pass's zero query gradient gives
        // (not a no-op: it turns a −0 into +0, as that sum does).
        let e = self.embed;
        for (r, row) in dx.data_mut().chunks_mut(e).enumerate() {
            let (b, t) = (r / s, r % s);
            if t + qs >= s {
                let qr = b * qs + t + qs - s;
                for (d, &g) in row.iter_mut().zip(&dxq.data()[qr * e..(qr + 1) * e]) {
                    *d += g;
                }
            } else {
                for d in row.iter_mut() {
                    *d += 0.0;
                }
            }
        }
        dx.add_assign(&self.wv.backward(&dv));
        for t in [dq, dk, dv] {
            self.scratch.recycle(t);
        }
        dx
    }

    /// Visits the projection parameters in deterministic order
    /// (`wq, wk, wv, wo`).
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.wq.visit_params(f);
        self.wk.visit_params(f);
        self.wv.visit_params(f);
        self.wo.visit_params(f);
    }

    /// Copies `src`'s projection weights into this layer in place (a
    /// training replica catching up with its primary).
    pub(crate) fn sync_from(&mut self, src: &MultiHeadSelfAttention) {
        self.wq.sync_from(&src.wq);
        self.wk.sync_from(&src.wk);
        self.wv.sync_from(&src.wv);
        self.wo.sync_from(&src.wo);
    }

    /// Drops all forward caches.
    pub fn clear_cache(&mut self) {
        self.cache = None;
        self.scratch = TrainScratch::default();
        self.wq.clear_cache();
        self.wk.clear_cache();
        self.wv.clear_cache();
        self.wo.clear_cache();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn filled(dims: &[usize], seed: u64) -> Tensor {
        let mut rng = StdRng::seed_from_u64(seed);
        Tensor::from_fn(dims, |_| rng.gen_range(-1.0..1.0))
    }

    #[test]
    fn forward_shape_preserved() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut attn = MultiHeadSelfAttention::new("a", 16, 4, 8, &mut rng);
        let x = filled(&[2, 5, 16], 1);
        let y = attn.forward(&x, false);
        assert_eq!(y.dims(), &[2, 5, 16]);
        assert!(!y.has_non_finite());
    }

    #[test]
    fn paper_shapes_h8_p32() {
        let mut rng = StdRng::seed_from_u64(1);
        // Bio1: C=64, H=8, P=32 (H·P = 256 ≠ C).
        let mut attn = MultiHeadSelfAttention::new("a", 64, 8, 32, &mut rng);
        let x = filled(&[1, 31, 64], 2);
        let y = attn.forward(&x, false);
        assert_eq!(y.dims(), &[1, 31, 64]);
        // params: 3·(64·256+256) + 256·64+64 = 49920 + 16448
        assert_eq!(attn.num_params(), 66_368);
    }

    #[test]
    fn batch_independence() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut attn = MultiHeadSelfAttention::new("a", 8, 2, 4, &mut rng);
        let a = filled(&[1, 4, 8], 4);
        let b = filled(&[1, 4, 8], 5);
        let mut both = Tensor::zeros(&[2, 4, 8]);
        both.data_mut()[..32].copy_from_slice(a.data());
        both.data_mut()[32..].copy_from_slice(b.data());
        let ya = attn.forward(&a, false);
        let yb = attn.forward(&b, false);
        let yboth = attn.forward(&both, false);
        assert!(
            (0..32).all(|i| (yboth.data()[i] - ya.data()[i]).abs() < 1e-5),
            "first sample differs"
        );
        assert!(
            (0..32).all(|i| (yboth.data()[32 + i] - yb.data()[i]).abs() < 1e-5),
            "second sample differs"
        );
    }

    #[test]
    fn gradcheck_input() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut attn = MultiHeadSelfAttention::new("a", 6, 2, 3, &mut rng);
        let x = filled(&[2, 3, 6], 7);
        let y = attn.forward(&x, true);
        let dy = filled(y.dims(), 8);
        let dx = attn.backward(&dy);

        let eps = 1e-3;
        for idx in 0..x.len() {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let fp = attn.forward(&xp, false).mul(&dy).sum();
            let fm = attn.forward(&xm, false).mul(&dy).sum();
            let num = (fp - fm) / (2.0 * eps);
            assert!(
                (num - dx.data()[idx]).abs() < 2e-2,
                "dx[{idx}] fd={num} got={}",
                dx.data()[idx]
            );
        }
    }

    #[test]
    fn gradcheck_projection_weights() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut attn = MultiHeadSelfAttention::new("a", 4, 2, 2, &mut rng);
        let x = filled(&[1, 3, 4], 10);
        let y = attn.forward(&x, true);
        let dy = filled(y.dims(), 11);
        let _ = attn.backward(&dy);

        // Snapshot analytic grads for every projection parameter.
        let mut grads: Vec<Tensor> = Vec::new();
        attn.visit_params(&mut |p| grads.push(p.grad.clone()));

        let eps = 1e-3;
        for (pi, _) in grads.iter().enumerate() {
            // Check a few elements of each parameter tensor.
            let n_elems = grads[pi].len();
            for idx in (0..n_elems).step_by((n_elems / 4).max(1)) {
                let mut orig = 0.0;
                let mut count = 0usize;
                attn.visit_params(&mut |p| {
                    if count == pi {
                        orig = p.value.data()[idx];
                        p.value.data_mut()[idx] = orig + eps;
                    }
                    count += 1;
                });
                let fp = attn.forward(&x, false).mul(&dy).sum();
                count = 0;
                attn.visit_params(&mut |p| {
                    if count == pi {
                        p.value.data_mut()[idx] = orig - eps;
                    }
                    count += 1;
                });
                let fm = attn.forward(&x, false).mul(&dy).sum();
                count = 0;
                attn.visit_params(&mut |p| {
                    if count == pi {
                        p.value.data_mut()[idx] = orig;
                    }
                    count += 1;
                });
                let num = (fp - fm) / (2.0 * eps);
                assert!(
                    (num - grads[pi].data()[idx]).abs() < 2e-2,
                    "param {pi} elem {idx}: fd={num} got={}",
                    grads[pi].data()[idx]
                );
            }
        }
    }
}
