//! Multi-Head Self-Attention with manual backprop.
//!
//! Implements the MHSA block of the paper's Fig. 1: three linear projections
//! onto `H` heads of dimension `P` (`H·P` need not equal the embedding width
//! `C` — Bioformer (h=8) projects 64 → 8×32 = 256), scaled dot-product
//! attention `softmax(QKᵀ/√P)·V` per head, then an output projection back to
//! `R^C`.

use crate::linear::{FusedActivation, Linear};
use crate::param::Param;
use bioformer_tensor::backend::{default_backend, ComputeBackend};
use bioformer_tensor::ops::{softmax_rows, softmax_rows_backward, softmax_rows_slice};
use bioformer_tensor::pack::{pack_b_strided, pack_b_t_strided, packed_len, Epilogue};
use bioformer_tensor::{Tensor, TensorArena};
use rand::Rng;
use std::sync::Arc;

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
    /// Backend for the per-head score/AV GEMMs (the projections route
    /// through their own [`Linear`] layers' backends).
    backend: Arc<dyn ComputeBackend>,
}

#[derive(Debug, Clone)]
struct AttnCache {
    batch: usize,
    seq: usize,
    q: Tensor,
    k: Tensor,
    v: Tensor,
    /// Softmax outputs, one `[seq, seq]` matrix per `(batch, head)` pair,
    /// indexed `b * heads + h`.
    attn: Vec<Tensor>,
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
            backend: default_backend(),
        }
    }

    /// Installs a compute backend on the per-head GEMMs and all four
    /// projection layers.
    pub fn set_backend(&mut self, backend: Arc<dyn ComputeBackend>) {
        self.wq.set_backend(backend.clone());
        self.wk.set_backend(backend.clone());
        self.wv.set_backend(backend.clone());
        self.wo.set_backend(backend.clone());
        self.backend = backend;
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

    /// Extracts head `h` of sample `b` from a `[batch·seq, heads·head_dim]`
    /// projection into a dense `[seq, head_dim]` matrix.
    fn head_slice(&self, proj: &Tensor, b: usize, h: usize, seq: usize) -> Tensor {
        let (inner, p) = (self.heads * self.head_dim, self.head_dim);
        let mut out = Tensor::zeros(&[seq, p]);
        let sample = &proj.data()[b * seq * inner..(b + 1) * seq * inner];
        gather_cols(sample, inner, h * p, p, out.data_mut());
        out
    }

    /// Scatters a `[seq, head_dim]` matrix back into head `h` of sample `b`.
    fn head_scatter(&self, dst: &mut Tensor, src: &Tensor, b: usize, h: usize, seq: usize) {
        let (inner, p) = (self.heads * self.head_dim, self.head_dim);
        let sample = &mut dst.data_mut()[b * seq * inner..(b + 1) * seq * inner];
        scatter_cols(src.data(), p, sample, inner, h * p);
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
        let (batch, seq, embed) = (x.dims()[0], x.dims()[1], x.dims()[2]);
        assert_eq!(embed, self.embed, "MHSA: embedding width mismatch");
        let rows = batch * seq;
        let x2 = x.reshape(&[rows, embed]);

        let q = self.wq.forward(&x2, true);
        let k = self.wk.forward(&x2, true);
        let v = self.wv.forward(&x2, true);

        let inner = self.heads * self.head_dim;
        let scale = 1.0 / (self.head_dim as f32).sqrt();
        let mut concat = Tensor::zeros(&[rows, inner]);
        let mut attn_cache = Vec::with_capacity(batch * self.heads);
        for b in 0..batch {
            for h in 0..self.heads {
                let qh = self.head_slice(&q, b, h, seq);
                let kh = self.head_slice(&k, b, h, seq);
                let vh = self.head_slice(&v, b, h, seq);
                let mut scores = qh.matmul_nt(&kh);
                scores.scale_in_place(scale);
                let a = softmax_rows(&scores);
                let oh = a.matmul(&vh);
                self.head_scatter(&mut concat, &oh, b, h, seq);
                attn_cache.push(a);
            }
        }
        let y2 = self.wo.forward(&concat, true);
        self.cache = Some(AttnCache {
            batch,
            seq,
            q,
            k,
            v,
            attn: attn_cache,
        });
        y2.reshape(&[batch, seq, embed])
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
    /// ascending-`k` chain under the same plans whichever rows are
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

        let bk = self.backend.as_ref();

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
                bk.gemm_with(qa, qs, p, &k_packed, s, &mut scores, Epilogue::Scale(scale));
                softmax_rows_slice(&mut scores, s);
                // [qs,p] = probs · V, into head h's columns of concat.
                let av = if strided {
                    &mut oh[..]
                } else {
                    &mut dst[col..col + p]
                };
                bk.gemm_with(&scores, qs, s, &v_packed, p, av, Epilogue::None);
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
        let cache = self
            .cache
            .take()
            .expect("MHSA: backward before training-mode forward");
        let (batch, seq) = (cache.batch, cache.seq);
        let rows = batch * seq;
        let inner = self.heads * self.head_dim;
        let scale = 1.0 / (self.head_dim as f32).sqrt();

        let dy2 = dy.reshape(&[rows, self.embed]);
        let dconcat = self.wo.backward(&dy2);

        let mut dq = Tensor::zeros(&[rows, inner]);
        let mut dk = Tensor::zeros(&[rows, inner]);
        let mut dv = Tensor::zeros(&[rows, inner]);
        for b in 0..batch {
            for h in 0..self.heads {
                let a = &cache.attn[b * self.heads + h];
                let doh = self.head_slice(&dconcat, b, h, seq);
                let qh = self.head_slice(&cache.q, b, h, seq);
                let kh = self.head_slice(&cache.k, b, h, seq);
                let vh = self.head_slice(&cache.v, b, h, seq);

                // O = A·V
                let da = doh.matmul_nt(&vh); // [S,S]
                let dvh = a.matmul_tn(&doh); // [S,P]
                                             // A = softmax(Z), Z = Q·Kᵀ·scale
                let dz = softmax_rows_backward(a, &da); // [S,S]
                let mut dqh = dz.matmul(&kh); // [S,P]
                dqh.scale_in_place(scale);
                let mut dkh = dz.matmul_tn(&qh); // dZᵀ·Q = (S,S)ᵀ·(S,P)
                dkh.scale_in_place(scale);

                self.head_scatter(&mut dq, &dqh, b, h, seq);
                self.head_scatter(&mut dk, &dkh, b, h, seq);
                self.head_scatter(&mut dv, &dvh, b, h, seq);
            }
        }

        let mut dx2 = self.wq.backward(&dq);
        dx2.add_assign(&self.wk.backward(&dk));
        dx2.add_assign(&self.wv.backward(&dv));
        dx2.reshape(&[batch, seq, self.embed])
    }

    /// Visits the projection parameters in deterministic order
    /// (`wq, wk, wv, wo`).
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.wq.visit_params(f);
        self.wk.visit_params(f);
        self.wv.visit_params(f);
        self.wo.visit_params(f);
    }

    /// Drops all forward caches.
    pub fn clear_cache(&mut self) {
        self.cache = None;
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
