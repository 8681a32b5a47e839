//! Pre-LN transformer encoder block.

use crate::activation::Gelu;
use crate::attention::{MultiHeadSelfAttention, QueryRows};
use crate::dropout::Dropout;
use crate::layernorm::LayerNorm;
use crate::linear::{FusedActivation, Linear};
use crate::param::Param;
use bioformer_tensor::{Fp32Kernel, Tensor, TensorArena};
use rand::Rng;

/// One transformer encoder block in the pre-LN arrangement used by ViT
/// (which the Bioformer follows):
///
/// ```text
/// x ─▶ LN₁ ─▶ MHSA ─▶ Dropout ─▶ (+x) ─▶ LN₂ ─▶ FC₁ ─▶ GELU ─▶ FC₂ ─▶ Dropout ─▶ (+)
/// ```
///
/// The FFN hidden width is a free hyper-parameter (128 in the paper).
#[derive(Debug, Clone)]
pub struct TransformerBlock {
    ln1: LayerNorm,
    attn: MultiHeadSelfAttention,
    drop_attn: Dropout,
    ln2: LayerNorm,
    fc1: Linear,
    gelu: Gelu,
    fc2: Linear,
    drop_ffn: Dropout,
    embed: usize,
    /// `(batch, seq, rows)` of the last training forward.
    fwd_shape: Option<(usize, usize, QueryRows)>,
}

impl TransformerBlock {
    /// Creates a block with `heads` attention heads of width `head_dim` and
    /// an FFN hidden width of `hidden`.
    pub fn new(
        name: &str,
        embed: usize,
        heads: usize,
        head_dim: usize,
        hidden: usize,
        dropout: f32,
        rng: &mut impl Rng,
    ) -> Self {
        let drop_seed = rng.gen::<u64>();
        TransformerBlock {
            ln1: LayerNorm::new(&format!("{name}.ln1"), embed),
            attn: MultiHeadSelfAttention::new(&format!("{name}.attn"), embed, heads, head_dim, rng),
            drop_attn: Dropout::new(dropout, drop_seed),
            ln2: LayerNorm::new(&format!("{name}.ln2"), embed),
            fc1: Linear::new(&format!("{name}.fc1"), embed, hidden, rng),
            gelu: Gelu::new(),
            fc2: Linear::new(&format!("{name}.fc2"), hidden, embed, rng),
            drop_ffn: Dropout::new(dropout, drop_seed.wrapping_add(0x9E37)),
            embed,
            fwd_shape: None,
        }
    }

    /// The attention sub-layer.
    pub fn attention(&self) -> &MultiHeadSelfAttention {
        &self.attn
    }

    /// Pins the SIMD tier of every GEMM-bearing sub-layer (attention and
    /// both FFN linears).
    pub fn set_kernel(&mut self, kernel: Fp32Kernel) {
        self.attn.set_kernel(kernel);
        self.fc1.set_kernel(kernel);
        self.fc2.set_kernel(kernel);
    }

    /// FFN hidden width.
    pub fn hidden(&self) -> usize {
        self.fc1.out_features()
    }

    /// Number of trainable scalars.
    pub fn num_params(&self) -> usize {
        self.ln1.num_params()
            + self.attn.num_params()
            + self.ln2.num_params()
            + self.fc1.num_params()
            + self.fc2.num_params()
    }

    /// Forward pass over `[batch, seq, embed]`.
    ///
    /// # Panics
    ///
    /// Panics on embedding-width mismatch.
    pub fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        if !train {
            return self.forward_infer(x);
        }
        let mut out = self.forward_rows(x, QueryRows::All);
        out.reshape_in_place(x.dims());
        out
    }

    /// Training forward for each sample's last token only — the class
    /// token a ViT-style head reads: `[batch, embed]`, bit-identical to the
    /// last row of every sample of `forward(x, true)`, with the dropout
    /// streams advanced exactly as that pass advances them. LN₁ and the
    /// key/value projections run over every token; everything after runs
    /// for one row per sample, forward and in [`TransformerBlock::backward`],
    /// which then takes the gradient as `[batch, embed]`.
    ///
    /// # Panics
    ///
    /// Panics on embedding-width mismatch.
    pub fn forward_last_token(&mut self, x: &Tensor) -> Tensor {
        self.forward_rows(x, QueryRows::Last)
    }

    /// The one training body, for the query rows `rows` selects: returns
    /// `[batch·q, embed]` with `q = rows.per_sample(seq)` rows per sample.
    fn forward_rows(&mut self, x: &Tensor, rows: QueryRows) -> Tensor {
        assert_eq!(
            x.shape().rank(),
            3,
            "TransformerBlock: input must be [B, S, C]"
        );
        let (batch, seq, embed) = (x.dims()[0], x.dims()[1], x.dims()[2]);
        assert_eq!(embed, self.embed, "TransformerBlock: width mismatch");
        let qs = rows.per_sample(seq);

        // Attention branch.
        let a = self.ln1.forward(x, true);
        let at = self.attn.forward_rows(&a, rows);
        let at = match rows {
            QueryRows::All => self.drop_attn.forward(&at, true),
            QueryRows::Last => self.drop_attn.forward_last_rows(&at, seq),
        };
        // r1 = x + attn_out over the query rows.
        let mut r1 = at;
        for (r, sample) in r1
            .data_mut()
            .chunks_mut(qs * embed)
            .zip(x.data().chunks(seq * embed))
        {
            for (o, &xv) in r.iter_mut().zip(&sample[(seq - qs) * embed..]) {
                *o += xv;
            }
        }

        // FFN branch.
        let f = self.ln2.forward(&r1, true);
        let f = self.fc1.forward(&f, true);
        let f = self.gelu.forward(&f, true);
        let f = self.fc2.forward(&f, true);
        let f = match rows {
            QueryRows::All => self.drop_ffn.forward(&f, true),
            QueryRows::Last => self.drop_ffn.forward_last_rows(&f, seq),
        };
        let mut out = r1;
        out.add_assign(&f);

        self.fwd_shape = Some((batch, seq, rows));
        out
    }

    /// Inference-only forward over `[batch, seq, embed]` through `&self`:
    /// same arithmetic as `forward(x, false)` (dropout is the identity at
    /// inference and is skipped outright), no cache writes, so one block
    /// can serve concurrent readers without cloning.
    ///
    /// Implemented as [`TransformerBlock::forward_infer_in`] over a
    /// throwaway arena, so the two paths cannot drift.
    ///
    /// # Panics
    ///
    /// Panics on embedding-width mismatch.
    pub fn forward_infer(&self, x: &Tensor) -> Tensor {
        self.forward_infer_in(x, &mut TensorArena::new())
    }

    /// Arena variant of [`TransformerBlock::forward_infer`]: intermediates
    /// come from `arena` and are recycled as consumed, the FFN's GELU is
    /// fused into `fc1`'s GEMM epilogue, and both residual adds run in
    /// place on arena buffers. Bit-identical output (the GELU fusion and
    /// in-place adds change where values live, not how they are computed).
    ///
    /// The returned tensor is arena-owned; recycle it when consumed.
    ///
    /// # Panics
    ///
    /// Panics on embedding-width mismatch.
    pub fn forward_infer_in(&self, x: &Tensor, arena: &mut TensorArena) -> Tensor {
        let mut out = self.infer_rows_in(x, QueryRows::All, arena);
        out.reshape_in_place(x.dims());
        out
    }

    /// [`TransformerBlock::forward_infer_in`] for each sample's last token
    /// only — the class token a ViT-style head reads: `[batch, embed]`,
    /// bit-identical to the last row of every sample of the full output.
    /// LN₁ and the key/value projections still run over every token (the
    /// class token attends over all of them); everything after runs for one
    /// row per sample.
    ///
    /// The returned tensor is arena-owned; recycle it when consumed.
    ///
    /// # Panics
    ///
    /// Panics on embedding-width mismatch.
    pub fn forward_last_token_in(&self, x: &Tensor, arena: &mut TensorArena) -> Tensor {
        self.infer_rows_in(x, QueryRows::Last, arena)
    }

    /// The one inference body, for the query rows `rows` selects: returns
    /// `[batch·q, embed]` with `q = rows.per_sample(seq)` rows per sample.
    fn infer_rows_in(&self, x: &Tensor, rows: QueryRows, arena: &mut TensorArena) -> Tensor {
        let (batch, seq, embed) = (x.dims()[0], x.dims()[1], x.dims()[2]);
        assert_eq!(embed, self.embed, "TransformerBlock: width mismatch");
        let qs = rows.per_sample(seq);
        let out_rows = batch * qs;

        // Attention branch (dropout skipped: identity at inference). LN₁
        // covers every token because the keys and values read all of them;
        // x's [B,S,E] buffer doubles as the [rows, E] row view.
        let mut a = arena.tensor(&[batch * seq, embed]);
        self.ln1.infer_into(x.data(), a.data_mut());
        a.reshape_in_place(&[batch, seq, embed]);
        let mut r1 = self.attn.infer_rows_in(&a, rows, arena);
        arena.recycle(a);
        // r1 = x + attn_out over the query rows, in place on the attention
        // output's buffer.
        let xd = x.data();
        for (r, sample) in r1
            .data_mut()
            .chunks_mut(qs * embed)
            .zip(xd.chunks(seq * embed))
        {
            for (o, &xv) in r.iter_mut().zip(&sample[(seq - qs) * embed..]) {
                *o += xv;
            }
        }

        // FFN branch: GELU fused into fc1's store loop.
        let mut f = arena.tensor(&[out_rows, embed]);
        self.ln2.infer_into(r1.data(), f.data_mut());
        let h = self.fc1.forward_infer_in(&f, FusedActivation::Gelu, arena);
        arena.recycle(f);
        let f2 = self.fc2.forward_infer_in(&h, FusedActivation::None, arena);
        arena.recycle(h);
        // out = r1 + ffn_out, in place on r1's buffer.
        let mut out = r1;
        for (o, &fv) in out.data_mut().iter_mut().zip(f2.data().iter()) {
            *o += fv;
        }
        arena.recycle(f2);
        out
    }

    /// Backward pass; returns `dx` of shape `[batch, seq, embed]`. After
    /// [`TransformerBlock::forward_last_token`], `dy` is the `[batch,
    /// embed]` gradient of the class rows; the other rows' output gradient
    /// is zero, and `dx` is bit-identical to the full-row backward of that
    /// zero-padded gradient.
    ///
    /// # Panics
    ///
    /// Panics if called before a training-mode forward pass.
    pub fn backward(&mut self, dy: &Tensor) -> Tensor {
        let (batch, seq, rows) = self
            .fwd_shape
            .expect("TransformerBlock: backward before forward");
        let qs = rows.per_sample(seq);
        let mut d = dy.clone();
        d.reshape_in_place(&[batch * qs, self.embed]);

        // FFN branch (residual: gradient flows both through the branch and
        // directly to r1).
        let df = self.drop_ffn.backward(&d);
        let df = self.fc2.backward(&df);
        let df = self.gelu.backward(&df);
        let df = self.fc1.backward(&df);
        let df = self.ln2.backward(&df);
        let mut dr1 = d;
        dr1.add_assign(&df);

        // Attention branch.
        let dat = self.drop_attn.backward(&dr1);
        let da = self.attn.backward_rows(&dat);
        let mut dx = self.ln1.backward(&da);
        // dx = dr1 + da; a row outside the query rows adds the `+0`
        // residual gradient of the full-row pass (not a no-op: it turns a
        // −0 into +0, as that sum does).
        let e = self.embed;
        for (r, row) in dx.data_mut().chunks_mut(e).enumerate() {
            let (b, t) = (r / seq, r % seq);
            if t + qs >= seq {
                let qr = b * qs + t + qs - seq;
                for (o, &g) in row.iter_mut().zip(&dr1.data()[qr * e..(qr + 1) * e]) {
                    *o += g;
                }
            } else {
                for o in row.iter_mut() {
                    *o += 0.0;
                }
            }
        }
        dx.reshape_in_place(&[batch, seq, e]);
        dx
    }

    /// Visits all parameters in deterministic order.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.ln1.visit_params(f);
        self.attn.visit_params(f);
        self.ln2.visit_params(f);
        self.fc1.visit_params(f);
        self.fc2.visit_params(f);
    }

    /// Copies `src`'s weights and dropout stream states into this block in
    /// place (a training replica catching up with its primary).
    pub fn sync_from(&mut self, src: &TransformerBlock) {
        self.ln1.sync_from(&src.ln1);
        self.attn.sync_from(&src.attn);
        self.drop_attn.sync_from(&src.drop_attn);
        self.ln2.sync_from(&src.ln2);
        self.fc1.sync_from(&src.fc1);
        self.fc2.sync_from(&src.fc2);
        self.drop_ffn.sync_from(&src.drop_ffn);
    }

    /// Drops all forward caches.
    pub fn clear_cache(&mut self) {
        self.ln1.clear_cache();
        self.attn.clear_cache();
        self.drop_attn.clear_cache();
        self.ln2.clear_cache();
        self.fc1.clear_cache();
        self.gelu.clear_cache();
        self.fc2.clear_cache();
        self.drop_ffn.clear_cache();
        self.fwd_shape = None;
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
        let mut blk = TransformerBlock::new("b", 16, 2, 8, 32, 0.0, &mut rng);
        let x = filled(&[2, 5, 16], 1);
        let y = blk.forward(&x, false);
        assert_eq!(y.dims(), &[2, 5, 16]);
        assert!(!y.has_non_finite());
    }

    #[test]
    fn paper_block_param_count() {
        let mut rng = StdRng::seed_from_u64(1);
        // Bio1 block: C=64, H=8, P=32, hidden=128.
        let blk = TransformerBlock::new("b", 64, 8, 32, 128, 0.0, &mut rng);
        // ln: 2·128 = 256; attn: 66368; ffn: 64·128+128 + 128·64+64 = 16576
        assert_eq!(blk.num_params(), 256 + 66_368 + 16_576);
    }

    #[test]
    fn gradcheck_through_block() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut blk = TransformerBlock::new("b", 6, 2, 3, 10, 0.0, &mut rng);
        let x = filled(&[2, 3, 6], 3);
        let y = blk.forward(&x, true);
        let dy = filled(y.dims(), 4);
        let dx = blk.backward(&dy);

        let eps = 1e-3;
        for idx in (0..x.len()).step_by(3) {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let fp = blk.forward(&xp, false).mul(&dy).sum();
            let fm = blk.forward(&xm, false).mul(&dy).sum();
            let num = (fp - fm) / (2.0 * eps);
            assert!(
                (num - dx.data()[idx]).abs() < 3e-2,
                "dx[{idx}] fd={num} got={}",
                dx.data()[idx]
            );
        }
    }

    /// The class-row training step is the full-row step with the other
    /// rows' output gradient zero, bit for bit: the class rows' outputs,
    /// every input gradient, every parameter gradient and both dropout
    /// streams' next draws.
    #[test]
    fn last_token_step_equals_the_full_row_step_bit_for_bit() {
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let grads = |b: &mut TransformerBlock| {
            let mut g = Vec::new();
            b.visit_params(&mut |p| g.extend(p.grad.data().iter().map(|v| v.to_bits())));
            g
        };
        for (embed, heads, p, hidden, seq) in [(16, 2, 8, 32, 7), (12, 3, 5, 20, 1)] {
            let mut rng = StdRng::seed_from_u64(21);
            let mut full = TransformerBlock::new("b", embed, heads, p, hidden, 0.2, &mut rng);
            let mut last = full.clone();
            let (batch, e) = (3, embed);
            let x = filled(&[batch, seq, e], 22);
            let dcls = filled(&[batch, e], 23);
            let mut dy = Tensor::zeros(&[batch, seq, e]);
            for b in 0..batch {
                dy.data_mut()[((b + 1) * seq - 1) * e..(b + 1) * seq * e]
                    .copy_from_slice(&dcls.data()[b * e..(b + 1) * e]);
            }

            let y = full.forward(&x, true);
            let dx_full = full.backward(&dy);
            let y_last = last.forward_last_token(&x);
            let dx_last = last.backward(&dcls);

            for b in 0..batch {
                assert_eq!(
                    bits(&y_last)[b * e..(b + 1) * e],
                    bits(&y)[((b + 1) * seq - 1) * e..(b + 1) * seq * e],
                    "class row {b} of seq {seq}"
                );
            }
            assert_eq!(bits(&dx_last), bits(&dx_full), "dx at seq {seq}");
            assert_eq!(grads(&mut last), grads(&mut full), "grads at seq {seq}");
            // The streams stand where the full pass left them.
            let again_full = full.forward(&x, true);
            let again_last = last.forward(&x, true);
            assert_eq!(bits(&again_last), bits(&again_full), "dropout streams");
        }
    }

    #[test]
    fn residual_identity_at_zero_weights() {
        // If attention output proj and fc2 weights are zero, the block is an
        // identity (residual connections only).
        let mut rng = StdRng::seed_from_u64(5);
        let mut blk = TransformerBlock::new("b", 8, 2, 4, 16, 0.0, &mut rng);
        blk.visit_params(&mut |p| {
            if p.name.contains("wo") || p.name.contains("fc2") {
                p.value.data_mut().fill(0.0);
            }
        });
        let x = filled(&[1, 4, 8], 6);
        let y = blk.forward(&x, false);
        assert!(y.allclose(&x, 1e-5));
    }
}
