//! The Bioformer model (paper §III-A, Fig. 1 bottom).
//!
//! ```text
//! [B, 14, 300] ──Conv1d(k=f, stride=f)──▶ [B, 64, N] ──transpose──▶ [B, N, 64]
//!      └─ append class token ──▶ [B, N+1, 64] ──d× TransformerBlock──▶
//!      └─ take class row ──▶ LayerNorm ──▶ Linear(64→8) ──▶ logits
//! ```
//!
//! The head reads the class row alone, so the inference forward computes
//! nothing else it would discard: the patch GEMM writes token-major rows
//! directly, and the last block produces only the class row (its keys and
//! values still cover every token). The training step does the same: the
//! last block trains its class row alone, and the patch conv computes no
//! gradient for the input windows. The trained weights are bit-identical
//! to the full-row step's.

use crate::config::BioformerConfig;
use crate::descriptor::bioformer_descriptor;
use bioformer_nn::linear::FusedActivation;
use bioformer_nn::{Conv1d, InferForward, LayerNorm, Linear, Model, Param, TransformerBlock};
use bioformer_tensor::conv::Conv1dSpec;
use bioformer_tensor::parallel::{plan_threads, ScratchPool};
use bioformer_tensor::{Fp32Kernel, Tensor, TensorArena};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The Bioformer tiny transformer for sEMG gesture recognition.
///
/// # Example
///
/// ```
/// use bioformer_core::{Bioformer, BioformerConfig};
/// use bioformer_nn::Model;
/// use bioformer_tensor::Tensor;
///
/// let mut model = Bioformer::new(&BioformerConfig::bio1());
/// let window = Tensor::zeros(&[2, 14, 300]);
/// let logits = model.forward(&window, false);
/// assert_eq!(logits.dims(), &[2, 8]);
/// ```
#[derive(Debug, Clone)]
pub struct Bioformer {
    cfg: BioformerConfig,
    patch: Conv1d,
    class_token: Param,
    blocks: Vec<TransformerBlock>,
    ln_final: LayerNorm,
    head: Linear,
    fwd_batch: Option<usize>,
    /// Work of one window in FLOPs (2 per MAC of the network descriptor):
    /// the unit [`plan_threads`] sizes a batch's fan-out in. Computed once,
    /// because building the descriptor allocates.
    window_work: usize,
    /// Scratch arenas of the fanned-out batch forward, one per shard.
    scratch: ScratchPool<TensorArena>,
}

impl Bioformer {
    /// Builds a Bioformer with weights initialised from `cfg.seed`.
    ///
    /// # Panics
    ///
    /// Panics if the config fails validation.
    pub fn new(cfg: &BioformerConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid BioformerConfig: {e}");
        }
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let patch = Conv1d::new(
            "patch_embed",
            cfg.channels,
            cfg.embed,
            cfg.filter,
            Conv1dSpec::patch(cfg.filter),
            &mut rng,
        );
        // ViT initialises the class token from N(0, 0.02); we use a larger
        // 0.25 so the token is commensurate with the patch-embedding range.
        // This is neutral for fp32 training but crucial for int8 deployment:
        // the token shares the patch activations' per-tensor quantization
        // grid, and a 0.02-scale row would collapse to ±3 codes, destroying
        // the classification path (the class row is what the head reads).
        let class_token = Param::new(
            "class_token",
            bioformer_nn::init::normal(&mut rng, &[cfg.embed], 0.25),
        );
        let blocks = (0..cfg.depth)
            .map(|l| {
                TransformerBlock::new(
                    &format!("block{l}"),
                    cfg.embed,
                    cfg.heads,
                    cfg.head_dim,
                    cfg.hidden,
                    cfg.dropout,
                    &mut rng,
                )
            })
            .collect();
        let ln_final = LayerNorm::new("ln_final", cfg.embed);
        let head = Linear::new("head", cfg.embed, cfg.classes, &mut rng);
        Bioformer {
            cfg: cfg.clone(),
            patch,
            class_token,
            blocks,
            ln_final,
            head,
            fwd_batch: None,
            window_work: 2 * bioformer_descriptor(cfg).macs() as usize,
            scratch: ScratchPool::default(),
        }
    }

    /// The architecture configuration.
    pub fn config(&self) -> &BioformerConfig {
        &self.cfg
    }

    /// Pins the SIMD tier of every GEMM-bearing layer (patch conv, all
    /// encoder blocks, the classifier head).
    pub fn set_kernel(&mut self, kernel: Fp32Kernel) {
        self.patch.set_kernel(kernel);
        for blk in &mut self.blocks {
            blk.set_kernel(kernel);
        }
        self.head.set_kernel(kernel);
    }

    /// The patch-embedding convolution.
    pub fn patch(&self) -> &Conv1d {
        &self.patch
    }

    /// The learned class token (`[E]`), appended as each sample's last
    /// token.
    pub fn class_token(&self) -> &Param {
        &self.class_token
    }

    /// The encoder blocks, input side first.
    pub fn blocks(&self) -> &[TransformerBlock] {
        &self.blocks
    }

    /// The LayerNorm applied to the class row before the head.
    pub fn ln_final(&self) -> &LayerNorm {
        &self.ln_final
    }

    /// The classifier head.
    pub fn head(&self) -> &Linear {
        &self.head
    }

    /// One-line description of the compute path (packed fp32 GEMMs on the
    /// CPU) — surfaced per replica through the serving engines'
    /// `compute_report`.
    pub fn compute_report(&self) -> String {
        "packed-cpu".to_string()
    }

    /// Transposes conv output `[B, E, N]` into token-major `[B, N, E]` and
    /// appends the class token at position `N` (the training path; the
    /// inference path has the patch GEMM write token-major directly).
    fn tokenize(&self, conv_out: &Tensor) -> Tensor {
        let (b, e, n) = (conv_out.dims()[0], conv_out.dims()[1], conv_out.dims()[2]);
        let s = n + 1;
        let mut tokens = Tensor::zeros(&[b, s, e]);
        let (src, dst) = (conv_out.data(), tokens.data_mut());
        for bi in 0..b {
            for ei in 0..e {
                let row = &src[(bi * e + ei) * n..(bi * e + ei + 1) * n];
                for (ni, &v) in row.iter().enumerate() {
                    dst[(bi * s + ni) * e + ei] = v;
                }
            }
            let cls = self.class_token.value.data();
            dst[(bi * s + n) * e..(bi * s + n + 1) * e].copy_from_slice(cls);
        }
        tokens
    }

    /// Splits token gradients back into the conv layout and the class-token
    /// gradient (summed over the batch).
    fn detokenize_grad(&self, dtokens: &Tensor) -> (Tensor, Tensor) {
        let (b, s, e) = (dtokens.dims()[0], dtokens.dims()[1], dtokens.dims()[2]);
        let n = s - 1;
        let mut dconv = Tensor::zeros(&[b, e, n]);
        let mut dcls = Tensor::zeros(&[e]);
        let src = dtokens.data();
        let dst = dconv.data_mut();
        for bi in 0..b {
            for ni in 0..n {
                for ei in 0..e {
                    dst[(bi * e + ei) * n + ni] = src[(bi * s + ni) * e + ei];
                }
            }
            for ei in 0..e {
                dcls.data_mut()[ei] += src[(bi * s + n) * e + ei];
            }
        }
        (dconv, dcls)
    }

    /// The scratch arenas the fanned-out batch forward keeps between calls
    /// (one window's worth each).
    pub fn scratch_pool(&self) -> &ScratchPool<TensorArena> {
        &self.scratch
    }

    /// The batched inference body behind [`InferForward::forward_infer_in`]
    /// and the eval-mode [`Model::forward`]: the `B` windows of `x` (whole
    /// `[channels, window]` samples back to back) through each layer
    /// together, on `arena`; returns `[B, classes]`.
    ///
    /// Only the work the head reads is done: the patch GEMM stores each
    /// sample's tokens straight into its token rows (no transposes), and
    /// the last encoder block runs its queries, FFN and residuals for the
    /// class row alone ([`TransformerBlock::forward_last_token_in`]),
    /// handing `[B, E]` to the final LayerNorm. Every kept element is the
    /// same arithmetic as in the full-row pass, so the logits are
    /// bit-identical to it.
    fn forward_batch_in(&self, x: &[f32], arena: &mut TensorArena) -> Tensor {
        let (window, e) = (self.cfg.window, self.cfg.embed);
        let b = x.len() / (self.cfg.channels * window);
        let n = self.patch.out_len(window);
        let s = n + 1;
        let mut tokens = arena.tensor(&[b, s, e]);
        self.patch
            .infer_tokens_into(x, window, tokens.data_mut(), s * e, arena);
        let cls = self.class_token.value.data();
        for sample in tokens.data_mut().chunks_mut(s * e) {
            sample[n * e..].copy_from_slice(cls);
        }
        let (last, earlier) = self
            .blocks
            .split_last()
            .expect("a validated config has depth ≥ 1");
        for blk in earlier {
            let next = blk.forward_infer_in(&tokens, arena);
            arena.recycle(std::mem::replace(&mut tokens, next));
        }
        let cls_rows = last.forward_last_token_in(&tokens, arena);
        arena.recycle(tokens);
        let mut normed = arena.tensor(&[b, e]);
        self.ln_final.infer_into(cls_rows.data(), normed.data_mut());
        arena.recycle(cls_rows);
        let logits = self
            .head
            .forward_infer_in(&normed, FusedActivation::None, arena);
        arena.recycle(normed);
        logits
    }
}

impl InferForward for Bioformer {
    /// Eval-mode forward through `&self`: bit-identical logits to
    /// [`Model::forward`]`(x, false)`, but with no cache writes, so one
    /// instance can be shared across serving workers without cloning.
    ///
    /// # Example
    ///
    /// ```
    /// use bioformer_core::{Bioformer, BioformerConfig};
    /// use bioformer_nn::InferForward;
    /// use bioformer_tensor::Tensor;
    ///
    /// let model = Bioformer::new(&BioformerConfig::bio1());
    /// let logits = model.forward_infer(&Tensor::zeros(&[2, 14, 300]));
    /// assert_eq!(logits.dims(), &[2, 8]);
    /// ```
    fn forward_infer(&self, x: &Tensor) -> Tensor {
        self.forward_infer_in(x, &mut TensorArena::new())
    }

    /// The arena-threaded eval forward: patch conv, tokenisation, every
    /// encoder block, the final LayerNorm and the classifier head all draw
    /// scratch from `arena` and recycle it, so a warmed arena makes the
    /// whole pass allocation-free. [`InferForward::forward_infer`] is this
    /// over a throwaway arena, which pins the two paths together.
    ///
    /// The batch fans out by the rule the int8 model's does
    /// ([`plan_threads`] of `B` windows' FLOPs): bio1 batches of 11
    /// windows or more spread over the thread cap, each shard running its
    /// windows one at a time on a pooled arena
    /// ([`ScratchPool::map_rows`]), so the pool holds one window's scratch
    /// per shard. Smaller batches (a live stream's) run the batched body
    /// inline on `arena`. Every packed-GEMM element is an ascending-`k`
    /// chain independent of the rows sharing the call, and LayerNorm,
    /// softmax and GELU are row-local, so the logits never depend on the
    /// sharding.
    fn forward_infer_in(&self, x: &Tensor, arena: &mut TensorArena) -> Tensor {
        let cfg = &self.cfg;
        assert_eq!(x.dims()[1], cfg.channels, "Bioformer: channel mismatch");
        assert_eq!(x.dims()[2], cfg.window, "Bioformer: window mismatch");
        let b = x.dims()[0];
        if plan_threads(b * self.window_work) <= 1 {
            return self.forward_batch_in(x.data(), arena);
        }
        let mut logits = arena.tensor(&[b, cfg.classes]);
        self.scratch.map_rows(
            x.data(),
            cfg.channels * cfg.window,
            logits.data_mut(),
            cfg.classes,
            self.window_work,
            |w, o, scratch| {
                let y = self.forward_batch_in(w, scratch);
                o.copy_from_slice(y.data());
                scratch.recycle(y);
            },
        );
        logits
    }
}

impl Model for Bioformer {
    /// The trainer's forward. In eval mode it runs the batched body on the
    /// calling thread over a throwaway arena, with logits bit-identical to
    /// [`InferForward::forward_infer`], but without the window fan-out: the
    /// trainer already runs one model clone per thread (each with an empty
    /// scratch pool), so fanning out again would oversubscribe the cores
    /// and warm a fresh pool per clone.
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        assert_eq!(
            x.dims()[1],
            self.cfg.channels,
            "Bioformer: channel mismatch"
        );
        assert_eq!(x.dims()[2], self.cfg.window, "Bioformer: window mismatch");
        if !train {
            return self.forward_batch_in(x.data(), &mut TensorArena::new());
        }
        let conv_out = self.patch.forward(x, true);
        let mut tokens = self.tokenize(&conv_out);
        let (last, earlier) = self
            .blocks
            .split_last_mut()
            .expect("a validated config has depth ≥ 1");
        for blk in earlier {
            tokens = blk.forward(&tokens, true);
        }
        let cls = last.forward_last_token(&tokens);
        let normed = self.ln_final.forward(&cls, true);
        let logits = self.head.forward(&normed, true);
        self.fwd_batch = Some(x.dims()[0]);
        logits
    }

    fn backward(&mut self, dlogits: &Tensor) {
        let batch = self
            .fwd_batch
            .expect("Bioformer: backward before training-mode forward");
        let dnormed = self.head.backward(dlogits);
        let dcls_rows = self.ln_final.backward(&dnormed);
        assert_eq!(dcls_rows.dims()[0], batch, "Bioformer: batch mismatch");
        // The last block takes the class rows' gradient alone (the other
        // rows' is zero) and returns every token's.
        let (last, earlier) = self
            .blocks
            .split_last_mut()
            .expect("a validated config has depth ≥ 1");
        let mut dtokens = last.backward(&dcls_rows);
        for blk in earlier.iter_mut().rev() {
            dtokens = blk.backward(&dtokens);
        }
        let (dconv, dcls_token) = self.detokenize_grad(&dtokens);
        self.class_token.accumulate(&dcls_token);
        // The input windows need no gradient.
        self.patch.backward_weights(&dconv);
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.patch.visit_params(f);
        f(&mut self.class_token);
        for blk in &mut self.blocks {
            blk.visit_params(f);
        }
        self.ln_final.visit_params(f);
        self.head.visit_params(f);
    }

    fn sync_from(&mut self, src: &Self) {
        self.patch.sync_from(&src.patch);
        self.class_token.sync_from(&src.class_token);
        for (blk, src_blk) in self.blocks.iter_mut().zip(&src.blocks) {
            blk.sync_from(src_blk);
        }
        self.ln_final.sync_from(&src.ln_final);
        self.head.sync_from(&src.head);
    }

    fn clear_cache(&mut self) {
        self.patch.clear_cache();
        for blk in &mut self.blocks {
            blk.clear_cache();
        }
        self.ln_final.clear_cache();
        self.head.clear_cache();
        self.fwd_batch = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptor::bioformer_descriptor;
    use rand::Rng;

    fn small_cfg() -> BioformerConfig {
        BioformerConfig {
            channels: 3,
            window: 20,
            classes: 4,
            embed: 8,
            filter: 5,
            heads: 2,
            depth: 1,
            head_dim: 4,
            hidden: 16,
            dropout: 0.0,
            seed: 7,
        }
    }

    fn filled(dims: &[usize], seed: u64) -> Tensor {
        let mut rng = StdRng::seed_from_u64(seed);
        Tensor::from_fn(dims, |_| rng.gen_range(-1.0..1.0))
    }

    #[test]
    fn forward_shapes() {
        let mut m = Bioformer::new(&BioformerConfig::bio1());
        let x = filled(&[2, 14, 300], 0);
        let y = m.forward(&x, false);
        assert_eq!(y.dims(), &[2, 8]);
        assert!(!y.has_non_finite());
    }

    #[test]
    fn param_count_matches_descriptor() {
        for cfg in [
            BioformerConfig::bio1(),
            BioformerConfig::bio2(),
            BioformerConfig::bio1().with_filter(30),
        ] {
            let mut m = Bioformer::new(&cfg);
            let desc = bioformer_descriptor(&cfg);
            assert_eq!(
                m.num_params() as u64,
                desc.params(),
                "model/descriptor param mismatch for {}",
                desc.name
            );
        }
    }

    #[test]
    fn deterministic_init() {
        let mut a = Bioformer::new(&small_cfg());
        let mut b = Bioformer::new(&small_cfg());
        let x = filled(&[1, 3, 20], 1);
        assert!(a.forward(&x, false).allclose(&b.forward(&x, false), 0.0));
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Bioformer::new(&small_cfg());
        let mut b = Bioformer::new(&small_cfg().with_seed(8));
        let x = filled(&[1, 3, 20], 1);
        assert!(!a.forward(&x, false).allclose(&b.forward(&x, false), 1e-6));
    }

    #[test]
    fn gradcheck_end_to_end() {
        let mut m = Bioformer::new(&small_cfg());
        let x = filled(&[2, 3, 20], 2);
        let y = m.forward(&x, true);
        let dy = filled(y.dims(), 3);
        m.zero_grad();
        m.backward(&dy);

        // Check a sample of parameter gradients against finite differences.
        let mut grads: Vec<(String, Tensor)> = Vec::new();
        m.visit_params(&mut |p| grads.push((p.name.clone(), p.grad.clone())));

        let objective =
            |m: &mut Bioformer, x: &Tensor| -> f32 { m.forward(x, false).mul(&dy).sum() };
        // Small eps: parameters like the class token are initialised at
        // scale 0.02, so a large probe step leaves the linear regime of the
        // downstream LayerNorm.
        let eps = 2e-3;
        for (pi, (name, grad)) in grads.iter().enumerate() {
            let n_elems = grad.len();
            for idx in (0..n_elems).step_by((n_elems / 3).max(1)) {
                let mut orig = 0.0;
                let mut count = 0usize;
                m.visit_params(&mut |p| {
                    if count == pi {
                        orig = p.value.data()[idx];
                        p.value.data_mut()[idx] = orig + eps;
                    }
                    count += 1;
                });
                let fp = objective(&mut m, &x);
                count = 0;
                m.visit_params(&mut |p| {
                    if count == pi {
                        p.value.data_mut()[idx] = orig - eps;
                    }
                    count += 1;
                });
                let fm = objective(&mut m, &x);
                count = 0;
                m.visit_params(&mut |p| {
                    if count == pi {
                        p.value.data_mut()[idx] = orig;
                    }
                    count += 1;
                });
                let num = (fp - fm) / (2.0 * eps);
                let got = grad.data()[idx];
                assert!(
                    (num - got).abs() < 0.08 * (1.0 + num.abs().max(got.abs())),
                    "{name}[{idx}]: fd={num} analytic={got}"
                );
            }
        }
    }

    #[test]
    fn class_token_receives_gradient() {
        let mut m = Bioformer::new(&small_cfg());
        let x = filled(&[2, 3, 20], 4);
        let y = m.forward(&x, true);
        m.zero_grad();
        m.backward(&Tensor::ones(y.dims()));
        assert!(
            m.class_token.grad.abs_max() > 0.0,
            "class token gradient is zero"
        );
    }

    #[test]
    fn forward_infer_matches_eval_forward_exactly() {
        let mut m = Bioformer::new(&small_cfg());
        let x = filled(&[3, 3, 20], 6);
        // Run a training-mode pass first so any cache state that could leak
        // into the shared-state path would be present.
        let _ = m.forward(&x, true);
        let eval = m.forward(&x, false);
        let infer = (&m as &Bioformer).forward_infer(&x);
        assert!(infer.allclose(&eval, 0.0), "infer path diverges from eval");
    }

    /// Without dropout the class-row training forward computes the eval
    /// forward's logits bit for bit (bio2: one full-row block, then the
    /// class-row one).
    #[test]
    fn training_forward_logits_equal_the_eval_forward() {
        for cfg in [small_cfg(), BioformerConfig::bio2().with_seed(3)] {
            let cfg = BioformerConfig {
                dropout: 0.0,
                ..cfg
            };
            let mut m = Bioformer::new(&cfg);
            let x = filled(&[3, cfg.channels, cfg.window], 8);
            let train = m.forward(&x, true);
            let eval = m.forward(&x, false);
            assert_eq!(train, eval, "depth {}", cfg.depth);
        }
    }

    #[test]
    fn clone_then_clear_cache_still_forwards() {
        let mut m = Bioformer::new(&small_cfg());
        let x = filled(&[1, 3, 20], 5);
        let _ = m.forward(&x, true);
        let mut c = m.clone();
        c.clear_cache();
        let y = c.forward(&x, false);
        assert_eq!(y.dims(), &[1, 4]);
    }
}
