//! WaveFormer-like wavelet front-end transformer (model-zoo variant).
//!
//! The zoo's third architecture family: instead of learning the
//! tokenisation (Bioformer's strided patch conv over raw samples), the
//! front-end is a **fixed Haar wavelet-packet filter bank** — the window is
//! decomposed into `2^ℓ` frequency sub-bands before a small patch conv and
//! transformer encoder see it:
//!
//! ```text
//! [B, 14, 300] ─HaarWavelet1d(ℓ=2)─▶ [B, 56, 75]
//!     ─Conv1d(k=5, stride=5)─▶ [B, 32, 15] ─transpose─▶ [B, 15, 32]
//!     ─TransformerBlock─▶ mean over tokens ─▶ LayerNorm ─▶ Linear(32→8)
//! ```
//!
//! Rationale (PAPERS.md: WaveFormer / TEMGNet): sEMG discriminates largely
//! in the frequency envelope, and a parameter-free orthonormal front-end
//! (a) shrinks the learned patching problem — the conv reads 75-sample
//! band-major rows instead of 300 raw samples — and (b) preserves signal
//! energy exactly, keeping activation ranges stable for int8 deployment.
//! At ~19 k parameters the model is ~4× smaller than Bio1, which is what
//! makes it an interesting A/B candidate rather than a strict replacement.

use bioformer_nn::Conv1d;
use bioformer_nn::{
    HaarWavelet1d, InferForward, LayerNorm, Linear, Model, Param, TransformerBlock,
};
use bioformer_semg::{CHANNELS, GESTURE_CLASSES, WINDOW};
use bioformer_tensor::conv::Conv1dSpec;
use bioformer_tensor::{Fp32Kernel, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Wavelet-packet depth: `[14, 300] → [56, 75]`.
pub const WAVEFORMER_LEVELS: usize = 2;
/// Patch width (and stride) of the band-major conv: 75 / 5 = 15 tokens.
pub const WAVEFORMER_PATCH: usize = 5;
/// Embedding width of the encoder.
pub const WAVEFORMER_EMBED: usize = 32;
/// Token count entering the encoder.
pub const WAVEFORMER_TOKENS: usize = (WINDOW >> WAVEFORMER_LEVELS) / WAVEFORMER_PATCH;

const HEADS: usize = 2;
const HEAD_DIM: usize = 16;
const HIDDEN: usize = 64;

/// The WaveFormer-like zoo variant.
///
/// # Example
///
/// ```
/// use bioformer_core::WaveFormer;
/// use bioformer_nn::Model;
/// use bioformer_tensor::Tensor;
///
/// let mut net = WaveFormer::new(42);
/// let logits = net.forward(&Tensor::zeros(&[1, 14, 300]), false);
/// assert_eq!(logits.dims(), &[1, 8]);
/// ```
#[derive(Debug, Clone)]
pub struct WaveFormer {
    dwt: HaarWavelet1d,
    patch: Conv1d,
    block: TransformerBlock,
    ln_final: LayerNorm,
    head: Linear,
    fwd_shape: Option<(usize, usize)>,
}

impl WaveFormer {
    /// Builds the variant with weights initialised from `seed`.
    pub fn new(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let bands = CHANNELS << WAVEFORMER_LEVELS;
        WaveFormer {
            dwt: HaarWavelet1d::new(WAVEFORMER_LEVELS),
            patch: Conv1d::new(
                "wf.patch",
                bands,
                WAVEFORMER_EMBED,
                WAVEFORMER_PATCH,
                Conv1dSpec::patch(WAVEFORMER_PATCH),
                &mut rng,
            ),
            block: TransformerBlock::new(
                "wf.block0",
                WAVEFORMER_EMBED,
                HEADS,
                HEAD_DIM,
                HIDDEN,
                0.0,
                &mut rng,
            ),
            ln_final: LayerNorm::new("wf.ln_final", WAVEFORMER_EMBED),
            head: Linear::new("wf.head", WAVEFORMER_EMBED, GESTURE_CLASSES, &mut rng),
            fwd_shape: None,
        }
    }

    /// Pins the SIMD tier of every GEMM-bearing layer.
    pub fn set_kernel(&mut self, kernel: Fp32Kernel) {
        self.patch.set_kernel(kernel);
        self.block.set_kernel(kernel);
        self.head.set_kernel(kernel);
    }

    /// One-line description of the compute path (packed fp32 GEMMs on the
    /// CPU) — surfaced per replica through the serving engines'
    /// `compute_report`.
    pub fn compute_report(&self) -> String {
        "packed-cpu".to_string()
    }

    /// Transposes conv output `[B, E, N]` into token-major `[B, N, E]`.
    fn tokenize(conv_out: &Tensor) -> Tensor {
        let (b, e, n) = (conv_out.dims()[0], conv_out.dims()[1], conv_out.dims()[2]);
        let mut tokens = Tensor::zeros(&[b, n, e]);
        let src = conv_out.data();
        let dst = tokens.data_mut();
        for bi in 0..b {
            for ei in 0..e {
                let row = &src[(bi * e + ei) * n..(bi * e + ei + 1) * n];
                for (ni, &v) in row.iter().enumerate() {
                    dst[(bi * n + ni) * e + ei] = v;
                }
            }
        }
        tokens
    }

    /// Transposes token gradients `[B, N, E]` back into conv layout.
    fn detokenize_grad(dtokens: &Tensor) -> Tensor {
        let (b, n, e) = (dtokens.dims()[0], dtokens.dims()[1], dtokens.dims()[2]);
        let mut dconv = Tensor::zeros(&[b, e, n]);
        let src = dtokens.data();
        let dst = dconv.data_mut();
        for bi in 0..b {
            for ni in 0..n {
                for ei in 0..e {
                    dst[(bi * e + ei) * n + ni] = src[(bi * n + ni) * e + ei];
                }
            }
        }
        dconv
    }

    /// Mean over the token axis: `[B, N, E] → [B, E]`.
    fn pool_tokens(tokens: &Tensor) -> Tensor {
        let (b, n, e) = (tokens.dims()[0], tokens.dims()[1], tokens.dims()[2]);
        let mut out = Tensor::zeros(&[b, e]);
        let src = tokens.data();
        let dst = out.data_mut();
        let inv = 1.0 / n as f32;
        for bi in 0..b {
            for ni in 0..n {
                let row = &src[(bi * n + ni) * e..(bi * n + ni + 1) * e];
                for (ei, &v) in row.iter().enumerate() {
                    dst[bi * e + ei] += v * inv;
                }
            }
        }
        out
    }

    fn check_input(x: &Tensor) {
        assert_eq!(x.dims()[1], CHANNELS, "WaveFormer: channel mismatch");
        assert_eq!(x.dims()[2], WINDOW, "WaveFormer: window mismatch");
    }
}

impl InferForward for WaveFormer {
    /// Eval-mode forward through `&self`: bit-identical logits to
    /// [`Model::forward`]`(x, false)`, no cache writes, so one instance can
    /// be shared across serving workers without cloning.
    fn forward_infer(&self, x: &Tensor) -> Tensor {
        Self::check_input(x);
        let bands = self.dwt.forward_infer(x);
        let conv_out = self.patch.forward_infer(&bands);
        let tokens = Self::tokenize(&conv_out);
        let tokens = self.block.forward_infer(&tokens);
        let pooled = Self::pool_tokens(&tokens);
        let normed = self.ln_final.forward_infer(&pooled);
        self.head.forward_infer(&normed)
    }
}

impl Model for WaveFormer {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        if !train {
            return self.forward_infer(x);
        }
        Self::check_input(x);
        let bands = self.dwt.forward(x, true);
        let conv_out = self.patch.forward(&bands, true);
        let tokens = Self::tokenize(&conv_out);
        self.fwd_shape = Some((tokens.dims()[0], tokens.dims()[1]));
        let tokens = self.block.forward(&tokens, true);
        let pooled = Self::pool_tokens(&tokens);
        let normed = self.ln_final.forward(&pooled, true);
        self.head.forward(&normed, true)
    }

    fn backward(&mut self, dlogits: &Tensor) {
        let (b, n) = self
            .fwd_shape
            .expect("WaveFormer: backward before training-mode forward");
        let e = WAVEFORMER_EMBED;
        let dnormed = self.head.backward(dlogits);
        let dpooled = self.ln_final.backward(&dnormed);
        // Mean-pool backward: broadcast /N into every token row.
        let mut dtokens = Tensor::zeros(&[b, n, e]);
        let inv = 1.0 / n as f32;
        for bi in 0..b {
            for ni in 0..n {
                for ei in 0..e {
                    dtokens.data_mut()[(bi * n + ni) * e + ei] = dpooled.data()[bi * e + ei] * inv;
                }
            }
        }
        let dtokens = self.block.backward(&dtokens);
        let dconv = Self::detokenize_grad(&dtokens);
        let dbands = self.patch.backward(&dconv);
        let _ = self.dwt.backward(&dbands);
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.patch.visit_params(f);
        self.block.visit_params(f);
        self.ln_final.visit_params(f);
        self.head.visit_params(f);
    }

    fn clear_cache(&mut self) {
        self.dwt.clear_cache();
        self.patch.clear_cache();
        self.block.clear_cache();
        self.ln_final.clear_cache();
        self.head.clear_cache();
        self.fwd_shape = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn filled(dims: &[usize], seed: u64) -> Tensor {
        let mut rng = StdRng::seed_from_u64(seed);
        Tensor::from_fn(dims, |_| rng.gen_range(-1.0..1.0))
    }

    #[test]
    fn forward_shape() {
        let mut net = WaveFormer::new(0);
        let y = net.forward(&Tensor::zeros(&[2, CHANNELS, WINDOW]), false);
        assert_eq!(y.dims(), &[2, GESTURE_CLASSES]);
        assert!(!y.has_non_finite());
    }

    #[test]
    fn token_geometry() {
        assert_eq!(WAVEFORMER_TOKENS, 15);
        let dwt = HaarWavelet1d::new(WAVEFORMER_LEVELS);
        assert_eq!(dwt.out_channels(CHANNELS), 56);
        assert_eq!(dwt.out_len(WINDOW), 75);
    }

    #[test]
    fn is_smaller_than_bioformer() {
        let mut wf = WaveFormer::new(0);
        let mut bio = crate::Bioformer::new(&crate::BioformerConfig::bio1());
        assert!(
            wf.num_params() * 2 < bio.num_params(),
            "WaveFormer {} params should be well under Bio1's {}",
            wf.num_params(),
            bio.num_params()
        );
    }

    #[test]
    fn backward_accumulates_gradients() {
        let mut net = WaveFormer::new(2);
        let x = filled(&[2, CHANNELS, WINDOW], 3);
        let y = net.forward(&x, true);
        net.zero_grad();
        net.backward(&Tensor::ones(y.dims()));
        let mut nonzero = 0usize;
        let mut total = 0usize;
        net.visit_params(&mut |p| {
            total += 1;
            if p.grad.abs_max() > 0.0 {
                nonzero += 1;
            }
        });
        assert_eq!(nonzero, total, "{nonzero}/{total} params received gradient");
    }

    #[test]
    fn gradcheck_spot_samples() {
        let mut net = WaveFormer::new(4);
        let x = filled(&[1, CHANNELS, WINDOW], 5);
        let y = net.forward(&x, true);
        let dy = filled(y.dims(), 6);
        net.zero_grad();
        net.backward(&dy);
        let mut grads: Vec<(String, Tensor)> = Vec::new();
        net.visit_params(&mut |p| grads.push((p.name.clone(), p.grad.clone())));
        let objective =
            |m: &mut WaveFormer, x: &Tensor| -> f32 { m.forward(x, false).mul(&dy).sum() };
        let eps = 2e-3;
        for (pi, (name, grad)) in grads.iter().enumerate() {
            let idx = grad.len() / 2;
            let mut orig = 0.0;
            let probe = |m: &mut WaveFormer, v: f32, orig: &mut f32, set: bool| {
                let mut count = 0usize;
                m.visit_params(&mut |p| {
                    if count == pi {
                        if set {
                            *orig = p.value.data()[idx];
                        }
                        p.value.data_mut()[idx] = v;
                    }
                    count += 1;
                });
            };
            probe(&mut net, 0.0, &mut orig, true);
            probe(&mut net, orig + eps, &mut 0.0, false);
            let fp = objective(&mut net, &x);
            probe(&mut net, orig - eps, &mut 0.0, false);
            let fm = objective(&mut net, &x);
            probe(&mut net, orig, &mut 0.0, false);
            let num = (fp - fm) / (2.0 * eps);
            let got = grad.data()[idx];
            assert!(
                (num - got).abs() < 0.08 * (1.0 + num.abs().max(got.abs())),
                "{name}[{idx}]: fd={num} analytic={got}"
            );
        }
    }

    #[test]
    fn forward_infer_matches_eval_forward_exactly() {
        let mut net = WaveFormer::new(7);
        let x = filled(&[2, CHANNELS, WINDOW], 8);
        let _ = net.forward(&x, true);
        let eval = net.forward(&x, false);
        let infer = (&net as &WaveFormer).forward_infer(&x);
        assert!(infer.allclose(&eval, 0.0), "infer path diverges from eval");
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = WaveFormer::new(9);
        let mut b = WaveFormer::new(9);
        let x = filled(&[1, CHANNELS, WINDOW], 10);
        assert!(a.forward(&x, false).allclose(&b.forward(&x, false), 0.0));
    }
}
