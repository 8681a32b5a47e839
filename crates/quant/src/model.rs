//! The fully-quantized Bioformer: conversion from a trained fp32 model and
//! integer-only inference.
//!
//! Conversion has four stages:
//!
//! 1. A **float shadow** of the network is rebuilt from the model's state
//!    dict and verified (in tests) to reproduce `Bioformer::forward`
//!    bit-for-bit — this is the reference graph that calibration walks.
//! 2. The shadow runs over a calibration set while [`MinMaxObserver`]s
//!    record the range of every activation tap.
//! 3. Each kernel is converted: weights to symmetric int8, biases to i32 at
//!    the accumulator scale, nonlinearities to their I-BERT integer forms,
//!    and every scale hand-off to a fixed-point multiplier.
//! 4. The forward is **planned**: every weight matrix is packed into the
//!    SIMD kernels' layout, GELU becomes a 256-entry table, the residual
//!    multipliers are encoded, and every intermediate buffer gets a fixed
//!    place in one slab ([`crate::arena`]). Nothing about *how* to run a
//!    window is decided per window.
//!
//! The resulting [`QuantBioformer`] executes inference **entirely in
//! integer arithmetic** (i8 operands, i32/i64 accumulation); floats appear
//! only when quantizing the input window and dequantizing the final logits.
//!
//! # The plan a window runs
//!
//! ```text
//! quantize window → im2col → packed conv GEMM ─→ tokens [S,E] (+ class row)
//! per block:
//!   LN ─→ packed Wq, Wk → q, k [S,H·P]     packed Wv → vᵀ [H·P,Sp] (stored transposed)
//!   per head, straight off q/k/vᵀ through strided operands:
//!       scores = q_h·k_hᵀ → integer softmax → probs·v_h → att[:, h·P..]
//!   packed Wo → + residual → LN → packed fc1 → GELU table → packed fc2 → + residual
//! class row → LN → packed head → logits
//! ```
//!
//! The packed GEMMs requantize in their stores; the per-head products are
//! the one place an activation multiplies an activation, and run through
//! [`qgemm_nt_into`] on row-major operands.

use crate::arena::{QuantArena, SlabLayout};
use crate::ibert::{IGelu, ILayerNorm, ISoftmax};
use crate::kernels::{qgemm_nt_into, QAdd};
use crate::layers::{QConv1d, QLinear};
use crate::observer::MinMaxObserver;
use crate::qtensor::QParams;
use crate::requant::FixedMultiplier;
use bioformer_core::descriptor::bioformer_descriptor;
use bioformer_core::BioformerConfig;
use bioformer_nn::serialize::StateDict;
use bioformer_simd::{Kernels, QMat, QOut, Requant};
use bioformer_tensor::conv::{conv1d_forward, Conv1dSpec};
use bioformer_tensor::ops::{layernorm_forward, softmax_rows};
use bioformer_tensor::parallel::ScratchPool;
use bioformer_tensor::{Tensor, TensorArena};
use std::collections::BTreeMap;
use std::fmt;

/// Error returned by [`QuantBioformer::convert`].
#[derive(Debug)]
pub enum ConvertError {
    /// A parameter expected from the architecture is absent from the dict.
    MissingParam(String),
    /// The calibration set is empty.
    EmptyCalibration,
}

impl fmt::Display for ConvertError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConvertError::MissingParam(name) => {
                write!(f, "state dict is missing parameter {name}")
            }
            ConvertError::EmptyCalibration => write!(f, "calibration set is empty"),
        }
    }
}

impl std::error::Error for ConvertError {}

/// Weights of one encoder block, extracted from the state dict.
#[derive(Debug)]
struct ShadowBlock {
    ln1_g: Tensor,
    ln1_b: Tensor,
    wq: (Tensor, Tensor),
    wk: (Tensor, Tensor),
    wv: (Tensor, Tensor),
    wo: (Tensor, Tensor),
    ln2_g: Tensor,
    ln2_b: Tensor,
    fc1: (Tensor, Tensor),
    fc2: (Tensor, Tensor),
}

/// Float reference of the full network, rebuilt from a state dict.
#[derive(Debug)]
pub(crate) struct FloatShadow {
    cfg: BioformerConfig,
    conv_w: Tensor,
    conv_b: Tensor,
    class_token: Tensor,
    blocks: Vec<ShadowBlock>,
    lnf_g: Tensor,
    lnf_b: Tensor,
    head: (Tensor, Tensor),
}

fn linear(x: &Tensor, w: &Tensor, b: &Tensor) -> Tensor {
    let mut y = x.matmul_nt(w);
    let (rows, cols) = (y.dims()[0], y.dims()[1]);
    for r in 0..rows {
        let row = &mut y.data_mut()[r * cols..(r + 1) * cols];
        for (v, bb) in row.iter_mut().zip(b.data().iter()) {
            *v += bb;
        }
    }
    y
}

fn layernorm(x: &Tensor, g: &Tensor, b: &Tensor) -> Tensor {
    layernorm_forward(x, g, b).0
}

impl FloatShadow {
    fn get(dict: &BTreeMap<&str, &Tensor>, name: &str) -> Result<Tensor, ConvertError> {
        dict.get(name)
            .map(|t| (*t).clone())
            .ok_or_else(|| ConvertError::MissingParam(name.to_string()))
    }

    pub(crate) fn from_state_dict(
        cfg: &BioformerConfig,
        dict: &StateDict,
    ) -> Result<Self, ConvertError> {
        let map: BTreeMap<&str, &Tensor> = dict.iter().map(|(n, t)| (n.as_str(), t)).collect();
        let g = |name: &str| Self::get(&map, name);
        let mut blocks = Vec::with_capacity(cfg.depth);
        for l in 0..cfg.depth {
            let p = |s: &str| format!("block{l}.{s}");
            blocks.push(ShadowBlock {
                ln1_g: g(&p("ln1.gamma"))?,
                ln1_b: g(&p("ln1.beta"))?,
                wq: (g(&p("attn.wq.weight"))?, g(&p("attn.wq.bias"))?),
                wk: (g(&p("attn.wk.weight"))?, g(&p("attn.wk.bias"))?),
                wv: (g(&p("attn.wv.weight"))?, g(&p("attn.wv.bias"))?),
                wo: (g(&p("attn.wo.weight"))?, g(&p("attn.wo.bias"))?),
                ln2_g: g(&p("ln2.gamma"))?,
                ln2_b: g(&p("ln2.beta"))?,
                fc1: (g(&p("fc1.weight"))?, g(&p("fc1.bias"))?),
                fc2: (g(&p("fc2.weight"))?, g(&p("fc2.bias"))?),
            });
        }
        Ok(FloatShadow {
            cfg: cfg.clone(),
            conv_w: g("patch_embed.weight")?,
            conv_b: g("patch_embed.bias")?,
            class_token: g("class_token")?,
            blocks,
            lnf_g: g("ln_final.gamma")?,
            lnf_b: g("ln_final.beta")?,
            head: (g("head.weight")?, g("head.bias")?),
        })
    }

    /// Forward over a single `[channels, window]` sample, invoking `tap`
    /// at every quantization point.
    pub(crate) fn forward_taps(&self, x: &Tensor, tap: &mut impl FnMut(&str, &Tensor)) -> Tensor {
        let cfg = &self.cfg;
        tap("input", x);
        let conv = conv1d_forward(x, &self.conv_w, &self.conv_b, Conv1dSpec::patch(cfg.filter));
        tap("patch", &conv);
        // Transpose [E, N] → tokens [S, E] with class token appended.
        let (e, n) = (conv.dims()[0], conv.dims()[1]);
        let s = n + 1;
        let mut tokens = Tensor::zeros(&[s, e]);
        for ei in 0..e {
            for ni in 0..n {
                tokens.data_mut()[ni * e + ei] = conv.data()[ei * n + ni];
            }
        }
        tokens.data_mut()[n * e..(n + 1) * e].copy_from_slice(self.class_token.data());

        let (h, p) = (cfg.heads, cfg.head_dim);
        let scale = 1.0 / (p as f32).sqrt();
        for (l, blk) in self.blocks.iter().enumerate() {
            let pre = |name: &str| format!("b{l}.{name}");
            let ln1 = layernorm(&tokens, &blk.ln1_g, &blk.ln1_b);
            tap(&pre("ln1"), &ln1);
            let q = linear(&ln1, &blk.wq.0, &blk.wq.1);
            let k = linear(&ln1, &blk.wk.0, &blk.wk.1);
            let v = linear(&ln1, &blk.wv.0, &blk.wv.1);
            tap(&pre("q"), &q);
            tap(&pre("k"), &k);
            tap(&pre("v"), &v);
            let inner = h * p;
            let mut att = Tensor::zeros(&[s, inner]);
            for hi in 0..h {
                let slice = |src: &Tensor| {
                    let mut out = Tensor::zeros(&[s, p]);
                    for si in 0..s {
                        out.data_mut()[si * p..(si + 1) * p].copy_from_slice(
                            &src.data()[si * inner + hi * p..si * inner + (hi + 1) * p],
                        );
                    }
                    out
                };
                let (qh, kh, vh) = (slice(&q), slice(&k), slice(&v));
                let mut scores = qh.matmul_nt(&kh);
                scores.scale_in_place(scale);
                let probs = softmax_rows(&scores);
                let oh = probs.matmul(&vh);
                for si in 0..s {
                    att.data_mut()[si * inner + hi * p..si * inner + (hi + 1) * p]
                        .copy_from_slice(&oh.data()[si * p..(si + 1) * p]);
                }
            }
            tap(&pre("att"), &att);
            let wo = linear(&att, &blk.wo.0, &blk.wo.1);
            tap(&pre("wo"), &wo);
            let res1 = tokens.add(&wo);
            tap(&pre("res1"), &res1);
            let ln2 = layernorm(&res1, &blk.ln2_g, &blk.ln2_b);
            tap(&pre("ln2"), &ln2);
            let fc1 = linear(&ln2, &blk.fc1.0, &blk.fc1.1);
            tap(&pre("fc1"), &fc1);
            let gelu = fc1.map(bioformer_tensor::ops::gelu);
            tap(&pre("gelu"), &gelu);
            let fc2 = linear(&gelu, &blk.fc2.0, &blk.fc2.1);
            tap(&pre("fc2"), &fc2);
            let res2 = res1.add(&fc2);
            tap(&pre("res2"), &res2);
            tokens = res2;
        }
        let cls = Tensor::from_vec(tokens.data()[(s - 1) * e..s * e].to_vec(), &[1, e]);
        let lnf = layernorm(&cls, &self.lnf_g, &self.lnf_b);
        tap("ln_f", &lnf);
        linear(&lnf, &self.head.0, &self.head.1)
    }
}

/// One quantized encoder block, as planned.
#[derive(Debug, Clone)]
struct QBlock {
    /// `ln1` (its output grid — the projections' input grid — is baked
    /// into the ILayerNorm multiplier).
    ln1: ILayerNorm,
    wq: QLinear,
    wk: QLinear,
    wv: QLinear,
    softmax: ISoftmax,
    /// Lands `probs · v` accumulators on the attention-output grid.
    av: Requant,
    wo: QLinear,
    /// `res1 = tokens + wo`.
    add1: QAdd,
    /// `ln2` (output grid baked in, as for `ln1`).
    ln2: ILayerNorm,
    fc1: QLinear,
    /// Integer GELU of every `fc1` code (its output grid — `fc2`'s input
    /// grid — is baked into the i-erf constants).
    gelu: [i8; 256],
    fc2: QLinear,
    /// `tokens = res1 + fc2`.
    add2: QAdd,
}

/// A Bioformer converted to integer-only int8 inference.
#[derive(Debug, Clone)]
pub struct QuantBioformer {
    cfg: BioformerConfig,
    input_params: QParams,
    patch: QConv1d,
    class_token: Vec<i8>,
    blocks: Vec<QBlock>,
    lnf: ILayerNorm,
    head: QLinear,
    /// Where every intermediate of one window lives in the arena's slab.
    layout: SlabLayout,
    /// Work of one window in FLOPs (2 per MAC of the network descriptor):
    /// the unit [`bioformer_tensor::parallel::plan_threads`] sizes a
    /// batch's fan-out in.
    window_work: usize,
    /// Scratch arenas behind every forward that does not take a
    /// [`QuantArena`] itself (`forward_window`, `forward_batch`,
    /// `forward_infer_in` and the serving path), one per batch shard.
    scratch: ScratchPool<QuantArena>,
}

/// Token-axis length of the `A·V` contraction: the sequence length padded
/// to the kernels' k-group. `probs` rows and `vᵀ` rows are zero beyond
/// `S`, which contributes exactly zero to every integer dot product and
/// keeps the product on whole k-groups.
fn padded_seq(cfg: &BioformerConfig) -> usize {
    cfg.seq_len()
        .next_multiple_of(bioformer_simd::packed::QKGROUP)
}

impl QuantBioformer {
    /// Converts a trained fp32 Bioformer (via its state dict) using
    /// `calib` (`[n, channels, window]`, already normalised like training
    /// data) for activation-range calibration.
    ///
    /// # Errors
    ///
    /// Returns [`ConvertError`] if the dict is incomplete or the
    /// calibration set is empty.
    pub fn convert(
        cfg: &BioformerConfig,
        dict: &StateDict,
        calib: &Tensor,
    ) -> Result<Self, ConvertError> {
        let shadow = FloatShadow::from_state_dict(cfg, dict)?;
        let n = calib.dims()[0];
        if n == 0 {
            return Err(ConvertError::EmptyCalibration);
        }
        // Observe every tap over the calibration set.
        let mut obs: BTreeMap<String, MinMaxObserver> = BTreeMap::new();
        let sample = cfg.channels * cfg.window;
        for i in 0..n {
            let x = Tensor::from_vec(
                calib.data()[i * sample..(i + 1) * sample].to_vec(),
                &[cfg.channels, cfg.window],
            );
            let _ = shadow.forward_taps(&x, &mut |name, t| {
                obs.entry(name.to_string()).or_default().observe(t);
            });
        }
        let params = |name: &str| -> QParams {
            obs.get(name)
                .unwrap_or_else(|| panic!("no observation for tap {name}"))
                .symmetric_params()
        };

        let input_params = params("input");
        let patch_params = params("patch");
        let patch = QConv1d::from_float(
            &shadow.conv_w,
            &shadow.conv_b,
            cfg.filter,
            input_params,
            patch_params,
        );
        let class_token: Vec<i8> = shadow
            .class_token
            .data()
            .iter()
            .map(|&v| patch_params.quantize(v))
            .collect();

        let mut blocks = Vec::with_capacity(cfg.depth);
        // Grid the residual stream is on when a block reads it: the patch
        // grid at entry, then each block's res2 grid.
        let mut tok_p = patch_params;
        for (l, blk) in shadow.blocks.iter().enumerate() {
            let pre = |name: &str| format!("b{l}.{name}");
            let ln1_p = params(&pre("ln1"));
            let (q_p, k_p, v_p) = (params(&pre("q")), params(&pre("k")), params(&pre("v")));
            let att_p = params(&pre("att"));
            let wo_p = params(&pre("wo"));
            let res1_p = params(&pre("res1"));
            let ln2_p = params(&pre("ln2"));
            let fc1_p = params(&pre("fc1"));
            let gelu_p = params(&pre("gelu"));
            let fc2_p = params(&pre("fc2"));
            let res2_p = params(&pre("res2"));

            let score_scale = q_p.scale as f64 * k_p.scale as f64 / (cfg.head_dim as f64).sqrt();
            let av_scale = ISoftmax::OUT_PARAMS.scale as f64 * v_p.scale as f64;
            blocks.push(QBlock {
                ln1: ILayerNorm::new(blk.ln1_g.data(), blk.ln1_b.data(), ln1_p),
                wq: QLinear::from_float(&blk.wq.0, &blk.wq.1, ln1_p, q_p),
                wk: QLinear::from_float(&blk.wk.0, &blk.wk.1, ln1_p, k_p),
                wv: QLinear::from_float(&blk.wv.0, &blk.wv.1, ln1_p, v_p),
                softmax: ISoftmax::new(score_scale),
                av: FixedMultiplier::encode(av_scale / att_p.scale as f64)
                    .requant(att_p.zero_point),
                wo: QLinear::from_float(&blk.wo.0, &blk.wo.1, att_p, wo_p),
                add1: QAdd::new(tok_p, wo_p, res1_p),
                ln2: ILayerNorm::new(blk.ln2_g.data(), blk.ln2_b.data(), ln2_p),
                fc1: QLinear::from_float(&blk.fc1.0, &blk.fc1.1, ln2_p, fc1_p),
                gelu: IGelu::new(fc1_p.scale as f64, gelu_p).table(),
                fc2: QLinear::from_float(&blk.fc2.0, &blk.fc2.1, gelu_p, fc2_p),
                add2: QAdd::new(res1_p, fc2_p, res2_p),
            });
            tok_p = res2_p;
        }
        let lnf_p = params("ln_f");
        let lnf = ILayerNorm::new(shadow.lnf_g.data(), shadow.lnf_b.data(), lnf_p);
        let head = QLinear::from_float(&shadow.head.0, &shadow.head.1, lnf_p, lnf_p);

        let (s, sp) = (cfg.seq_len(), padded_seq(cfg));
        let (e, inner) = (cfg.embed, cfg.inner());
        let layout = SlabLayout {
            input: cfg.channels * cfg.window,
            im2col: patch.im2col_len(cfg.channels, cfg.window),
            tokens: s * e,
            norm: s * e,
            q: s * inner,
            k: s * inner,
            vt: inner * sp,
            probs: s * sp,
            att: s * inner,
            proj: s * e,
            res1: s * e,
            hidden: s * cfg.hidden,
            cls: e,
            scores: s * s,
            logits: cfg.classes,
        };
        Ok(QuantBioformer {
            cfg: cfg.clone(),
            input_params,
            patch,
            class_token,
            blocks,
            lnf,
            head,
            layout,
            window_work: 2 * bioformer_descriptor(cfg).macs() as usize,
            scratch: ScratchPool::default(),
        })
    }

    /// The architecture configuration.
    pub fn config(&self) -> &BioformerConfig {
        &self.cfg
    }

    /// One-line description of the plan this model dispatches: SIMD tier,
    /// steps per window, packed-weight bytes and slab bytes — surfaced per
    /// replica through the serving engines' `compute_report`.
    pub fn compute_report(&self) -> String {
        let packed: usize = self.packed_weights().map(|w| w.bytes()).sum();
        format!(
            "int8-plan[tier={} steps={} packed={}B slab={}B]",
            bioformer_simd::kernels().name,
            self.plan_steps(),
            packed,
            self.layout.bytes(),
        )
    }

    /// Every packed weight matrix of the plan.
    fn packed_weights(&self) -> impl Iterator<Item = &bioformer_simd::PackedQB> {
        let blocks = self.blocks.iter().flat_map(|b| {
            [&b.wq, &b.wk, &b.wv, &b.wo, &b.fc1, &b.fc2]
                .into_iter()
                .map(QLinear::packed)
        });
        std::iter::once(self.patch.packed())
            .chain(blocks)
            .chain(std::iter::once(self.head.packed()))
    }

    /// Kernel invocations one window makes: embed (quantize, im2col, conv
    /// GEMM), per block 11 layer steps plus three per head, then the final
    /// LayerNorm and the head.
    fn plan_steps(&self) -> usize {
        3 + self.cfg.depth * (11 + 3 * self.cfg.heads) + 2
    }

    /// The integer forward: one `[channels·window]` fp32 sample (already
    /// normalised) in, `[classes]` fp32 logits out, executing the plan
    /// over `arena`'s slab. After the arena's cold call this performs
    /// **zero** heap allocations (pinned by an allocation-counting test in
    /// the umbrella crate) and no allocator bookkeeping of any kind.
    ///
    /// # Panics
    ///
    /// Panics when `x` or `out` disagree with the configured window /
    /// class count.
    pub fn forward_logits_into(&self, x: &[f32], arena: &mut QuantArena, out: &mut [f32]) {
        self.forward_logits_into_with(bioformer_simd::kernels(), x, arena, out);
    }

    /// [`QuantBioformer::forward_logits_into`] on an explicitly chosen
    /// kernel table — the hook tier-parity tests use to pin the plan to the
    /// portable tier. Logits are bit-identical on every tier.
    ///
    /// # Panics
    ///
    /// Panics when `x` or `out` disagree with the configured window /
    /// class count.
    pub fn forward_logits_into_with(
        &self,
        kernels: &Kernels,
        x: &[f32],
        arena: &mut QuantArena,
        out: &mut [f32],
    ) {
        let cfg = &self.cfg;
        assert_eq!(x.len(), cfg.channels * cfg.window, "window size");
        assert_eq!(out.len(), cfg.classes, "logit buffer size");
        let buf = arena.carve(&self.layout);
        let (s, sp) = (cfg.seq_len(), padded_seq(cfg));
        let (e, p, inner) = (cfg.embed, cfg.head_dim, cfg.inner());
        let n = s - 1;

        // Embed: quantize the window onto the calibrated grid, gather the
        // patches, and let the packed conv write tokens [N, E] directly;
        // the class token is the last row.
        self.input_params.quantize_slice(x, buf.input);
        self.patch.im2col_into(buf.input, cfg.window, buf.im2col);
        (kernels.qgemm_packed)(
            QMat::dense(buf.im2col, self.patch.packed().k()),
            n,
            self.patch.packed(),
            QOut::Rows {
                out: &mut buf.tokens[..n * e],
                ld: e,
                rq: self.patch.requant(),
            },
        );
        buf.tokens[n * e..].copy_from_slice(&self.class_token);

        for blk in &self.blocks {
            for (xr, or) in buf.tokens.chunks_exact(e).zip(buf.norm.chunks_exact_mut(e)) {
                blk.ln1.apply_row_with(kernels, xr, or);
            }
            blk.wq.forward_into_with(kernels, buf.norm, s, buf.q);
            blk.wk.forward_into_with(kernels, buf.norm, s, buf.k);
            // V lands transposed — [H·P, Sp], the Bᵀ right-hand side the
            // A·V product wants — straight out of the projection's store.
            (kernels.qgemm_packed)(
                QMat::dense(buf.norm, e),
                s,
                blk.wv.packed(),
                QOut::Cols {
                    out: buf.vt,
                    ld: sp,
                    rq: blk.wv.requant(),
                },
            );

            // One head at a time, read in place through strided operands,
            // so the head's S×S tile never leaves the cache between its
            // three steps.
            for h in 0..cfg.heads {
                let q_h = QMat {
                    data: &buf.q[h * p..],
                    ld: inner,
                };
                let k_h = QMat {
                    data: &buf.k[h * p..],
                    ld: inner,
                };
                let scores = QOut::Acc {
                    out: buf.scores,
                    ld: s,
                };
                qgemm_nt_into(kernels, q_h, k_h, None, s, p, s, scores);
                for (sr, pr) in buf
                    .scores
                    .chunks_exact(s)
                    .zip(buf.probs.chunks_exact_mut(sp))
                {
                    blk.softmax.apply_row_with(kernels, sr, &mut pr[..s]);
                }
                let vt_h = QMat::dense(&buf.vt[h * p * sp..(h + 1) * p * sp], sp);
                let att_h = QOut::Rows {
                    out: &mut buf.att[h * p..],
                    ld: inner,
                    rq: blk.av,
                };
                let probs = QMat::dense(buf.probs, sp);
                qgemm_nt_into(kernels, probs, vt_h, None, s, sp, p, att_h);
            }

            blk.wo.forward_into_with(kernels, buf.att, s, buf.proj);
            blk.add1.apply(buf.tokens, buf.proj, buf.res1);
            for (xr, or) in buf.res1.chunks_exact(e).zip(buf.norm.chunks_exact_mut(e)) {
                blk.ln2.apply_row_with(kernels, xr, or);
            }
            blk.fc1.forward_into_with(kernels, buf.norm, s, buf.hidden);
            for c in buf.hidden.iter_mut() {
                *c = blk.gelu[*c as u8 as usize];
            }
            blk.fc2.forward_into_with(kernels, buf.hidden, s, buf.proj);
            // res2 lands back in the token buffer for the next block.
            blk.add2.apply(buf.res1, buf.proj, buf.tokens);
        }

        // Class row → final LN → head accumulators → fp32 logits.
        self.lnf
            .apply_row_with(kernels, &buf.tokens[n * e..], buf.cls);
        self.head
            .forward_acc_into_with(kernels, buf.cls, 1, buf.logits);
        for (o, &a) in out.iter_mut().zip(buf.logits.iter()) {
            *o = (a as f64 * self.head.acc_scale()) as f32;
        }
    }

    /// Integer inference over one `[channels, window]` fp32 sample
    /// (already normalised); returns fp32 logits dequantized from the
    /// classifier accumulators. Scratch comes from the internal arena
    /// pool; only the returned logit vector itself is heap-allocated.
    pub fn forward_window(&self, x: &Tensor) -> Vec<f32> {
        let cfg = &self.cfg;
        assert_eq!(x.dims(), &[cfg.channels, cfg.window], "window shape");
        let mut out = vec![0.0f32; cfg.classes];
        self.scratch
            .with(|arena| self.forward_logits_into(x.data(), arena, &mut out));
        out
    }

    /// The one batch body: every window of `x` (`[n, channels, window]`)
    /// through the integer pipeline, its logits written to row `i` of `out`
    /// (`[n · classes]`). The batch fans out by the shared rule of
    /// [`bioformer_tensor::parallel::plan_threads`] — `n` windows are
    /// `n · 2 · MACs` of work, so bio1 batches of 11 windows or more spread
    /// over the thread cap and smaller ones (a live stream's) run inline.
    /// Each shard serves its rows from one pooled arena
    /// ([`ScratchPool::map_rows`], the fp32 model's fan-out too). Windows are
    /// independent integer pipelines, so the logits never depend on the
    /// sharding.
    fn forward_batch_into(&self, x: &Tensor, out: &mut [f32]) {
        let cfg = &self.cfg;
        let n = x.dims()[0];
        assert_eq!(
            x.dims(),
            &[n, cfg.channels, cfg.window],
            "batch shape [n, channels, window]"
        );
        self.scratch.map_rows(
            x.data(),
            cfg.channels * cfg.window,
            out,
            cfg.classes,
            self.window_work,
            |w, o, arena| self.forward_logits_into(w, arena, o),
        );
    }

    /// Integer inference over a batch `[n, channels, window]`; returns fp32
    /// logits `[n, classes]`. Large batches fan out over threads (see
    /// [`bioformer_tensor::parallel::plan_threads`]); live-stream-sized
    /// ones run on the caller's thread.
    pub fn forward_batch(&self, x: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(&[x.dims()[0], self.cfg.classes]);
        self.forward_batch_into(x, out.data_mut());
        out
    }

    /// Classification accuracy of the integer pipeline on a labelled set.
    pub fn accuracy(&self, x: &Tensor, labels: &[usize]) -> f32 {
        let logits = self.forward_batch(x);
        bioformer_nn::loss::accuracy(&logits, labels)
    }
}

impl bioformer_nn::InferForward for QuantBioformer {
    /// Integer-only inference is already stateless per call (`&self`):
    /// [`QuantBioformer::forward_batch`].
    fn forward_infer(&self, x: &Tensor) -> Tensor {
        self.forward_batch(x)
    }

    /// Arena-threaded eval forward: the `[n, classes]` logit tensor comes
    /// from the caller's f32 `arena`, all integer scratch from the internal
    /// [`QuantArena`] pool, and the windows run through the same batch body
    /// as [`QuantBioformer::forward_batch`] (same fan-out, same logits). A
    /// warmed call that stays on one shard performs zero heap allocations.
    fn forward_infer_in(&self, x: &Tensor, arena: &mut TensorArena) -> Tensor {
        let mut out = arena.tensor(&[x.dims()[0], self.cfg.classes]);
        self.forward_batch_into(x, out.data_mut());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bioformer_core::Bioformer;
    use bioformer_nn::serialize::state_dict;
    use bioformer_nn::Model;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn small_cfg() -> BioformerConfig {
        BioformerConfig {
            channels: 14,
            window: 300,
            classes: 8,
            embed: 16,
            filter: 30,
            heads: 2,
            depth: 1,
            head_dim: 8,
            hidden: 32,
            dropout: 0.0,
            seed: 11,
        }
    }

    fn filled(dims: &[usize], seed: u64) -> Tensor {
        let mut rng = StdRng::seed_from_u64(seed);
        Tensor::from_fn(dims, |_| rng.gen_range(-1.0..1.0))
    }

    #[test]
    fn float_shadow_matches_bioformer() {
        let cfg = small_cfg();
        let mut model = Bioformer::new(&cfg);
        let dict = state_dict(&mut model);
        let shadow = FloatShadow::from_state_dict(&cfg, &dict).unwrap();

        let batch = filled(&[3, 14, 300], 0);
        let want = model.forward(&batch, false);
        for i in 0..3 {
            let w = Tensor::from_vec(
                batch.data()[i * 14 * 300..(i + 1) * 14 * 300].to_vec(),
                &[14, 300],
            );
            let got = shadow.forward_taps(&w, &mut |_, _| {});
            for c in 0..cfg.classes {
                assert!(
                    (got.data()[c] - want.at(&[i, c])).abs() < 1e-4,
                    "sample {i} class {c}: shadow {} vs model {}",
                    got.data()[c],
                    want.at(&[i, c])
                );
            }
        }
    }

    #[test]
    fn missing_param_is_reported() {
        let cfg = small_cfg();
        let mut model = Bioformer::new(&cfg);
        let mut dict = state_dict(&mut model);
        dict.retain(|(n, _)| n != "head.bias");
        let err = FloatShadow::from_state_dict(&cfg, &dict).unwrap_err();
        assert!(err.to_string().contains("head.bias"));
    }

    #[test]
    fn empty_calibration_is_error() {
        let cfg = small_cfg();
        let mut model = Bioformer::new(&cfg);
        let dict = state_dict(&mut model);
        let calib = Tensor::zeros(&[0, 14, 300]);
        assert!(matches!(
            QuantBioformer::convert(&cfg, &dict, &calib),
            Err(ConvertError::EmptyCalibration)
        ));
    }

    #[test]
    fn quantized_logits_track_float_logits() {
        let cfg = small_cfg();
        let mut model = Bioformer::new(&cfg);
        // Bring the class token to the scale training would give it; an
        // untrained 0-ish token row has no int8 resolution in the shared
        // activation grid and the comparison would test a degenerate case.
        model.visit_params(&mut |p| {
            if p.name == "class_token" {
                p.value.scale_in_place(4.0);
            }
        });
        let dict = state_dict(&mut model);
        let calib = filled(&[16, 14, 300], 1);
        let q = QuantBioformer::convert(&cfg, &dict, &calib).unwrap();

        let test = filled(&[8, 14, 300], 2);
        let fp = model.forward(&test, false);
        let qi = q.forward_batch(&test);
        // Logit scale of an untrained tiny net is small; demand the
        // quantized pipeline stays within a coarse envelope and mostly
        // agrees on argmax.
        let mut agree = 0usize;
        for i in 0..8 {
            let fp_row: Vec<f32> = (0..cfg.classes).map(|c| fp.at(&[i, c])).collect();
            let qi_row: Vec<f32> = (0..cfg.classes).map(|c| qi.at(&[i, c])).collect();
            let argmax = |v: &[f32]| {
                v.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                    .unwrap()
                    .0
            };
            if argmax(&fp_row) == argmax(&qi_row) {
                agree += 1;
            }
            for c in 0..cfg.classes {
                assert!(
                    (fp_row[c] - qi_row[c]).abs() < 0.5,
                    "sample {i} class {c}: fp {} vs int {}",
                    fp_row[c],
                    qi_row[c]
                );
            }
        }
        assert!(agree >= 5, "argmax agreement only {agree}/8");
    }
}
