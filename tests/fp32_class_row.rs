//! Pins for the fp32 forward that computes only what the head reads.
//!
//! `Bioformer`'s inference forward runs its last encoder block for the
//! class row alone and lets the patch GEMM write token rows directly. Its
//! logits must be bit-identical to the full-row network assembled from the
//! public layer APIs — every block over every token, then the class row,
//! `ln_final` and the head — because every kept element is the same
//! ascending-`k` chain on the same kernel tier. Four checks:
//!
//! * model ≡ full-row reference with `allclose(.., 0.0)`, for bio1, bio2
//!   (one full block, then one class-row block), a tiny config and filter
//!   30, at batch 1, 3, 12, 32 and 33, on the dispatched kernel and on
//!   each pinned fp32 tile (so the CI `portable-fallback` job covers the
//!   same ground with no extra step);
//! * batch `N` ≡ `N` batches of 1 through every batch entry point, on both
//!   sides of the window fan-out threshold (bio1 fans out from 11 windows,
//!   each shard running its windows one at a time);
//! * golden checksums of bio1/bio2 logits and of the standalone attention
//!   and block forwards, captured at the commit before this forward
//!   existed, one per tile flavour, so a silent numeric change in a shared
//!   kernel (or in the strided head packing) fails;
//! * the class-row block equals the last row of the full block.
//!
//! The batch tests pin a thread cap of 2, so a 1-vCPU runner still takes
//! the sharded path.

use bioformers::core::{Bioformer, BioformerConfig};
use bioformers::nn::{InferForward, MultiHeadSelfAttention, TransformerBlock};
use bioformers::serve::GestureClassifier;
use bioformers::tensor::{parallel, Fp32Kernel, Tensor, TensorArena};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Mutex, MutexGuard};

/// Sets the process thread cap to 2 for as long as the guard lives; the
/// tests that pin it are serialised on one lock.
fn two_threads() -> impl Drop {
    struct Guard(#[allow(dead_code)] MutexGuard<'static, ()>);
    impl Drop for Guard {
        fn drop(&mut self) {
            parallel::set_max_threads(0);
        }
    }
    static LOCK: Mutex<()> = Mutex::new(());
    let guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    parallel::set_max_threads(2);
    Guard(guard)
}

/// The kernels under test, with whether their tile fuses its
/// multiply-adds on this host (pinned tiles clamp to what the CPU has).
fn kernels() -> [(&'static str, Fp32Kernel, bool); 4] {
    use bioformers::simd::fp32::{avx512_supported, fma_supported};
    let dispatched = bioformers::simd::kernels().name;
    [
        (
            "default",
            Fp32Kernel::Dispatch,
            dispatched.contains("fma") || dispatched.contains("avx512f"),
        ),
        ("portable", Fp32Kernel::Portable, false),
        ("fma", Fp32Kernel::Fma, fma_supported()),
        (
            "avx512",
            Fp32Kernel::Avx512,
            avx512_supported() || fma_supported(),
        ),
    ]
}

fn tiny_cfg() -> BioformerConfig {
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

/// Deterministic pseudo-random values in ±1.
fn noise(dims: &[usize], seed: u64) -> Tensor {
    let mut state = seed | 1;
    Tensor::from_fn(dims, |_| {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        ((state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 40) as f32 / (1u64 << 23) as f32) - 1.0
    })
}

/// FNV-1a over the values' bit patterns.
fn checksum(v: &[f32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for x in v {
        for b in x.to_bits().to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The network as written in the paper's Fig. 1, from public layer APIs:
/// conv → transpose → class token → every block over every token → class
/// row → LayerNorm → head.
fn full_row_reference(model: &Bioformer, x: &Tensor) -> Tensor {
    let mut arena = TensorArena::new();
    let conv = model.patch().forward_infer(x);
    let (b, e, n) = (conv.dims()[0], conv.dims()[1], conv.dims()[2]);
    let s = n + 1;
    let mut tokens = Tensor::from_fn(&[b, s, e], |i| {
        let (bi, t, ei) = (i / (s * e), (i / e) % s, i % e);
        if t == n {
            model.class_token().value.data()[ei]
        } else {
            conv.data()[(bi * e + ei) * n + t]
        }
    });
    for blk in model.blocks() {
        tokens = blk.forward_infer_in(&tokens, &mut arena);
    }
    let cls = Tensor::from_fn(&[b, e], |i| tokens.data()[((i / e) * s + n) * e + i % e]);
    model
        .head()
        .forward_infer(&model.ln_final().forward_infer(&cls))
}

#[test]
fn class_row_forward_equals_the_full_row_network_bit_for_bit() {
    let _cap = two_threads();
    let configs = [
        ("bio1", BioformerConfig::bio1()),
        ("bio2", BioformerConfig::bio2()),
        ("tiny", tiny_cfg()),
        ("filter30", BioformerConfig::bio1().with_filter(30)),
    ];
    for (kernel_name, kernel, _) in kernels() {
        for (name, cfg) in &configs {
            let mut model = Bioformer::new(cfg);
            model.set_kernel(kernel);
            for batch in [1, 3, 12, 32, 33] {
                let x = noise(&[batch, cfg.channels, cfg.window], 40 + batch as u64);
                let want = full_row_reference(&model, &x);
                let got = model.forward_infer_in(&x, &mut TensorArena::new());
                assert_eq!(got.dims(), &[batch, cfg.classes]);
                assert!(
                    got.allclose(&want, 0.0),
                    "{name} batch {batch} on {kernel_name}: class-row forward diverges"
                );
            }
        }
    }
}

/// Batch `N` ≡ `N` batches of 1 through every batch entry point — the
/// owned forward, the arena-threaded forward and the serving path — at
/// sizes on both sides of the fan-out threshold (bio1 fans out from 11
/// windows and bio2 from 14; the tiny config stays inline at every size).
#[test]
fn batch_n_equals_n_batches_of_one() {
    let _cap = two_threads();
    for (name, cfg) in [
        ("bio1", BioformerConfig::bio1()),
        ("bio2", BioformerConfig::bio2()),
        ("tiny", tiny_cfg()),
    ] {
        let model = Bioformer::new(&cfg);
        let dims = [1, cfg.channels, cfg.window];
        let mut arena = TensorArena::new();
        for n in [2, 12, 33] {
            let x = noise(&[n, cfg.channels, cfg.window], 123 + n as u64);
            let ones: Vec<f32> = x
                .data()
                .chunks(cfg.channels * cfg.window)
                .flat_map(|w| {
                    model
                        .forward_infer(&Tensor::from_vec(w.to_vec(), &dims))
                        .into_vec()
                })
                .collect();
            let entry_points = [
                ("forward_infer", model.forward_infer(&x)),
                ("forward_infer_in", model.forward_infer_in(&x, &mut arena)),
                ("predict_batch_in", model.predict_batch_in(&x, &mut arena)),
            ];
            for (entry, batched) in entry_points {
                assert_eq!(batched.dims(), &[n, cfg.classes]);
                assert_eq!(batched.data(), ones, "{name}: {entry} at batch {n}");
            }
        }
    }
}

#[test]
fn last_token_block_equals_the_last_row_of_the_full_block() {
    for (kernel_name, kernel, _) in kernels() {
        for (embed, heads, p, seq) in [(64, 8, 32, 31), (24, 3, 12, 13), (8, 2, 4, 1)] {
            let mut rng = StdRng::seed_from_u64(5);
            let mut blk = TransformerBlock::new("blk", embed, heads, p, 2 * embed, 0.0, &mut rng);
            blk.set_kernel(kernel);
            let x = noise(&[3, seq, embed], 6);
            let mut arena = TensorArena::new();
            let full = blk.forward_infer_in(&x, &mut arena);
            let last = blk.forward_last_token_in(&x, &mut arena);
            assert_eq!(last.dims(), &[3, embed]);
            for b in 0..3 {
                assert_eq!(
                    last.data()[b * embed..(b + 1) * embed],
                    full.data()[((b + 1) * seq - 1) * embed..(b + 1) * seq * embed],
                    "{embed}x{heads}x{p} seq {seq} sample {b} on {kernel_name}"
                );
            }
        }
    }
}

/// A checksum captured before the class-row forward and the strided head
/// packing, in both flavours of fp32 arithmetic: the portable tile, and
/// the fused multiply-add tiles (FMA and AVX-512 agree bit for bit — the
/// same `fma` chain per element).
struct Golden {
    fused: u64,
    portable: u64,
}

impl Golden {
    fn pick(&self, fused: bool) -> u64 {
        if fused {
            self.fused
        } else {
            self.portable
        }
    }
}

#[test]
fn bio1_and_bio2_logits_match_the_golden_checksums() {
    let cases = [
        (
            "bio1",
            BioformerConfig::bio1(),
            Golden {
                fused: 0xf837_6052_6810_51aa,
                portable: 0x3a18_ef6a_658c_9e2d,
            },
        ),
        (
            "bio2",
            BioformerConfig::bio2(),
            Golden {
                fused: 0xf0fc_4f0d_8278_54a0,
                portable: 0xebc2_effc_36ee_2e1f,
            },
        ),
    ];
    for (kernel_name, kernel, fused) in kernels() {
        for (name, cfg, golden) in &cases {
            let mut model = Bioformer::new(cfg);
            model.set_kernel(kernel);
            let logits = model.forward_infer(&noise(&[5, cfg.channels, cfg.window], 77));
            assert_eq!(
                checksum(logits.data()),
                golden.pick(fused),
                "{name} on {kernel_name}: fp32 logits moved"
            );
        }
    }
}

/// The full-row attention and block forwards (what bio2's first block and
/// the per-layer probes run) are unchanged by packing each head's keys and
/// values straight out of the strided projections — at bio1's shape and at
/// one whose head width and sequence are not multiples of the panel.
#[test]
fn full_row_attention_and_block_match_the_golden_checksums() {
    let cases = [
        (
            (64, 8, 32, 31, 3),
            Golden {
                fused: 0xbac5_9ded_ee8b_aee4,
                portable: 0xf76e_eca0_3717_fd4f,
            },
            Golden {
                fused: 0x9250_7e5a_e2c7_c5e5,
                portable: 0x34bf_b0e3_edc4_8bfb,
            },
        ),
        (
            (24, 3, 12, 13, 2),
            Golden {
                fused: 0xed8a_9eff_f518_ae7d,
                portable: 0x772e_ddf2_1d60_c264,
            },
            Golden {
                fused: 0x5217_44a1_6850_0c71,
                portable: 0xab16_f9f4_930e_9d87,
            },
        ),
    ];
    for (kernel_name, kernel, fused) in kernels() {
        for ((embed, heads, p, seq, batch), attn_golden, block_golden) in &cases {
            let (embed, heads, p) = (*embed, *heads, *p);
            let mut rng = StdRng::seed_from_u64(3);
            let mut attn = MultiHeadSelfAttention::new("attn", embed, heads, p, &mut rng);
            attn.set_kernel(kernel);
            let x = noise(&[*batch, *seq, embed], 9);
            let y = attn.forward_infer_in(&x, &mut TensorArena::new());
            assert_eq!(
                checksum(y.data()),
                attn_golden.pick(fused),
                "attention {embed}x{heads}x{p} on {kernel_name}"
            );
            let mut blk = TransformerBlock::new("blk", embed, heads, p, 2 * embed, 0.0, &mut rng);
            blk.set_kernel(kernel);
            let y = blk.forward_infer_in(&x, &mut TensorArena::new());
            assert_eq!(
                checksum(y.data()),
                block_golden.pick(fused),
                "block {embed}x{heads}x{p} on {kernel_name}"
            );
        }
    }
}
