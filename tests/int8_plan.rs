//! Whole-model pins for the planned int8 forward.
//!
//! The int8 pipeline is integer arithmetic end to end, so its logits are a
//! pure function of the weights and the input window — no kernel tier,
//! packing layout or buffer plan may change a single bit. Three checks per
//! configuration:
//!
//! * the forward at the runtime-dispatched SIMD tier equals the forward
//!   pinned to the portable tier (every tier `select` reaches on the host
//!   is walked, so the CI `portable-fallback` job needs no extra step);
//! * both equal a **golden checksum** captured from the commit before the
//!   plan existed (the layer-by-layer forward over unpacked weights);
//! * batch `N` equals `N` batch-1 calls, through one arena, through the
//!   model's own pool, and through every batch entry point (`forward_batch`,
//!   `forward_infer_in`, `predict_batch_in`) on both sides of the fan-out
//!   threshold.
//!
//! The configurations stress different corners of the plan: bio1 (the
//! deployed shape), the tiny `small_cfg` of the unit tests (head dim 8:
//! the score GEMMs run on their k-tail path) and a depth-2 model whose
//! widths are multiples of neither the packed panel (16) nor a SIMD
//! register (embed 24, head dim 12, hidden 40, 16 tokens).

use bioformers::core::{Bioformer, BioformerConfig};
use bioformers::nn::serialize::state_dict;
use bioformers::nn::{InferForward, Model};
use bioformers::quant::{QuantArena, QuantBioformer};
use bioformers::serve::GestureClassifier;
use bioformers::simd::{select, Tier};
use bioformers::tensor::{Tensor, TensorArena};

fn small_cfg() -> BioformerConfig {
    BioformerConfig {
        embed: 16,
        filter: 30,
        heads: 2,
        depth: 1,
        head_dim: 8,
        hidden: 32,
        dropout: 0.0,
        seed: 11,
        ..BioformerConfig::bio1()
    }
}

fn ragged_depth2_cfg() -> BioformerConfig {
    BioformerConfig {
        embed: 24,
        filter: 20,
        heads: 3,
        depth: 2,
        head_dim: 12,
        hidden: 40,
        dropout: 0.0,
        seed: 29,
        ..BioformerConfig::bio1()
    }
}

/// Deterministic pseudo-random windows `[n, channels, window]` in ±1.
fn windows(cfg: &BioformerConfig, n: usize, seed: u64) -> Tensor {
    let mut state = seed | 1;
    Tensor::from_fn(&[n, cfg.channels, cfg.window], |_| {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        ((state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 40) as f32 / (1u64 << 23) as f32) - 1.0
    })
}

fn quantized(cfg: &BioformerConfig) -> QuantBioformer {
    let mut model = Bioformer::new(cfg);
    // An untrained class token is ~0 and would sit in one int8 code.
    model.visit_params(&mut |p| {
        if p.name == "class_token" {
            p.value.scale_in_place(4.0);
        }
    });
    let dict = state_dict(&mut model);
    QuantBioformer::convert(cfg, &dict, &windows(cfg, 8, 5)).expect("int8 conversion")
}

/// FNV-1a over the logits' bit patterns.
fn checksum(logits: &[f32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in logits {
        for b in v.to_bits().to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

const BATCH: usize = 5;

/// Checksums of the `[BATCH, classes]` logits of `windows(cfg, BATCH, 77)`
/// at the commit before the plan, for the two flavours of fp32 arithmetic
/// the *calibration* pass can run on (activation ranges, hence every
/// scale, depend on whether the fp32 tiles fuse their multiply-adds; the
/// int8 arithmetic itself has no flavours).
struct Golden {
    fused: u64,
    portable: u64,
}

fn cases() -> [(&'static str, BioformerConfig, Golden); 3] {
    [
        (
            "bio1",
            BioformerConfig::bio1(),
            Golden {
                fused: 0xdb62_45e9_9369_12b6,
                portable: 0x7f21_489b_4c1c_1831,
            },
        ),
        (
            "small",
            small_cfg(),
            Golden {
                fused: 0xc1ed_d85e_f78d_792e,
                portable: 0x66f3_e481_6e40_9e56,
            },
        ),
        (
            "ragged-depth2",
            ragged_depth2_cfg(),
            Golden {
                fused: 0xcbaf_6b84_c054_bccb,
                portable: 0xbe82_451a_2057_00e2,
            },
        ),
    ]
}

/// The golden value for this process's fp32 tier, if one was captured.
fn golden_for_host(golden: &Golden) -> Option<u64> {
    let name = bioformers::simd::kernels().name;
    if name == "portable" {
        Some(golden.portable)
    } else if name.contains("fma") || name.contains("avx512f") {
        Some(golden.fused)
    } else {
        None
    }
}

/// `forward_logits_into_with` over every window of `x`, one arena.
fn logits_on(model: &QuantBioformer, tier: Option<Tier>, x: &Tensor) -> Vec<f32> {
    let cfg = model.config();
    let (sample, classes) = (cfg.channels * cfg.window, cfg.classes);
    let kernels = select(tier);
    let mut arena = QuantArena::new();
    let mut out = vec![0.0f32; x.dims()[0] * classes];
    for (w, o) in x.data().chunks(sample).zip(out.chunks_mut(classes)) {
        model.forward_logits_into_with(&kernels, w, &mut arena, o);
    }
    assert_eq!(arena.stats().misses, 1, "the cold call is the only miss");
    out
}

#[test]
fn planned_forward_matches_the_golden_logits_on_every_tier() {
    for (name, cfg, golden) in cases() {
        let model = quantized(&cfg);
        let x = windows(&cfg, BATCH, 77);
        let dispatched = model.forward_batch(&x);
        assert_eq!(dispatched.dims(), &[BATCH, cfg.classes]);
        if let Some(want) = golden_for_host(&golden) {
            assert_eq!(
                checksum(dispatched.data()),
                want,
                "{name}: logits moved off the pre-plan commit's"
            );
        }
        for tier in [
            Some(Tier::Portable),
            Some(Tier::Avx2),
            Some(Tier::Vnni),
            None,
        ] {
            assert_eq!(
                logits_on(&model, tier, &x),
                dispatched.data(),
                "{name}: tier {tier:?} disagrees with the dispatched forward"
            );
        }
    }
}

/// Batch `N` ≡ `N` batches of 1 through every batch entry point — the
/// owned forward, the arena-threaded forward and the serving path — at
/// sizes on both sides of the fan-out threshold (bio1 fans out from 11
/// windows; the two smaller configs stay inline at every size).
#[test]
fn batch_n_equals_n_batches_of_one() {
    for (name, cfg, _) in cases() {
        let model = quantized(&cfg);
        let sample = cfg.channels * cfg.window;
        let mut arena = TensorArena::new();
        for n in [2, 12, 33] {
            let x = windows(&cfg, n, 123 + n as u64);
            let ones: Vec<f32> = x
                .data()
                .chunks(sample)
                .flat_map(|w| {
                    model.forward_window(&Tensor::from_vec(w.to_vec(), &[cfg.channels, cfg.window]))
                })
                .collect();
            let entry_points = [
                ("forward_batch", model.forward_batch(&x)),
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

/// One arena serving models of different shapes: the slab is rebuilt (and
/// its never-written padding re-zeroed) when the shape changes, so the
/// logits cannot depend on who used the arena before.
#[test]
fn a_shared_arena_cannot_leak_between_models() {
    let models: Vec<(BioformerConfig, QuantBioformer)> = cases()
        .into_iter()
        .map(|(_, cfg, _)| (cfg.clone(), quantized(&cfg)))
        .collect();
    let mut shared = QuantArena::new();
    for round in 0..2 {
        for (cfg, model) in &models {
            let x = windows(cfg, 1, 900 + round);
            let mut got = vec![0.0f32; cfg.classes];
            model.forward_logits_into(x.data(), &mut shared, &mut got);
            let mut want = vec![0.0f32; cfg.classes];
            model.forward_logits_into(x.data(), &mut QuantArena::new(), &mut want);
            assert_eq!(got, want);
        }
    }
    assert_eq!(shared.stats().misses, 6, "every change of shape rebuilds");
}

/// A running replica can say what it dispatched.
#[test]
fn compute_report_names_the_plan() {
    let model = quantized(&BioformerConfig::bio1());
    let report = model.compute_report();
    let tier = bioformers::simd::kernels().name;
    assert!(
        report.starts_with(&format!("int8-plan[tier={tier} ")),
        "{report}"
    );
    // bio1: 3 + (11 + 3·8) + 2 kernel steps per window.
    assert!(report.contains("steps=40 "), "{report}");
    assert!(
        report.contains("packed=") && report.contains("slab="),
        "{report}"
    );
}
