//! Criterion benchmarks of the inference hot path, with a committed
//! baseline and a CI regression gate.
//!
//! Four groups:
//!
//! * `gemm` — the bio1-shaped fp32 GEMMs, naive reference kernel vs the
//!   panel-packed register-tiled kernel (pre-packed weights, as the
//!   serving steady state runs them), with the packed kernel measured
//!   twice: through the portable (safe) tile and through the
//!   runtime-dispatched SIMD tile (`packed_safe_*` vs `packed_*`).
//! * `qgemm` — the bio1-shaped **int8** GEMMs over row-major operands,
//!   scalar dot tile vs the dispatched entry point (`scalar_*` vs
//!   `simd_*`) — on SIMD hosts the latter is the whole-GEMM kernel, which
//!   stages `B` into the packed lane layout and runs the packed
//!   register-block body. This is the ≥2× int8-kernel speedup claim of the
//!   SIMD layer, measured directly. (The packed-weight GEMMs a converted
//!   model runs are in `benches/quant_kernels.rs`.)
//! * `fp32_inference` — Bioformer bio1 per-window latency and per-batch
//!   throughput at batch 1/8/32, through the arena-threaded
//!   `forward_infer_in` path a serving worker uses (weights packed once,
//!   scratch recycled). TEMPONet rides along as the CNN baseline.
//! * `int8_inference` — the integer-only pipeline (the planned forward:
//!   packed weights, fixed slab) at batch 1/8/32 through the same
//!   arena-threaded `forward_infer_in` path, for the int8-vs-fp32
//!   per-window comparison. It runs under the default thread cap, so b32
//!   fans out by the shared work rule and b1/b8 run inline.
//!
//! Per-window numbers are the benchmark id's time divided by the batch
//! size (batch ids are suffixed `_bN`; the printed time is per *batch*).
//!
//! Run and compare against the committed baseline:
//!
//! ```text
//! CRITERION_SHIM_DIR=crates/bench/baselines cargo bench -p bioformer-bench \
//!     --bench inference -- --baseline inference --fail-threshold 50
//! ```
//!
//! Refresh the committed baseline after an intentional perf change:
//!
//! ```text
//! CRITERION_SHIM_DIR=crates/bench/baselines cargo bench -p bioformer-bench \
//!     --bench inference -- --save-baseline inference
//! ```

use bioformer_core::{Bioformer, BioformerConfig, TempoNet};
use bioformer_nn::serialize::state_dict;
use bioformer_nn::{InferForward, Model};
use bioformer_quant::kernels::{qgemm_i32_into, qgemm_i32_into_with};
use bioformer_quant::QuantBioformer;
use bioformer_simd::{kernels, select, Tier};
use bioformer_tensor::matmul::{matmul_naive, matmul_nt_naive};
use bioformer_tensor::pack::{gemm_packed_with, Epilogue, PackedB};
use bioformer_tensor::{parallel, Tensor, TensorArena};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn filled(dims: &[usize], seed: u64) -> Tensor {
    let mut state = seed | 1;
    Tensor::from_fn(dims, |_| {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        ((state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 40) as f32 / (1u64 << 24) as f32) - 0.5
    })
}

fn windows(batch: usize, seed: u64) -> Tensor {
    filled(&[batch, 14, 300], seed)
}

/// Naive-vs-packed at the GEMM shapes a bio1 forward actually issues:
/// `[seq+1, embed] × [inner, embed]ᵀ` projections (m=32, k=64, n=256), the
/// output projection (k=256, n=64) and the FFN (n=128), plus the batch-32
/// projection GEMM (m=1024 rows).
fn bench_gemm(c: &mut Criterion) {
    parallel::set_max_threads(1);
    let mut g = c.benchmark_group("gemm");
    for (label, m, k, n) in [
        ("qkv_32x64x256", 32usize, 64usize, 256usize),
        ("wo_32x256x64", 32, 256, 64),
        ("ffn_32x64x128", 32, 64, 128),
        ("qkv_b32_1024x64x256", 1024, 64, 256),
    ] {
        let a = filled(&[m, k], 1);
        let bt = filled(&[n, k], 2);
        g.bench_function(&format!("naive_{label}"), |b| {
            b.iter(|| black_box(matmul_nt_naive(black_box(&a), black_box(&bt))))
        });
        // Steady-state serving: the weight is packed once per layer, so
        // only the GEMM itself is on the clock. Measured through both the
        // portable (safe) tile and the runtime-dispatched SIMD tile.
        let packed = PackedB::from_b_t(bt.data(), n, k);
        let mut out = vec![0.0f32; m * n];
        for (prefix, tile) in [
            ("packed_safe", select(Some(Tier::Portable)).fp32_tile),
            ("packed", kernels().fp32_tile),
        ] {
            g.bench_function(&format!("{prefix}_{label}"), |b| {
                b.iter(|| {
                    gemm_packed_with(
                        tile,
                        black_box(a.data()),
                        m,
                        k,
                        packed.as_slice(),
                        n,
                        &mut out,
                        Epilogue::None,
                    );
                    black_box(out[0])
                })
            });
        }
        // The A·B orientation reference rides along for completeness.
        let bn = filled(&[k, n], 3);
        g.bench_function(&format!("naive_nn_{label}"), |b| {
            b.iter(|| black_box(matmul_naive(black_box(&a), black_box(&bn))))
        });
    }
    g.finish();
    parallel::set_max_threads(0);
}

/// Deterministic pseudo-random int8 codes.
fn qcodes(len: usize, seed: u64) -> Vec<i8> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 48) as i8
        })
        .collect()
}

/// Scalar-vs-SIMD at the int8 GEMM shapes a bio1 integer forward issues:
/// the q/k/v projections, output projection and FFN (as in `bench_gemm`),
/// plus the im2col-lowered patch convolution (`m=64, k=14·10, n=30`).
fn bench_qgemm(c: &mut Criterion) {
    parallel::set_max_threads(1);
    let mut g = c.benchmark_group("qgemm");
    for (label, m, k, n) in [
        ("qkv_32x64x256", 32usize, 64usize, 256usize),
        ("wo_32x256x64", 32, 256, 64),
        ("ffn_32x64x128", 32, 64, 128),
        ("conv_64x140x30", 64, 140, 30),
    ] {
        let a = qcodes(m * k, 1);
        let bt = qcodes(n * k, 2);
        let mut out = vec![0i32; m * n];
        // `scalar` pins the portable tile through the generic driver;
        // `simd` runs the dispatched entry point: the whole-GEMM kernel on
        // SIMD hosts.
        let scalar_tile = select(Some(Tier::Portable)).qdot_tile;
        g.bench_function(&format!("scalar_{label}"), |b| {
            b.iter(|| {
                qgemm_i32_into_with(
                    scalar_tile,
                    black_box(&a),
                    black_box(&bt),
                    None,
                    m,
                    k,
                    n,
                    &mut out,
                );
                black_box(out[0])
            })
        });
        g.bench_function(&format!("simd_{label}"), |b| {
            b.iter(|| {
                qgemm_i32_into(black_box(&a), black_box(&bt), None, m, k, n, &mut out);
                black_box(out[0])
            })
        });
    }
    g.finish();
    parallel::set_max_threads(0);
}

fn bench_fp32(c: &mut Criterion) {
    parallel::set_max_threads(1);
    let mut g = c.benchmark_group("fp32_inference");
    let bio1 = Bioformer::new(&BioformerConfig::bio1());
    let mut arena = TensorArena::new();
    for batch in [1usize, 8, 32] {
        let x = windows(batch, batch as u64);
        // Warm the arena and the packed-weight caches outside the timer.
        let y = bio1.forward_infer_in(&x, &mut arena);
        arena.recycle(y);
        g.bench_function(&format!("bio1_f10_b{batch}"), |b| {
            b.iter(|| {
                let y = bio1.forward_infer_in(black_box(&x), &mut arena);
                let first = y.data()[0];
                arena.recycle(y);
                black_box(first)
            })
        });
    }
    // Secondary configs at batch 1 (per-window latency comparison).
    let x1 = windows(1, 7);
    let bio2 = Bioformer::new(&BioformerConfig::bio2());
    let y = bio2.forward_infer_in(&x1, &mut arena);
    arena.recycle(y);
    g.bench_function("bio2_f10_b1", |b| {
        b.iter(|| {
            let y = bio2.forward_infer_in(black_box(&x1), &mut arena);
            let first = y.data()[0];
            arena.recycle(y);
            black_box(first)
        })
    });
    let mut tempo = TempoNet::new(0);
    g.bench_function("temponet_b1", |b| {
        b.iter(|| black_box(tempo.forward(black_box(&x1), false)))
    });
    g.finish();
    parallel::set_max_threads(0);
}

/// The int8 forward as the engines call it, under the default thread cap:
/// its one threading decision is the batch fan-out, which b32 crosses
/// (32 bio1 windows are over `PARALLEL_WORK_THRESHOLD`) and b1/b8 do not.
fn bench_int8(c: &mut Criterion) {
    let mut g = c.benchmark_group("int8_inference");
    let cfg = BioformerConfig::bio1();
    let mut model = Bioformer::new(&cfg);
    let dict = state_dict(&mut model);
    let calib = windows(4, 11);
    let qmodel = QuantBioformer::convert(&cfg, &dict, &calib).expect("convert");
    let mut arena = TensorArena::new();
    for batch in [1usize, 8, 32] {
        let x = windows(batch, 13 + batch as u64);
        // Warm the arena and the model's internal scratch pool outside the
        // timer.
        let y = qmodel.forward_infer_in(&x, &mut arena);
        arena.recycle(y);
        g.bench_function(&format!("bio1_f10_int8_b{batch}"), |b| {
            b.iter(|| {
                let y = qmodel.forward_infer_in(black_box(&x), &mut arena);
                let first = y.data()[0];
                arena.recycle(y);
                black_box(first)
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_gemm, bench_qgemm, bench_fp32, bench_int8);
criterion_main!(benches);
