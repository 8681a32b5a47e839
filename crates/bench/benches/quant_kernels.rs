//! Criterion micro-benchmarks of the int8 integer kernels vs their fp32
//! counterparts — the host-side view of the quantization speed story.
//!
//! * `int8_gemm` — one row-major int8 GEMM next to its fp32 reference.
//! * `int8_packed` — the packed-weight GEMM a converted model runs, at
//!   bio1's five weight shapes (patch conv, a q/k/v projection, the output
//!   projection, both FFN layers), requantizing store included, next to
//!   the row-major entry point at the same shape (`rowmajor_*`: activation
//!   as `A`, unpacked weights as `B`, what the model ran before it packed
//!   its weights).
//! * `int8_nonlinear` — the I-BERT operators: softmax and LayerNorm rows
//!   through the dispatched SIMD body and through the scalar operator, and
//!   GELU by polynomial vs by table.

use bioformer_quant::ibert::{IGelu, ILayerNorm, ISoftmax};
use bioformer_quant::kernels::{qgemm_i32, qgemm_requant_into};
use bioformer_quant::qtensor::QParams;
use bioformer_quant::requant::FixedMultiplier;
use bioformer_simd::{kernels, PackedQB, QMat, QOut};
use bioformer_tensor::{parallel, Tensor};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn ti8(n: usize, seed: u64) -> Vec<i8> {
    let mut state = seed | 1;
    (0..n)
        .map(|_| {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as i8
        })
        .collect()
}

fn bench_qgemm(c: &mut Criterion) {
    parallel::set_max_threads(1);
    let mut g = c.benchmark_group("int8_gemm");
    let a = ti8(31 * 64, 1);
    let b = ti8(256 * 64, 2);
    g.bench_function("qkv_31x64x256", |bench| {
        bench.iter(|| black_box(qgemm_i32(&a, &b, None, 31, 64, 256)))
    });
    // fp32 reference of the same shape.
    let af = Tensor::from_fn(&[31, 64], |i| (i % 13) as f32 - 6.0);
    let bf = Tensor::from_fn(&[256, 64], |i| (i % 7) as f32 - 3.0);
    g.bench_function("fp32_reference_31x64x256", |bench| {
        bench.iter(|| black_box(af.matmul_nt(&bf)))
    });
    g.finish();
}

/// bio1's weight products as `(label, rows, k, n)`.
const WEIGHT_SHAPES: [(&str, usize, usize, usize); 5] = [
    ("patch_30x140x64", 30, 140, 64),
    ("qkv_31x64x256", 31, 64, 256),
    ("wo_31x256x64", 31, 256, 64),
    ("fc1_31x64x128", 31, 64, 128),
    ("fc2_31x128x64", 31, 128, 64),
];

fn bench_packed(c: &mut Criterion) {
    parallel::set_max_threads(1);
    let mut g = c.benchmark_group("int8_packed");
    let mult = FixedMultiplier::encode(0.0037);
    let kernel = kernels().qgemm_packed;
    for (label, m, k, n) in WEIGHT_SHAPES {
        let a = ti8(m * k, 3);
        let w = ti8(n * k, 4);
        let bias: Vec<i32> = (0..n as i32).map(|j| 40 * j - 900).collect();
        let packed = PackedQB::from_rows(&w, n, k, Some(&bias));
        let mut out = vec![0i8; m * n];
        g.bench_function(&format!("packed_{label}"), |bench| {
            bench.iter(|| {
                let rq = mult.requant(0);
                let store = QOut::Rows {
                    out: &mut out,
                    ld: n,
                    rq,
                };
                kernel(QMat::dense(black_box(&a), k), m, &packed, store);
                black_box(out[0])
            })
        });
        g.bench_function(&format!("rowmajor_{label}"), |bench| {
            bench.iter(|| {
                qgemm_requant_into(black_box(&a), &w, Some(&bias), m, k, n, mult, 0, &mut out);
                black_box(out[0])
            })
        });
    }
    g.finish();
}

fn bench_integer_nonlinear(c: &mut Criterion) {
    let mut g = c.benchmark_group("int8_nonlinear");
    // A score scale of the size bio1's calibrated attention produces.
    let sm = ISoftmax::new(1e-4);
    let scores: Vec<i32> = (0..31).map(|i| (i * 3701 % 70_001) - 35_000).collect();
    let mut out = vec![0i8; 31];
    g.bench_function("i_softmax_row31", |bench| {
        bench.iter(|| {
            sm.apply_row(black_box(&scores), &mut out);
            black_box(out[0])
        })
    });
    g.bench_function("i_softmax_row31_scalar", |bench| {
        bench.iter(|| {
            sm.apply_row_scalar(black_box(&scores), &mut out);
            black_box(out[0])
        })
    });

    let ln = ILayerNorm::new(&[1.0f32; 64], &[0.0f32; 64], QParams::symmetric(4.0));
    let row = ti8(64, 3);
    let mut lnout = vec![0i8; 64];
    g.bench_function("i_layernorm_row64", |bench| {
        bench.iter(|| {
            ln.apply_row(black_box(&row), &mut lnout);
            black_box(lnout[0])
        })
    });
    g.bench_function("i_layernorm_row64_scalar", |bench| {
        bench.iter(|| {
            ln.apply_row_scalar(black_box(&row), &mut lnout);
            black_box(lnout[0])
        })
    });

    let gelu = IGelu::new(0.03, QParams::symmetric(4.0));
    g.bench_function("i_gelu_128elems", |bench| {
        bench.iter(|| {
            let mut acc = 0i32;
            for i in 0..128i32 {
                acc += gelu.apply(black_box((i - 64) as i8)) as i32;
            }
            black_box(acc)
        })
    });
    let table = gelu.table();
    g.bench_function("i_gelu_128elems_table", |bench| {
        bench.iter(|| {
            let mut acc = 0i32;
            for i in 0..128i32 {
                acc += table[black_box((i - 64) as i8) as u8 as usize] as i32;
            }
            black_box(acc)
        })
    });
    g.finish();
}

criterion_group!(benches, bench_qgemm, bench_packed, bench_integer_nonlinear);
criterion_main!(benches);
