//! Property-based parity between the SIMD microkernel tiers and their
//! portable oracles.
//!
//! Two layers of guarantee, both randomized over ragged shapes (`m`, `k`,
//! `n` including 0, 1 and non-multiples of the tile):
//!
//! * **Tile level** — every selectable tier ([`Tier::Avx2`], [`Tier::Vnni`]
//!   for int8; FMA/AVX-512 for fp32) is compared against the portable tier
//!   obtained from the same dispatch table via `select(Some(Tier))`, all in
//!   one process. int8 must be **bit-exact** (the kernels are integer
//!   arithmetic with a mathematically exact lowering); fp32 within `1e-4`
//!   relative (FMA skips the product rounding, so the last bits differ).
//! * **GEMM level** — the public `qgemm_*` entry points (which run through
//!   whatever tier the runtime dispatcher picked on this host) are compared
//!   bit-exactly against naive widened-i32 references, covering both
//!   zero-point paths and the fused-requantize stores.
//! * **Packed level** — the packed-weight GEMM and the whole-GEMM kernels
//!   of every tier `select` reaches, against the triple loop plus scalar
//!   requantization, in every store form.
//! * **Operator level** — the SIMD bodies of the integer softmax and
//!   LayerNorm against their scalar definitions, on random rows and on the
//!   rows the scalar code special-cases; the GELU table against
//!   `IGelu::apply` on all 256 codes.
//!
//! On a host without AVX2 the `select` calls clamp to portable and the tile
//! tests degenerate to portable-vs-portable — trivially green, by design:
//! the CI `portable-fallback` job pins `BIOFORMER_SIMD=portable` to run the
//! GEMM-level tests against the scalar tier explicitly.

use bioformers::quant::ibert::{IGelu, ILayerNorm, ISoftmax};
use bioformers::quant::kernels::{
    qgemm_i32, qgemm_i32_zp, qgemm_nt_into, qgemm_requant_into, requantize_vec,
};
use bioformers::quant::requant::FixedMultiplier;
use bioformers::quant::QParams;
use bioformers::simd::{select, Kernels, PackedQB, QMat, QOut, Requant, Tier, MR, NR, QNR};
use bioformers::tensor::pack::{matmul_packed_into, Epilogue};
use bioformers::tensor::Tensor;
use proptest::prelude::*;

/// Naive widened reference: `C[i,j] = Σ_k (A[i,k]−za)(B[j,k]−zb) + bias`.
#[allow(clippy::too_many_arguments)]
fn qgemm_reference(
    a: &[i8],
    za: i32,
    b: &[i8],
    zb: i32,
    bias: Option<&[i32]>,
    m: usize,
    k: usize,
    n: usize,
) -> Vec<i32> {
    let mut out = vec![0i32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0i32;
            for p in 0..k {
                acc += (a[i * k + p] as i32 - za) * (b[j * k + p] as i32 - zb);
            }
            out[i * n + j] = acc + bias.map_or(0, |bias| bias[j]);
        }
    }
    out
}

/// The vendored proptest shim has no i8 strategy; draw i32 and narrow.
fn codes(len: usize) -> impl Strategy<Value = Vec<i32>> {
    proptest::collection::vec(-128i32..128, len..len + 1)
}

fn narrow(v: &[i32]) -> Vec<i8> {
    v.iter().map(|&x| x as i8).collect()
}

fn floats(len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-1.0f32..1.0, len..len + 1)
}

/// Every kernel table `select` can resolve to on this host.
fn tiers() -> [Kernels; 4] {
    [
        select(Some(Tier::Portable)),
        select(Some(Tier::Avx2)),
        select(Some(Tier::Vnni)),
        select(None),
    ]
}

/// `want[i·n + j] = Σ_k a[i·lda + k]·w[j·k..] + bias[j]` — the triple loop.
fn gemm_reference(
    a: &[i8],
    lda: usize,
    w: &[i8],
    bias: Option<&[i32]>,
    m: usize,
    k: usize,
    n: usize,
) -> Vec<i32> {
    let mut out = vec![0i32; m * n];
    for i in 0..m {
        for j in 0..n {
            let dot: i32 = (0..k)
                .map(|p| a[i * lda + p] as i32 * w[j * k + p] as i32)
                .sum();
            out[i * n + j] = dot + bias.map_or(0, |b| b[j]);
        }
    }
    out
}

/// Runs `kernel` (which stores an `m×n` product through the `QOut` it is
/// given) in all three store forms and checks each against `want`.
fn check_store_forms(
    label: &str,
    want: &[i32],
    m: usize,
    n: usize,
    rq: Requant,
    mut kernel: impl FnMut(QOut<'_>),
) {
    let mut acc = vec![i32::MIN; m * n];
    kernel(QOut::Acc {
        out: &mut acc,
        ld: n,
    });
    prop_assert_eq!(&acc[..], want, "{}: accumulators", label);

    // Row-major codes at a stride wider than n: the gap must stay intact.
    let ld = n + 3;
    let mut rows = vec![77i8; m * ld];
    kernel(QOut::Rows {
        out: &mut rows,
        ld,
        rq,
    });
    for i in 0..m {
        for j in 0..ld {
            let expect = if j < n { rq.to_i8(want[i * n + j]) } else { 77 };
            prop_assert_eq!(rows[i * ld + j], expect, "{}: rows[{}][{}]", label, i, j);
        }
    }

    let ld = m + 2;
    let mut cols = vec![77i8; n * ld];
    kernel(QOut::Cols {
        out: &mut cols,
        ld,
        rq,
    });
    for j in 0..n {
        for i in 0..ld {
            let expect = if i < m { rq.to_i8(want[i * n + j]) } else { 77 };
            prop_assert_eq!(cols[j * ld + i], expect, "{}: cols[{}][{}]", label, j, i);
        }
    }
}

/// The shapes random draws rarely hit: bio1's five weight products
/// (ragged `k = 140` among them), `n` not a multiple of the 8-lane
/// register or the 16-column panel, `m` not a multiple of the 4-row block.
const PACKED_SHAPES: [(usize, usize, usize); 9] = [
    (30, 140, 64),
    (31, 64, 256),
    (31, 256, 64),
    (31, 64, 128),
    (31, 128, 64),
    (1, 64, 8),
    (5, 33, 23),
    (7, 12, 40),
    (2, 3, 1),
];

/// Deterministic codes for the fixed-shape tests.
fn fixed_codes(len: usize, seed: u64) -> Vec<i8> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 40) as i8
        })
        .collect()
}

#[test]
fn packed_gemm_is_bit_exact_at_the_model_shapes() {
    let rq = FixedMultiplier::encode(0.0041).requant(-2);
    for (m, k, n) in PACKED_SHAPES {
        let a = fixed_codes(m * k, 11 + k as u64);
        let w = fixed_codes(n * k, 13 + n as u64);
        let bias: Vec<i32> = (0..n as i32).map(|j| 3000 - 97 * j).collect();
        for bias in [None, Some(bias.as_slice())] {
            let packed = PackedQB::from_rows(&w, n, k, bias);
            let want = gemm_reference(&a, k, &w, bias, m, k, n);
            for kernels in tiers() {
                let label = format!("{} ({m},{k},{n})", kernels.name);
                check_store_forms(&label, &want, m, n, rq, |out| {
                    (kernels.qgemm_packed)(QMat::dense(&a, k), m, &packed, out)
                });
            }
        }
    }
}

/// The rows the scalar softmax special-cases, on every tier.
#[test]
fn softmax_edge_rows_match_scalar() {
    let rows: Vec<Vec<i32>> = vec![
        vec![0; 31],                    // all-equal scores
        vec![i32::MIN / 4; 4],          // hugely negative, equal
        vec![i32::MIN / 4, 0, -5, 100], // spread just inside the lanes' range
        vec![-(1 << 30) - 5, 100, 0],   // spread past it: the lanes decline
        vec![7],                        // one element
        (0..31).map(|i| i * 1000 - 15_000).collect(),
        (0..128).map(|i| (i * 7919) % 4001 - 2000).collect(), // at the cap
        (0..129).map(|i| (i * 7919) % 4001 - 2000).collect(), // over the cap
        (0..13).map(|i| -(i * i * 900)).collect(),            // ragged width
    ];
    // 2.0 makes every exponential zero: the `sum ≤ 0` uniform fallback.
    for scale in [9e-5, 1.0 / 1024.0, 1e-3, 0.05, 2.0, 1e-6] {
        let softmax = ISoftmax::new(scale);
        for row in &rows {
            let mut want = vec![0i8; row.len()];
            softmax.apply_row_scalar(row, &mut want);
            for kernels in tiers() {
                let mut got = vec![-1i8; row.len()];
                softmax.apply_row_with(&kernels, row, &mut got);
                assert_eq!(got, want, "{} scale {scale} row {row:?}", kernels.name);
            }
        }
    }
}

/// The rows the scalar LayerNorm special-cases, on every tier.
#[test]
fn layernorm_edge_rows_match_scalar() {
    for width in [64usize, 24, 8, 7, 1, 100] {
        let gamma: Vec<f32> = (0..width).map(|i| 0.6 + 0.013 * i as f32).collect();
        let beta: Vec<f32> = (0..width).map(|i| 0.4 - 0.02 * i as f32).collect();
        let norm = ILayerNorm::new(&gamma, &beta, QParams::symmetric(3.0));
        let rows: Vec<Vec<i8>> = vec![
            vec![42; width], // constant row: std clamps to 1
            vec![-128; width],
            (0..width)
                .map(|i| if i % 2 == 0 { 127 } else { -128 })
                .collect(),
            (0..width)
                .map(|i| (i as i32 * 37 % 256 - 128) as i8)
                .collect(),
            (0..width).map(|i| (i == 0) as i8).collect(), // variance rounds to 0
        ];
        for row in &rows {
            let mut want = vec![0i8; width];
            norm.apply_row_scalar(row, &mut want);
            for kernels in tiers() {
                let mut got = vec![-1i8; width];
                norm.apply_row_with(&kernels, row, &mut got);
                assert_eq!(got, want, "{} width {width} row {row:?}", kernels.name);
            }
        }
    }
}

/// A β too large for the i32 lanes must keep the scalar element pass.
#[test]
fn layernorm_with_huge_beta_stays_exact() {
    let norm = ILayerNorm::new(&[1e-3; 16], &[40.0; 16], QParams::symmetric(50.0));
    let row: Vec<i8> = (0..16).map(|i| (i * 9 - 70) as i8).collect();
    let mut want = vec![0i8; 16];
    norm.apply_row_scalar(&row, &mut want);
    for kernels in tiers() {
        let mut got = vec![-1i8; 16];
        norm.apply_row_with(&kernels, &row, &mut got);
        assert_eq!(got, want, "{}", kernels.name);
    }
}

#[test]
fn gelu_table_matches_apply_on_every_code() {
    for (s_in, out) in [
        (0.03, QParams::symmetric(4.0)),
        (1.0 / 127.0, QParams::unit()),
        (0.11, QParams::affine(-0.2, 6.0)),
    ] {
        let gelu = IGelu::new(s_in, out);
        let table = gelu.table();
        for code in i8::MIN..=i8::MAX {
            assert_eq!(table[code as u8 as usize], gelu.apply(code), "code {code}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The packed-weight GEMM of every tier is bit-exact against the
    /// triple loop plus scalar requantization, over ragged shapes, a
    /// strided `A`, with and without bias, in every store form.
    #[test]
    fn packed_gemm_matches_scalar_oracle(
        m in 0usize..10,
        k in 0usize..70,
        n in 1usize..37,
        pad in 0usize..5,
        with_bias in 0usize..2,
        mult in 1e-4f64..1.9,
        zp in -20i32..20,
        a in codes(10 * 75),
        w in codes(37 * 70),
        bias in proptest::collection::vec(-100_000i32..100_000, 37..38),
    ) {
        let lda = k + pad;
        let a = narrow(&a[..m * lda]);
        let w = narrow(&w[..n * k]);
        let bias = (with_bias == 1).then_some(&bias[..n]);
        let rq = FixedMultiplier::encode(mult).requant(zp);
        let packed = PackedQB::from_rows(&w, n, k, bias);
        let want = gemm_reference(&a, lda, &w, bias, m, k, n);
        for kernels in tiers() {
            let label = format!("{} ({m},{k},{n})", kernels.name);
            check_store_forms(&label, &want, m, n, rq, |out| {
                (kernels.qgemm_packed)(QMat { data: &a, ld: lda }, m, &packed, out)
            });
        }
    }

    /// The row-major driver of every tier — as dispatched, and with the
    /// whole-GEMM kernel removed so the dot-tile fallback that serves every
    /// shape beyond the caps runs — is bit-exact over strided operands: one
    /// attention head read in place out of a wider projection.
    #[test]
    fn strided_nt_gemm_matches_scalar_oracle(
        m in 0usize..9,
        k in 0usize..70,
        n in 1usize..21,
        pad_a in 0usize..40,
        pad_b in 0usize..40,
        with_bias in 0usize..2,
        mult in 1e-4f64..1.9,
        a in codes(9 * 110),
        b in codes(21 * 110),
        bias in proptest::collection::vec(-100_000i32..100_000, 21..22),
    ) {
        let (lda, ldb) = (k + pad_a, k + pad_b);
        let a = narrow(&a[..m * lda]);
        let b = narrow(&b[..n * ldb]);
        let bias = (with_bias == 1).then_some(&bias[..n]);
        let rq = FixedMultiplier::encode(mult).requant(0);
        // Dense copy of B for the reference loop.
        let dense: Vec<i8> = (0..n).flat_map(|j| b[j * ldb..j * ldb + k].to_vec()).collect();
        let want = gemm_reference(&a, lda, &dense, bias, m, k, n);
        for tier in tiers() {
            let tile_only = Kernels { qgemm_nt: None, ..tier };
            for (path, kernels) in [("dispatched", tier), ("tile", tile_only)] {
                let label = format!("{} {path} ({m},{k},{n})", tier.name);
                check_store_forms(&label, &want, m, n, rq, |out| {
                    let (a, b) = (QMat { data: &a, ld: lda }, QMat { data: &b, ld: ldb });
                    qgemm_nt_into(&kernels, a, b, bias, m, k, n, out)
                });
            }
        }
    }

    /// The SIMD softmax body equals the scalar operator on random rows of
    /// every width up to the staging cap, at scales on both sides of the
    /// 32-bit-lane eligibility line.
    #[test]
    fn softmax_lanes_match_scalar(
        width in 1usize..70,
        scale_exp in 0usize..5,
        spread in 1i32..2_000_000,
        raw in proptest::collection::vec(-1_000_000i32..1_000_000, 70..71),
    ) {
        let scale = [2e-5, 9e-5, 1e-3, 0.02, 0.7][scale_exp];
        let softmax = ISoftmax::new(scale);
        let row: Vec<i32> = raw[..width].iter().map(|&v| v % spread).collect();
        let mut want = vec![0i8; width];
        softmax.apply_row_scalar(&row, &mut want);
        for kernels in tiers() {
            let mut got = vec![-1i8; width];
            softmax.apply_row_with(&kernels, &row, &mut got);
            prop_assert_eq!(&got, &want, "{} scale {}", kernels.name, scale);
        }
    }

    /// The SIMD LayerNorm element pass equals the scalar operator on
    /// random rows, including widths that are not a lane multiple.
    #[test]
    fn layernorm_lanes_match_scalar(
        width in 1usize..80,
        out_absmax in 0.5f32..8.0,
        zp in -10i32..10,
        raw in codes(80),
        gamma in floats(80),
        beta in floats(80),
    ) {
        let out = QParams { zero_point: zp, ..QParams::symmetric(out_absmax) };
        let norm = ILayerNorm::new(&gamma[..width], &beta[..width], out);
        let row = narrow(&raw[..width]);
        let mut want = vec![0i8; width];
        norm.apply_row_scalar(&row, &mut want);
        for kernels in tiers() {
            let mut got = vec![-1i8; width];
            norm.apply_row_with(&kernels, &row, &mut got);
            prop_assert_eq!(&got, &want, "{} width {}", kernels.name, width);
        }
    }

    /// Every int8 tier computes bit-identical dot tiles, and leaves the
    /// lanes beyond `jw` untouched.
    #[test]
    fn int8_tiers_are_bit_exact(
        k in 0usize..130,
        jw in 1usize..(QNR + 1),
        a in codes(130),
        b in codes(4 * 130),
    ) {
        let a = narrow(&a[..k]);
        let b = narrow(&b[..jw * k]);
        let (a, b) = (a.as_slice(), b.as_slice());

        let portable = select(Some(Tier::Portable));
        prop_assert!(portable.portable);
        let mut want = [i32::MIN; QNR];
        (portable.qdot_tile)(a, b, k, jw, &mut want);

        for tier in [Tier::Avx2, Tier::Vnni] {
            let kernels = select(Some(tier));
            let mut got = [i32::MIN; QNR];
            (kernels.qdot_tile)(a, b, k, jw, &mut got);
            prop_assert_eq!(
                &got[..jw], &want[..jw],
                "tier {} disagrees with portable (k={}, jw={})",
                kernels.name, k, jw
            );
            for (lane, &g) in got.iter().enumerate().skip(jw) {
                prop_assert_eq!(g, i32::MIN, "lane {} clobbered", lane);
            }
        }
    }

    /// Every fp32 tier matches the portable tile within 1e-4 relative, and
    /// leaves accumulator rows beyond `mr` untouched.
    #[test]
    fn fp32_tiers_are_close(
        k in 0usize..70,
        mr in 1usize..(MR + 1),
        a in floats(4 * 70),
        panel in floats(70 * NR),
    ) {
        let a = &a[..mr * k];
        let panel = &panel[..k * NR];

        let portable = select(Some(Tier::Portable));
        let mut want = [[0.0f32; NR]; MR];
        (portable.fp32_tile)(a, k, panel, mr, &mut want);

        for tier in [Tier::Avx2, Tier::Vnni] {
            let kernels = select(Some(tier));
            let mut got = [[f32::NAN; NR]; MR];
            (kernels.fp32_tile)(a, k, panel, mr, &mut got);
            for i in 0..mr {
                for j in 0..NR {
                    let (g, w) = (got[i][j], want[i][j]);
                    prop_assert!(
                        (g - w).abs() <= 1e-4 * (1.0 + w.abs()),
                        "tier {} acc[{}][{}]: {} vs {} (k={}, mr={})",
                        kernels.name, i, j, g, w, k, mr
                    );
                }
            }
            for row in got.iter().skip(mr) {
                prop_assert!(row.iter().all(|v| v.is_nan()), "dead row written");
            }
        }
    }

    /// The dispatched int8 GEMM is bit-exact against the naive widened
    /// reference across ragged shapes, with and without bias.
    #[test]
    fn qgemm_matches_scalar_oracle(
        m in 0usize..7,
        k in 0usize..60,
        n in 0usize..14,
        with_bias in 0usize..2,
        a in codes(7 * 60),
        b in codes(14 * 60),
        bias in proptest::collection::vec(-1000i32..1000, 14..15),
    ) {
        let a = narrow(&a[..m * k]);
        let b = narrow(&b[..n * k]);
        let (a, b) = (a.as_slice(), b.as_slice());
        let bias = (with_bias == 1).then_some(&bias[..n]);
        let want = qgemm_reference(a, 0, b, 0, bias, m, k, n);
        let got = qgemm_i32(a, b, bias, m, k, n);
        prop_assert_eq!(got, want);
    }

    /// The zero-point-corrected path is bit-exact against the widened
    /// reference for arbitrary (asymmetric) zero points.
    #[test]
    fn qgemm_zp_matches_widened_reference(
        m in 0usize..6,
        k in 0usize..40,
        n in 0usize..10,
        za in -128i32..128,
        zb in -128i32..128,
        a in codes(6 * 40),
        b in codes(10 * 40),
    ) {
        let a = narrow(&a[..m * k]);
        let b = narrow(&b[..n * k]);
        let (a, b) = (a.as_slice(), b.as_slice());
        let want = qgemm_reference(a, za, b, zb, None, m, k, n);
        let got = qgemm_i32_zp(a, za, b, zb, None, m, k, n);
        prop_assert_eq!(got, want);
    }

    /// The fused requantizing store is bit-identical to accumulate-then-
    /// requantize, for arbitrary multipliers and zero points.
    #[test]
    fn fused_requant_matches_two_pass(
        m in 1usize..5,
        k in 0usize..40,
        n in 1usize..10,
        mult in 1e-4f64..4.0,
        zp in -20i32..20,
        a in codes(5 * 40),
        b in codes(10 * 40),
    ) {
        let a = narrow(&a[..m * k]);
        let b = narrow(&b[..n * k]);
        let (a, b) = (a.as_slice(), b.as_slice());
        let mult = FixedMultiplier::encode(mult);
        let want = requantize_vec(&qgemm_i32(a, b, None, m, k, n), mult, zp);
        let mut got = vec![0i8; m * n];
        qgemm_requant_into(a, b, None, m, k, n, mult, zp, &mut got);
        prop_assert_eq!(got, want);
    }

    /// The packed fp32 GEMM (through the dispatched tile) tracks a naive
    /// f64-accumulated reference across ragged shapes.
    #[test]
    fn packed_matmul_matches_naive(
        m in 1usize..6,
        k in 0usize..40,
        n in 1usize..20,
        a in floats(6 * 40),
        b in floats(40 * 20),
    ) {
        let at = Tensor::from_vec(a[..m * k].to_vec(), &[m, k]);
        let bt = Tensor::from_vec(b[..k * n].to_vec(), &[k, n]);
        let mut out = vec![f32::NAN; m * n];
        let mut scratch = Vec::new();
        matmul_packed_into(&at, &bt, &mut scratch, &mut out, Epilogue::None);
        for i in 0..m {
            for j in 0..n {
                let want: f64 = (0..k)
                    .map(|p| at.data()[i * k + p] as f64 * bt.data()[p * n + j] as f64)
                    .sum();
                let got = out[i * n + j] as f64;
                prop_assert!(
                    (got - want).abs() <= 1e-4 * (1.0 + want.abs()),
                    "C[{}][{}]: {} vs {}", i, j, got, want
                );
            }
        }
    }
}
