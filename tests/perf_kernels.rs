//! Property tests pinning the packed/blocked inference kernels against
//! naive references, and the arena-threaded forwards against the plain
//! ones.
//!
//! The perf rework rebuilt the fp32 GEMM (panel packing + register tiling +
//! fused epilogues), the int8 GEMM (tiled accumulators + fused requantize)
//! and every `forward_infer` path (arena scratch). These tests are the
//! contract that none of it changed the numbers:
//!
//! * packed fp32 == naive triple loop within 1e-4 over random shapes,
//!   including 0/1/non-tile-multiple dims;
//! * blocked int8 == naive triple loop **bit-for-bit** (integer arithmetic
//!   is associative);
//! * the register-tiled weight-gradient kernel == its old one-row loop
//!   **bit-for-bit** on every tier, through ±0, subnormal and non-finite
//!   values and across thread splits;
//! * arena forwards == plain forwards bit-for-bit, including across arena
//!   reuse (no buffer contamination between calls).

use bioformers::core::{Bioformer, BioformerConfig};
use bioformers::nn::InferForward;
use bioformers::quant::kernels::{qgemm_i32, qgemm_i32_zp, qgemm_requant_into, requantize_vec};
use bioformers::quant::requant::FixedMultiplier;
use bioformers::simd::tn::{tn_avx512, tn_portable};
use bioformers::simd::TnLhs;
use bioformers::tensor::matmul::{
    matmul, matmul_naive, matmul_nt, matmul_nt_naive, matmul_tn_into, matmul_tn_naive,
    matmul_tn_strided_into, matvec,
};
use bioformers::tensor::{parallel, Tensor, TensorArena};
use proptest::prelude::*;

fn filled(dims: &[usize], seed: u64) -> Tensor {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    Tensor::from_fn(dims, |_| {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        ((state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 40) as f32 / (1u64 << 24) as f32) - 0.5
    })
}

fn qfilled(len: usize, seed: u64) -> Vec<i8> {
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

/// Reference int8 GEMM: the plain triple loop the blocked kernel replaced.
fn qgemm_reference(
    a: &[i8],
    b: &[i8],
    bias: Option<&[i32]>,
    m: usize,
    k: usize,
    n: usize,
) -> Vec<i32> {
    let mut out = vec![0i32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = bias.map_or(0, |bias| bias[j]);
            for kk in 0..k {
                acc += a[i * k + kk] as i32 * b[j * k + kk] as i32;
            }
            out[i * n + j] = acc;
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Packed fp32 `A·B` tracks the naive kernel within 1e-4 over random
    /// shapes, including empty and sub-tile dims (the tile size is 4×16,
    /// so 0, 1 and 17-ish dims exercise every remainder path).
    #[test]
    fn packed_matmul_matches_naive(m in 0usize..40, k in 0usize..70, n in 0usize..40, seed in 0u64..1000) {
        let a = filled(&[m, k], seed);
        let b = filled(&[k, n], seed.wrapping_add(1));
        let packed = matmul(&a, &b);
        let naive = matmul_naive(&a, &b);
        prop_assert!(packed.allclose(&naive, 1e-4), "({m},{k},{n}) diverges");
    }

    /// Packed fp32 `A·Bᵀ` (the linear-layer layout) tracks its naive
    /// reference within 1e-4.
    #[test]
    fn packed_matmul_nt_matches_naive(m in 0usize..40, k in 0usize..70, n in 0usize..40, seed in 0u64..1000) {
        let a = filled(&[m, k], seed);
        let bt = filled(&[n, k], seed.wrapping_add(2));
        let packed = matmul_nt(&a, &bt);
        let naive = matmul_nt_naive(&a, &bt);
        prop_assert!(packed.allclose(&naive, 1e-4), "({m},{k},{n}) diverges");
    }

    /// `matvec` agrees with `matmul` against a column vector (the
    /// satellite fix: it now shares the unrolled dot kernel).
    #[test]
    fn matvec_matches_matmul_column(m in 1usize..40, k in 1usize..70, seed in 0u64..1000) {
        let a = filled(&[m, k], seed);
        let v = filled(&[k], seed.wrapping_add(3));
        let mv = matvec(&a, &v);
        let mm = matmul(&a, &v.reshape(&[k, 1]));
        for i in 0..m {
            prop_assert!((mv.data()[i] - mm.data()[i]).abs() < 1e-4, "row {i}");
        }
    }

    /// Blocked int8 GEMM is bit-for-bit the naive triple loop, bias
    /// included, over random shapes with 0/1/non-tile-multiple dims.
    #[test]
    fn blocked_int8_gemm_is_bit_exact(m in 0usize..24, k in 0usize..48, n in 0usize..24, seed in 0u64..1000) {
        let a = qfilled(m * k, seed);
        let b = qfilled(n * k, seed.wrapping_add(4));
        let bias: Vec<i32> = (0..n as i32).map(|j| j * 31 - 64).collect();
        prop_assert_eq!(
            qgemm_i32(&a, &b, Some(&bias), m, k, n),
            qgemm_reference(&a, &b, Some(&bias), m, k, n)
        );
    }

    /// Fused requantize-at-store is bit-for-bit accumulate-then-requantize
    /// for arbitrary multipliers and zero points.
    #[test]
    fn fused_requant_is_bit_exact(
        m in 1usize..16, k in 1usize..48, n in 1usize..24,
        mult in 1e-4f64..0.5, zp in -20i32..20, seed in 0u64..1000,
    ) {
        let a = qfilled(m * k, seed);
        let b = qfilled(n * k, seed.wrapping_add(5));
        let fm = FixedMultiplier::encode(mult);
        let two_pass = requantize_vec(&qgemm_i32(&a, &b, None, m, k, n), fm, zp);
        let mut fused = vec![0i8; m * n];
        qgemm_requant_into(&a, &b, None, m, k, n, fm, zp, &mut fused);
        prop_assert_eq!(fused, two_pass);
    }

    /// The zero-point correction-sum expansion equals offsetting every
    /// operand in the inner loop.
    #[test]
    fn zero_point_sums_are_exact(
        m in 1usize..12, k in 1usize..32, n in 1usize..12,
        za in -128i32..128, zb in -128i32..128, seed in 0u64..1000,
    ) {
        let a = qfilled(m * k, seed);
        let b = qfilled(n * k, seed.wrapping_add(6));
        let got = qgemm_i32_zp(&a, za, &b, zb, None, m, k, n);
        for i in 0..m {
            for j in 0..n {
                let mut want = 0i64;
                for kk in 0..k {
                    want += (a[i * k + kk] as i64 - za as i64) * (b[j * k + kk] as i64 - zb as i64);
                }
                prop_assert_eq!(got[i * n + j] as i64, want, "({},{})", i, j);
            }
        }
    }
}

/// A 64-bit mix of `(seed, i)` (splitmix64's finaliser).
fn mix(seed: u64, i: usize) -> u64 {
    let mut z = seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `len` floats for the weight-gradient tests: ordinary values with about
/// `zeros` in 8 replaced by `+0` or `−0`, and one in 16 by a subnormal.
fn grad_filled(len: usize, seed: u64, zeros: u64) -> Vec<f32> {
    let base = filled(&[len], seed);
    (0..len)
        .map(|i| {
            let h = mix(seed, i);
            let sign = if h & (1 << 40) == 0 { 1.0f32 } else { -1.0 };
            if h % 8 < zeros {
                0.0 * sign
            } else if (h >> 8).is_multiple_of(16) {
                sign * f32::from_bits(1 + ((h >> 16) as u32 & 0x007f_ffff))
            } else {
                base.data()[i]
            }
        })
        .collect()
}

/// Zeroes whole `mm` rows (every multiplier of one step) and whole `kk`
/// columns (every term of one output row) of a row-major `a[m, k]`.
fn zero_lines(a: &mut [f32], m: usize, k: usize, seed: u64) {
    for mm in 0..m {
        if mix(seed, mm).is_multiple_of(5) {
            a[mm * k..(mm + 1) * k].fill(0.0);
        }
    }
    for kk in 0..k {
        if mix(seed ^ 0xC0FFEE, kk).is_multiple_of(7) {
            for mm in 0..m {
                a[mm * k + kk] = -0.0;
            }
        }
    }
}

/// Bit equality, except that two NaNs match whatever their payloads (Rust
/// leaves the payload of an operation on NaNs unspecified).
fn same_bits(x: f32, y: f32) -> bool {
    x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
}

/// Runs every way of computing `out = aᵀ·b` — the dispatched kernel, the
/// strided entry on a transposed copy of `a`, and each tier's kernel with
/// and without per-term skipping (`exact` is mandatory only for a
/// non-finite `b`) — and checks each against the old loop.
fn assert_tn_matches_naive(a: &[f32], m: usize, k: usize, b: &[f32], n: usize) {
    let mut want = vec![0.0f32; k * n];
    matmul_tn_naive(a, m, k, b, n, &mut want);
    let check = |got: &[f32], what: &str| {
        for (i, (&g, &w)) in got.iter().zip(&want).enumerate() {
            assert!(
                same_bits(g, w),
                "{what} ({m},{k},{n}) out[{}, {}]: {g:e} ({:#010x}) vs {w:e} ({:#010x})",
                i / n.max(1),
                i % n.max(1),
                g.to_bits(),
                w.to_bits()
            );
        }
    };
    let mut got = vec![f32::NAN; k * n];
    matmul_tn_into(a, m, k, b, n, &mut got);
    check(&got, "matmul_tn_into");

    let mut a_t = vec![0.0f32; m * k];
    for mm in 0..m {
        for kk in 0..k {
            a_t[kk * m + mm] = a[mm * k + kk];
        }
    }
    let mut got = vec![f32::NAN; k * n];
    matmul_tn_strided_into(&a_t, (1, m), m, k, b, n, &mut got);
    check(&got, "strided [k, m]");

    if n == 0 {
        return;
    }
    let finite = b.iter().all(|v| v.is_finite());
    let lhs = TnLhs {
        a,
        s_m: k,
        s_k: 1,
        m,
    };
    for (tn, name) in [
        (tn_portable as bioformers::simd::Fp32TnFn, "portable"),
        (tn_avx512, "avx512"),
    ] {
        for exact in [true, false] {
            if !exact && !finite {
                continue;
            }
            let mut got = vec![f32::NAN; k * n];
            tn(lhs, 0, b, n, exact, &mut got);
            check(&got, &format!("{name} exact={exact}"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The tiled weight-gradient kernel returns the old loop's bits over
    /// random shapes (row and column tails of every width), with ±0 and
    /// subnormal values in both operands, zeroed steps and zeroed output
    /// rows.
    #[test]
    fn tiled_matmul_tn_is_the_naive_loop_bit_for_bit(
        m in 0usize..70, k in 0usize..40, n in 0usize..150, zeros in 0u64..8, seed in 0u64..1000,
    ) {
        let mut a = grad_filled(m * k, seed, zeros);
        zero_lines(&mut a, m, k, seed);
        let b = grad_filled(m * n, seed.wrapping_add(7), zeros / 2);
        assert_tn_matches_naive(&a, m, k, &b, n);
    }

    /// Infinities and NaNs in `b` behind zero multipliers stay skipped
    /// (`0·∞` would be NaN), and those behind live multipliers reach the
    /// same outputs as in the old loop.
    #[test]
    fn non_finite_rhs_keeps_the_naive_bits(
        m in 1usize..40, k in 1usize..24, n in 1usize..90, seed in 0u64..1000,
    ) {
        let mut a = grad_filled(m * k, seed, 2);
        let mut b = grad_filled(m * n, seed.wrapping_add(9), 1);
        let specials = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
        for mm in 0..m {
            let h = mix(seed, mm);
            if !h.is_multiple_of(3) {
                continue;
            }
            b[mm * n + (h >> 8) as usize % n] = specials[(h >> 16) as usize % 3];
            // Mostly zero multipliers at this step; one in four live.
            for kk in 0..k {
                if !mix(h, kk).is_multiple_of(4) {
                    a[mm * k + kk] = if kk % 2 == 0 { 0.0 } else { -0.0 };
                }
            }
        }
        assert_tn_matches_naive(&a, m, k, &b, n);
    }
}

/// The training shapes, `m = 1` (a class-row head) and `m = 30` (a patch
/// `dW`), and `n`/`k` on both sides of the 4 × 64 tile, on dense and sparse
/// gradients.
#[test]
fn matmul_tn_training_shapes_are_bit_exact() {
    let shapes = [
        (1, 31, 8),
        (1, 64, 64),
        (1, 8, 48),
        (30, 64, 140),
        (30, 3, 17),
        (248, 256, 64),
        (248, 64, 256),
        (150, 32, 42),
        (75, 128, 192),
        (16, 8, 2432),
        (5, 37, 63),
        (9, 5, 65),
    ];
    for (i, &(m, k, n)) in shapes.iter().enumerate() {
        for zeros in [0, 3, 8] {
            let seed = 100 + i as u64;
            let mut a = grad_filled(m * k, seed, zeros);
            if zeros == 3 {
                zero_lines(&mut a, m, k, seed);
            }
            let b = grad_filled(m * n, seed + 1, 1);
            assert_tn_matches_naive(&a, m, k, &b, n);
        }
    }
}

/// Split across threads, output rows start mid-tile (37 rows in shards of
/// 13): each shard's bits are still the old loop's, and the same as on one
/// thread.
#[test]
fn matmul_tn_thread_splits_are_bit_exact() {
    let (m, k, n) = (700, 37, 1300);
    let mut a = grad_filled(m * k, 3, 2);
    zero_lines(&mut a, m, k, 3);
    let b = grad_filled(m * n, 4, 1);
    let mut serial = vec![0.0f32; k * n];
    parallel::set_max_threads(1);
    matmul_tn_into(&a, m, k, &b, n, &mut serial);
    parallel::set_max_threads(3);
    assert!(parallel::plan_threads(2 * m * k * n) == 3);
    assert_tn_matches_naive(&a, m, k, &b, n);
    let mut split = vec![0.0f32; k * n];
    matmul_tn_into(&a, m, k, &b, n, &mut split);
    parallel::set_max_threads(0);
    assert!(serial
        .iter()
        .zip(&split)
        .all(|(x, y)| x.to_bits() == y.to_bits()));
}

fn tiny_cfg() -> BioformerConfig {
    BioformerConfig {
        channels: 3,
        window: 20,
        classes: 4,
        embed: 8,
        filter: 5,
        heads: 2,
        depth: 2,
        head_dim: 4,
        hidden: 16,
        dropout: 0.0,
        seed: 21,
    }
}

/// The arena must be invisible in the numbers: logits with and without it
/// are identical, for a fresh arena and for a reused (warmed, possibly
/// dirty) one.
#[test]
fn arena_forward_logits_are_identical() {
    let model = Bioformer::new(&tiny_cfg());
    let mut arena = TensorArena::new();
    for trial in 0..4 {
        let x = filled(&[1 + trial % 3, 3, 20], 100 + trial as u64);
        let plain = model.forward_infer(&x);
        let arena_out = model.forward_infer_in(&x, &mut arena);
        assert!(
            arena_out.allclose(&plain, 0.0),
            "trial {trial}: arena logits diverge from plain forward_infer"
        );
        arena.recycle(arena_out);
    }
}

/// After a warm-up pass the arena pool serves every intermediate: repeated
/// forwards of the same shape hit the pool only (`misses == 0`), which is
/// the arena-level statement of "steady-state forwards do not allocate"
/// (the allocator-level proof lives in `tests/arena_alloc.rs`).
#[test]
fn warmed_arena_serves_all_intermediates_from_pool() {
    let model = Bioformer::new(&tiny_cfg());
    let x = filled(&[2, 3, 20], 7);
    let mut arena = TensorArena::new();
    for _ in 0..2 {
        let y = model.forward_infer_in(&x, &mut arena);
        arena.recycle(y);
    }
    arena.reset_stats();
    for _ in 0..5 {
        let y = model.forward_infer_in(&x, &mut arena);
        arena.recycle(y);
    }
    let stats = arena.stats();
    assert_eq!(stats.misses, 0, "steady-state forward allocated: {stats:?}");
    assert!(stats.hits > 0, "arena was never used");
}
