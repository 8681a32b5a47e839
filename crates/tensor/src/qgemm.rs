//! int8 GEMM drivers (i8 operands, i32 accumulation) and the gemmlowp-style
//! fixed-point requantizer.
//!
//! `bioformer-quant::kernels` re-exports them, so there is exactly one
//! definition of each driver and the bit-exactness contracts cannot fork.
//!
//! Two families, by what the right-hand side is:
//!
//! * **Weights** are packed once into a [`bioformer_simd::PackedQB`] and
//!   multiplied by the tier's [`bioformer_simd::QgemmPackedFn`] — no driver
//!   is needed beyond the kernel call, so there is none here.
//! * **Activations** (attention scores, `A·V`) stay row-major and go
//!   through [`qgemm_nt_into`]: the whole-GEMM kernel where the tier has
//!   one and the shape fits its caps, else the `1×QNR` dot tile driven
//!   from the generic loop. The dense `qgemm_*_into` entry points are this
//!   driver at `ld == k`.
//!
//! Integer addition is associative, so both paths are **bit-for-bit
//! identical** for any input; [`qgemm_i32_into_with`] pins the dot tile
//! as the oracle tests compare against.

use bioformer_simd::{Kernels, QdotTileFn};

pub use bioformer_simd::{QMat, QOut, Requant};

/// Output columns processed per blocked-kernel step (one `A`-row pass feeds
/// this many `i32` register accumulators).
pub const QNR: usize = 4;

// The tile width is shared with the microkernel crate; a mismatch would
// scramble the B-tile slicing, so pin it at compile time.
const _: () = assert!(QNR == bioformer_simd::QNR);

/// A real multiplier encoded as `mantissa × 2^(−31−shift)` with
/// `mantissa ∈ [2^30, 2^31)`.
///
/// Integer kernels accumulate in i32 at scale `s_in = s_a · s_w`; the
/// result must be rescaled to the next layer's activation scale `s_out`.
/// The real multiplier `M = s_in / s_out` is encoded once, offline, as a
/// normalised int32 mantissa and a right-shift; on the hot path only i64
/// multiply + rounding shift are used — exactly what ships on the MCU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FixedMultiplier {
    /// Normalised mantissa.
    pub mantissa: i32,
    /// Additional right shift applied after the high-mul.
    pub shift: i32,
}

impl FixedMultiplier {
    /// Encodes a positive real multiplier.
    ///
    /// # Panics
    ///
    /// Panics if `m` is not finite and positive.
    pub fn encode(m: f64) -> Self {
        assert!(
            m.is_finite() && m > 0.0,
            "multiplier must be positive, got {m}"
        );
        assert!(m < 1e9, "multiplier {m} out of supported range");
        let mut shift = 0i32;
        let mut frac = m;
        // Normalise into [0.5, 1).
        while frac >= 1.0 {
            frac /= 2.0;
            shift -= 1;
        }
        while frac < 0.5 {
            frac *= 2.0;
            shift += 1;
        }
        let mut mantissa = (frac * (1i64 << 31) as f64).round() as i64;
        if mantissa == (1i64 << 31) {
            mantissa /= 2;
            shift -= 1;
        }
        FixedMultiplier {
            mantissa: mantissa as i32,
            shift,
        }
    }

    /// The real value this encodes (for tests/diagnostics).
    pub fn to_real(self) -> f64 {
        self.mantissa as f64 * 2f64.powi(-31 - self.shift)
    }

    /// Applies the multiplier to an i32 accumulator with round-to-nearest
    /// ([`Requant::scale`] is the one definition of the arithmetic, shared
    /// with the SIMD stores).
    pub fn apply(self, acc: i32) -> i32 {
        self.requant(0).scale(acc)
    }

    /// Requantizes an accumulator to int8 with a zero-point, saturating.
    pub fn requantize_to_i8(self, acc: i32, zero_point: i32) -> i8 {
        self.requant(zero_point).to_i8(acc)
    }

    /// This multiplier and an output zero point as the kernels' store
    /// descriptor.
    pub fn requant(self, zero_point: i32) -> Requant {
        Requant {
            mantissa: self.mantissa,
            shift: self.shift,
            zero_point,
        }
    }
}

fn check_qgemm_dims(a: &[i8], b: &[i8], bias: Option<&[i32]>, m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "qgemm: A size");
    assert_eq!(b.len(), n * k, "qgemm: B size");
    if let Some(bias) = bias {
        assert_eq!(bias.len(), n, "qgemm: bias size");
    }
}

/// `kernels`' whole-GEMM kernel, when it has one that takes `(k, n)`.
fn whole_gemm(kernels: &Kernels, k: usize, n: usize) -> Option<bioformer_simd::QgemmNtFn> {
    kernels
        .qgemm_nt
        .filter(|_| bioformer_simd::qgemm_nt_fits(k, n))
}

/// The tile path over row-major operands: each `A` row against
/// [`QNR`]-wide tiles of `B` rows through `tile`, every accumulator (plus
/// bias) handed to `out`. The tile wants its `B` rows back to back, so a
/// strided `B` is fed one row per call.
#[allow(clippy::too_many_arguments)]
fn qgemm_nt_tile(
    tile: QdotTileFn,
    a: QMat<'_>,
    b: QMat<'_>,
    bias: Option<&[i32]>,
    m: usize,
    k: usize,
    n: usize,
    mut out: QOut<'_>,
) {
    a.check(m, k, "qgemm A");
    b.check(n, k, "qgemm B");
    out.check(m, n);
    let jw_max = if b.ld == k { QNR } else { 1 };
    for i in 0..m {
        let a_row = &a.data[i * a.ld..i * a.ld + k];
        let mut j = 0usize;
        while j < n {
            let jw = (n - j).min(jw_max);
            let mut acc = [0i32; QNR];
            tile(
                a_row,
                &b.data[j * b.ld..(j + jw - 1) * b.ld + k],
                k,
                jw,
                &mut acc,
            );
            for (lj, &s) in acc.iter().enumerate().take(jw) {
                out.put(i, j + lj, s + bias.map_or(0, |bias| bias[j + lj]));
            }
            j += jw;
        }
    }
}

/// `C[m,n] = A[m,k] · B[n,k]ᵀ (+ bias)` over row-major, possibly strided
/// operands, stored through `out` (raw accumulators, or requantized codes
/// in either orientation) — the driver for products whose right-hand side
/// is an activation. Runs `kernels`' whole-GEMM kernel when the tier has
/// one and `(k, n)` fit its caps ([`bioformer_simd::qgemm_nt_fits`]),
/// else the tier's dot tile from the generic loop; both are bit-identical.
///
/// # Panics
///
/// Panics when an operand or `out` cannot hold the stated shape.
#[allow(clippy::too_many_arguments)]
pub fn qgemm_nt_into(
    kernels: &Kernels,
    a: QMat<'_>,
    b: QMat<'_>,
    bias: Option<&[i32]>,
    m: usize,
    k: usize,
    n: usize,
    out: QOut<'_>,
) {
    match whole_gemm(kernels, k, n) {
        Some(kernel) => kernel(a, b, bias, m, k, n, out),
        None => qgemm_nt_tile(kernels.qdot_tile, a, b, bias, m, k, n, out),
    }
}

/// `C[m,n] = A[m,k] · B[n,k]ᵀ (+ bias)` into a caller-provided accumulator
/// buffer: [`qgemm_nt_into`] over dense operands with the
/// runtime-dispatched kernel table.
///
/// `B` is row-major `[n, k]` — the natural layout both for linear-layer
/// weights (`[out, in]`) and for attention keys.
///
/// # Panics
///
/// Panics on inconsistent dimensions.
pub fn qgemm_i32_into(
    a: &[i8],
    b: &[i8],
    bias: Option<&[i32]>,
    m: usize,
    k: usize,
    n: usize,
    out: &mut [i32],
) {
    check_qgemm_dims(a, b, bias, m, k, n);
    assert_eq!(out.len(), m * n, "qgemm: out size");
    let (a, b) = (QMat::dense(a, k), QMat::dense(b, k));
    qgemm_nt_into(
        bioformer_simd::kernels(),
        a,
        b,
        bias,
        m,
        k,
        n,
        QOut::Acc { out, ld: n },
    );
}

/// [`qgemm_i32_into`] through an explicitly chosen dot tile, never a
/// whole-GEMM kernel — the oracle this module's tests compare the
/// dispatched drivers against, with a [`bioformer_simd`] tier (e.g. the
/// scalar tile) pinned instead of the runtime-dispatched one.
///
/// # Panics
///
/// Panics on inconsistent dimensions.
#[allow(clippy::too_many_arguments)]
pub fn qgemm_i32_into_with(
    tile: QdotTileFn,
    a: &[i8],
    b: &[i8],
    bias: Option<&[i32]>,
    m: usize,
    k: usize,
    n: usize,
    out: &mut [i32],
) {
    check_qgemm_dims(a, b, bias, m, k, n);
    assert_eq!(out.len(), m * n, "qgemm: out size");
    let (a, b) = (QMat::dense(a, k), QMat::dense(b, k));
    qgemm_nt_tile(tile, a, b, bias, m, k, n, QOut::Acc { out, ld: n });
}

/// int8 GEMM with the requantization **fused into the store**: each
/// accumulator is scaled to the output grid while still in registers — no
/// intermediate `Vec<i32>` is materialised. Bit-for-bit identical to
/// [`qgemm_i32_into`] followed by per-element requantization. Uses the
/// runtime-dispatched kernel table.
///
/// # Panics
///
/// Panics on inconsistent dimensions.
#[allow(clippy::too_many_arguments)]
pub fn qgemm_requant_into(
    a: &[i8],
    b: &[i8],
    bias: Option<&[i32]>,
    m: usize,
    k: usize,
    n: usize,
    mult: FixedMultiplier,
    zero_point: i32,
    out: &mut [i8],
) {
    check_qgemm_dims(a, b, bias, m, k, n);
    assert_eq!(out.len(), m * n, "qgemm: out size");
    let (a, b) = (QMat::dense(a, k), QMat::dense(b, k));
    let rq = mult.requant(zero_point);
    qgemm_nt_into(
        bioformer_simd::kernels(),
        a,
        b,
        bias,
        m,
        k,
        n,
        QOut::Rows { out, ld: n, rq },
    );
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// `A·Bᵀ + bias` through the dispatched tier's dot tile: the oracle.
    fn oracle(a: &[i8], b: &[i8], bias: &[i32], m: usize, k: usize, n: usize) -> Vec<i32> {
        let mut out = vec![0i32; m * n];
        let tile = bioformer_simd::kernels().qdot_tile;
        qgemm_i32_into_with(tile, a, b, Some(bias), m, k, n, &mut out);
        out
    }

    /// The dispatched driver (whole-GEMM kernel where the tier has one),
    /// the same driver with the whole-GEMM kernel removed (the dot-tile
    /// fallback) and the fused requantizing store all equal the oracle.
    #[test]
    fn forced_kernel_paths_agree_bit_exactly() {
        let kernels = bioformer_simd::kernels();
        let tile_only = Kernels {
            qgemm_nt: None,
            ..*kernels
        };
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 4), (6, 31, 17), (5, 64, 32)] {
            let a = qfilled(m * k, 1 + m as u64);
            let b = qfilled(n * k, 2 + n as u64);
            let bias: Vec<i32> = (0..n as i32).map(|j| j * 7 - 3).collect();
            let want = oracle(&a, &b, &bias, m, k, n);
            let mut dispatch = vec![0i32; m * n];
            qgemm_i32_into(&a, &b, Some(&bias), m, k, n, &mut dispatch);
            assert_eq!(dispatch, want, "shape ({m},{k},{n})");
            let mut tile = vec![0i32; m * n];
            let (qa, qb) = (QMat::dense(&a, k), QMat::dense(&b, k));
            let out = QOut::Acc {
                out: &mut tile,
                ld: n,
            };
            qgemm_nt_into(&tile_only, qa, qb, Some(&bias), m, k, n, out);
            assert_eq!(tile, want, "tile path diverges at ({m},{k},{n})");
            let mult = FixedMultiplier::encode(0.0173);
            let mut rq = vec![0i8; m * n];
            qgemm_requant_into(&a, &b, Some(&bias), m, k, n, mult, -5, &mut rq);
            let rq_want: Vec<i8> = want
                .iter()
                .map(|&acc| mult.requantize_to_i8(acc, -5))
                .collect();
            assert_eq!(rq, rq_want, "requant shape ({m},{k},{n})");
        }
    }

    /// Past the whole-GEMM caps the driver falls back to the dot tile and
    /// still equals the oracle.
    #[test]
    fn shape_beyond_the_caps_still_equals_the_oracle() {
        let (m, k, n) = (2, bioformer_simd::QGEMM_K_CAP + 1, 3);
        assert!(!bioformer_simd::qgemm_nt_fits(k, n));
        let a = qfilled(m * k, 9);
        let b = qfilled(n * k, 10);
        let bias = [5, -6, 7];
        let mut out = vec![0i32; m * n];
        qgemm_i32_into(&a, &b, Some(&bias), m, k, n, &mut out);
        assert_eq!(out, oracle(&a, &b, &bias, m, k, n));
    }
}
