//! SIMD lanes of the I-BERT integer non-linearities.
//!
//! `bioformer_quant::ibert` owns the operators — constants, the scalar
//! reference arithmetic, the per-row reductions. This module holds only
//! the per-element loops that the scalar code spends its time in, as AVX2
//! bodies that are **bit-identical** to it on the domain they accept, and
//! that decline (so the caller runs the scalar code) outside it:
//!
//! * [`softmax_row_avx2`] — i-exp over eight i32 lanes and the `·127/Σ`
//!   normalisation over four f64 lanes.
//! * [`layernorm_row_avx2`] — `(x − μ)·2^10 / σ`, the `γ·x̂ + β` affine and
//!   the requantizing store, eight lanes at a time.
//!
//! Where the scalar code divides (`⌊x/d⌋` with a per-row `d`), the lanes
//! multiply `x + ½` by a correctly rounded `1/d` in f64 and truncate: for
//! integers `x, d` the true `(x+½)/d` has the same floor as `x/d` and
//! sits at least `1/(2d)` from any integer, which exceeds the product's
//! rounding error (`< 2^-45` for the magnitudes admitted here) by orders
//! of magnitude — so the truncation is exact, not approximate.

use crate::qout::Requant;

/// Widest row the SIMD softmax stages on its stack (every attention row a
/// Bioformer config produces; wider rows take the scalar path).
pub const SOFTMAX_ROW_CAP: usize = 128;

/// Fraction bits of the normalised activation `x̂` in the integer
/// LayerNorm.
pub const LN_FBITS: u32 = 10;

/// i-exp constants that fit the 32-bit lanes (see [`ExpLanes::new`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExpLanes {
    q_ln2: i32,
    q_b: i32,
    q_c: i32,
    inv_ln2: f32,
}

impl ExpLanes {
    /// Accepts the integer constants of an i-exp (`⌊ln2/s⌋`, `⌊b/s⌋`,
    /// `⌊c/(a·s²)⌋`) when every intermediate of the polynomial
    /// `(p + q_b)² + q_c`, `p ∈ (−q_ln2, 0]`, fits a non-negative i32 and
    /// the 32-step range reduction cannot overflow; `None` otherwise.
    pub fn new(q_ln2: i64, q_b: i64, q_c: i64) -> Option<Self> {
        let reach = q_b.max(q_ln2);
        let fits = (1..1 << 25).contains(&q_ln2)
            && q_b >= 0
            && q_c >= 0
            && reach < 1 << 31
            && reach * reach + q_c <= i32::MAX as i64;
        fits.then(|| ExpLanes {
            q_ln2: q_ln2 as i32,
            q_b: q_b as i32,
            q_c: q_c as i32,
            inv_ln2: 1.0 / q_ln2 as f32,
        })
    }
}

/// AVX2 integer softmax over one row of score accumulators: bit-identical
/// to `ISoftmax::apply_row`'s scalar body. Returns `false` — leaving `out`
/// untouched — when it declines: AVX2 absent, an empty row or one wider
/// than [`SOFTMAX_ROW_CAP`], or a score spread of `2^30` or more (where
/// the scalar code's own 64-bit intermediates take over).
///
/// # Panics
///
/// Panics when `scores` and `out` differ in length.
pub fn softmax_row_avx2(c: &ExpLanes, scores: &[i32], out: &mut [i8]) -> bool {
    assert_eq!(scores.len(), out.len(), "softmax: row length");
    #[cfg(target_arch = "x86_64")]
    if (1..=SOFTMAX_ROW_CAP).contains(&scores.len()) && crate::int8::avx2_supported() {
        // SAFETY: AVX2 checked above; the row is non-empty, within the
        // cap, and `out` matches it.
        return unsafe { x86::softmax_row(c, scores, out) };
    }
    let _ = c;
    false
}

/// Per-feature constants of an integer LayerNorm whose accumulator
/// `γ·x̂ + β` provably fits i32 (checked by the owner at construction).
#[derive(Debug, Clone, Copy)]
pub struct NormLanes<'a> {
    /// Quantized `γ`.
    pub gamma: &'a [i32],
    /// Quantized `β` at the accumulator scale.
    pub beta: &'a [i32],
    /// Requantization to the output grid.
    pub rq: Requant,
}

/// AVX2 element pass of the integer LayerNorm, given the row's integer
/// `mean` and `std ≥ 1`: normalises, applies `γ, β` and requantizes the
/// leading `8·⌊n/8⌋` elements of `row`, bit-identically to
/// `ILayerNorm::apply_row`'s scalar loop, and returns how many it wrote
/// (`0` when AVX2 is absent or the multiplier is degenerate); the caller
/// finishes the rest with the scalar code.
///
/// # Panics
///
/// Panics when `row`, `out`, `gamma` and `beta` differ in length.
pub fn layernorm_row_avx2(
    c: &NormLanes<'_>,
    mean: i32,
    std: i32,
    row: &[i8],
    out: &mut [i8],
) -> usize {
    let n = row.len();
    assert_eq!(out.len(), n, "layernorm: output length");
    assert_eq!(c.gamma.len(), n, "layernorm: gamma length");
    assert_eq!(c.beta.len(), n, "layernorm: beta length");
    #[cfg(target_arch = "x86_64")]
    if crate::int8::avx2_supported() && c.rq.simd_ok() && std >= 1 {
        let n8 = n & !7;
        // SAFETY: AVX2 checked above; all four slices hold `n ≥ n8`
        // elements.
        unsafe { x86::norm_lanes(c, mean, std, row, out, n8) };
        return n8;
    }
    let _ = (mean, std);
    0
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{ExpLanes, NormLanes, LN_FBITS, SOFTMAX_ROW_CAP};
    use crate::qout::{pack16, RqLanes};
    use core::arch::x86_64::*;
    use core::mem::MaybeUninit;

    /// Lane masks for a ragged last vector: `TAIL[8 − r..]` loads `r`
    /// all-ones lanes followed by zeros.
    static TAIL: [i32; 16] = [-1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0];

    /// All eight lanes ← the maximum lane.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn spread_max(v: __m256i) -> __m256i {
        let v = _mm256_max_epi32(v, _mm256_permute2x128_si256(v, v, 1));
        let v = _mm256_max_epi32(v, _mm256_shuffle_epi32(v, 0b01_00_11_10));
        _mm256_max_epi32(v, _mm256_shuffle_epi32(v, 0b10_11_00_01))
    }

    /// Writes `src[..len]` (`1 ≤ len ≤ 15`) to `dst[..len]` as two
    /// overlapping fixed-size moves — a ragged tail without a `memcpy`
    /// call.
    #[inline(always)]
    fn store_tail(dst: &mut [i8], src: &[i8; 16], len: usize) {
        fn halves<const W: usize>(dst: &mut [i8], src: &[i8; 16], len: usize) {
            dst[..W].copy_from_slice(&src[..W]);
            dst[len - W..len].copy_from_slice(&src[len - W..len]);
        }
        match len {
            8.. => halves::<8>(dst, src, len),
            4.. => halves::<4>(dst, src, len),
            2.. => halves::<2>(dst, src, len),
            _ => dst[0] = src[0],
        }
    }

    /// The whole row operator (see [`super::softmax_row_avx2`]), in three
    /// passes over whole vectors (a ragged last vector is mask-loaded; its
    /// dead lanes are neutral in every reduction):
    ///
    /// 1. the row maximum;
    /// 2. `x = max − score ≥ 0` becomes `i-exp(−x) = ((p + q_b)² + q_c) ≫ z`
    ///    with `z = ⌊x/q_ln2⌋`, `p = z·q_ln2 − x`. `z` is first estimated
    ///    in f32 (off by at most one while `x < 33·q_ln2 ≤ 2^30`), then
    ///    corrected exactly with integer compares. Once `x ≥ 32·q_ln2` the
    ///    scalar code shifts a value below `2^31` by 32 or more — zero —
    ///    and so does `vpsrlvd`, whose counts past 31 clear the lane, even
    ///    where the estimate has drifted. A lane with `x ≥ 2^30` (a score
    ///    spread the scalar code meets with its 64-bit intermediates)
    ///    declines the row. The exponentials are staged on the stack and
    ///    summed in 64-bit lanes;
    /// 3. `e ← ⌊e·127 / Σ⌋` (module docs explain why the f64 product
    ///    truncates exactly; `e·127 < 2^38`, `Σ < 2^38`), narrowed to i8
    ///    in registers.
    ///
    /// # Safety
    ///
    /// Requires AVX2; `1 ≤ scores.len() ≤ SOFTMAX_ROW_CAP`;
    /// `out.len() == scores.len()`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn softmax_row(c: &ExpLanes, scores: &[i32], out: &mut [i8]) -> bool {
        let n = scores.len();
        let whole = n / 8 * 8;
        let n8 = n.next_multiple_of(8);
        // Deliberately uninitialised: pass 2 stores all `n8` leading
        // exponentials before pass 3 loads them.
        let mut staged = MaybeUninit::<[i32; SOFTMAX_ROW_CAP]>::uninit();
        let e = staged.as_mut_ptr() as *mut i32;
        // SAFETY (whole body): unmasked loads cover eight scores at
        // `o + 8 ≤ whole ≤ n`; the masked load reads only the `n − whole`
        // live lanes; `TAIL` loads start at `8 − r` for `1 ≤ r ≤ 7`;
        // staged accesses stay below `n8 ≤ SOFTMAX_ROW_CAP`; full stores
        // to `out` are taken only when sixteen codes fit.
        unsafe {
            let src = scores.as_ptr();
            let keep = _mm256_loadu_si256(TAIL.as_ptr().add(8 - (n - whole)) as *const __m256i);
            // Vector `o` of the row; dead lanes read as `fill`.
            let load = |o: usize, fill: __m256i| {
                if o < whole {
                    _mm256_loadu_si256(src.add(o) as *const __m256i)
                } else {
                    let live = _mm256_maskload_epi32(src.add(o), keep);
                    _mm256_blendv_epi8(fill, live, keep)
                }
            };

            let lowest = _mm256_set1_epi32(i32::MIN);
            let mut max = lowest;
            for o in (0..n8).step_by(8) {
                max = _mm256_max_epi32(max, load(o, lowest));
            }
            let max = spread_max(max);

            let q_ln2 = _mm256_set1_epi32(c.q_ln2);
            let q_b = _mm256_set1_epi32(c.q_b);
            let q_c = _mm256_set1_epi32(c.q_c);
            let inv = _mm256_set1_ps(c.inv_ln2);
            let p_floor = _mm256_set1_epi32(1 - c.q_ln2);
            let zero = _mm256_setzero_si256();
            let mut sums = [zero; 2];
            let mut widest = zero;
            for o in (0..n8).step_by(8) {
                // Dead lanes: x = 0.
                let x = _mm256_sub_epi32(max, load(o, max));
                widest = _mm256_or_si256(widest, x);
                let z = _mm256_cvttps_epi32(_mm256_mul_ps(_mm256_cvtepi32_ps(x), inv));
                let rem = _mm256_sub_epi32(_mm256_mullo_epi32(z, q_ln2), x);
                // p must land in (−q_ln2, 0]: one step either way.
                let over = _mm256_cmpgt_epi32(rem, zero);
                let z = _mm256_add_epi32(z, over);
                let rem = _mm256_sub_epi32(rem, _mm256_and_si256(over, q_ln2));
                let under = _mm256_cmpgt_epi32(p_floor, rem);
                let z = _mm256_sub_epi32(z, under);
                let rem = _mm256_add_epi32(rem, _mm256_and_si256(under, q_ln2));
                let t = _mm256_add_epi32(rem, q_b);
                let poly = _mm256_add_epi32(_mm256_mullo_epi32(t, t), q_c);
                let mut exp = _mm256_srlv_epi32(poly, z);
                if o >= whole {
                    exp = _mm256_and_si256(exp, keep);
                }
                _mm256_storeu_si256(e.add(o) as *mut __m256i, exp);
                let (lo, hi) = (
                    _mm256_castsi256_si128(exp),
                    _mm256_extracti128_si256(exp, 1),
                );
                sums[0] = _mm256_add_epi64(sums[0], _mm256_cvtepi32_epi64(lo));
                sums[1] = _mm256_add_epi64(sums[1], _mm256_cvtepi32_epi64(hi));
            }
            // Any x with bit 30 or 31 set: out of the lanes' range.
            if _mm256_testz_si256(widest, _mm256_set1_epi32(!0 << 30)) == 0 {
                return false;
            }
            let total = _mm256_add_epi64(sums[0], sums[1]);
            let total = _mm_add_epi64(
                _mm256_castsi256_si128(total),
                _mm256_extracti128_si256(total, 1),
            );
            let sum = _mm_cvtsi128_si64(total) + _mm_extract_epi64(total, 1);
            if sum <= 0 {
                // Degenerate row: fall back to uniform, as the scalar code.
                out.fill((127 / n) as i8);
                return true;
            }

            // Sixteen quotients per step, narrowed in registers and stored
            // straight to `out`.
            let recip = _mm256_set1_pd(1.0 / sum as f64);
            let k127 = _mm256_set1_pd(127.0);
            let half = _mm256_set1_pd(0.5);
            let quotient = |e: __m128i| {
                let x = _mm256_add_pd(_mm256_mul_pd(_mm256_cvtepi32_pd(e), k127), half);
                _mm256_cvttpd_epi32(_mm256_mul_pd(x, recip))
            };
            let quotients = |o: usize| {
                let v = _mm256_loadu_si256(e.add(o) as *const __m256i);
                let lo = quotient(_mm256_castsi256_si128(v));
                _mm256_set_m128i(quotient(_mm256_extracti128_si256(v, 1)), lo)
            };
            for o in (0..n).step_by(16) {
                // The second vector of a group may lie past `n8`: reuse the
                // first (its lanes are then dropped with the tail).
                let lo = quotients(o);
                let hi = if o + 8 < n8 { quotients(o + 8) } else { lo };
                let codes = pack16(lo, hi);
                if o + 16 <= n {
                    _mm_storeu_si128(out.as_mut_ptr().add(o) as *mut __m128i, codes);
                } else {
                    let mut tail = [0i8; 16];
                    _mm_storeu_si128(tail.as_mut_ptr() as *mut __m128i, codes);
                    store_tail(&mut out[o..], &tail, n - o);
                }
            }
        }
        true
    }

    /// `out[i] = requant(γ[i]·x̂[i] + β[i])` with
    /// `x̂ = trunc(((row[i] − mean) ≪ LN_FBITS) / std)` for `i < n8`.
    /// `|x − mean| ≤ 255`, so the numerator stays below `2^18` and the
    /// f64 reciprocal product truncates exactly (module docs).
    ///
    /// # Safety
    ///
    /// Requires AVX2; `n8` a multiple of 8 and `≤` the length of each of
    /// `row`, `out`, `c.gamma`, `c.beta`; `std ≥ 1`; `c.rq.simd_ok()`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn norm_lanes(
        c: &NormLanes<'_>,
        mean: i32,
        std: i32,
        row: &[i8],
        out: &mut [i8],
        n8: usize,
    ) {
        // SAFETY (whole body): every load/store covers eight elements at
        // `o + 8 ≤ n8`, inside all four slices by the caller's contract.
        unsafe {
            let lanes = RqLanes::new(c.rq);
            let mean = _mm256_set1_epi32(mean);
            let recip = _mm256_set1_pd(1.0 / std as f64);
            let half = _mm256_set1_pd(0.5);
            let sign = _mm256_set1_pd(-0.0);
            // trunc((t ± ½)/std) with the sign of t: truncating division.
            let divide = |t: __m128i| {
                let t = _mm256_cvtepi32_pd(t);
                let nudged = _mm256_add_pd(t, _mm256_or_pd(_mm256_and_pd(t, sign), half));
                _mm256_cvttpd_epi32(_mm256_mul_pd(nudged, recip))
            };
            for o in (0..n8).step_by(8) {
                let x =
                    _mm256_cvtepi8_epi32(_mm_loadl_epi64(row.as_ptr().add(o) as *const __m128i));
                let t = _mm256_slli_epi32(_mm256_sub_epi32(x, mean), LN_FBITS as i32);
                let xhat = _mm256_set_m128i(
                    divide(_mm256_extracti128_si256(t, 1)),
                    divide(_mm256_castsi256_si128(t)),
                );
                let gamma = _mm256_loadu_si256(c.gamma.as_ptr().add(o) as *const __m256i);
                let beta = _mm256_loadu_si256(c.beta.as_ptr().add(o) as *const __m256i);
                let acc = _mm256_add_epi32(_mm256_mullo_epi32(gamma, xhat), beta);
                let q = lanes.scale8(acc);
                _mm_storel_epi64(out.as_mut_ptr().add(o) as *mut __m128i, pack16(q, q));
            }
        }
    }
}
