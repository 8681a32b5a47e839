//! int8 `1×QNR` dot-product tiles over **row-major** operands — the inner
//! kernel of the generic quantized GEMM loop in `bioformer_tensor::qgemm`.
//!
//! All variants share one contract: given one `A` row (`a.len() == k`) and
//! `jw ≤ QNR` consecutive `B` rows packed back-to-back
//! (`b_tile.len() == jw·k`), write the exact i32 dot products
//! `out[lj] = Σ_kk a[kk] · b_tile[lj·k + kk]` for `lj < jw` and leave
//! entries `jw..QNR` untouched. Integer addition is associative, so every
//! tier is **bit-identical** to the portable scalar reduction — this is a
//! hard contract, pinned by the parity suite.
//!
//! * [`tile_avx2`] widens both operands to i16 (`vpmovsxbw`) and reduces
//!   with the widening multiply–add `vpmaddwd`; pair sums of i16×i16
//!   products always fit i32, so there is no saturation anywhere.
//! * [`tile_vnni`] uses `vpdpbusd` (u8×s8 dot-accumulate into i32 lanes).
//!   The signed activation is biased into u8 via `a ⊕ 0x80 = a + 128`, and
//!   the bias is removed exactly with a `vpdpbusd`-computed column sum:
//!   `Σ a·b = Σ (a+128)·b − 128·Σ b`. The saturating `vpmaddubsw` idiom is
//!   deliberately **not** used: `u8·s8` pair sums can exceed i16 range.
//!
//! The tiles serve the generic GEMM loop — products too large for the
//! whole-GEMM kernels, the forced `Tile` plan, hosts without AVX2. Every
//! other int8 product runs on the packed layout of [`crate::packed`].

use crate::QNR;

#[inline(always)]
fn check_tile_args(a: &[i8], b_tile: &[i8], k: usize, jw: usize) {
    assert!((1..=QNR).contains(&jw), "int8 tile: jw {jw} out of range");
    assert_eq!(a.len(), k, "int8 tile: A row size");
    assert_eq!(b_tile.len(), jw * k, "int8 tile: B tile size");
}

/// Whether the AVX2 widening tile is usable on this CPU.
pub fn avx2_supported() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

#[cfg(target_arch = "x86_64")]
pub(crate) fn avx512_vnni_supported() -> bool {
    is_x86_feature_detected!("avx512vnni") && is_x86_feature_detected!("avx512vl")
}

#[cfg(target_arch = "x86_64")]
pub(crate) fn avx_vnni_supported() -> bool {
    is_x86_feature_detected!("avxvnni")
}

/// Whether a `vpdpbusd` encoding (AVX-512-VNNI+VL or AVX-VNNI) is usable
/// on this CPU.
pub fn vnni_supported() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        avx512_vnni_supported() || avx_vnni_supported()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Portable tile — the scalar reduction the quantized GEMM always used,
/// kept verbatim as the fallback and as the bit-exactness oracle.
///
/// # Panics
///
/// Panics if slice lengths disagree with `(k, jw)`.
pub fn tile_portable(a: &[i8], b_tile: &[i8], k: usize, jw: usize, out: &mut [i32; QNR]) {
    check_tile_args(a, b_tile, k, jw);
    for (lj, o) in out.iter_mut().enumerate().take(jw) {
        let b = &b_tile[lj * k..(lj + 1) * k];
        let mut s = 0i32;
        for (&x, &y) in a.iter().zip(b.iter()) {
            s += x as i32 * y as i32;
        }
        *o = s;
    }
}

/// AVX2 tile: 16-lane widen (`vpmovsxbw`) + widening multiply–add
/// (`vpmaddwd`) per 16 codes, the `A`-row load shared across all `QNR`
/// accumulators in the full-tile fast path. Falls back to
/// [`tile_portable`] when AVX2 is absent.
///
/// # Panics
///
/// Panics if slice lengths disagree with `(k, jw)`.
pub fn tile_avx2(a: &[i8], b_tile: &[i8], k: usize, jw: usize, out: &mut [i32; QNR]) {
    check_tile_args(a, b_tile, k, jw);
    #[cfg(target_arch = "x86_64")]
    if avx2_supported() {
        // SAFETY: AVX2 availability checked above; bounds checked by
        // `check_tile_args`.
        unsafe { tile_avx2_impl(a, b_tile, k, jw, out) };
        return;
    }
    tile_portable(a, b_tile, k, jw, out);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn hsum_epi32(v: core::arch::x86_64::__m256i) -> i32 {
    use core::arch::x86_64::*;
    // Pure register arithmetic, no memory access.
    let s = _mm_add_epi32(_mm256_castsi256_si128(v), _mm256_extracti128_si256(v, 1));
    let s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0b01_00_11_10));
    let s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0b00_00_00_01));
    _mm_cvtsi128_si32(s)
}

/// Combined horizontal reduction of all `QNR` accumulators at once:
/// two `vphaddd` levels interleave the four vectors, one cross-lane add
/// finishes — ~12 instructions for four sums instead of four independent
/// reductions. i32 addition is associative (wrapping), so the changed
/// summation order is still bit-exact.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn hsum4_epi32(v: [core::arch::x86_64::__m256i; QNR]) -> core::arch::x86_64::__m128i {
    use core::arch::x86_64::*;
    let s01 = _mm256_hadd_epi32(v[0], v[1]);
    let s23 = _mm256_hadd_epi32(v[2], v[3]);
    let s = _mm256_hadd_epi32(s01, s23);
    _mm_add_epi32(_mm256_castsi256_si128(s), _mm256_extracti128_si256(s, 1))
}

/// Zero-padded copy of `src` (≤ `N` bytes) into a stack buffer, so a
/// partial trailing chunk can run through the same SIMD step as full
/// chunks: the padding contributes exact zero products (for the pre-biased
/// u8 operand too — a zero `A` byte always meets a zero `B` byte).
#[inline(always)]
fn padded<T: Copy + Default, const N: usize>(src: &[T]) -> [T; N] {
    let mut buf = [T::default(); N];
    buf[..src.len()].copy_from_slice(src);
    buf
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn tile_avx2_impl(a: &[i8], b_tile: &[i8], k: usize, jw: usize, out: &mut [i32; QNR]) {
    use core::arch::x86_64::*;
    let ap = a.as_ptr();
    let bp = b_tile.as_ptr();
    let chunks = k / 16;
    let tail = chunks * 16;
    // The k-tail runs as one more SIMD step over zero-padded stack copies
    // (zero codes contribute zero products — exact), not a scalar loop.
    let a_pad = if tail < k {
        padded::<i8, 16>(&a[tail..])
    } else {
        [0; 16]
    };
    // SAFETY (whole body): caller validated `a.len() == k` and
    // `b_tile.len() == jw·k`; every 16-byte load below starts at offset
    // ≤ its row end − 16, or reads a 16-byte stack buffer.
    unsafe {
        if jw == QNR {
            let mut acc = [_mm256_setzero_si256(); QNR];
            for c in 0..chunks {
                let av = _mm256_cvtepi8_epi16(_mm_loadu_si128(ap.add(c * 16) as *const __m128i));
                for (lj, accl) in acc.iter_mut().enumerate() {
                    let bv = _mm256_cvtepi8_epi16(_mm_loadu_si128(
                        bp.add(lj * k + c * 16) as *const __m128i
                    ));
                    *accl = _mm256_add_epi32(*accl, _mm256_madd_epi16(av, bv));
                }
            }
            if tail < k {
                let av = _mm256_cvtepi8_epi16(_mm_loadu_si128(a_pad.as_ptr() as *const __m128i));
                for (lj, accl) in acc.iter_mut().enumerate() {
                    let b_pad = padded::<i8, 16>(&b_tile[lj * k + tail..(lj + 1) * k]);
                    let bv =
                        _mm256_cvtepi8_epi16(_mm_loadu_si128(b_pad.as_ptr() as *const __m128i));
                    *accl = _mm256_add_epi32(*accl, _mm256_madd_epi16(av, bv));
                }
            }
            _mm_storeu_si128(out.as_mut_ptr() as *mut __m128i, hsum4_epi32(acc));
        } else {
            for (lj, o) in out.iter_mut().enumerate().take(jw) {
                let mut acc = _mm256_setzero_si256();
                for c in 0..chunks {
                    let av =
                        _mm256_cvtepi8_epi16(_mm_loadu_si128(ap.add(c * 16) as *const __m128i));
                    let bv = _mm256_cvtepi8_epi16(_mm_loadu_si128(
                        bp.add(lj * k + c * 16) as *const __m128i
                    ));
                    acc = _mm256_add_epi32(acc, _mm256_madd_epi16(av, bv));
                }
                if tail < k {
                    let av =
                        _mm256_cvtepi8_epi16(_mm_loadu_si128(a_pad.as_ptr() as *const __m128i));
                    let b_pad = padded::<i8, 16>(&b_tile[lj * k + tail..(lj + 1) * k]);
                    let bv =
                        _mm256_cvtepi8_epi16(_mm_loadu_si128(b_pad.as_ptr() as *const __m128i));
                    acc = _mm256_add_epi32(acc, _mm256_madd_epi16(av, bv));
                }
                *o = hsum_epi32(acc);
            }
        }
    }
}

/// VNNI tile: `vpdpbusd` over 32 codes per step with the `⊕0x80` bias
/// trick (see module docs) — still bit-identical to the scalar oracle.
/// Prefers the AVX-512-VNNI+VL encoding, then AVX-VNNI; falls back to
/// [`tile_avx2`] (and transitively to portable) when neither is present.
///
/// # Panics
///
/// Panics if slice lengths disagree with `(k, jw)`.
pub fn tile_vnni(a: &[i8], b_tile: &[i8], k: usize, jw: usize, out: &mut [i32; QNR]) {
    check_tile_args(a, b_tile, k, jw);
    #[cfg(target_arch = "x86_64")]
    {
        if avx512_vnni_supported() {
            // SAFETY: AVX-512-VNNI+VL availability checked above; bounds
            // checked by `check_tile_args`.
            unsafe { tile_vnni512_impl(a, b_tile, k, jw, out) };
            return;
        }
        if avx_vnni_supported() {
            // SAFETY: AVX-VNNI availability checked above; bounds checked
            // by `check_tile_args`.
            unsafe { tile_vnni_avx_impl(a, b_tile, k, jw, out) };
            return;
        }
    }
    tile_avx2(a, b_tile, k, jw, out);
}

/// Shared `vpdpbusd` tile body, parameterised over the intrinsic name
/// (`_mm256_dpbusd_epi32` needs AVX-512-VNNI+VL; `_mm256_dpbusd_avx_epi32`
/// is the AVX-VNNI encoding of the same operation).
#[cfg(target_arch = "x86_64")]
macro_rules! vnni_tile_body {
    ($dp:ident, $a:ident, $b_tile:ident, $k:ident, $jw:ident, $out:ident) => {{
        use core::arch::x86_64::*;
        let ap = $a.as_ptr();
        let bp = $b_tile.as_ptr();
        let chunks = $k / 32;
        // a ⊕ 0x80 reinterprets the signed code as `a + 128` in u8 — the
        // unsigned operand vpdpbusd wants. The bias is removed exactly:
        // Σ a·b = Σ (a+128)·b − 128·Σ b, with Σ b accumulated by a second
        // vpdpbusd against all-ones. No step saturates, so the result is
        // bit-identical to the scalar reduction.
        let sign = _mm256_set1_epi8(-128i8);
        let ones = _mm256_set1_epi8(1);
        let tail = chunks * 32;
        // The k-tail runs as one more vpdpbusd step over zero-padded stack
        // copies: a zero code biases to 128 but multiplies a zero B byte,
        // and the column-sum correction sees zero too — exact.
        let a_pad = if tail < $k {
            padded::<i8, 32>(&$a[tail..])
        } else {
            [0; 32]
        };
        if $jw == QNR {
            let mut acc = [_mm256_setzero_si256(); QNR];
            let mut bsum = [_mm256_setzero_si256(); QNR];
            for c in 0..chunks {
                let av = _mm256_loadu_si256(ap.add(c * 32) as *const __m256i);
                let au = _mm256_xor_si256(av, sign);
                for lj in 0..QNR {
                    let bv = _mm256_loadu_si256(bp.add(lj * $k + c * 32) as *const __m256i);
                    acc[lj] = $dp(acc[lj], au, bv);
                    bsum[lj] = $dp(bsum[lj], ones, bv);
                }
            }
            if tail < $k {
                let av = _mm256_loadu_si256(a_pad.as_ptr() as *const __m256i);
                let au = _mm256_xor_si256(av, sign);
                for lj in 0..QNR {
                    let b_pad = padded::<i8, 32>(&$b_tile[lj * $k + tail..(lj + 1) * $k]);
                    let bv = _mm256_loadu_si256(b_pad.as_ptr() as *const __m256i);
                    acc[lj] = $dp(acc[lj], au, bv);
                    bsum[lj] = $dp(bsum[lj], ones, bv);
                }
            }
            // s[lj] = Σ(a+128)·b − 128·Σb, all four lanes at once.
            let r = _mm_sub_epi32(hsum4_epi32(acc), _mm_slli_epi32(hsum4_epi32(bsum), 7));
            _mm_storeu_si128($out.as_mut_ptr() as *mut __m128i, r);
        } else {
            for (lj, o) in $out.iter_mut().enumerate().take($jw) {
                let mut acc = _mm256_setzero_si256();
                let mut bsum = _mm256_setzero_si256();
                for c in 0..chunks {
                    let av = _mm256_loadu_si256(ap.add(c * 32) as *const __m256i);
                    let au = _mm256_xor_si256(av, sign);
                    let bv = _mm256_loadu_si256(bp.add(lj * $k + c * 32) as *const __m256i);
                    acc = $dp(acc, au, bv);
                    bsum = $dp(bsum, ones, bv);
                }
                if tail < $k {
                    let av = _mm256_loadu_si256(a_pad.as_ptr() as *const __m256i);
                    let au = _mm256_xor_si256(av, sign);
                    let b_pad = padded::<i8, 32>(&$b_tile[lj * $k + tail..(lj + 1) * $k]);
                    let bv = _mm256_loadu_si256(b_pad.as_ptr() as *const __m256i);
                    acc = $dp(acc, au, bv);
                    bsum = $dp(bsum, ones, bv);
                }
                *o = hsum_epi32(acc) - 128 * hsum_epi32(bsum);
            }
        }
    }};
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512vnni,avx512vl,avx2")]
unsafe fn tile_vnni512_impl(a: &[i8], b_tile: &[i8], k: usize, jw: usize, out: &mut [i32; QNR]) {
    // SAFETY (whole body): caller validated `a.len() == k` and
    // `b_tile.len() == jw·k`; every 32-byte load starts at offset ≤ its
    // row end − 32, or reads a 32-byte stack buffer.
    unsafe { vnni_tile_body!(_mm256_dpbusd_epi32, a, b_tile, k, jw, out) }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avxvnni,avx2")]
unsafe fn tile_vnni_avx_impl(a: &[i8], b_tile: &[i8], k: usize, jw: usize, out: &mut [i32; QNR]) {
    // SAFETY (whole body): caller validated `a.len() == k` and
    // `b_tile.len() == jw·k`; every 32-byte load starts at offset ≤ its
    // row end − 32, or reads a 32-byte stack buffer.
    unsafe { vnni_tile_body!(_mm256_dpbusd_avx_epi32, a, b_tile, k, jw, out) }
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

    fn assert_tile_exact(tile: crate::QdotTileFn, k: usize, jw: usize, seed: u64) {
        let a = qfilled(k, seed);
        let b_tile = qfilled(jw * k, seed + 1);
        let mut got = [i32::MIN; QNR];
        let mut want = [i32::MIN; QNR];
        tile(&a, &b_tile, k, jw, &mut got);
        tile_portable(&a, &b_tile, k, jw, &mut want);
        assert_eq!(got, want, "k={k} jw={jw}");
        // Dead lanes must not be written.
        for (lj, &g) in got.iter().enumerate().skip(jw) {
            assert_eq!(g, i32::MIN, "lane {lj} written");
        }
    }

    #[test]
    fn avx2_is_bit_exact() {
        for &(k, jw) in &[
            (0, 1),
            (1, 1),
            (15, 2),
            (16, 3),
            (17, 4),
            (31, 4),
            (32, 4),
            (33, 4),
            (64, 4),
            (420, 4),
            (29, 2),
        ] {
            assert_tile_exact(tile_avx2, k, jw, 41 + k as u64);
        }
    }

    #[test]
    fn vnni_is_bit_exact() {
        for &(k, jw) in &[
            (0, 1),
            (1, 1),
            (15, 2),
            (16, 3),
            (31, 4),
            (32, 4),
            (33, 4),
            (64, 4),
            (95, 3),
            (96, 4),
            (420, 4),
        ] {
            assert_tile_exact(tile_vnni, k, jw, 59 + k as u64);
        }
    }

    /// Extreme codes stress the no-saturation argument: ±128·±127 pair
    /// sums overflow i16 under `vpmaddubsw`, which is exactly why that
    /// idiom is not used.
    #[test]
    fn extreme_codes_do_not_saturate() {
        for k in [16usize, 32, 64, 420] {
            let a = vec![-128i8; k];
            let b_tile: Vec<i8> = (0..QNR * k)
                .map(|i| if i % 2 == 0 { 127 } else { -128 })
                .collect();
            let mut want = [0i32; QNR];
            tile_portable(&a, &b_tile, k, QNR, &mut want);
            for tile in [tile_avx2 as crate::QdotTileFn, tile_vnni] {
                let mut got = [0i32; QNR];
                tile(&a, &b_tile, k, QNR, &mut got);
                assert_eq!(got, want, "k={k}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "B tile size")]
    fn bad_tile_size_panics() {
        let mut out = [0i32; QNR];
        tile_portable(&[0; 4], &[0; 4], 4, 2, &mut out);
    }
}
