//! Operand and output descriptors shared by the int8 GEMM kernels, and the
//! fixed-point requantizer they run in their stores.
//!
//! Every int8 GEMM in the workspace ends the same way: an exact `i32`
//! accumulator is either kept ([`QOut::Acc`]) or scaled to the next
//! activation grid by a gemmlowp-style multiplier and saturated to `i8`
//! ([`QOut::Rows`], or [`QOut::Cols`] when the consumer wants the product
//! transposed). [`Requant::scale`] is the **one** definition of that
//! arithmetic — `bioformer_tensor::qgemm::FixedMultiplier::apply` forwards
//! to it — and the AVX2 lanes in this module are bit-identical to it, so a
//! kernel may requantize in registers without forking the contract.

/// A fixed-point requantizer: `q = sat_i8(round(acc · mantissa ·
/// 2^(−31−shift)) + zero_point)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Requant {
    /// Normalised multiplier mantissa in `[2^30, 2^31)`.
    pub mantissa: i32,
    /// Additional right shift applied with the mantissa's 31.
    pub shift: i32,
    /// Output zero point, added after scaling.
    pub zero_point: i32,
}

impl Requant {
    /// `round(acc · mantissa · 2^(−31−shift))`, round-half-up.
    ///
    /// The full product is kept in i64 and rounded with a **single**
    /// combined shift of `31 + shift` bits — splitting the shift (high-mul
    /// then post-shift) would amplify the high-mul's rounding error by
    /// `2^|shift|` for multipliers above 1.
    #[inline(always)]
    pub fn scale(self, acc: i32) -> i32 {
        let prod = acc as i64 * self.mantissa as i64;
        let s = 31 + self.shift;
        debug_assert!(s >= 1, "unsupported multiplier magnitude");
        // Round-half-up works for both signs under arithmetic shift.
        ((prod + (1i64 << (s - 1))) >> s) as i32
    }

    /// Scales, adds the zero point and saturates to int8.
    #[inline(always)]
    pub fn to_i8(self, acc: i32) -> i8 {
        (self.scale(acc) + self.zero_point).clamp(-128, 127) as i8
    }

    /// Whether the SIMD lanes can run this multiplier (their 64-bit shift
    /// emulation needs the combined shift in `1..=62`; anything else is a
    /// degenerate scale that takes the scalar path).
    #[cfg(target_arch = "x86_64")]
    pub(crate) fn simd_ok(self) -> bool {
        (1..=62).contains(&(31 + self.shift))
    }
}

/// A row-major int8 operand: row `r` is `data[r·ld .. r·ld + k]`. `ld` may
/// exceed `k` — that is how a kernel reads one head out of a packed
/// projection without a copy.
#[derive(Debug, Clone, Copy)]
pub struct QMat<'a> {
    /// Backing codes.
    pub data: &'a [i8],
    /// Distance between row starts.
    pub ld: usize,
}

impl<'a> QMat<'a> {
    /// A dense `[rows, k]` operand (`ld == k`).
    pub fn dense(data: &'a [i8], k: usize) -> Self {
        QMat { data, ld: k }
    }

    /// Panics unless `rows` rows of `k` codes fit (`what` names the operand
    /// in the message).
    pub fn check(&self, rows: usize, k: usize, what: &str) {
        assert!(self.ld >= k, "{what}: row stride {} < k {k}", self.ld);
        if rows > 0 {
            assert!(
                self.data.len() >= (rows - 1) * self.ld + k,
                "{what}: operand too short"
            );
        }
    }
}

/// Where a GEMM kernel stores its `m×n` product, and in what form.
#[derive(Debug)]
pub enum QOut<'a> {
    /// Requantized codes, row-major: `out[i·ld + j]`.
    Rows {
        /// Destination codes.
        out: &'a mut [i8],
        /// Distance between row starts (`≥ n`).
        ld: usize,
        /// Scale applied to every accumulator.
        rq: Requant,
    },
    /// Requantized codes, transposed: `out[j·ld + i]`.
    Cols {
        /// Destination codes.
        out: &'a mut [i8],
        /// Distance between column starts (`≥ m`).
        ld: usize,
        /// Scale applied to every accumulator.
        rq: Requant,
    },
    /// Raw accumulators, row-major: `out[i·ld + j]`.
    Acc {
        /// Destination accumulators.
        out: &'a mut [i32],
        /// Distance between row starts (`≥ n`).
        ld: usize,
    },
}

impl QOut<'_> {
    /// Panics unless an `m×n` product fits.
    pub fn check(&self, m: usize, n: usize) {
        let (len, ld, rows, cols) = match self {
            QOut::Rows { out, ld, .. } => (out.len(), *ld, m, n),
            QOut::Cols { out, ld, .. } => (out.len(), *ld, n, m),
            QOut::Acc { out, ld } => (out.len(), *ld, m, n),
        };
        assert!(ld >= cols, "int8 gemm: output stride {ld} < {cols}");
        if rows > 0 && cols > 0 {
            assert!(len >= (rows - 1) * ld + cols, "int8 gemm: output too short");
        }
    }

    /// Stores one accumulator — the scalar store every portable kernel and
    /// every ragged block edge goes through.
    #[inline(always)]
    pub fn put(&mut self, i: usize, j: usize, acc: i32) {
        match self {
            QOut::Rows { out, ld, rq } => out[i * *ld + j] = rq.to_i8(acc),
            QOut::Cols { out, ld, rq } => out[j * *ld + i] = rq.to_i8(acc),
            QOut::Acc { out, ld } => out[i * *ld + j] = acc,
        }
    }

    /// The requantizer, when the output is codes.
    #[cfg(target_arch = "x86_64")]
    pub(crate) fn requant(&self) -> Option<Requant> {
        match self {
            QOut::Rows { rq, .. } | QOut::Cols { rq, .. } => Some(*rq),
            QOut::Acc { .. } => None,
        }
    }
}

#[cfg(target_arch = "x86_64")]
pub(crate) use lanes::{pack16, RqLanes};

#[cfg(target_arch = "x86_64")]
mod lanes {
    use super::Requant;
    use core::arch::x86_64::*;

    /// [`Requant`] broadcast into AVX2 registers. `scale8` is
    /// bit-identical to [`Requant::scale`] `+ zero_point` on eight lanes:
    /// the 32×32→64 products come from `vpmuldq` on the even and odd
    /// lanes and the rounding constant is added in 64 bits. AVX2 has no
    /// arithmetic 64-bit right shift, so:
    ///
    /// * for a combined shift `s ≥ 32` — every multiplier below ½, i.e.
    ///   every scale hand-off of a real network — `⌊x/2^s⌋` is taken as
    ///   `⌊⌊x/2^32⌋ / 2^(s−32)⌋`: the high dword of each sum *is* the first
    ///   floor, and the second is a 32-bit arithmetic shift, which AVX2
    ///   has;
    /// * otherwise the shift is emulated as `((x ⊕ 2^63) ≫ s) − (2^63 ≫
    ///   s)` — exact for `s ∈ 1..=63` — keeping the low 32 bits of each
    ///   result, as the scalar `as i32` does.
    #[derive(Clone, Copy)]
    pub(crate) struct RqLanes {
        mant: __m256i,
        round: __m256i,
        /// `s − 32` when `s ≥ 32`, else `s`.
        count: __m128i,
        high_path: bool,
        sign: __m256i,
        sign_shifted: __m256i,
        zero_point: __m256i,
    }

    impl RqLanes {
        /// # Safety
        ///
        /// Requires AVX2, and `rq.simd_ok()`.
        #[target_feature(enable = "avx2")]
        pub(crate) unsafe fn new(rq: Requant) -> Self {
            debug_assert!(rq.simd_ok());
            let s = (31 + rq.shift) as i64;
            let high_path = s >= 32;
            let count = _mm_cvtsi64_si128(if high_path { s - 32 } else { s });
            let sign = _mm256_set1_epi64x(i64::MIN);
            RqLanes {
                mant: _mm256_set1_epi64x(rq.mantissa as i64),
                round: _mm256_set1_epi64x(1i64 << (s - 1)),
                count,
                high_path,
                sign,
                sign_shifted: _mm256_srl_epi64(sign, count),
                zero_point: _mm256_set1_epi32(rq.zero_point),
            }
        }

        /// Arithmetic `x ≫ s` on four i64 lanes.
        #[target_feature(enable = "avx2")]
        #[inline]
        unsafe fn sra64(self, x: __m256i) -> __m256i {
            _mm256_sub_epi64(
                _mm256_srl_epi64(_mm256_xor_si256(x, self.sign), self.count),
                self.sign_shifted,
            )
        }

        /// Eight accumulators → eight scaled, zero-point-shifted i32s
        /// (not yet saturated).
        ///
        /// # Safety
        ///
        /// Requires AVX2.
        #[target_feature(enable = "avx2")]
        #[inline]
        pub(crate) unsafe fn scale8(self, v: __m256i) -> __m256i {
            // SAFETY: register arithmetic only; AVX2 is the caller's
            // obligation.
            unsafe {
                let even = _mm256_add_epi64(_mm256_mul_epi32(v, self.mant), self.round);
                let odd = _mm256_add_epi64(
                    _mm256_mul_epi32(_mm256_srli_epi64(v, 32), self.mant),
                    self.round,
                );
                let scaled = if self.high_path {
                    let high = _mm256_blend_epi32(_mm256_srli_epi64(even, 32), odd, 0b1010_1010);
                    _mm256_sra_epi32(high, self.count)
                } else {
                    let odd = _mm256_slli_epi64(self.sra64(odd), 32);
                    _mm256_blend_epi32(self.sra64(even), odd, 0b1010_1010)
                };
                _mm256_add_epi32(scaled, self.zero_point)
            }
        }
    }

    /// Saturates sixteen i32s (`lo` = elements 0–7, `hi` = 8–15) to i8, in
    /// order. `vpackssdw` then `vpacksswb` clamp to i16 then i8, which
    /// composes to the scalar `clamp(-128, 127)`.
    ///
    /// # Safety
    ///
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    #[inline]
    pub(crate) unsafe fn pack16(lo: __m256i, hi: __m256i) -> __m128i {
        // Per 128-bit lane: [lo0-3, hi0-3 | lo4-7, hi4-7] as i16, then the
        // same as i8 in each lane's low 8 bytes; dwords 0,4,1,5 restore
        // element order.
        let w = _mm256_packs_epi32(lo, hi);
        let b = _mm256_packs_epi16(w, w);
        let order = _mm256_setr_epi32(0, 4, 1, 5, 0, 0, 0, 0);
        _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(b, order))
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn lanes_match_scalar_requant() {
            if !is_x86_feature_detected!("avx2") {
                return;
            }
            let accs: [i32; 16] = [
                0,
                1,
                -1,
                127,
                -128,
                i32::MAX,
                i32::MIN,
                65_536,
                -65_537,
                12_345_678,
                -12_345_678,
                1 << 30,
                -(1 << 30),
                999,
                -999,
                42,
            ];
            for (mantissa, shift, zero_point) in [
                (1 << 30, 0, 0),
                (0x7fff_ffff, 7, -5),
                (0x4000_0001, -3, 9),
                (0x5a82_799a, 12, 0),
                (0x6000_0000, 31, 3),
                (0x6000_0000, -30, 0),
            ] {
                let rq = Requant {
                    mantissa,
                    shift,
                    zero_point,
                };
                assert!(rq.simd_ok());
                // Skip inputs whose scalar path would overflow its own
                // `+ zero_point` (a debug-build panic, not a contract).
                let want: Vec<i8> = accs
                    .iter()
                    .map(|&a| (rq.scale(a) as i64 + zero_point as i64).clamp(-128, 127) as i8)
                    .collect();
                let mut got = [0i8; 16];
                // SAFETY: AVX2 checked above; loads/stores cover the two
                // 16-element arrays exactly.
                unsafe {
                    let lanes = RqLanes::new(rq);
                    let lo = lanes.scale8(_mm256_loadu_si256(accs.as_ptr() as *const __m256i));
                    let hi =
                        lanes.scale8(_mm256_loadu_si256(accs.as_ptr().add(8) as *const __m256i));
                    _mm_storeu_si128(got.as_mut_ptr() as *mut __m128i, pack16(lo, hi));
                }
                // The lanes add the zero point with wrap-around; compare
                // where the scalar sum stays in range (everything here
                // except the extreme accumulators at tiny shifts).
                for (i, (&g, &w)) in got.iter().zip(want.iter()).enumerate() {
                    let exact = rq.scale(accs[i]).checked_add(zero_point).is_some();
                    if exact {
                        assert_eq!(g, w, "acc {} under {rq:?}", accs[i]);
                    }
                }
            }
        }
    }
}
