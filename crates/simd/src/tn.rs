//! The fp32 weight-gradient kernel: `out[kk, j] = Σ_mm a(mm, kk) · b[mm, j]`
//! over a block of output rows, the product under every `dW = dyᵀ · x`
//! of training.
//!
//! Unlike the fp32 GEMM tiles in [`crate::fp32`], every variant here
//! returns the **same bits**: each output element starts at `+0` and adds
//! its terms in ascending `mm` order, one rounded multiply and one rounded
//! add per term (never a fused multiply-add), skipping the terms whose
//! multiplier is `±0`. Lanes never mix, so the vector width cannot change
//! a result, and the tier a process dispatches to is only a matter of
//! speed.
//!
//! Two facts let a register tile skip zeros without branching per term:
//! an accumulator that starts at `+0` and only ever adds is never `−0`
//! (in round-to-nearest a sum is `−0` only when both addends are), and
//! adding `±0` to anything but `−0` returns it unchanged, NaN payloads
//! included. So where every `b` value is finite, a term with a `±0`
//! multiplier adds `±0` and changes no bit, and the kernels skip only the
//! steps whose whole row of multipliers is zero. Where `b` holds an
//! infinity or a NaN (`0 · ∞` is NaN), the caller asks for `exact` and
//! every `±0` term is skipped on its own.

/// The multipliers of a weight-gradient product: `a(mm, kk)` lives at
/// `a[mm·s_m + kk·s_k]` for `mm < m`. `(s_m, s_k) = (k, 1)` is a row-major
/// `[m, k]` matrix read transposed (a linear layer's `dy`); `(1, m)` is a
/// row-major `[k, m]` one (a convolution's `[c_out, out_len]` `dy`).
#[derive(Debug, Clone, Copy)]
pub struct TnLhs<'a> {
    /// The multiplier buffer.
    pub a: &'a [f32],
    /// Stride between consecutive `mm`.
    pub s_m: usize,
    /// Stride between consecutive output rows `kk`.
    pub s_k: usize,
    /// Length of the reduction.
    pub m: usize,
}

/// Output rows a register tile covers at once.
const TILE_ROWS: usize = 4;

/// Validates a [`crate::Fp32TnFn`] call; returns the number of output
/// rows.
#[inline(always)]
fn check_tn_args(lhs: &TnLhs<'_>, kk0: usize, b: &[f32], n: usize, out: &[f32]) -> usize {
    assert!(n > 0, "tn kernel: empty output row");
    assert_eq!(b.len(), lhs.m * n, "tn kernel: rhs size");
    assert!(out.len().is_multiple_of(n), "tn kernel: out size");
    let rows = out.len() / n;
    if rows > 0 && lhs.m > 0 {
        let last = (lhs.m - 1) * lhs.s_m + (kk0 + rows - 1) * lhs.s_k;
        assert!(last < lhs.a.len(), "tn kernel: lhs size");
    }
    rows
}

/// Portable kernel: `R × W` tiles of plain arrays that LLVM vectorises
/// for whatever target it builds for. `out` holds output rows
/// `kk0..kk0 + out.len()/n` and is overwritten.
///
/// # Panics
///
/// Panics if a buffer disagrees with the others.
pub fn tn_portable(lhs: TnLhs<'_>, kk0: usize, b: &[f32], n: usize, exact: bool, out: &mut [f32]) {
    let rows = check_tn_args(&lhs, kk0, b, n, out);
    let mut r = 0;
    while r < rows {
        let four = rows - r >= TILE_ROWS;
        let (o, kk) = (&mut out[r * n..], kk0 + r);
        match (four, exact) {
            (true, false) => row_block_portable::<4, false>(&lhs, kk, b, n, o),
            (true, true) => row_block_portable::<4, true>(&lhs, kk, b, n, o),
            (false, _) => row_block_portable::<1, false>(&lhs, kk, b, n, o),
        }
        r += if four { TILE_ROWS } else { 1 };
    }
}

/// Output rows `kk..kk+R` (the first `R` rows of `out`), all columns: 16-
/// and 8-wide tiles, then single columns.
fn row_block_portable<const R: usize, const EXACT: bool>(
    lhs: &TnLhs<'_>,
    kk: usize,
    b: &[f32],
    n: usize,
    out: &mut [f32],
) {
    let mut j0 = 0;
    while j0 < n {
        j0 += match n - j0 {
            16.. => tile_portable::<R, 16, EXACT>(lhs, kk, b, n, j0, out),
            8.. => tile_portable::<R, 8, EXACT>(lhs, kk, b, n, j0, out),
            _ => tile_portable::<R, 1, EXACT>(lhs, kk, b, n, j0, out),
        };
    }
}

/// `acc += v · b_row`, lane by lane.
#[inline(always)]
fn axpy<const W: usize>(acc: &mut [f32; W], v: f32, b_row: &[f32; W]) {
    for (o, &bv) in acc.iter_mut().zip(b_row) {
        *o += v * bv;
    }
}

/// One portable `R × W` tile (`R` is 4 or 1) at output row `kk` and
/// column `j0` of `out`, whose first `R` rows it writes; returns `W`. The
/// rows are named accumulators, not a 2-D array, so LLVM keeps every lane
/// in a vector register. A one-row tile needs no `EXACT` flavour: its
/// only multiplier is zero exactly when the whole step is skipped.
#[inline(always)]
fn tile_portable<const R: usize, const W: usize, const EXACT: bool>(
    lhs: &TnLhs<'_>,
    kk: usize,
    b: &[f32],
    n: usize,
    j0: usize,
    out: &mut [f32],
) -> usize {
    let (a, s_m, s_k) = (lhs.a, lhs.s_m, lhs.s_k);
    let mut acc0 = [0.0f32; W];
    let mut acc1 = [0.0f32; W];
    let mut acc2 = [0.0f32; W];
    let mut acc3 = [0.0f32; W];
    for mm in 0..lhs.m {
        let at = kk * s_k + mm * s_m;
        let v0 = a[at];
        let (v1, v2, v3) = if R == 4 {
            (a[at + s_k], a[at + 2 * s_k], a[at + 3 * s_k])
        } else {
            (0.0, 0.0, 0.0)
        };
        if v0 == 0.0 && v1 == 0.0 && v2 == 0.0 && v3 == 0.0 {
            continue;
        }
        let b_row: &[f32; W] = b[mm * n + j0..mm * n + j0 + W].try_into().unwrap();
        if EXACT {
            for (acc, v) in [
                (&mut acc0, v0),
                (&mut acc1, v1),
                (&mut acc2, v2),
                (&mut acc3, v3),
            ] {
                if v != 0.0 {
                    axpy(acc, v, b_row);
                }
            }
        } else {
            for j in 0..W {
                acc0[j] += v0 * b_row[j];
                if R == 4 {
                    acc1[j] += v1 * b_row[j];
                    acc2[j] += v2 * b_row[j];
                    acc3[j] += v3 * b_row[j];
                }
            }
        }
    }
    out[j0..j0 + W].copy_from_slice(&acc0);
    if R == 4 {
        out[n + j0..n + j0 + W].copy_from_slice(&acc1);
        out[2 * n + j0..2 * n + j0 + W].copy_from_slice(&acc2);
        out[3 * n + j0..3 * n + j0 + W].copy_from_slice(&acc3);
    }
    W
}

/// AVX-512F kernel: `4 × 64` tiles, sixteen `zmm` accumulators that stay
/// in registers for the whole `mm` loop, one load of each `b` row segment
/// per step and a memory broadcast per multiplier. The column tail is a
/// narrower tile whose last vector is masked. Same contract and bits as
/// [`tn_portable`], which it falls back to without AVX-512F.
///
/// # Panics
///
/// Panics if a buffer disagrees with the others.
pub fn tn_avx512(lhs: TnLhs<'_>, kk0: usize, b: &[f32], n: usize, exact: bool, out: &mut [f32]) {
    check_tn_args(&lhs, kk0, b, n, out);
    #[cfg(target_arch = "x86_64")]
    if crate::fp32::avx512_supported() {
        // SAFETY: AVX-512F availability checked above; every index the
        // kernel forms is bounded by `check_tn_args`.
        unsafe { tn_avx512_impl(lhs, kk0, b, n, exact, out) };
        return;
    }
    tn_portable(lhs, kk0, b, n, exact, out);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn tn_avx512_impl(
    lhs: TnLhs<'_>,
    kk0: usize,
    b: &[f32],
    n: usize,
    exact: bool,
    out: &mut [f32],
) {
    let rows = out.len() / n;
    let mut r = 0;
    while r < rows {
        let four = rows - r >= TILE_ROWS;
        let mut j0 = 0;
        while j0 < n {
            let w = (n - j0).min(64);
            let (o, kk) = (&mut out[r * n..], kk0 + r);
            // SAFETY: AVX-512F is enabled for this function; `check_tn_args`
            // bounds every multiplier index, and rows `r..r+R`, columns
            // `j0..j0+w` lie inside `b` and `out`.
            unsafe {
                match (four, exact) {
                    (true, false) => tile_avx512::<4, false>(&lhs, kk, b, n, j0, w, o),
                    (true, true) => tile_avx512::<4, true>(&lhs, kk, b, n, j0, w, o),
                    (false, _) => tile_avx512::<1, false>(&lhs, kk, b, n, j0, w, o),
                }
            }
            j0 += w;
        }
        r += if four { TILE_ROWS } else { 1 };
    }
}

/// One `R`-row AVX-512 tile of `w ≤ 64` columns at output row `kk`,
/// column `j0`: as many vectors as `w` needs, the last one masked.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn tile_avx512<const R: usize, const EXACT: bool>(
    lhs: &TnLhs<'_>,
    kk: usize,
    b: &[f32],
    n: usize,
    j0: usize,
    w: usize,
    out: &mut [f32],
) {
    // Lanes of the last vector that hold columns.
    let mask: u16 = if w.is_multiple_of(16) {
        u16::MAX
    } else {
        (1u16 << (w % 16)) - 1
    };
    // SAFETY: forwards the caller's guarantees.
    unsafe {
        match w.div_ceil(16) {
            4 => tile_vecs::<R, 4, EXACT>(lhs, kk, b, n, j0, mask, out),
            3 => tile_vecs::<R, 3, EXACT>(lhs, kk, b, n, j0, mask, out),
            2 => tile_vecs::<R, 2, EXACT>(lhs, kk, b, n, j0, mask, out),
            _ => tile_vecs::<R, 1, EXACT>(lhs, kk, b, n, j0, mask, out),
        }
    }
}

/// [`tile_avx512`] with `V` vectors per row; the last one loads and stores
/// only the lanes in `mask`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn tile_vecs<const R: usize, const V: usize, const EXACT: bool>(
    lhs: &TnLhs<'_>,
    kk: usize,
    b: &[f32],
    n: usize,
    j0: usize,
    mask: u16,
    out: &mut [f32],
) {
    use core::arch::x86_64::*;
    let (ap, s_m, s_k) = (lhs.a.as_ptr(), lhs.s_m, lhs.s_k);
    let bp = b.as_ptr();
    let op = out.as_mut_ptr();
    // SAFETY (whole body): the caller guarantees AVX-512F and that every
    // `a`, `b` and `out` offset formed here is in bounds; the masked
    // accesses touch only the lanes in `mask`.
    unsafe {
        let mut acc = [[_mm512_setzero_ps(); V]; R];
        for mm in 0..lhs.m {
            let at = kk * s_k + mm * s_m;
            let mut bits = 0u32;
            for r in 0..R {
                bits |= (*ap.add(at + r * s_k)).to_bits();
            }
            // Every multiplier is ±0: the step adds nothing.
            if bits << 1 == 0 {
                continue;
            }
            let row = bp.add(mm * n + j0);
            let bv: [__m512; V] = core::array::from_fn(|q| {
                if q + 1 == V {
                    _mm512_maskz_loadu_ps(mask, row.add(16 * q))
                } else {
                    _mm512_loadu_ps(row.add(16 * q))
                }
            });
            for (r, acc_r) in acc.iter_mut().enumerate() {
                let v = *ap.add(at + r * s_k);
                if EXACT && v == 0.0 {
                    continue;
                }
                let s = _mm512_set1_ps(v);
                for (c, &bq) in acc_r.iter_mut().zip(&bv) {
                    *c = _mm512_add_ps(*c, _mm512_mul_ps(s, bq));
                }
            }
        }
        for (r, acc_r) in acc.iter().enumerate() {
            for (q, &c) in acc_r.iter().enumerate() {
                let dst = op.add(r * n + j0 + 16 * q);
                if q + 1 == V {
                    _mm512_mask_storeu_ps(dst, mask, c);
                } else {
                    _mm512_storeu_ps(dst, c);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(len: usize, seed: u64, zero_every: usize) -> Vec<f32> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|i| {
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                let v = ((state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 40) as f32
                    / (1u64 << 24) as f32)
                    - 0.5;
                if zero_every > 0 && i % zero_every == 0 {
                    -0.0
                } else {
                    v
                }
            })
            .collect()
    }

    /// The one-row-at-a-time loop every kernel must reproduce bit for bit.
    fn reference(a: &[f32], m: usize, k: usize, b: &[f32], n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; k * n];
        for kk in 0..k {
            for mm in 0..m {
                let v = a[mm * k + kk];
                if v == 0.0 {
                    continue;
                }
                for j in 0..n {
                    out[kk * n + j] += v * b[mm * n + j];
                }
            }
        }
        out
    }

    #[test]
    fn every_tier_returns_the_reference_bits() {
        let shapes = [
            (1, 1, 1),
            (3, 5, 7),
            (30, 8, 140),
            (17, 9, 64),
            (4, 4, 65),
            (2, 3, 129),
        ];
        for (i, &(m, k, n)) in shapes.iter().enumerate() {
            let a = filled(m * k, i as u64, 3);
            let b = filled(m * n, 50 + i as u64, 0);
            let want = reference(&a, m, k, &b, n);
            let lhs = TnLhs {
                a: &a,
                s_m: k,
                s_k: 1,
                m,
            };
            for tn in [tn_portable as crate::Fp32TnFn, tn_avx512] {
                for exact in [false, true] {
                    // Rows 1.. only: the tile starts mid-matrix.
                    let kk0 = k.min(1);
                    let mut got = vec![f32::NAN; (k - kk0) * n];
                    tn(lhs, kk0, &b, n, exact, &mut got);
                    let same = got
                        .iter()
                        .zip(&want[kk0 * n..])
                        .all(|(x, y)| x.to_bits() == y.to_bits());
                    assert!(same, "({m},{k},{n}) exact={exact}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "lhs size")]
    fn out_of_range_multipliers_panic() {
        let lhs = TnLhs {
            a: &[0.0; 4],
            s_m: 2,
            s_k: 1,
            m: 2,
        };
        tn_portable(lhs, 0, &[0.0; 6], 3, false, &mut [0.0; 9]);
    }
}
