//! Dense matrix multiplication kernels.
//!
//! Three layouts cover every product a manual-backprop transformer needs:
//!
//! | Function       | Computes            | Typical use                      |
//! |----------------|---------------------|----------------------------------|
//! | [`matmul`]     | `A[m,k] · B[k,n]`   | attention `A·V`, backward        |
//! | [`matmul_nt`]  | `A[m,k] · Bᵀ[n,k]`  | `x · Wᵀ` forward (PyTorch layout)|
//! | [`matmul_tn`]  | `Aᵀ[m,k] · B[m,n]`  | weight gradients `dyᵀ · x`       |
//! | [`matvec`]     | `A[m,k] · v[k]`     | single-row products              |
//!
//! [`matmul`], [`matmul_nt`] and [`matvec`] route through the panel-packed,
//! register-tiled kernels in [`crate::pack`]: the right-hand side is packed
//! into L1-friendly [`crate::pack::NR`]-wide column panels once per call
//! (or once per *layer*, when the caller caches a
//! [`crate::pack::PackedB`]), and an `MR×NR` microkernel with unrolled FMA
//! accumulators produces each output tile.
//!
//! [`matmul_tn`] is backward-only (weight gradients) and needs no packing:
//! the [`bioformer_simd::tn`] kernel keeps a 4-row register tile for the
//! whole reduction and returns the bits of the original `i-k-j` loop,
//! skip-zero rule included, on every SIMD tier — the trained weights do
//! not depend on the machine's vector width. The original kernels remain
//! available as [`matmul_naive`] / [`matmul_nt_naive`] /
//! [`matmul_tn_naive`] — they are the reference oracles for the tiled
//! kernels' property tests and the baselines of their speed figures.
//!
//! All kernels split output rows across scoped threads when the problem is
//! large enough (see [`crate::parallel::plan_threads`]); the per-element
//! accumulation order never depends on the thread count.

use crate::pack::{self, Epilogue};
use crate::parallel::parallel_rows;
use crate::tensor::Tensor;
use bioformer_simd::TnLhs;

/// `C = A · B` for 2-D tensors `A[m,k]`, `B[k,n]`, via the packed kernel.
///
/// # Panics
///
/// Panics if either tensor is not 2-D or the inner dimensions disagree.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.shape().rank(), 2, "matmul: lhs must be 2-D");
    assert_eq!(b.shape().rank(), 2, "matmul: rhs must be 2-D");
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let (k2, n) = (b.dims()[0], b.dims()[1]);
    assert_eq!(
        k,
        k2,
        "matmul: inner dimensions disagree ({} vs {})",
        a.shape(),
        b.shape()
    );
    let mut packed = vec![0.0f32; pack::packed_len(k, n)];
    pack::pack_b(b.data(), k, n, &mut packed);
    let mut out = vec![0.0f32; m * n];
    pack::gemm_packed(a.data(), m, k, &packed, n, &mut out, Epilogue::None);
    Tensor::from_vec(out, &[m, n])
}

/// `C = A · Bᵀ` for `A[m,k]`, `B[n,k]` — the natural layout for a linear
/// layer whose weight matrix is stored `[out_features, in_features]` — via
/// the packed kernel.
///
/// # Panics
///
/// Panics if either tensor is not 2-D or the `k` dimensions disagree.
pub fn matmul_nt(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.shape().rank(), 2, "matmul_nt: lhs must be 2-D");
    assert_eq!(b.shape().rank(), 2, "matmul_nt: rhs must be 2-D");
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let (n, k2) = (b.dims()[0], b.dims()[1]);
    assert_eq!(
        k,
        k2,
        "matmul_nt: inner dimensions disagree ({} vs {})",
        a.shape(),
        b.shape()
    );
    let mut packed = vec![0.0f32; pack::packed_len(k, n)];
    pack::pack_b_t(b.data(), n, k, &mut packed);
    let mut out = vec![0.0f32; m * n];
    pack::gemm_packed(a.data(), m, k, &packed, n, &mut out, Epilogue::None);
    Tensor::from_vec(out, &[m, n])
}

/// Reference `i-k-j` kernel for [`matmul`] (the pre-packing implementation).
///
/// Kept as the oracle for the packed kernels' parity/property tests and as
/// the baseline of the `inference` benchmark's GEMM speedup comparison; not
/// used on any hot path.
///
/// # Panics
///
/// Panics if either tensor is not 2-D or the inner dimensions disagree.
pub fn matmul_naive(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.shape().rank(), 2, "matmul_naive: lhs must be 2-D");
    assert_eq!(b.shape().rank(), 2, "matmul_naive: rhs must be 2-D");
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let (k2, n) = (b.dims()[0], b.dims()[1]);
    assert_eq!(k, k2, "matmul_naive: inner dimensions disagree");
    let mut out = vec![0.0f32; m * n];
    if m == 0 || n == 0 {
        // Latent-bug guard: `chunks_mut(0)` panics for empty outputs.
        return Tensor::from_vec(out, &[m, n]);
    }
    let (ad, bd) = (a.data(), b.data());
    parallel_rows(&mut out, n, gemm_work(m, n, k), |row0, rows| {
        for (local_i, out_row) in rows.chunks_mut(n).enumerate() {
            let i = row0 + local_i;
            let a_row = &ad[i * k..(i + 1) * k];
            for (kk, &aik) in a_row.iter().enumerate() {
                if aik == 0.0 {
                    continue;
                }
                let b_row = &bd[kk * n..(kk + 1) * n];
                for (o, &bv) in out_row.iter_mut().zip(b_row.iter()) {
                    *o += aik * bv;
                }
            }
        }
    });
    Tensor::from_vec(out, &[m, n])
}

/// Reference dot-product kernel for [`matmul_nt`] (the pre-packing
/// implementation); see [`matmul_naive`] for why it is kept.
///
/// # Panics
///
/// Panics if either tensor is not 2-D or the `k` dimensions disagree.
pub fn matmul_nt_naive(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.shape().rank(), 2, "matmul_nt_naive: lhs must be 2-D");
    assert_eq!(b.shape().rank(), 2, "matmul_nt_naive: rhs must be 2-D");
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let (n, k2) = (b.dims()[0], b.dims()[1]);
    assert_eq!(k, k2, "matmul_nt_naive: inner dimensions disagree");
    let mut out = vec![0.0f32; m * n];
    if m == 0 || n == 0 {
        // Latent-bug guard: `chunks_mut(0)` panics for empty outputs.
        return Tensor::from_vec(out, &[m, n]);
    }
    let (ad, bd) = (a.data(), b.data());
    parallel_rows(&mut out, n, gemm_work(m, n, k), |row0, rows| {
        for (local_i, out_row) in rows.chunks_mut(n).enumerate() {
            let i = row0 + local_i;
            let a_row = &ad[i * k..(i + 1) * k];
            for (j, o) in out_row.iter_mut().enumerate() {
                *o = dot_unrolled(a_row, &bd[j * k..(j + 1) * k]);
            }
        }
    });
    Tensor::from_vec(out, &[m, n])
}

/// `C = Aᵀ · B` for `A[m,k]`, `B[m,n]`, producing `C[k,n]` — the weight
/// gradient `dW = dyᵀ · x` of a linear layer.
///
/// Backward-only, so it keeps the skip-zero rule of the original `i-k-j`
/// kernel (see [`matmul_tn_into`]): gradients arriving through ReLU/dropout
/// masks carry exact zeros, a property inference activations do not have.
///
/// # Panics
///
/// Panics if either tensor is not 2-D or the `m` dimensions disagree.
pub fn matmul_tn(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.shape().rank(), 2, "matmul_tn: lhs must be 2-D");
    assert_eq!(b.shape().rank(), 2, "matmul_tn: rhs must be 2-D");
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let (m2, n) = (b.dims()[0], b.dims()[1]);
    assert_eq!(
        m,
        m2,
        "matmul_tn: outer dimensions disagree ({} vs {})",
        a.shape(),
        b.shape()
    );
    let mut out = vec![0.0f32; k * n];
    matmul_tn_into(a.data(), m, k, b.data(), n, &mut out);
    Tensor::from_vec(out, &[k, n])
}

/// Slice-level [`matmul_tn`] into a caller-provided `out` (`k·n` floats,
/// overwritten): `out = aᵀ · b` for row-major `a[m,k]` and `b[m,n]`.
///
/// Each output element starts at `+0` and adds its `m` products in
/// ascending row order, one rounded multiply then one rounded add per
/// term (no fused multiply-add), skipping the terms whose `a` entry is
/// `±0`: rows of `a` that are zero throughout contribute nothing, so
/// dropping them gives the same bits. [`matmul_tn_naive`] is that loop
/// written out; this register-tiled kernel returns its bits on every
/// input (see [`matmul_tn_strided_into`]).
///
/// # Panics
///
/// Panics if a slice length disagrees with `(m, k, n)`.
pub fn matmul_tn_into(a: &[f32], m: usize, k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    assert_eq!(a.len(), m * k, "matmul_tn: lhs size");
    matmul_tn_strided_into(a, (k, 1), m, k, b, n, out);
}

/// [`matmul_tn_into`] with the multipliers read through strides:
/// `out[kk, j] = Σ_mm a[mm·s_m + kk·s_k] · b[mm, j]` for `b[m,n]` and
/// `out[k,n]` row-major, where `(s_m, s_k) = strides`. `(k, 1)` is `aᵀ·b`
/// for `a[m,k]`; `(1, m)` is `a·b` for `a[k,m]`, the layout of a
/// convolution's `[c_out, out_len]` output gradient.
///
/// The per-element arithmetic is [`matmul_tn_into`]'s, computed by the
/// dispatched [`bioformer_simd::tn`] kernel: register tiles of 4 output
/// rows that keep their accumulators for the whole `m` loop. Every tier
/// returns the same bits, so the kernel reads the process dispatch
/// whatever tier a layer pins.
///
/// # Panics
///
/// Panics if `b` or `out` disagrees with `(m, k, n)`, or a multiplier
/// index falls outside `a`.
pub fn matmul_tn_strided_into(
    a: &[f32],
    strides: (usize, usize),
    m: usize,
    k: usize,
    b: &[f32],
    n: usize,
    out: &mut [f32],
) {
    assert_eq!(b.len(), m * n, "matmul_tn: rhs size");
    assert_eq!(out.len(), k * n, "matmul_tn: out size");
    if k == 0 || n == 0 {
        // Latent-bug guard: `chunks_mut(0)` panics for empty outputs.
        return;
    }
    let lhs = TnLhs {
        a,
        s_m: strides.0,
        s_k: strides.1,
        m,
    };
    // `0 · ∞` is NaN, so only a finite `b` lets a zero multiplier ride
    // along unskipped (see `bioformer_simd::tn`).
    let exact = !b.iter().fold(true, |ok, v| ok & v.is_finite());
    let tn = bioformer_simd::kernels().fp32_tn;
    parallel_rows(out, n, gemm_work(m, n, k), |row0, rows| {
        tn(lhs, row0, b, n, exact, rows);
    });
}

/// Reference loop for [`matmul_tn_into`] (the kernel before register
/// tiling): `out = aᵀ · b`, one output row at a time, re-reading and
/// re-writing that row for every `mm`. Kept as the bit-exact oracle of
/// the tiled kernel's tests and as the baseline of its speed figures; not
/// used on any hot path.
///
/// # Panics
///
/// Panics if a slice length disagrees with `(m, k, n)`.
pub fn matmul_tn_naive(a: &[f32], m: usize, k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    assert_eq!(a.len(), m * k, "matmul_tn_naive: lhs size");
    assert_eq!(b.len(), m * n, "matmul_tn_naive: rhs size");
    assert_eq!(out.len(), k * n, "matmul_tn_naive: out size");
    out.fill(0.0);
    if k == 0 || n == 0 {
        // Latent-bug guard: `chunks_mut(0)` panics for empty outputs.
        return;
    }
    parallel_rows(out, n, gemm_work(m, n, k), |row0, rows| {
        for (local_kk, out_row) in rows.chunks_mut(n).enumerate() {
            let kk = row0 + local_kk;
            for mm in 0..m {
                let a_val = a[mm * k + kk];
                if a_val == 0.0 {
                    continue;
                }
                let b_row = &b[mm * n..(mm + 1) * n];
                for (o, &bv) in out_row.iter_mut().zip(b_row.iter()) {
                    *o += a_val * bv;
                }
            }
        }
    });
}

/// Unrolled dot product with four partial sums, breaking the sequential FP
/// dependence chain so the loop vectorises. Shared by [`matvec`], the
/// [`matmul_nt_naive`] reference and the packed kernels' remainder paths.
#[inline]
pub fn dot_unrolled(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = [0.0f32; 4];
    let mut it_a = a.chunks_exact(4);
    let mut it_b = b.chunks_exact(4);
    for (ca, cb) in (&mut it_a).zip(&mut it_b) {
        acc[0] += ca[0] * cb[0];
        acc[1] += ca[1] * cb[1];
        acc[2] += ca[2] * cb[2];
        acc[3] += ca[3] * cb[3];
    }
    let mut tail = 0.0f32;
    for (x, y) in it_a.remainder().iter().zip(it_b.remainder().iter()) {
        tail += x * y;
    }
    acc[0] + acc[1] + acc[2] + acc[3] + tail
}

/// Matrix–vector product `A[m,k] · v[k]`, returning a length-`m` 1-D tensor.
///
/// Each row is an unrolled four-accumulator dot product ([`dot_unrolled`] —
/// the same primitive the GEMM kernels build on), and rows are split across
/// threads by the shared [`crate::parallel::plan_threads`] planner. The
/// previous implementation was serial with a single sequential FP
/// dependence chain per row.
///
/// # Panics
///
/// Panics if `a` is not 2-D, `v` is not 1-D, or the lengths disagree.
pub fn matvec(a: &Tensor, v: &Tensor) -> Tensor {
    assert_eq!(a.shape().rank(), 2, "matvec: lhs must be 2-D");
    assert_eq!(v.shape().rank(), 1, "matvec: rhs must be 1-D");
    let (m, k) = (a.dims()[0], a.dims()[1]);
    assert_eq!(k, v.dims()[0], "matvec: dimension mismatch");
    let mut out = vec![0.0f32; m];
    let (ad, vd) = (a.data(), v.data());
    parallel_rows(&mut out, 1, gemm_work(m, 1, k), |row0, rows| {
        for (local_i, o) in rows.iter_mut().enumerate() {
            let i = row0 + local_i;
            *o = dot_unrolled(&ad[i * k..(i + 1) * k], vd);
        }
    });
    Tensor::from_vec(out, &[m])
}

/// Work estimate of an `m×k · k×n` GEMM in **FLOPs** (each of the `m·n·k`
/// multiply–accumulate pairs counts as 2 floating-point operations).
///
/// Every kernel in this module and in [`crate::pack`] passes exactly this
/// value to [`crate::parallel::plan_threads`], so the planner's thresholds
/// are calibrated against one unit. (Before this helper existed, call sites hand-rolled
/// `2 * m * n * k`, which invited double-counting bugs when a new kernel
/// guessed differently.)
pub const fn gemm_work(m: usize, n: usize, k: usize) -> usize {
    2 * m * n * k
}

// Re-export a convenience method surface on Tensor.
impl Tensor {
    /// `self · rhs`; see [`matmul`].
    ///
    /// # Panics
    ///
    /// Panics if either tensor is not 2-D or the inner dimensions disagree.
    pub fn matmul(&self, rhs: &Tensor) -> Tensor {
        matmul(self, rhs)
    }

    /// `self · rhsᵀ`; see [`matmul_nt`].
    ///
    /// # Panics
    ///
    /// Panics if either tensor is not 2-D or the inner dimensions disagree.
    pub fn matmul_nt(&self, rhs: &Tensor) -> Tensor {
        matmul_nt(self, rhs)
    }

    /// `selfᵀ · rhs`; see [`matmul_tn`].
    ///
    /// # Panics
    ///
    /// Panics if either tensor is not 2-D or the outer dimensions disagree.
    pub fn matmul_tn(&self, rhs: &Tensor) -> Tensor {
        matmul_tn(self, rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::plan_threads;

    /// Regression: a GEMM large enough to cross the parallel threshold must
    /// not panic when only one worker thread is available (single-core
    /// machines, or benchmarks forcing a serial baseline). `plan_threads`
    /// used to call `clamp(2, 1)` here.
    #[test]
    fn above_threshold_gemm_works_single_threaded() {
        let _guard = crate::parallel::override_guard(1);
        let n = 330; // 2·n³ > PARALLEL_WORK_THRESHOLD
        let a = Tensor::from_fn(&[n, n], |i| (i % 7) as f32 - 3.0);
        let c = matmul(&a, &Tensor::eye(n));
        assert!(c.allclose(&a, 0.0));
    }

    /// Pins `plan_threads` at the threshold boundaries so the planner's
    /// units (FLOPs via [`gemm_work`]) cannot silently drift: callers and
    /// planner must keep agreeing on what "work" means.
    #[test]
    fn plan_threads_boundaries() {
        use crate::parallel::PARALLEL_WORK_THRESHOLD as T;
        let _guard = crate::parallel::override_guard(16);
        // Below the threshold: always serial.
        assert_eq!(plan_threads(0), 1);
        assert_eq!(plan_threads(T - 1), 1);
        // At the threshold: 2^26 FLOPs / 2^24 per thread = 4 threads.
        assert_eq!(plan_threads(T), 4);
        // One thread per 16 MFLOP past it…
        assert_eq!(plan_threads(1 << 28), 16);
        // …clamped to the machine/override cap.
        assert_eq!(plan_threads(1 << 29), 16);
        assert_eq!(plan_threads(usize::MAX), 16);
        drop(_guard);
        // Single-core machines never fan out, whatever the work.
        let _guard = crate::parallel::override_guard(1);
        assert_eq!(plan_threads(usize::MAX), 1);
    }

    /// The planner units are pinned to [`gemm_work`]: a bio1-block-sized
    /// GEMM stays serial, a clearly-huge one fans out.
    #[test]
    fn gemm_work_units_drive_the_planner() {
        let _guard = crate::parallel::override_guard(16);
        assert_eq!(gemm_work(32, 256, 64), 2 * 32 * 256 * 64);
        assert_eq!(plan_threads(gemm_work(32, 256, 64)), 1); // 1 MFLOP: serial
        assert_eq!(plan_threads(gemm_work(512, 512, 512)), 16); // 268 MFLOP
    }

    fn naive(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.dims()[0], a.dims()[1]);
        let n = b.dims()[1];
        let mut out = Tensor::zeros(&[m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for kk in 0..k {
                    acc += a.at(&[i, kk]) * b.at(&[kk, j]);
                }
                out.set(&[i, j], acc);
            }
        }
        out
    }

    fn filled(dims: &[usize], seed: u64) -> Tensor {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        Tensor::from_fn(dims, |_| {
            // xorshift64*
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            let v = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
            ((v >> 40) as f32 / (1u64 << 24) as f32) - 0.5
        })
    }

    #[test]
    fn matmul_matches_naive() {
        let a = filled(&[7, 5], 1);
        let b = filled(&[5, 9], 2);
        assert!(matmul(&a, &b).allclose(&naive(&a, &b), 1e-4));
    }

    #[test]
    fn matmul_identity() {
        let a = filled(&[4, 4], 3);
        assert!(matmul(&a, &Tensor::eye(4)).allclose(&a, 1e-6));
        assert!(matmul(&Tensor::eye(4), &a).allclose(&a, 1e-6));
    }

    #[test]
    fn matmul_nt_matches_naive() {
        let a = filled(&[6, 8], 4);
        let b = filled(&[5, 8], 5);
        let expect = naive(&a, &b.transpose2());
        assert!(matmul_nt(&a, &b).allclose(&expect, 1e-4));
    }

    #[test]
    fn matmul_tn_matches_naive() {
        let a = filled(&[6, 3], 6);
        let b = filled(&[6, 4], 7);
        let expect = naive(&a.transpose2(), &b);
        assert!(matmul_tn(&a, &b).allclose(&expect, 1e-4));
    }

    #[test]
    fn reference_kernels_match_packed_kernels() {
        let a = filled(&[13, 37], 12);
        let b = filled(&[37, 21], 13);
        assert!(matmul_naive(&a, &b).allclose(&matmul(&a, &b), 1e-4));
        let bt = filled(&[21, 37], 14);
        assert!(matmul_nt_naive(&a, &bt).allclose(&matmul_nt(&a, &bt), 1e-4));
    }

    /// The satellite fix for `matvec`: it must agree with `matmul` against
    /// a column vector over shapes exercising the unrolled remainder (k not
    /// a multiple of 4) and the single-row edge.
    #[test]
    fn matvec_matches_matmul() {
        for &(m, k) in &[(5, 7), (1, 1), (8, 4), (3, 13), (17, 64)] {
            let a = filled(&[m, k], 8 + m as u64);
            let v = filled(&[k], 9 + k as u64);
            let mv = matvec(&a, &v);
            let mm = matmul(&a, &v.reshape(&[k, 1]));
            for i in 0..m {
                assert!(
                    (mv.data()[i] - mm.data()[i]).abs() < 1e-5,
                    "({m},{k}) row {i}"
                );
            }
        }
    }

    #[test]
    fn large_parallel_matches_naive() {
        // Big enough to trigger the threaded path.
        let a = filled(&[64, 96], 10);
        let b = filled(&[96, 80], 11);
        assert!(matmul(&a, &b).allclose(&naive(&a, &b), 1e-3));
    }

    #[test]
    #[should_panic(expected = "inner dimensions disagree")]
    fn mismatched_inner_dims_panic() {
        matmul(&Tensor::zeros(&[2, 3]), &Tensor::zeros(&[4, 2]));
    }

    #[test]
    fn one_by_one() {
        let a = Tensor::from_vec(vec![3.0], &[1, 1]);
        let b = Tensor::from_vec(vec![4.0], &[1, 1]);
        assert_eq!(matmul(&a, &b).data(), &[12.0]);
    }

    /// Regression: every kernel must return an empty tensor — not panic in
    /// `chunks_mut(0)` — when an output dimension is zero (e.g. the weight
    /// gradient of a zero-output-feature layer).
    #[test]
    fn zero_dim_outputs_do_not_panic() {
        let z = |dims: &[usize]| Tensor::zeros(dims);
        assert_eq!(matmul(&z(&[3, 2]), &z(&[2, 0])).dims(), &[3, 0]);
        assert_eq!(matmul_naive(&z(&[3, 2]), &z(&[2, 0])).dims(), &[3, 0]);
        assert_eq!(matmul_nt(&z(&[3, 2]), &z(&[0, 2])).dims(), &[3, 0]);
        assert_eq!(matmul_nt_naive(&z(&[3, 2]), &z(&[0, 2])).dims(), &[3, 0]);
        // dW = dyᵀ·x with 0 output features: [3,0]ᵀ · [3,4] = [0,4]…
        assert_eq!(matmul_tn(&z(&[3, 0]), &z(&[3, 4])).dims(), &[0, 4]);
        // …and with a 0-column rhs.
        assert_eq!(matmul_tn(&z(&[3, 2]), &z(&[3, 0])).dims(), &[2, 0]);
        assert_eq!(matvec(&z(&[0, 4]), &z(&[4])).dims(), &[0]);
    }

    #[test]
    fn dot_unrolled_matches_sum() {
        let a = filled(&[23], 20);
        let b = filled(&[23], 21);
        let want: f32 = a
            .data()
            .iter()
            .zip(b.data().iter())
            .map(|(x, y)| x * y)
            .sum();
        assert!((dot_unrolled(a.data(), b.data()) - want).abs() < 1e-5);
        assert_eq!(dot_unrolled(&[], &[]), 0.0);
    }
}
