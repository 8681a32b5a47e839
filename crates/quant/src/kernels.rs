//! Integer GEMM and convolution kernels (i8 operands, i32 accumulation).
//!
//! All activations in the converted Bioformer use **symmetric** int8
//! quantization (zero-point 0), so the hot kernels are plain dot products
//! with no offset-correction terms — matching the PULP-NN/`MCU-Transformer`
//! kernels of the paper's deployment flow (the paper's reference \[25\]).
//! For asymmetric grids, [`qgemm_i32_zp`] folds the zero points in via
//! precomputed per-row/per-column correction sums instead of widening every
//! operand in the inner loop.
//!
//! # Kernel structure
//!
//! The drivers in this module multiply **row-major** operands: each `A`
//! row against [`QNR`]-wide tiles of `B` rows through the dispatched
//! [`bioformer_simd`] dot tile (a `vpdpbusd` tile on VNNI hosts, an AVX2
//! widen–multiply–add tile otherwise, the scalar reduction as the portable
//! fallback), or in one call through the tier's whole-GEMM kernel. They are
//! what the attention products run on, whose right-hand side is an
//! activation, and the reference the packed kernels are tested against.
//! The converted model's **weight** products do not come through here:
//! [`crate::layers::QLinear`] and [`crate::layers::QConv1d`] pack their
//! weights once and call the tier's packed kernel
//! ([`bioformer_simd::packed`]). Integer addition is associative, so every
//! dispatch tier and both families are **bit-for-bit** identical to a
//! naive triple loop — pinned by property tests and the cross-tier parity
//! suite (`tests/simd_kernels.rs`).
//!
//! Requantization fuses into the store ([`qgemm_requant_into`]): each
//! `i32` accumulator goes straight to an `i8` code while still in a
//! register, with no intermediate `Vec<i32>` materialised. The standalone
//! convolution ([`qconv1d_i32`]) lowers to im2col + the same GEMM core, so
//! it inherits whichever tile the dispatch selected.

use crate::qtensor::{QParams, QTensor};
use crate::requant::FixedMultiplier;

// The GEMM drivers themselves live in `bioformer_tensor::qgemm`; they are
// re-exported here so there is a single definition for the bit-exactness
// contracts to rely on.
pub use bioformer_tensor::qgemm::{qgemm_i32_into, qgemm_nt_into, qgemm_requant_into, QNR};

/// `C[m,n] = A[m,k] · B[n,k]ᵀ (+ bias)`, returning raw i32 accumulators.
///
/// Allocating wrapper over [`qgemm_i32_into`].
///
/// # Panics
///
/// Panics on inconsistent dimensions.
pub fn qgemm_i32(
    a: &[i8],
    b: &[i8],
    bias: Option<&[i32]>,
    m: usize,
    k: usize,
    n: usize,
) -> Vec<i32> {
    let mut out = vec![0i32; m * n];
    qgemm_i32_into(a, b, bias, m, k, n, &mut out);
    out
}

/// Zero-point-corrected int8 GEMM for **asymmetric** grids:
/// `C[i,j] = Σ_k (A[i,k] − za)(B[j,k] − zb) (+ bias[j])`.
///
/// Instead of widening and offsetting both operands inside the inner loop,
/// the raw products are accumulated as in [`qgemm_i32`] and the offsets are
/// folded in afterwards via the algebraic expansion
///
/// ```text
/// Σ (a−za)(b−zb) = Σ a·b − zb·Σa_row − za·Σb_col + k·za·zb
/// ```
///
/// with `Σa_row` (per output row) and `Σb_col` (per output column, i.e. per
/// `B` row) each precomputed **once** — `O(m·k + n·k)` extra work instead
/// of `O(m·n·k)` extra inner-loop arithmetic. With `za = zb = 0` this
/// degenerates to exactly [`qgemm_i32`] (the symmetric grids the Bioformer
/// deployment uses).
///
/// # Panics
///
/// Panics on inconsistent dimensions.
#[allow(clippy::too_many_arguments)]
pub fn qgemm_i32_zp(
    a: &[i8],
    za: i32,
    b: &[i8],
    zb: i32,
    bias: Option<&[i32]>,
    m: usize,
    k: usize,
    n: usize,
) -> Vec<i32> {
    let mut out = qgemm_i32(a, b, bias, m, k, n);
    if za == 0 && zb == 0 {
        return out;
    }
    // Correction sums, each computed once.
    let row_sums: Vec<i32> = (0..m)
        .map(|i| a[i * k..(i + 1) * k].iter().map(|&v| v as i32).sum())
        .collect();
    let col_sums: Vec<i32> = (0..n)
        .map(|j| b[j * k..(j + 1) * k].iter().map(|&v| v as i32).sum())
        .collect();
    let kzz = k as i32 * za * zb;
    for i in 0..m {
        let rs = row_sums[i];
        let out_row = &mut out[i * n..(i + 1) * n];
        for (j, o) in out_row.iter_mut().enumerate() {
            *o += kzz - zb * rs - za * col_sums[j];
        }
    }
    out
}

/// Requantizes a vector of i32 accumulators to int8.
pub fn requantize_vec(acc: &[i32], mult: FixedMultiplier, zero_point: i32) -> Vec<i8> {
    acc.iter()
        .map(|&v| mult.requantize_to_i8(v, zero_point))
        .collect()
}

/// Full int8 GEMM: accumulate and requantize to the output grid in one
/// fused pass.
pub fn qgemm(
    a: &QTensor,
    b: &QTensor,
    bias: Option<&[i32]>,
    mult: FixedMultiplier,
    out_params: QParams,
) -> QTensor {
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let n = b.dims()[0];
    assert_eq!(b.dims()[1], k, "qgemm: inner dimension mismatch");
    let mut out = vec![0i8; m * n];
    qgemm_requant_into(
        a.data(),
        b.data(),
        bias,
        m,
        k,
        n,
        mult,
        out_params.zero_point,
        &mut out,
    );
    QTensor::from_raw(out, &[m, n], out_params)
}

/// Output length of a valid (unpadded) 1-D convolution.
///
/// # Panics
///
/// Panics when the input is shorter than the kernel.
pub fn conv1d_out_len(len: usize, kernel: usize, stride: usize) -> usize {
    assert!(len >= kernel, "qconv: input shorter than kernel");
    (len - kernel) / stride + 1
}

/// Gathers the im2col image of an `[in_ch, len]` int8 input: row `ot` of
/// `dst` holds the `in_ch·kernel` codes of output window `ot`, channel-major
/// and tap-minor — the same order [`qconv1d_i32`]'s accumulation has always
/// used, and exactly a `B[n, k]` right-hand side for the blocked GEMM.
///
/// # Panics
///
/// Panics on inconsistent dimensions.
pub fn qconv1d_im2col(
    x: &[i8],
    in_ch: usize,
    len: usize,
    kernel: usize,
    stride: usize,
    dst: &mut [i8],
) {
    assert_eq!(x.len(), in_ch * len, "qconv: input size");
    let out_len = conv1d_out_len(len, kernel, stride);
    let patch = in_ch * kernel;
    assert_eq!(dst.len(), out_len * patch, "qconv: im2col size");
    for (ot, row) in dst.chunks_exact_mut(patch).enumerate() {
        let start = ot * stride;
        for ic in 0..in_ch {
            row[ic * kernel..(ic + 1) * kernel]
                .copy_from_slice(&x[ic * len + start..ic * len + start + kernel]);
        }
    }
}

/// int8 1-D convolution over `[in_ch, len]` with i32 accumulation, lowered
/// to im2col + the blocked GEMM core (`A` = weights `[out_ch, in_ch·kernel]`,
/// `B` = im2col patches) so it rides the dispatched SIMD dot tile. The
/// allocation-free core of [`qconv1d_i32`]: the caller provides the im2col
/// scratch (`out_len·in_ch·kernel` codes) and the `[out_ch, out_len]`
/// accumulator buffer.
///
/// Bit-for-bit identical to the direct triple loop: the im2col row order
/// matches the original channel-major/tap-minor accumulation order, and
/// i32 addition is associative.
///
/// # Panics
///
/// Panics on inconsistent dimensions.
#[allow(clippy::too_many_arguments)]
pub fn qconv1d_i32_into(
    x: &[i8],
    w: &[i8],
    bias: &[i32],
    in_ch: usize,
    len: usize,
    out_ch: usize,
    kernel: usize,
    stride: usize,
    im2col: &mut [i8],
    out: &mut [i32],
) {
    assert_eq!(w.len(), out_ch * in_ch * kernel, "qconv: weight size");
    assert_eq!(bias.len(), out_ch, "qconv: bias size");
    let out_len = conv1d_out_len(len, kernel, stride);
    assert_eq!(out.len(), out_ch * out_len, "qconv: output size");
    qconv1d_im2col(x, in_ch, len, kernel, stride, im2col);
    qgemm_i32_into(w, im2col, None, out_ch, in_ch * kernel, out_len, out);
    // The conv bias is per output *channel* — a GEMM row, not a GEMM
    // column — so it cannot ride the qgemm bias argument.
    for (row, &bv) in out.chunks_exact_mut(out_len).zip(bias.iter()) {
        for o in row {
            *o += bv;
        }
    }
}

/// int8 1-D convolution over `[in_ch, len]` with i32 accumulation.
/// Out-of-range (padding) taps contribute zero, consistent with symmetric
/// activation quantization where real 0 ↦ code 0.
///
/// Returns `[out_ch, out_len]` accumulators. Allocating wrapper over
/// [`qconv1d_i32_into`].
///
/// # Panics
///
/// Panics on inconsistent dimensions.
#[allow(clippy::too_many_arguments)]
pub fn qconv1d_i32(
    x: &[i8],
    w: &[i8],
    bias: &[i32],
    in_ch: usize,
    len: usize,
    out_ch: usize,
    kernel: usize,
    stride: usize,
) -> Vec<i32> {
    let out_len = conv1d_out_len(len, kernel, stride);
    let mut im2col = vec![0i8; out_len * in_ch * kernel];
    let mut y = vec![0i32; out_ch * out_len];
    qconv1d_i32_into(
        x,
        w,
        bias,
        in_ch,
        len,
        out_ch,
        kernel,
        stride,
        &mut im2col,
        &mut y,
    );
    y
}

/// An integer residual connection prepared once: both operands' scale
/// hand-offs to the output grid encoded as fixed-point multipliers at
/// conversion time, so the per-window path is multiply, shift, add.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QAdd {
    ma: FixedMultiplier,
    mb: FixedMultiplier,
    za: i32,
    zb: i32,
    zo: i32,
}

impl QAdd {
    /// Prepares `out = a + b` for operands on grids `pa`, `pb` and a sum
    /// on grid `out_params`.
    pub fn new(pa: QParams, pb: QParams, out_params: QParams) -> Self {
        QAdd {
            ma: FixedMultiplier::encode(pa.scale as f64 / out_params.scale as f64),
            mb: FixedMultiplier::encode(pb.scale as f64 / out_params.scale as f64),
            za: pa.zero_point,
            zb: pb.zero_point,
            zo: out_params.zero_point,
        }
    }

    /// Requantizes both code slices onto the output grid and adds them
    /// with saturation.
    ///
    /// # Panics
    ///
    /// Panics when the slice lengths disagree.
    pub fn apply(&self, a: &[i8], b: &[i8], out: &mut [i8]) {
        assert_eq!(a.len(), b.len(), "qadd: length mismatch");
        assert_eq!(a.len(), out.len(), "qadd: output length mismatch");
        let QAdd { ma, mb, za, zb, zo } = *self;
        for ((o, &qa), &qb) in out.iter_mut().zip(a.iter()).zip(b.iter()) {
            let ra = ma.apply(qa as i32 - za);
            let rb = mb.apply(qb as i32 - zb);
            *o = (ra + rb + zo).clamp(-128, 127) as i8;
        }
    }
}

/// Requantizes two int8 code slices onto a common output grid and adds
/// them with saturation, into a caller-provided buffer — [`QAdd`] built
/// and applied in one call, for callers that add once.
///
/// # Panics
///
/// Panics when the slice lengths disagree.
pub fn qadd_into(
    a: &[i8],
    pa: QParams,
    b: &[i8],
    pb: QParams,
    out_params: QParams,
    out: &mut [i8],
) {
    QAdd::new(pa, pb, out_params).apply(a, b, out);
}

/// Requantizes two int8 tensors onto a common output grid and adds them
/// with saturation — the integer residual connection. Allocating wrapper
/// over [`qadd_into`].
pub fn qadd(a: &QTensor, b: &QTensor, out_params: QParams) -> QTensor {
    assert_eq!(a.dims(), b.dims(), "qadd: shape mismatch");
    let mut data = vec![0i8; a.data().len()];
    qadd_into(
        a.data(),
        a.params(),
        b.data(),
        b.params(),
        out_params,
        &mut data,
    );
    QTensor::from_raw(data, a.dims(), out_params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bioformer_tensor::Tensor;

    #[test]
    fn qgemm_i32_matches_integer_reference() {
        // 2x3 · (2x3)ᵀ
        let a: Vec<i8> = vec![1, 2, 3, -1, 0, 2];
        let b: Vec<i8> = vec![2, 0, 1, -3, 1, 1];
        let acc = qgemm_i32(&a, &b, None, 2, 3, 2);
        // row0·b0 = 2+0+3 = 5 ; row0·b1 = -3+2+3 = 2
        // row1·b0 = -2+0+2 = 0 ; row1·b1 = 3+0+2 = 5
        assert_eq!(acc, vec![5, 2, 0, 5]);
    }

    /// Naive reference for the blocked kernels (no column blocking, no
    /// fusion) — what `qgemm_i32` was before the rework.
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

    /// The blocked kernel must be bit-for-bit the naive triple loop,
    /// including the column tail (n not a multiple of QNR) and degenerate
    /// dims.
    #[test]
    fn blocked_qgemm_is_bit_exact_across_shapes() {
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 4),
            (2, 7, 9),
            (4, 16, 3),
            (5, 0, 6),
            (0, 4, 4),
            (6, 31, 17),
        ] {
            let a = qfilled(m * k, 1 + m as u64);
            let b = qfilled(n * k, 2 + n as u64);
            let bias: Vec<i32> = (0..n as i32).map(|j| j * 7 - 3).collect();
            assert_eq!(
                qgemm_i32(&a, &b, Some(&bias), m, k, n),
                qgemm_reference(&a, &b, Some(&bias), m, k, n),
                "shape ({m},{k},{n})"
            );
        }
    }

    /// Fused requantize-at-store must match accumulate-then-requantize
    /// bit-for-bit.
    #[test]
    fn fused_requant_matches_two_pass() {
        let (m, k, n) = (5, 19, 11);
        let a = qfilled(m * k, 3);
        let b = qfilled(n * k, 4);
        let bias: Vec<i32> = (0..n as i32).map(|j| j * 100 - 500).collect();
        let mult = FixedMultiplier::encode(0.0173);
        let two_pass = requantize_vec(&qgemm_i32(&a, &b, Some(&bias), m, k, n), mult, -5);
        let mut fused = vec![0i8; m * n];
        qgemm_requant_into(&a, &b, Some(&bias), m, k, n, mult, -5, &mut fused);
        assert_eq!(fused, two_pass);
    }

    /// The precomputed-correction-sum path must equal offsetting every
    /// operand in the inner loop, and degenerate to the plain kernel at
    /// zero offsets.
    #[test]
    fn zero_point_corrections_match_widened_reference() {
        let (m, k, n) = (4, 13, 6);
        let a = qfilled(m * k, 5);
        let b = qfilled(n * k, 6);
        let (za, zb) = (-3i32, 7i32);
        let mut want = vec![0i32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0i64;
                for kk in 0..k {
                    acc += (a[i * k + kk] as i64 - za as i64) * (b[j * k + kk] as i64 - zb as i64);
                }
                want[i * n + j] = acc as i32;
            }
        }
        assert_eq!(qgemm_i32_zp(&a, za, &b, zb, None, m, k, n), want);
        assert_eq!(
            qgemm_i32_zp(&a, 0, &b, 0, None, m, k, n),
            qgemm_i32(&a, &b, None, m, k, n),
            "zero offsets must degenerate to the symmetric kernel"
        );
    }

    #[test]
    fn qgemm_bias_is_added() {
        let a: Vec<i8> = vec![1, 1];
        let b: Vec<i8> = vec![1, 1];
        let acc = qgemm_i32(&a, &b, Some(&[10]), 1, 2, 1);
        assert_eq!(acc, vec![12]);
    }

    #[test]
    fn qgemm_approximates_float_gemm() {
        // Quantize a small float GEMM and compare.
        let af = Tensor::from_vec(vec![0.5, -0.25, 0.75, 0.1, -0.6, 0.3], &[2, 3]);
        let bf = Tensor::from_vec(vec![0.2, 0.4, -0.1, -0.3, 0.8, 0.05], &[2, 3]);
        let pa = QParams::symmetric(1.0);
        let pb = QParams::symmetric(1.0);
        let qa = QTensor::quantize(&af, pa);
        let qb = QTensor::quantize(&bf, pb);
        let want = af.matmul_nt(&bf);
        let out_params = QParams::symmetric(1.0);
        let mult =
            FixedMultiplier::encode(pa.scale as f64 * pb.scale as f64 / out_params.scale as f64);
        let got = qgemm(&qa, &qb, None, mult, out_params).dequantize();
        for i in 0..4 {
            assert!(
                (got.data()[i] - want.data()[i]).abs() < 0.03,
                "elem {i}: {} vs {}",
                got.data()[i],
                want.data()[i]
            );
        }
    }

    /// The im2col+GEMM lowering must be bit-for-bit the direct triple
    /// loop, across ragged channel/length/stride combinations.
    #[test]
    fn im2col_conv_is_bit_exact_vs_direct_loop() {
        for &(in_ch, len, out_ch, kernel, stride) in &[
            (1usize, 4usize, 1usize, 2usize, 2usize),
            (3, 17, 5, 4, 3),
            (14, 300, 64, 30, 10), // bio1 patch-embedding shape
            (2, 8, 3, 8, 1),       // kernel == len (single window)
            (4, 9, 2, 3, 5),       // stride > kernel
        ] {
            let x = qfilled(in_ch * len, 71 + len as u64);
            let w = qfilled(out_ch * in_ch * kernel, 72 + kernel as u64);
            let bias: Vec<i32> = (0..out_ch as i32).map(|c| c * 11 - 4).collect();
            let out_len = conv1d_out_len(len, kernel, stride);
            // Direct reference: what qconv1d_i32 was before the lowering.
            let mut want = vec![0i32; out_ch * out_len];
            for oc in 0..out_ch {
                for ot in 0..out_len {
                    let start = ot * stride;
                    let mut acc = bias[oc];
                    for ic in 0..in_ch {
                        for t in 0..kernel {
                            acc += x[ic * len + start + t] as i32
                                * w[(oc * in_ch + ic) * kernel + t] as i32;
                        }
                    }
                    want[oc * out_len + ot] = acc;
                }
            }
            assert_eq!(
                qconv1d_i32(&x, &w, &bias, in_ch, len, out_ch, kernel, stride),
                want,
                "conv shape ({in_ch},{len},{out_ch},{kernel},{stride})"
            );
        }
    }

    #[test]
    fn qconv_matches_manual() {
        // 1 channel, len 4, kernel 2, stride 2.
        let x: Vec<i8> = vec![1, 2, 3, 4];
        let w: Vec<i8> = vec![1, -1];
        let y = qconv1d_i32(&x, &w, &[5], 1, 4, 1, 2, 2);
        // windows [1,2] → 1-2+5=4 ; [3,4] → 3-4+5=4
        assert_eq!(y, vec![4, 4]);
    }

    #[test]
    fn qadd_requantizes_to_common_grid() {
        let a = QTensor::from_raw(vec![64], &[1], QParams::symmetric(1.0)); // ≈0.504
        let b = QTensor::from_raw(vec![32], &[1], QParams::symmetric(2.0)); // ≈0.504
        let out = qadd(&a, &b, QParams::symmetric(2.0));
        let got = out.dequantize().data()[0];
        assert!((got - 1.008).abs() < 0.04, "got {got}");
    }

    #[test]
    fn qadd_saturates() {
        let a = QTensor::from_raw(vec![127], &[1], QParams::symmetric(1.0));
        let b = QTensor::from_raw(vec![127], &[1], QParams::symmetric(1.0));
        let out = qadd(&a, &b, QParams::symmetric(1.0));
        assert_eq!(out.data()[0], 127);
    }
}
