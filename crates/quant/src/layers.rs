//! Quantized layer building blocks (Linear, Conv1d).
//!
//! Both layers pack their int8 weights **once**, at construction, into the
//! k-by-4-interleaved panel layout of [`bioformer_simd::packed`] (bias and
//! the `vpdpbusd` correction folded in), and every forward is one call to
//! the tier's packed kernel with the requantization done in its store.
//! The layout is shared by all SIMD tiers, so a layer is built the same
//! way on every host and there is no kernel choice left to plan.

use crate::kernels::{conv1d_out_len, qconv1d_im2col};
use crate::qtensor::{QParams, QTensor};
use crate::requant::FixedMultiplier;
use bioformer_simd::{Kernels, PackedQB, QMat, QOut, Requant};
use bioformer_tensor::Tensor;

/// Symmetric int8 codes of `w` (any shape, flattened) and the i32 bias at
/// the accumulator scale `s_in · s_w`, which is returned too.
fn quantize_weights(w: &Tensor, b: &Tensor, in_params: QParams) -> (Vec<i8>, Vec<i32>, f64) {
    let wp = QParams::symmetric(w.abs_max());
    let mut codes = vec![0i8; w.len()];
    wp.quantize_slice(w.data(), &mut codes);
    let acc_scale = in_params.scale as f64 * wp.scale as f64;
    let bias = b
        .data()
        .iter()
        .map(|&v| (v as f64 / acc_scale).round() as i32)
        .collect();
    (codes, bias, acc_scale)
}

/// An int8 affine layer: symmetric int8 weights `[out, in]`, i32 bias at
/// the accumulator scale, fixed-point requantization to the output grid.
#[derive(Debug, Clone)]
pub struct QLinear {
    packed: PackedQB,
    mult: FixedMultiplier,
    out_params: QParams,
    /// Accumulator scale `s_in · s_w` (kept for layers that consume raw
    /// accumulators, e.g. the classifier head).
    acc_scale: f64,
}

impl QLinear {
    /// Quantizes an fp32 linear layer given calibrated input/output
    /// activation parameters, and packs the weights.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent weight/bias shapes.
    pub fn from_float(w: &Tensor, b: &Tensor, in_params: QParams, out_params: QParams) -> Self {
        assert_eq!(w.shape().rank(), 2, "QLinear: weight must be [out, in]");
        let (out_features, in_features) = (w.dims()[0], w.dims()[1]);
        assert_eq!(b.dims(), &[out_features], "QLinear: bias shape");
        let (codes, bias, acc_scale) = quantize_weights(w, b, in_params);
        QLinear {
            packed: PackedQB::from_rows(&codes, out_features, in_features, Some(&bias)),
            mult: FixedMultiplier::encode(acc_scale / out_params.scale as f64),
            out_params,
            acc_scale,
        }
    }

    /// Output activation parameters.
    pub fn out_params(&self) -> QParams {
        self.out_params
    }

    /// Accumulator scale (`s_in · s_w`).
    pub fn acc_scale(&self) -> f64 {
        self.acc_scale
    }

    /// Output width.
    pub fn out_features(&self) -> usize {
        self.packed.n()
    }

    /// Input width.
    pub fn in_features(&self) -> usize {
        self.packed.k()
    }

    /// The packed weights (with bias), for callers that drive the packed
    /// kernel themselves — strided inputs, transposed or offset outputs.
    pub fn packed(&self) -> &PackedQB {
        &self.packed
    }

    /// The store descriptor that lands accumulators on the output grid.
    pub fn requant(&self) -> Requant {
        self.mult.requant(self.out_params.zero_point)
    }

    /// int8 forward over raw `[rows, in]` codes into a caller-provided
    /// `[rows, out]` buffer — the allocation-free core of
    /// [`QLinear::forward`]: one packed-kernel call, requantized in its
    /// store.
    ///
    /// # Panics
    ///
    /// Panics when slice lengths disagree with `rows` and the layer shape.
    pub fn forward_into(&self, x: &[i8], rows: usize, out: &mut [i8]) {
        self.forward_into_with(bioformer_simd::kernels(), x, rows, out);
    }

    /// [`QLinear::forward_into`] on an explicitly chosen kernel table —
    /// the hook tier-parity tests use.
    ///
    /// # Panics
    ///
    /// Panics when slice lengths disagree with `rows` and the layer shape.
    pub fn forward_into_with(&self, kernels: &Kernels, x: &[i8], rows: usize, out: &mut [i8]) {
        let (k, n) = (self.in_features(), self.out_features());
        assert_eq!(x.len(), rows * k, "QLinear: input size");
        assert_eq!(out.len(), rows * n, "QLinear: output size");
        let rq = self.requant();
        (kernels.qgemm_packed)(
            QMat::dense(x, k),
            rows,
            &self.packed,
            QOut::Rows { out, ld: n, rq },
        );
    }

    /// int8 forward over `[rows, in]`, requantized to the output grid in a
    /// single fused pass (no intermediate i32 buffer).
    pub fn forward(&self, x: &QTensor) -> QTensor {
        let (rows, k) = (x.dims()[0], x.dims()[1]);
        assert_eq!(k, self.in_features(), "QLinear: input width mismatch");
        let n = self.out_features();
        let mut out = vec![0i8; rows * n];
        self.forward_into(x.data(), rows, &mut out);
        QTensor::from_raw(out, &[rows, n], self.out_params)
    }

    /// Raw i32 accumulators into a caller-provided `[rows, out]` buffer —
    /// the allocation-free core of [`QLinear::forward_acc`].
    ///
    /// # Panics
    ///
    /// Panics when slice lengths disagree with `rows` and the layer shape.
    pub fn forward_acc_into(&self, x: &[i8], rows: usize, out: &mut [i32]) {
        self.forward_acc_into_with(bioformer_simd::kernels(), x, rows, out);
    }

    /// [`QLinear::forward_acc_into`] on an explicitly chosen kernel table.
    ///
    /// # Panics
    ///
    /// Panics when slice lengths disagree with `rows` and the layer shape.
    pub fn forward_acc_into_with(&self, kernels: &Kernels, x: &[i8], rows: usize, out: &mut [i32]) {
        let (k, n) = (self.in_features(), self.out_features());
        assert_eq!(x.len(), rows * k, "QLinear: input size");
        assert_eq!(out.len(), rows * n, "QLinear: output size");
        (kernels.qgemm_packed)(
            QMat::dense(x, k),
            rows,
            &self.packed,
            QOut::Acc { out, ld: n },
        );
    }

    /// Raw i32 accumulators (at [`QLinear::acc_scale`]) — used by the
    /// classifier head, where full precision is kept for the argmax.
    pub fn forward_acc(&self, x: &QTensor) -> Vec<i32> {
        let (rows, k) = (x.dims()[0], x.dims()[1]);
        assert_eq!(k, self.in_features(), "QLinear: input width mismatch");
        let mut out = vec![0i32; rows * self.out_features()];
        self.forward_acc_into(x.data(), rows, &mut out);
        out
    }
}

/// An int8 1-D convolution (no padding/dilation — the Bioformer patch
/// embedding is a plain strided conv), lowered to im2col + the packed
/// GEMM with the **weights** as the packed side: the product comes out
/// position-major (`[out_len, out_ch]`, i.e. as tokens), and the
/// channel-major layout of [`QConv1d::forward_into`] is the same product
/// stored transposed.
#[derive(Debug, Clone)]
pub struct QConv1d {
    /// Weights `[out_ch, in_ch·kernel]`, packed, with the bias.
    packed: PackedQB,
    in_ch: usize,
    stride: usize,
    kernel: usize,
    mult: FixedMultiplier,
    out_params: QParams,
}

impl QConv1d {
    /// Quantizes an fp32 convolution (`w: [out, in, kernel]`) and packs
    /// the weights.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent shapes.
    pub fn from_float(
        w: &Tensor,
        b: &Tensor,
        stride: usize,
        in_params: QParams,
        out_params: QParams,
    ) -> Self {
        assert_eq!(w.shape().rank(), 3, "QConv1d: weight must be [out, in, k]");
        let (out_ch, in_ch, kernel) = (w.dims()[0], w.dims()[1], w.dims()[2]);
        assert_eq!(b.dims(), &[out_ch], "QConv1d: bias shape");
        let (codes, bias, acc_scale) = quantize_weights(w, b, in_params);
        QConv1d {
            packed: PackedQB::from_rows(&codes, out_ch, in_ch * kernel, Some(&bias)),
            in_ch,
            stride,
            kernel,
            mult: FixedMultiplier::encode(acc_scale / out_params.scale as f64),
            out_params,
        }
    }

    /// Output activation parameters.
    pub fn out_params(&self) -> QParams {
        self.out_params
    }

    /// Output channels.
    pub fn out_channels(&self) -> usize {
        self.packed.n()
    }

    /// Output length for an input of `len` samples.
    pub fn out_len(&self, len: usize) -> usize {
        conv1d_out_len(len, self.kernel, self.stride)
    }

    /// Length of the im2col scratch buffer [`QConv1d::forward_into`] needs
    /// for an `[in_ch, len]` input.
    pub fn im2col_len(&self, in_ch: usize, len: usize) -> usize {
        self.out_len(len) * in_ch * self.kernel
    }

    /// Gathers the im2col image of a raw `[in_ch, len]` sample: one row of
    /// `in_ch·kernel` codes per output position.
    ///
    /// # Panics
    ///
    /// Panics when slice lengths disagree with the layer shape.
    pub fn im2col_into(&self, x: &[i8], len: usize, im2col: &mut [i8]) {
        qconv1d_im2col(x, self.in_ch, len, self.kernel, self.stride, im2col);
    }

    /// The packed weights (with bias): columns are output channels, the
    /// contraction runs over an im2col row.
    pub fn packed(&self) -> &PackedQB {
        &self.packed
    }

    /// The store descriptor that lands accumulators on the output grid.
    pub fn requant(&self) -> Requant {
        self.mult.requant(self.out_params.zero_point)
    }

    /// int8 forward over a raw `[in_ch, len]` sample into a caller-provided
    /// `[out_ch, out_len]` buffer — the allocation-free core of
    /// [`QConv1d::forward`]. `im2col` ([`QConv1d::im2col_len`] codes) is
    /// scratch; `acc` is no longer touched (the kernel requantizes in its
    /// store) and only has to match `out` in length.
    ///
    /// # Panics
    ///
    /// Panics when slice lengths disagree with the layer shape.
    pub fn forward_into(
        &self,
        x: &[i8],
        in_ch: usize,
        len: usize,
        im2col: &mut [i8],
        acc: &mut [i32],
        out: &mut [i8],
    ) {
        assert_eq!(in_ch, self.in_ch, "QConv1d: channel mismatch");
        assert_eq!(out.len(), acc.len(), "QConv1d: out/acc length mismatch");
        let positions = self.out_len(len);
        assert_eq!(
            out.len(),
            self.out_channels() * positions,
            "QConv1d: output size"
        );
        self.im2col_into(x, len, im2col);
        let rq = self.requant();
        (bioformer_simd::kernels().qgemm_packed)(
            QMat::dense(im2col, self.packed.k()),
            positions,
            &self.packed,
            QOut::Cols {
                out,
                ld: positions,
                rq,
            },
        );
    }

    /// int8 forward over a single `[in_ch, len]` sample, producing
    /// `[out_ch, out_len]`.
    pub fn forward(&self, x: &QTensor) -> QTensor {
        let (in_ch, len) = (x.dims()[0], x.dims()[1]);
        let out_ch = self.out_channels();
        let out_len = self.out_len(len);
        let mut im2col = vec![0i8; self.im2col_len(in_ch, len)];
        let mut acc = vec![0i32; out_ch * out_len];
        let mut out = vec![0i8; out_ch * out_len];
        self.forward_into(x.data(), in_ch, len, &mut im2col, &mut acc, &mut out);
        QTensor::from_raw(out, &[out_ch, out_len], self.out_params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn filled(dims: &[usize], seed: u64, range: f32) -> Tensor {
        let mut rng = StdRng::seed_from_u64(seed);
        Tensor::from_fn(dims, |_| rng.gen_range(-range..range))
    }

    #[test]
    fn qlinear_tracks_float_linear() {
        let w = filled(&[8, 16], 0, 0.5);
        let b = filled(&[8], 1, 0.2);
        let x = filled(&[4, 16], 2, 1.0);
        let want = {
            let mut y = x.matmul_nt(&w);
            for r in 0..4 {
                for c in 0..8 {
                    let v = y.at(&[r, c]) + b.data()[c];
                    y.set(&[r, c], v);
                }
            }
            y
        };
        let in_p = QParams::symmetric(1.0);
        let out_p = QParams::symmetric(want.abs_max());
        let ql = QLinear::from_float(&w, &b, in_p, out_p);
        let qx = QTensor::quantize(&x, in_p);
        let got = ql.forward(&qx).dequantize();
        for i in 0..want.len() {
            assert!(
                (got.data()[i] - want.data()[i]).abs() < 0.12,
                "elem {i}: {} vs {}",
                got.data()[i],
                want.data()[i]
            );
        }
    }

    #[test]
    fn qlinear_acc_has_higher_resolution_than_i8() {
        let w = filled(&[4, 8], 3, 0.5);
        let b = Tensor::zeros(&[4]);
        let in_p = QParams::symmetric(1.0);
        let out_p = QParams::symmetric(8.0);
        let ql = QLinear::from_float(&w, &b, in_p, out_p);
        let x = filled(&[1, 8], 4, 1.0);
        let qx = QTensor::quantize(&x, in_p);
        let acc = ql.forward_acc(&qx);
        // Accumulators carry the fine-grained result.
        let float_ref = x.matmul_nt(&w);
        for (i, &a) in acc.iter().enumerate() {
            let got = a as f64 * ql.acc_scale();
            assert!(
                (got - float_ref.data()[i] as f64).abs() < 0.05,
                "acc {i}: {got} vs {}",
                float_ref.data()[i]
            );
        }
    }

    #[test]
    fn qconv_tracks_float_conv() {
        use bioformer_tensor::conv::{conv1d_forward, Conv1dSpec};
        let w = filled(&[6, 3, 5], 5, 0.4);
        let b = filled(&[6], 6, 0.1);
        let x = filled(&[3, 20], 7, 1.0);
        let want = conv1d_forward(&x, &w, &b, Conv1dSpec::patch(5));
        let in_p = QParams::symmetric(1.0);
        let out_p = QParams::symmetric(want.abs_max());
        let qc = QConv1d::from_float(&w, &b, 5, in_p, out_p);
        let got = qc.forward(&QTensor::quantize(&x, in_p)).dequantize();
        for i in 0..want.len() {
            assert!(
                (got.data()[i] - want.data()[i]).abs() < 0.15,
                "elem {i}: {} vs {}",
                got.data()[i],
                want.data()[i]
            );
        }
    }
}
