//! Quantization parameters and int8 tensors.

use bioformer_tensor::Tensor;

/// Affine quantization parameters: `real = scale × (q − zero_point)`.
///
/// Weights use **symmetric** parameters (`zero_point == 0`) so integer GEMM
/// kernels avoid the weight-offset correction term; activations may use the
/// full affine form.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QParams {
    /// Real-value step between adjacent quantized levels.
    pub scale: f32,
    /// Quantized value representing real zero.
    pub zero_point: i32,
}

impl QParams {
    /// Identity-ish parameters (scale 1, zero 0), useful as a placeholder.
    pub fn unit() -> Self {
        QParams {
            scale: 1.0,
            zero_point: 0,
        }
    }

    /// Symmetric parameters covering `[-absmax, absmax]` in int8.
    ///
    /// # Panics
    ///
    /// Panics if `absmax` is not finite.
    pub fn symmetric(absmax: f32) -> Self {
        assert!(absmax.is_finite(), "absmax must be finite");
        let scale = if absmax <= 0.0 { 1e-8 } else { absmax / 127.0 };
        QParams {
            scale,
            zero_point: 0,
        }
    }

    /// Affine parameters covering `[min, max]` in int8 (range widened to
    /// include zero so padding/zero inputs stay exact).
    ///
    /// # Panics
    ///
    /// Panics if the range is invalid or non-finite.
    pub fn affine(min: f32, max: f32) -> Self {
        assert!(min.is_finite() && max.is_finite(), "range must be finite");
        assert!(min <= max, "min {min} > max {max}");
        let min = min.min(0.0);
        let max = max.max(0.0);
        let scale = ((max - min) / 255.0).max(1e-8);
        let zero_point = (-128.0 - min / scale).round().clamp(-128.0, 127.0) as i32;
        QParams { scale, zero_point }
    }

    /// Quantizes one real value to int8 (round-to-nearest, saturating).
    pub fn quantize(&self, x: f32) -> i8 {
        let q = (x / self.scale).round() as i32 + self.zero_point;
        q.clamp(-128, 127) as i8
    }

    /// Quantizes a slice: `dst[i] = self.quantize(src[i])`, written so the
    /// compiler vectorizes it. [`QParams::quantize`]'s saturating
    /// float→int cast compiles to a compare-and-branch per element; here
    /// the rounded value is clamped to the int8 window *as a float* (NaN
    /// to 0, as the cast does) and converted by adding `1.5·2^23`, whose
    /// mantissa then holds the integer — exact for every value in the
    /// window. The result is bit-identical to `quantize` (whenever the
    /// latter's `+ zero_point` does not itself overflow i32).
    ///
    /// # Panics
    ///
    /// Panics when the slice lengths differ.
    pub fn quantize_slice(&self, src: &[f32], dst: &mut [i8]) {
        assert_eq!(src.len(), dst.len(), "quantize_slice: length mismatch");
        const MAGIC: f32 = 12_582_912.0;
        let zp = self.zero_point;
        let (lo, hi) = ((-128 - zp) as f32, (127 - zp) as f32);
        for (q, &x) in dst.iter_mut().zip(src) {
            let r = (x / self.scale).round();
            let r = if r.is_nan() { 0.0 } else { r };
            let window = r.max(lo).min(hi);
            *q = ((window + MAGIC).to_bits() as i32 - MAGIC.to_bits() as i32 + zp) as i8;
        }
    }

    /// Dequantizes one int8 value.
    pub fn dequantize(&self, q: i8) -> f32 {
        self.scale * (q as i32 - self.zero_point) as f32
    }
}

/// A dense int8 tensor with shared (per-tensor) quantization parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct QTensor {
    dims: Vec<usize>,
    data: Vec<i8>,
    params: QParams,
}

impl QTensor {
    /// Quantizes an fp32 tensor with the given parameters.
    pub fn quantize(t: &Tensor, params: QParams) -> Self {
        QTensor {
            dims: t.dims().to_vec(),
            data: {
                let mut codes = vec![0i8; t.len()];
                params.quantize_slice(t.data(), &mut codes);
                codes
            },
            params,
        }
    }

    /// Builds from raw parts.
    ///
    /// # Panics
    ///
    /// Panics if the buffer length mismatches the shape.
    pub fn from_raw(data: Vec<i8>, dims: &[usize], params: QParams) -> Self {
        let expect: usize = dims.iter().product();
        assert_eq!(data.len(), expect, "QTensor: buffer/shape mismatch");
        QTensor {
            dims: dims.to_vec(),
            data,
            params,
        }
    }

    /// Shape.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Raw int8 values.
    pub fn data(&self) -> &[i8] {
        &self.data
    }

    /// Quantization parameters.
    pub fn params(&self) -> QParams {
        self.params
    }

    /// Element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` when the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Reconstructs the fp32 tensor.
    pub fn dequantize(&self) -> Tensor {
        Tensor::from_vec(
            self.data
                .iter()
                .map(|&q| self.params.dequantize(q))
                .collect(),
            &self.dims,
        )
    }
}

/// Round-trips a tensor through int8 with the given parameters — the
/// "fake quantization" primitive used by QAT.
pub fn fake_quantize(t: &Tensor, params: QParams) -> Tensor {
    t.map(|v| params.dequantize(params.quantize(v)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantize_slice_matches_quantize() {
        let mut xs: Vec<f32> = (-4000..4000).map(|i| i as f32 * 0.0371).collect();
        // Exact halves, the value just below one, specials and overflow.
        xs.extend([0.5, -0.5, 1.5, -1.5, 2.5, 0.49999997, -0.49999997]);
        xs.extend([f32::NAN, 0.0, -0.0]);
        // Values past i32 saturate the reference's cast; its `+ zero_point`
        // then only stays in range on symmetric grids.
        let huge = [f32::INFINITY, f32::NEG_INFINITY, 1e30, -1e30];
        for p in [
            QParams::symmetric(1.0),
            QParams::symmetric(3.7),
            QParams::unit(),
            QParams::affine(-1.0, 3.0),
            QParams::affine(-7.0, 0.5),
        ] {
            let mut xs = xs.clone();
            if p.zero_point == 0 {
                xs.extend(huge);
            }
            let want: Vec<i8> = xs.iter().map(|&x| p.quantize(x)).collect();
            let mut got = vec![0i8; xs.len()];
            p.quantize_slice(&xs, &mut got);
            assert_eq!(got, want, "{p:?}");
        }
    }

    #[test]
    fn symmetric_roundtrip_error_bounded() {
        let p = QParams::symmetric(2.0);
        for i in -200..=200 {
            let x = i as f32 / 100.0;
            let err = (p.dequantize(p.quantize(x)) - x).abs();
            assert!(err <= p.scale * 0.5 + 1e-6, "x={x} err={err}");
        }
    }

    #[test]
    fn symmetric_zero_is_exact() {
        let p = QParams::symmetric(3.7);
        assert_eq!(p.quantize(0.0), 0);
        assert_eq!(p.dequantize(0), 0.0);
    }

    #[test]
    fn affine_covers_asymmetric_range() {
        let p = QParams::affine(-0.1, 3.9);
        // Range endpoints should be representable with bounded error.
        for &x in &[-0.1f32, 0.0, 1.0, 3.9] {
            let err = (p.dequantize(p.quantize(x)) - x).abs();
            assert!(err <= p.scale, "x={x} err={err}");
        }
    }

    #[test]
    fn affine_zero_is_exactly_representable() {
        let p = QParams::affine(0.5, 4.0); // min forced down to 0
        let err = p.dequantize(p.quantize(0.0)).abs();
        assert!(err <= p.scale * 0.5 + 1e-6);
    }

    #[test]
    fn saturation_clamps() {
        let p = QParams::symmetric(1.0);
        assert_eq!(p.quantize(100.0), 127);
        assert_eq!(p.quantize(-100.0), -128);
    }

    #[test]
    fn qtensor_roundtrip() {
        let t = Tensor::from_vec(vec![-1.0, -0.5, 0.0, 0.5, 1.0], &[5]);
        let q = QTensor::quantize(&t, QParams::symmetric(1.0));
        let back = q.dequantize();
        assert!(back.allclose(&t, 0.01), "{:?}", back.data());
    }

    #[test]
    fn fake_quantize_idempotent() {
        let t = Tensor::from_vec(vec![0.3, -0.7, 0.11], &[3]);
        let p = QParams::symmetric(1.0);
        let f1 = fake_quantize(&t, p);
        let f2 = fake_quantize(&f1, p);
        assert!(f1.allclose(&f2, 1e-7));
    }

    #[test]
    fn degenerate_absmax_does_not_panic() {
        let p = QParams::symmetric(0.0);
        assert_eq!(p.quantize(0.0), 0);
    }
}
