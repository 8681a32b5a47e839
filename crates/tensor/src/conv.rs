//! 1-D convolution and pooling primitives (forward and backward).
//!
//! Layout conventions (single sample, no batch axis — the layers in
//! `bioformer-nn` loop over the batch):
//!
//! * input `x`: `[in_channels, length]`
//! * weight `w`: `[out_channels, in_channels, kernel]`
//! * bias `b`: `[out_channels]`
//! * output `y`: `[out_channels, out_length]`
//!
//! The Bioformer patch embedding uses `stride == kernel, padding = 0,
//! dilation = 1` (non-overlapping windows, §III-A of the paper); the
//! TEMPONet baseline additionally needs `dilation > 1` and symmetric zero
//! padding, so the general form is implemented once here.

use crate::matmul::matmul_tn_strided_into;
use crate::pack::{gemm_packed_with, pack_b, pack_b_t, packed_len, Epilogue};
use crate::tensor::Tensor;
use bioformer_simd::Fp32TileFn;

/// Hyper-parameters of a 1-D convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv1dSpec {
    /// Step between output positions.
    pub stride: usize,
    /// Symmetric zero padding added to both ends of the input.
    pub padding: usize,
    /// Spacing between kernel taps.
    pub dilation: usize,
}

impl Default for Conv1dSpec {
    fn default() -> Self {
        Conv1dSpec {
            stride: 1,
            padding: 0,
            dilation: 1,
        }
    }
}

impl Conv1dSpec {
    /// A non-overlapping "patch embedding" convolution where the stride
    /// equals the kernel width (Bioformer front-end).
    pub fn patch(kernel: usize) -> Self {
        Conv1dSpec {
            stride: kernel,
            padding: 0,
            dilation: 1,
        }
    }

    /// Effective kernel extent after dilation.
    pub fn extent(&self, kernel: usize) -> usize {
        (kernel - 1) * self.dilation + 1
    }

    /// Output length for an input of `len` samples and kernel width
    /// `kernel`, or `None` when the input is too short.
    pub fn out_len(&self, len: usize, kernel: usize) -> Option<usize> {
        let padded = len + 2 * self.padding;
        let ext = self.extent(kernel);
        if padded < ext {
            None
        } else {
            Some((padded - ext) / self.stride + 1)
        }
    }
}

/// Lowers a `[in_ch, len]` signal into the im2col matrix
/// `[out_len, in_ch · kernel]`: row `t` holds the receptive field of output
/// position `t`, so the convolution becomes a single GEMM with the
/// flattened `[out_ch, in_ch · kernel]` weight matrix.
///
/// # Panics
///
/// Panics if the input is shorter than the dilated kernel extent.
pub fn im2col(x: &Tensor, kernel: usize, spec: Conv1dSpec) -> Tensor {
    let (c_in, len) = (x.dims()[0], x.dims()[1]);
    let out_len = spec
        .out_len(len, kernel)
        .unwrap_or_else(|| panic!("im2col: input of length {len} too short for kernel {kernel}"));
    let ck = c_in * kernel;
    let mut cols = Tensor::zeros(&[out_len, ck]);
    im2col_into(x.data(), c_in, len, kernel, spec, cols.data_mut());
    cols
}

/// Slice-level [`im2col`] into a caller-provided buffer (the allocation-free
/// primitive behind it): lowers `x` (`c_in · len` floats, `[in_ch, len]`
/// layout) into `dst` (`out_len · c_in · kernel` floats). Every element of
/// `dst` is written (padding taps write zero), so recycled scratch buffers
/// need no pre-clearing.
///
/// # Panics
///
/// Panics if the input is shorter than the dilated kernel extent or the
/// buffer lengths disagree.
pub fn im2col_into(
    x: &[f32],
    c_in: usize,
    len: usize,
    kernel: usize,
    spec: Conv1dSpec,
    dst: &mut [f32],
) {
    assert_eq!(x.len(), c_in * len, "im2col: input size");
    let out_len = spec
        .out_len(len, kernel)
        .unwrap_or_else(|| panic!("im2col: input of length {len} too short for kernel {kernel}"));
    let ck = c_in * kernel;
    assert_eq!(dst.len(), out_len * ck, "im2col: destination size");
    for ot in 0..out_len {
        let start = ot * spec.stride;
        let row = &mut dst[ot * ck..(ot + 1) * ck];
        for ic in 0..c_in {
            let x_row = &x[ic * len..(ic + 1) * len];
            for kk in 0..kernel {
                let pos = start + kk * spec.dilation;
                let mut v = 0.0;
                if pos >= spec.padding {
                    let xi = pos - spec.padding;
                    if xi < len {
                        v = x_row[xi];
                    }
                }
                row[ic * kernel + kk] = v;
            }
        }
    }
}

/// Scatter-adds an im2col-shaped gradient `[out_len, in_ch · kernel]` back
/// onto the input layout `[in_ch, len]` (adjoint of [`im2col`]).
pub fn col2im(cols: &Tensor, c_in: usize, len: usize, kernel: usize, spec: Conv1dSpec) -> Tensor {
    let out_len = cols.dims()[0];
    let ck = c_in * kernel;
    assert_eq!(cols.dims()[1], ck, "col2im: column width mismatch");
    let mut dx = Tensor::zeros(&[c_in, len]);
    let cd = cols.data();
    let xd = dx.data_mut();
    for ot in 0..out_len {
        let start = ot * spec.stride;
        let row = &cd[ot * ck..(ot + 1) * ck];
        for ic in 0..c_in {
            for kk in 0..kernel {
                let pos = start + kk * spec.dilation;
                if pos >= spec.padding {
                    let xi = pos - spec.padding;
                    if xi < len {
                        xd[ic * len + xi] += row[ic * kernel + kk];
                    }
                }
            }
        }
    }
    dx
}

/// Forward 1-D convolution, lowered to im2col + GEMM (the direct
/// nested-loop form is kept as [`conv1d_forward_direct`] and used as a test
/// oracle).
///
/// # Panics
///
/// Panics if shapes are inconsistent or the input is shorter than the
/// dilated kernel extent.
pub fn conv1d_forward(x: &Tensor, w: &Tensor, b: &Tensor, spec: Conv1dSpec) -> Tensor {
    assert_eq!(x.shape().rank(), 2, "conv1d: input must be [channels, len]");
    assert_eq!(
        w.shape().rank(),
        3,
        "conv1d: weight must be [out_ch, in_ch, kernel]"
    );
    let c_in = x.dims()[0];
    let (c_out, w_cin, kernel) = (w.dims()[0], w.dims()[1], w.dims()[2]);
    assert_eq!(c_in, w_cin, "conv1d: channel mismatch");
    assert_eq!(b.dims(), &[c_out], "conv1d: bias must be [out_ch]");
    let cols = im2col(x, kernel, spec);
    conv1d_forward_cols(&cols, w, b)
}

/// Forward convolution from a precomputed im2col matrix (training caches
/// the lowering once and reuses it in the backward pass).
pub fn conv1d_forward_cols(cols: &Tensor, w: &Tensor, b: &Tensor) -> Tensor {
    let (c_out, c_in, kernel) = (w.dims()[0], w.dims()[1], w.dims()[2]);
    let (out_len, ck) = (cols.dims()[0], c_in * kernel);
    let mut packed = vec![0.0f32; packed_len(ck, c_out)];
    pack_b_t(w.data(), c_out, ck, &mut packed);
    let mut y_t = vec![0.0f32; out_len * c_out];
    let mut y = Tensor::zeros(&[c_out, out_len]);
    conv1d_forward_cols_into(
        bioformer_simd::kernels().fp32_tile,
        cols.data(),
        out_len,
        ck,
        &packed,
        b.data(),
        &mut y_t,
        y.data_mut(),
    );
    y
}

/// Slice-level [`conv1d_forward_cols`] over a batch: `cols` holds whole
/// samples' `[out_len, ck]` im2col rows back to back, `packed` is the
/// flattened `[c_out, ck]` weight packed by [`pack_b_t`], and `y` receives
/// `[batch, c_out, out_len]`; `y_t` (one `c_out`-wide row per im2col row)
/// is scratch for the token-major product. One GEMM covers the batch on
/// the SIMD `tile` (see [`gemm_packed_with`]), and each of its rows is the
/// chain a per-sample product computes.
///
/// # Panics
///
/// Panics if a buffer length disagrees with the others.
#[allow(clippy::too_many_arguments)] // slice-level twin of gemm_packed_with
pub fn conv1d_forward_cols_into(
    tile: Fp32TileFn,
    cols: &[f32],
    out_len: usize,
    ck: usize,
    packed: &[f32],
    bias: &[f32],
    y_t: &mut [f32],
    y: &mut [f32],
) {
    let c_out = bias.len();
    assert!(
        ck > 0 && cols.len().is_multiple_of(ck),
        "conv1d: im2col rows"
    );
    let rows = cols.len() / ck;
    assert_eq!(y_t.len(), rows * c_out, "conv1d: product size");
    assert_eq!(y.len(), rows * c_out, "conv1d: output size");
    // [rows, ck] · [c_out, ck]ᵀ = [rows, c_out]
    gemm_packed_with(tile, cols, rows, ck, packed, c_out, y_t, Epilogue::None);
    for (yi, ti) in y
        .chunks_exact_mut(c_out * out_len)
        .zip(y_t.chunks_exact(out_len * c_out))
    {
        for ot in 0..out_len {
            for oc in 0..c_out {
                yi[oc * out_len + ot] = ti[ot * c_out + oc] + bias[oc];
            }
        }
    }
}

/// Direct (nested-loop) forward convolution — reference implementation used
/// as the oracle for the GEMM-lowered path.
///
/// # Panics
///
/// Panics if shapes are inconsistent or the input is shorter than the
/// dilated kernel extent.
pub fn conv1d_forward_direct(x: &Tensor, w: &Tensor, b: &Tensor, spec: Conv1dSpec) -> Tensor {
    assert_eq!(x.shape().rank(), 2, "conv1d: input must be [channels, len]");
    assert_eq!(
        w.shape().rank(),
        3,
        "conv1d: weight must be [out_ch, in_ch, kernel]"
    );
    let (c_in, len) = (x.dims()[0], x.dims()[1]);
    let (c_out, w_cin, kernel) = (w.dims()[0], w.dims()[1], w.dims()[2]);
    assert_eq!(c_in, w_cin, "conv1d: channel mismatch");
    assert_eq!(b.dims(), &[c_out], "conv1d: bias must be [out_ch]");
    let out_len = spec
        .out_len(len, kernel)
        .unwrap_or_else(|| panic!("conv1d: input of length {len} too short for kernel {kernel}"));

    let mut y = Tensor::zeros(&[c_out, out_len]);
    let xd = x.data();
    let wd = w.data();
    let yd = y.data_mut();
    for oc in 0..c_out {
        let bias = b.data()[oc];
        for ot in 0..out_len {
            let mut acc = bias;
            let start = ot * spec.stride;
            for ic in 0..c_in {
                let x_row = &xd[ic * len..(ic + 1) * len];
                let w_row = &wd[(oc * c_in + ic) * kernel..(oc * c_in + ic + 1) * kernel];
                for (kk, &wv) in w_row.iter().enumerate() {
                    let pos = start + kk * spec.dilation;
                    // `pos` indexes the padded signal; map back to x.
                    if pos >= spec.padding {
                        let xi = pos - spec.padding;
                        if xi < len {
                            acc += wv * x_row[xi];
                        }
                    }
                }
            }
            yd[oc * out_len + ot] = acc;
        }
    }
    y
}

/// Transposes `[c_out, out_len]` into `[out_len, c_out]`.
fn transpose_cl(dy: &Tensor) -> Tensor {
    let (c_out, out_len) = (dy.dims()[0], dy.dims()[1]);
    let mut t = Tensor::zeros(&[out_len, c_out]);
    let td = t.data_mut();
    let dd = dy.data();
    for oc in 0..c_out {
        for ot in 0..out_len {
            td[ot * c_out + oc] = dd[oc * out_len + ot];
        }
    }
    t
}

/// Gradient of the convolution output w.r.t. its input.
///
/// `dy` is `[out_ch, out_len]`; returns `dx` of shape `[in_ch, len]`.
/// Lowered to a GEMM on the SIMD `tile` (see [`gemm_packed_with`]) +
/// [`col2im`].
///
/// # Panics
///
/// Panics on shape inconsistencies.
pub fn conv1d_backward_input(
    tile: Fp32TileFn,
    dy: &Tensor,
    w: &Tensor,
    spec: Conv1dSpec,
    len: usize,
) -> Tensor {
    let (c_out, out_len) = (dy.dims()[0], dy.dims()[1]);
    let (w_cout, c_in, kernel) = (w.dims()[0], w.dims()[1], w.dims()[2]);
    assert_eq!(c_out, w_cout, "conv1d_backward_input: channel mismatch");
    let ck = c_in * kernel;
    let dy_t = transpose_cl(dy); // [out_len, c_out]
    let mut packed = vec![0.0f32; packed_len(c_out, ck)];
    pack_b(w.data(), c_out, ck, &mut packed);
    // [out_len, c_out] · [c_out, ck] = [out_len, ck]
    let mut dcols = Tensor::zeros(&[out_len, ck]);
    gemm_packed_with(
        tile,
        dy_t.data(),
        out_len,
        c_out,
        &packed,
        ck,
        dcols.data_mut(),
        Epilogue::None,
    );
    col2im(&dcols, c_in, len, kernel, spec)
}

/// Gradients of the convolution output w.r.t. weight and bias.
///
/// Returns `(dw, db)` with the same shapes as `w` and `b`.
///
/// # Panics
///
/// Panics on shape inconsistencies.
pub fn conv1d_backward_params(
    dy: &Tensor,
    x: &Tensor,
    spec: Conv1dSpec,
    kernel: usize,
) -> (Tensor, Tensor) {
    let cols = im2col(x, kernel, spec);
    conv1d_backward_params_cols(dy, &cols, x.dims()[0], kernel)
}

/// Weight/bias gradients from a precomputed im2col matrix.
pub fn conv1d_backward_params_cols(
    dy: &Tensor,
    cols: &Tensor,
    c_in: usize,
    kernel: usize,
) -> (Tensor, Tensor) {
    let (c_out, out_len) = (dy.dims()[0], dy.dims()[1]);
    assert_eq!(cols.dims()[0], out_len, "conv1d params: out_len mismatch");
    let mut dw = Tensor::zeros(&[c_out, c_in, kernel]);
    let mut db = Tensor::zeros(&[c_out]);
    conv1d_backward_params_into(dy.data(), cols.data(), dw.data_mut(), db.data_mut());
    (dw, db)
}

/// Slice-level [`conv1d_backward_params_cols`] for one sample: `dy` is its
/// `[c_out, out_len]` output gradient and `cols` its `[out_len, ck]`
/// im2col rows; `dw` (`[c_out, ck]`) and `db` (`[c_out]`) are overwritten.
/// `dW = dy · cols` reads `dy` in place as the weight-gradient kernel's
/// `[k, m]` multipliers ([`matmul_tn_strided_into`]).
///
/// # Panics
///
/// Panics if a buffer length disagrees with the others.
pub fn conv1d_backward_params_into(dy: &[f32], cols: &[f32], dw: &mut [f32], db: &mut [f32]) {
    let c_out = db.len();
    assert!(
        c_out > 0 && dy.len().is_multiple_of(c_out),
        "conv1d params: dy size"
    );
    let out_len = dy.len() / c_out;
    let ck = dw.len() / c_out;
    assert_eq!(dw.len(), c_out * ck, "conv1d params: dw size");
    assert_eq!(cols.len(), out_len * ck, "conv1d params: out_len mismatch");
    // dW2d = dy · cols → [c_out, ck]
    matmul_tn_strided_into(dy, (1, out_len), out_len, c_out, cols, ck, dw);
    for (oc, d) in db.iter_mut().enumerate() {
        *d = dy[oc * out_len..(oc + 1) * out_len].iter().sum();
    }
}

/// Average pooling over the time axis of a `[channels, len]` tensor.
///
/// # Panics
///
/// Panics if `kernel == 0` or the input is shorter than `kernel`.
pub fn avg_pool1d(x: &Tensor, kernel: usize, stride: usize) -> Tensor {
    assert!(kernel > 0, "avg_pool1d: kernel must be positive");
    let (c, len) = (x.dims()[0], x.dims()[1]);
    assert!(len >= kernel, "avg_pool1d: input shorter than kernel");
    let out_len = (len - kernel) / stride + 1;
    let mut y = Tensor::zeros(&[c, out_len]);
    let scale = 1.0 / kernel as f32;
    for ch in 0..c {
        let row = &x.data()[ch * len..(ch + 1) * len];
        for ot in 0..out_len {
            let start = ot * stride;
            let sum: f32 = row[start..start + kernel].iter().sum();
            y.data_mut()[ch * out_len + ot] = sum * scale;
        }
    }
    y
}

/// Backward pass of [`avg_pool1d`]: distributes each output gradient evenly
/// over its pooling window.
pub fn avg_pool1d_backward(dy: &Tensor, kernel: usize, stride: usize, len: usize) -> Tensor {
    let (c, out_len) = (dy.dims()[0], dy.dims()[1]);
    let mut dx = Tensor::zeros(&[c, len]);
    let scale = 1.0 / kernel as f32;
    for ch in 0..c {
        for ot in 0..out_len {
            let g = dy.data()[ch * out_len + ot] * scale;
            let start = ot * stride;
            for i in start..start + kernel {
                dx.data_mut()[ch * len + i] += g;
            }
        }
    }
    dx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_len_formula() {
        let s = Conv1dSpec::patch(10);
        assert_eq!(s.out_len(300, 10), Some(30));
        assert_eq!(s.out_len(9, 10), None);
        let d = Conv1dSpec {
            stride: 1,
            padding: 2,
            dilation: 2,
        };
        // extent = (3-1)*2+1 = 5; (10 + 4 - 5)/1 + 1 = 10 (same padding)
        assert_eq!(d.out_len(10, 3), Some(10));
    }

    #[test]
    fn identity_kernel() {
        // A single-channel kernel [1.0] with stride 1 reproduces the input.
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 4]);
        let w = Tensor::from_vec(vec![1.0], &[1, 1, 1]);
        let b = Tensor::zeros(&[1]);
        let y = conv1d_forward(&x, &w, &b, Conv1dSpec::default());
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn moving_sum_with_stride() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[1, 6]);
        let w = Tensor::from_vec(vec![1.0, 1.0], &[1, 1, 2]);
        let b = Tensor::zeros(&[1]);
        let y = conv1d_forward(
            &x,
            &w,
            &b,
            Conv1dSpec {
                stride: 2,
                padding: 0,
                dilation: 1,
            },
        );
        assert_eq!(y.dims(), &[1, 3]);
        assert_eq!(y.data(), &[3.0, 7.0, 11.0]);
    }

    #[test]
    fn bias_is_added() {
        let x = Tensor::zeros(&[1, 3]);
        let w = Tensor::from_vec(vec![1.0], &[1, 1, 1]);
        let b = Tensor::from_vec(vec![0.5], &[1]);
        let y = conv1d_forward(&x, &w, &b, Conv1dSpec::default());
        assert!(y.data().iter().all(|&v| v == 0.5));
    }

    #[test]
    fn multi_channel_sum() {
        // Two input channels, kernel that sums them.
        let x = Tensor::from_vec(vec![1.0, 2.0, 10.0, 20.0], &[2, 2]);
        let w = Tensor::from_vec(vec![1.0, 1.0], &[1, 2, 1]);
        let b = Tensor::zeros(&[1]);
        let y = conv1d_forward(&x, &w, &b, Conv1dSpec::default());
        assert_eq!(y.data(), &[11.0, 22.0]);
    }

    #[test]
    fn dilation_skips_samples() {
        let x = Tensor::from_vec(vec![1.0, 100.0, 2.0, 100.0, 3.0], &[1, 5]);
        let w = Tensor::from_vec(vec![1.0, 1.0, 1.0], &[1, 1, 3]);
        let b = Tensor::zeros(&[1]);
        let y = conv1d_forward(
            &x,
            &w,
            &b,
            Conv1dSpec {
                stride: 1,
                padding: 0,
                dilation: 2,
            },
        );
        assert_eq!(y.dims(), &[1, 1]);
        assert_eq!(y.data(), &[6.0]);
    }

    #[test]
    fn padding_zero_extends() {
        let x = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]);
        let w = Tensor::from_vec(vec![1.0, 1.0, 1.0], &[1, 1, 3]);
        let b = Tensor::zeros(&[1]);
        let y = conv1d_forward(
            &x,
            &w,
            &b,
            Conv1dSpec {
                stride: 1,
                padding: 1,
                dilation: 1,
            },
        );
        // padded signal: [0 1 2 0] -> windows [0 1 2], [1 2 0]
        assert_eq!(y.data(), &[3.0, 3.0]);
    }

    /// Finite-difference check of both backward functions.
    #[test]
    fn gradients_match_finite_difference() {
        let spec = Conv1dSpec {
            stride: 2,
            padding: 1,
            dilation: 2,
        };
        let (c_in, c_out, kernel, len) = (2usize, 3usize, 3usize, 9usize);
        let mut seed = 42u64;
        let mut next = move || {
            seed ^= seed >> 12;
            seed ^= seed << 25;
            seed ^= seed >> 27;
            ((seed.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 40) as f32 / (1u64 << 24) as f32) - 0.5
        };
        let x = Tensor::from_fn(&[c_in, len], |_| next());
        let w = Tensor::from_fn(&[c_out, c_in, kernel], |_| next());
        let b = Tensor::from_fn(&[c_out], |_| next());

        // Scalar objective: sum of conv outputs weighted by fixed dy.
        let y0 = conv1d_forward(&x, &w, &b, spec);
        let dy = Tensor::from_fn(y0.dims(), |_| next());
        let objective = |x: &Tensor, w: &Tensor, b: &Tensor| -> f32 {
            conv1d_forward(x, w, b, spec).mul(&dy).sum()
        };

        let dx = conv1d_backward_input(bioformer_simd::kernels().fp32_tile, &dy, &w, spec, len);
        let (dw, db) = conv1d_backward_params(&dy, &x, spec, kernel);

        let eps = 1e-3;
        for idx in 0..x.len() {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let num = (objective(&xp, &w, &b) - objective(&xm, &w, &b)) / (2.0 * eps);
            assert!(
                (num - dx.data()[idx]).abs() < 1e-2,
                "dx[{idx}]: fd={num} analytic={}",
                dx.data()[idx]
            );
        }
        for idx in 0..w.len() {
            let mut wp = w.clone();
            wp.data_mut()[idx] += eps;
            let mut wm = w.clone();
            wm.data_mut()[idx] -= eps;
            let num = (objective(&x, &wp, &b) - objective(&x, &wm, &b)) / (2.0 * eps);
            assert!(
                (num - dw.data()[idx]).abs() < 1e-2,
                "dw[{idx}]: fd={num} analytic={}",
                dw.data()[idx]
            );
        }
        for idx in 0..b.len() {
            let mut bp = b.clone();
            bp.data_mut()[idx] += eps;
            let mut bm = b.clone();
            bm.data_mut()[idx] -= eps;
            let num = (objective(&x, &w, &bp) - objective(&x, &w, &bm)) / (2.0 * eps);
            assert!(
                (num - db.data()[idx]).abs() < 1e-2,
                "db[{idx}]: fd={num} analytic={}",
                db.data()[idx]
            );
        }
    }

    #[test]
    fn gemm_lowering_matches_direct() {
        let mut seed = 7u64;
        let mut next = move || {
            seed ^= seed >> 12;
            seed ^= seed << 25;
            seed ^= seed >> 27;
            ((seed.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 40) as f32 / (1u64 << 24) as f32) - 0.5
        };
        for spec in [
            Conv1dSpec::default(),
            Conv1dSpec::patch(5),
            Conv1dSpec {
                stride: 2,
                padding: 2,
                dilation: 1,
            },
            Conv1dSpec {
                stride: 1,
                padding: 4,
                dilation: 4,
            },
        ] {
            let x = Tensor::from_fn(&[3, 24], |_| next());
            let w = Tensor::from_fn(&[5, 3, 3], |_| next());
            let b = Tensor::from_fn(&[5], |_| next());
            let direct = conv1d_forward_direct(&x, &w, &b, spec);
            let gemm = conv1d_forward(&x, &w, &b, spec);
            assert!(
                gemm.allclose(&direct, 1e-4),
                "GEMM path diverges from direct conv for {spec:?}"
            );
        }
    }

    #[test]
    fn im2col_col2im_adjoint() {
        // <im2col(x), C> == <x, col2im(C)> for all C (adjoint property).
        let spec = Conv1dSpec {
            stride: 2,
            padding: 1,
            dilation: 2,
        };
        let mut seed = 13u64;
        let mut next = move || {
            seed ^= seed >> 12;
            seed ^= seed << 25;
            seed ^= seed >> 27;
            ((seed.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 40) as f32 / (1u64 << 24) as f32) - 0.5
        };
        let x = Tensor::from_fn(&[2, 15], |_| next());
        let cols = im2col(&x, 3, spec);
        let c = Tensor::from_fn(cols.dims(), |_| next());
        let lhs = cols.mul(&c).sum();
        let back = col2im(&c, 2, 15, 3, spec);
        let rhs = x.mul(&back).sum();
        assert!((lhs - rhs).abs() < 1e-3, "adjoint mismatch {lhs} vs {rhs}");
    }

    #[test]
    fn avg_pool_and_backward() {
        let x = Tensor::from_vec(vec![1.0, 3.0, 5.0, 7.0], &[1, 4]);
        let y = avg_pool1d(&x, 2, 2);
        assert_eq!(y.data(), &[2.0, 6.0]);
        let dy = Tensor::ones(&[1, 2]);
        let dx = avg_pool1d_backward(&dy, 2, 2, 4);
        assert_eq!(dx.data(), &[0.5, 0.5, 0.5, 0.5]);
    }
}
