//! Neural-network math primitives with analytic derivatives.
//!
//! Everything here is a pure function over [`Tensor`]s; stateful layers with
//! caches live in `bioformer-nn`. Row-wise operations treat the **last** axis
//! of a 2-D tensor as the feature/key axis, matching the attention and
//! LayerNorm semantics of the paper.

use crate::tensor::Tensor;

/// Numerical-stability epsilon used by [`layernorm_forward`].
pub const LAYERNORM_EPS: f32 = 1e-5;

const SQRT_2_OVER_PI: f32 = 0.797_884_6;
const GELU_COEF: f32 = 0.044_715;

/// Row-wise softmax of a 2-D tensor (softmax over the last axis).
///
/// Uses the max-subtraction trick for numerical stability.
///
/// # Panics
///
/// Panics if `x` is not 2-D.
pub fn softmax_rows(x: &Tensor) -> Tensor {
    let mut out = x.clone();
    softmax_rows_in_place(&mut out);
    out
}

/// In-place variant of [`softmax_rows`]: overwrites `x` with its row-wise
/// softmax without allocating. Used by the inference hot path (attention
/// scores are scratch tensors that die immediately after the `A·V`
/// product, so there is nothing worth preserving).
///
/// Bit-identical to [`softmax_rows`] — the out-of-place form is implemented
/// on top of this one.
///
/// # Panics
///
/// Panics if `x` is not 2-D.
pub fn softmax_rows_in_place(x: &mut Tensor) {
    assert_eq!(x.shape().rank(), 2, "softmax_rows requires a 2-D tensor");
    let n = x.dims()[1];
    softmax_rows_slice(x.data_mut(), n);
}

/// Slice-level softmax over consecutive `n`-wide rows of `data`, in place.
/// The zero-allocation primitive behind [`softmax_rows_in_place`], usable
/// on raw scratch buffers (attention scores in the arena hot path).
///
/// # Panics
///
/// Panics if `data.len()` is not a multiple of `n` (for `n > 0`).
pub fn softmax_rows_slice(data: &mut [f32], n: usize) {
    if data.is_empty() {
        return;
    }
    assert!(
        n > 0 && data.len().is_multiple_of(n),
        "softmax: rows must be n-wide"
    );
    for row in data.chunks_mut(n) {
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        let inv = 1.0 / sum;
        for v in row.iter_mut() {
            *v *= inv;
        }
    }
}

/// Backward pass of [`softmax_rows`].
///
/// Given `y = softmax(x)` and upstream gradient `dy`, returns
/// `dx_i = y_i (dy_i − Σ_j dy_j y_j)` per row.
///
/// # Panics
///
/// Panics on shape mismatch.
pub fn softmax_rows_backward(y: &Tensor, dy: &Tensor) -> Tensor {
    assert_eq!(y.shape(), dy.shape(), "softmax backward shape mismatch");
    let mut dx = dy.clone();
    softmax_rows_backward_slice(y.data(), dx.data_mut(), y.dims()[1]);
    dx
}

/// Slice-level [`softmax_rows_backward`], in place: `g` holds the upstream
/// gradient of the `n`-wide rows of `y = softmax(x)` and is overwritten
/// with the gradient w.r.t. `x`.
///
/// # Panics
///
/// Panics if the lengths differ or are not whole `n`-wide rows.
pub fn softmax_rows_backward_slice(y: &[f32], g: &mut [f32], n: usize) {
    assert_eq!(y.len(), g.len(), "softmax backward shape mismatch");
    if y.is_empty() {
        return;
    }
    assert!(
        n > 0 && y.len().is_multiple_of(n),
        "softmax: rows must be n-wide"
    );
    for (yr, gr) in y.chunks(n).zip(g.chunks_mut(n)) {
        let dot: f32 = yr.iter().zip(gr.iter()).map(|(a, b)| a * b).sum();
        for (gv, &yv) in gr.iter_mut().zip(yr) {
            *gv = yv * (*gv - dot);
        }
    }
}

/// Row-wise log-softmax (numerically stable), used by the cross-entropy
/// loss.
///
/// # Panics
///
/// Panics if `x` is not 2-D.
pub fn log_softmax_rows(x: &Tensor) -> Tensor {
    assert_eq!(x.shape().rank(), 2, "log_softmax_rows requires 2-D");
    let (m, n) = (x.dims()[0], x.dims()[1]);
    let mut out = x.clone();
    for r in 0..m {
        let row = &mut out.data_mut()[r * n..(r + 1) * n];
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let logsum = row.iter().map(|v| (v - max).exp()).sum::<f32>().ln() + max;
        for v in row.iter_mut() {
            *v -= logsum;
        }
    }
    out
}

/// GELU activation (tanh approximation, as used by ViT/BERT implementations
/// and approximated in integer form by I-BERT).
pub fn gelu(x: f32) -> f32 {
    0.5 * x * (1.0 + (SQRT_2_OVER_PI * (x + GELU_COEF * x * x * x)).tanh())
}

/// Derivative of [`gelu`] w.r.t. its input.
pub fn gelu_grad(x: f32) -> f32 {
    let u = SQRT_2_OVER_PI * (x + GELU_COEF * x * x * x);
    let t = u.tanh();
    let du = SQRT_2_OVER_PI * (1.0 + 3.0 * GELU_COEF * x * x);
    0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du
}

/// ReLU activation.
pub fn relu(x: f32) -> f32 {
    x.max(0.0)
}

/// Derivative of [`relu`] (0 at the kink, matching common DL frameworks).
pub fn relu_grad(x: f32) -> f32 {
    if x > 0.0 {
        1.0
    } else {
        0.0
    }
}

/// Per-row statistics cached by [`layernorm_forward`] and consumed by
/// [`layernorm_backward`].
#[derive(Debug, Clone)]
pub struct LayerNormCache {
    /// Normalised activations `x̂` (same shape as the input).
    pub xhat: Tensor,
    /// Per-row `1/√(var+ε)`.
    pub inv_std: Vec<f32>,
}

/// Row-wise LayerNorm: `y = γ ⊙ (x − μ)/√(σ² + ε) + β`.
///
/// Returns the output and the cache needed for the backward pass.
///
/// # Panics
///
/// Panics if `x` is not 2-D or `gamma`/`beta` do not match the row width.
pub fn layernorm_forward(x: &Tensor, gamma: &Tensor, beta: &Tensor) -> (Tensor, LayerNormCache) {
    assert_eq!(x.shape().rank(), 2, "layernorm requires a 2-D tensor");
    let (m, n) = (x.dims()[0], x.dims()[1]);
    assert_eq!(gamma.dims(), &[n], "layernorm: gamma must be [features]");
    assert_eq!(beta.dims(), &[n], "layernorm: beta must be [features]");
    let mut y = Tensor::zeros(&[m, n]);
    let mut cache = LayerNormCache {
        xhat: Tensor::zeros(&[m, n]),
        inv_std: vec![0.0f32; m],
    };
    layernorm_train_into(
        x.data(),
        gamma.data(),
        beta.data(),
        y.data_mut(),
        &mut cache,
    );
    (y, cache)
}

/// Slice-level training [`layernorm_forward`]: normalises the
/// `gamma`-width rows of `x` into `y` and refreshes `cache` for
/// [`layernorm_backward`], reusing its buffers (`cache.xhat` takes `x`'s
/// row count as `[rows, features]`). Bit-identical to
/// [`layernorm_forward`], which is this over fresh buffers.
///
/// # Panics
///
/// Panics if `x` is not whole `gamma`-width rows, or if `beta` or `y`
/// disagree with it.
pub fn layernorm_train_into(
    x: &[f32],
    gamma: &[f32],
    beta: &[f32],
    y: &mut [f32],
    cache: &mut LayerNormCache,
) {
    let n = gamma.len();
    assert_eq!(beta.len(), n, "layernorm: beta must match gamma");
    assert!(n > 0, "layernorm: zero feature width");
    assert_eq!(x.len() % n, 0, "layernorm: rows must be gamma-width");
    assert_eq!(y.len(), x.len(), "layernorm: out size mismatch");
    let m = x.len() / n;
    if cache.xhat.dims() != [m, n] {
        cache.xhat = Tensor::zeros(&[m, n]);
    }
    cache.inv_std.resize(m, 0.0);
    let xhat = cache.xhat.data_mut();
    for (r, inv_std_row) in cache.inv_std.iter_mut().enumerate() {
        let row = &x[r * n..(r + 1) * n];
        let mean = row.iter().sum::<f32>() / n as f32;
        let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n as f32;
        let istd = 1.0 / (var + LAYERNORM_EPS).sqrt();
        *inv_std_row = istd;
        for (i, &xv) in row.iter().enumerate() {
            let xh = (xv - mean) * istd;
            xhat[r * n + i] = xh;
            y[r * n + i] = gamma[i] * xh + beta[i];
        }
    }
}

/// Inference-only LayerNorm into a caller-provided buffer: computes the
/// same `y = γ ⊙ (x − μ)/√(σ² + ε) + β` as [`layernorm_forward`] but skips
/// the backward cache (`x̂`, `1/σ`) entirely and writes into `out`, so the
/// serving hot path allocates nothing.
///
/// `out` may be a recycled scratch buffer of any prior content; every
/// element is overwritten. Bit-identical to the `y` returned by
/// [`layernorm_forward`].
///
/// # Panics
///
/// Panics if `x.len()` is not a multiple of `gamma.len()`, if `beta` and
/// `gamma` disagree, or if `out.len() != x.len()`.
pub fn layernorm_rows_into(x: &[f32], gamma: &[f32], beta: &[f32], out: &mut [f32]) {
    let n = gamma.len();
    assert_eq!(beta.len(), n, "layernorm: beta must match gamma");
    assert!(n > 0, "layernorm: zero feature width");
    assert_eq!(x.len() % n, 0, "layernorm: rows must be gamma-width");
    assert_eq!(out.len(), x.len(), "layernorm: out size mismatch");
    let m = x.len() / n;
    for r in 0..m {
        let row = &x[r * n..(r + 1) * n];
        let mean = row.iter().sum::<f32>() / n as f32;
        let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n as f32;
        let istd = 1.0 / (var + LAYERNORM_EPS).sqrt();
        let out_row = &mut out[r * n..(r + 1) * n];
        for i in 0..n {
            out_row[i] = gamma[i] * ((row[i] - mean) * istd) + beta[i];
        }
    }
}

/// Backward pass of [`layernorm_forward`].
///
/// Returns `(dx, dgamma, dbeta)`.
///
/// # Panics
///
/// Panics on shape mismatch between `dy` and the cached activations.
pub fn layernorm_backward(
    dy: &Tensor,
    gamma: &Tensor,
    cache: &LayerNormCache,
) -> (Tensor, Tensor, Tensor) {
    let (m, n) = (dy.dims()[0], dy.dims()[1]);
    assert_eq!(
        cache.xhat.dims(),
        dy.dims(),
        "layernorm backward shape mismatch"
    );
    let mut dx = Tensor::zeros(&[m, n]);
    let mut dgamma = Tensor::zeros(&[n]);
    let mut dbeta = Tensor::zeros(&[n]);
    for r in 0..m {
        let dyr = &dy.data()[r * n..(r + 1) * n];
        let xhr = &cache.xhat.data()[r * n..(r + 1) * n];
        // Parameter gradients accumulate across rows.
        for i in 0..n {
            dgamma.data_mut()[i] += dyr[i] * xhr[i];
            dbeta.data_mut()[i] += dyr[i];
        }
        // dxhat = dy * gamma; dx = istd*(dxhat - mean(dxhat) - xhat*mean(dxhat*xhat))
        let mut mean_dxhat = 0.0f32;
        let mut mean_dxhat_xhat = 0.0f32;
        for i in 0..n {
            let dxh = dyr[i] * gamma.data()[i];
            mean_dxhat += dxh;
            mean_dxhat_xhat += dxh * xhr[i];
        }
        mean_dxhat /= n as f32;
        mean_dxhat_xhat /= n as f32;
        let istd = cache.inv_std[r];
        let dxr = &mut dx.data_mut()[r * n..(r + 1) * n];
        for i in 0..n {
            let dxh = dyr[i] * gamma.data()[i];
            dxr[i] = istd * (dxh - mean_dxhat - xhr[i] * mean_dxhat_xhat);
        }
    }
    (dx, dgamma, dbeta)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(dims: &[usize], seed: u64) -> Tensor {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        Tensor::from_fn(dims, |_| {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            ((state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 40) as f32 / (1u64 << 24) as f32) - 0.5
        })
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = filled(&[4, 7], 1).scale(3.0);
        let y = softmax_rows(&x);
        for r in 0..4 {
            let s: f32 = y.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-5, "row {r} sums to {s}");
            assert!(y.row(r).iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn softmax_in_place_is_bit_identical() {
        let x = filled(&[5, 9], 21).scale(4.0);
        let want = softmax_rows(&x);
        let mut got = x.clone();
        softmax_rows_in_place(&mut got);
        assert!(got.allclose(&want, 0.0), "in-place softmax diverges");
    }

    #[test]
    fn layernorm_into_is_bit_identical_to_forward() {
        let x = filled(&[4, 12], 22).scale(3.0);
        let gamma = filled(&[12], 23).map(|v| v + 1.0);
        let beta = filled(&[12], 24);
        let (want, _) = layernorm_forward(&x, &gamma, &beta);
        let mut out = vec![f32::NAN; x.len()];
        layernorm_rows_into(x.data(), gamma.data(), beta.data(), &mut out);
        assert_eq!(out, want.data(), "arena layernorm diverges from forward");
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let x = filled(&[2, 5], 2);
        let shifted = x.map(|v| v + 100.0);
        assert!(softmax_rows(&x).allclose(&softmax_rows(&shifted), 1e-5));
    }

    #[test]
    fn softmax_handles_large_values() {
        let x = Tensor::from_vec(vec![1000.0, 1000.0, -1000.0], &[1, 3]);
        let y = softmax_rows(&x);
        assert!(!y.has_non_finite());
        assert!((y.data()[0] - 0.5).abs() < 1e-5);
    }

    #[test]
    fn softmax_backward_matches_fd() {
        let x = filled(&[3, 5], 3);
        let dy = filled(&[3, 5], 4);
        let y = softmax_rows(&x);
        let dx = softmax_rows_backward(&y, &dy);
        let eps = 1e-3;
        for idx in 0..x.len() {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let fp = softmax_rows(&xp).mul(&dy).sum();
            let fm = softmax_rows(&xm).mul(&dy).sum();
            let num = (fp - fm) / (2.0 * eps);
            assert!(
                (num - dx.data()[idx]).abs() < 5e-3,
                "dx[{idx}]: fd={num} analytic={}",
                dx.data()[idx]
            );
        }
    }

    #[test]
    fn log_softmax_consistent_with_softmax() {
        let x = filled(&[3, 6], 5);
        let ls = log_softmax_rows(&x);
        let s = softmax_rows(&x);
        for i in 0..x.len() {
            assert!((ls.data()[i].exp() - s.data()[i]).abs() < 1e-5);
        }
    }

    #[test]
    fn gelu_known_values() {
        assert!((gelu(0.0)).abs() < 1e-7);
        assert!((gelu(1.0) - 0.8412).abs() < 1e-3);
        assert!((gelu(-1.0) + 0.1588).abs() < 1e-3);
        // Asymptotics: gelu(x) ≈ x for large x, ≈ 0 for very negative x.
        assert!((gelu(10.0) - 10.0).abs() < 1e-3);
        assert!(gelu(-10.0).abs() < 1e-3);
    }

    #[test]
    fn gelu_grad_matches_fd() {
        for &x in &[-3.0f32, -1.0, -0.1, 0.0, 0.5, 2.0, 4.0] {
            let eps = 1e-3;
            let num = (gelu(x + eps) - gelu(x - eps)) / (2.0 * eps);
            assert!(
                (num - gelu_grad(x)).abs() < 1e-3,
                "x={x}: fd={num} analytic={}",
                gelu_grad(x)
            );
        }
    }

    #[test]
    fn relu_and_grad() {
        assert_eq!(relu(-2.0), 0.0);
        assert_eq!(relu(3.0), 3.0);
        assert_eq!(relu_grad(-1.0), 0.0);
        assert_eq!(relu_grad(1.0), 1.0);
    }

    #[test]
    fn layernorm_normalises_rows() {
        let x = filled(&[3, 16], 6).scale(5.0);
        let gamma = Tensor::ones(&[16]);
        let beta = Tensor::zeros(&[16]);
        let (y, _) = layernorm_forward(&x, &gamma, &beta);
        for r in 0..3 {
            let row = y.row(r);
            let mean: f32 = row.iter().sum::<f32>() / 16.0;
            let var: f32 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 16.0;
            assert!(mean.abs() < 1e-4, "row {r} mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "row {r} var {var}");
        }
    }

    #[test]
    fn layernorm_affine_params_apply() {
        let x = filled(&[2, 4], 7);
        let gamma = Tensor::full(&[4], 2.0);
        let beta = Tensor::full(&[4], 1.0);
        let (y, _) = layernorm_forward(&x, &gamma, &beta);
        let (y0, _) = layernorm_forward(&x, &Tensor::ones(&[4]), &Tensor::zeros(&[4]));
        let expect = y0.scale(2.0).map(|v| v + 1.0);
        assert!(y.allclose(&expect, 1e-5));
    }

    #[test]
    fn layernorm_backward_matches_fd() {
        let x = filled(&[3, 8], 8);
        let gamma = filled(&[8], 9).map(|v| v + 1.0);
        let beta = filled(&[8], 10);
        let dy = filled(&[3, 8], 11);

        let (_, cache) = layernorm_forward(&x, &gamma, &beta);
        let (dx, dgamma, dbeta) = layernorm_backward(&dy, &gamma, &cache);

        let objective = |x: &Tensor, g: &Tensor, b: &Tensor| -> f32 {
            layernorm_forward(x, g, b).0.mul(&dy).sum()
        };
        let eps = 1e-3;
        for idx in 0..x.len() {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let num = (objective(&xp, &gamma, &beta) - objective(&xm, &gamma, &beta)) / (2.0 * eps);
            assert!(
                (num - dx.data()[idx]).abs() < 2e-2,
                "dx[{idx}]: fd={num} analytic={}",
                dx.data()[idx]
            );
        }
        for idx in 0..gamma.len() {
            let mut gp = gamma.clone();
            gp.data_mut()[idx] += eps;
            let mut gm = gamma.clone();
            gm.data_mut()[idx] -= eps;
            let num = (objective(&x, &gp, &beta) - objective(&x, &gm, &beta)) / (2.0 * eps);
            assert!(
                (num - dgamma.data()[idx]).abs() < 1e-2,
                "dgamma[{idx}]: fd={num} analytic={}",
                dgamma.data()[idx]
            );
        }
        for idx in 0..beta.len() {
            let mut bp = beta.clone();
            bp.data_mut()[idx] += eps;
            let mut bm = beta.clone();
            bm.data_mut()[idx] -= eps;
            let num = (objective(&x, &gamma, &bp) - objective(&x, &gamma, &bm)) / (2.0 * eps);
            assert!(
                (num - dbeta.data()[idx]).abs() < 1e-2,
                "dbeta[{idx}]: fd={num} analytic={}",
                dbeta.data()[idx]
            );
        }
    }
}
