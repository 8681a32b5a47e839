//! Element-wise activation layers (GELU, ReLU).

use bioformer_tensor::ops;
use bioformer_tensor::Tensor;

/// GELU activation layer (tanh approximation), used inside the Bioformer's
/// feed-forward blocks.
#[derive(Debug, Clone, Default)]
pub struct Gelu {
    cached_input: Option<Tensor>,
}

impl Gelu {
    /// Creates the layer.
    pub fn new() -> Self {
        Gelu::default()
    }

    /// Forward pass (any shape).
    pub fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        if train {
            // Refresh the previous step's cache in place.
            self.cached_input
                .get_or_insert_with(|| Tensor::zeros(&[0]))
                .clone_from(x);
        }
        self.forward_infer(x)
    }

    /// Inference-only forward through `&self` (no cache writes).
    pub fn forward_infer(&self, x: &Tensor) -> Tensor {
        x.map(ops::gelu)
    }

    /// Allocation-free inference: applies GELU to `x` in place. Inference
    /// activations are scratch tensors, so there is nothing to preserve —
    /// this is the arena-path counterpart of [`Gelu::forward_infer`]
    /// (bit-identical values; the hot path usually avoids even this by
    /// fusing GELU into the preceding GEMM's epilogue, see
    /// [`crate::linear::FusedActivation`]).
    pub fn forward_infer_in_place(&self, x: &mut Tensor) {
        x.map_in_place(ops::gelu);
    }

    /// Backward pass.
    ///
    /// # Panics
    ///
    /// Panics if called before a training-mode forward pass.
    pub fn backward(&mut self, dy: &Tensor) -> Tensor {
        let x = self
            .cached_input
            .as_ref()
            .expect("Gelu: backward before forward");
        dy.zip_with(x, |g, xv| g * ops::gelu_grad(xv))
    }

    /// Drops the forward cache.
    pub fn clear_cache(&mut self) {
        self.cached_input = None;
    }
}

/// ReLU activation layer (optionally leaky), used by the TEMPONet
/// baseline. The leaky variant (`negative_slope > 0`) is used in its
/// fully-connected classifier, where there is no normalisation layer to
/// recover from dead units.
#[derive(Debug, Clone, Default)]
pub struct Relu {
    negative_slope: f32,
    cached_input: Option<Tensor>,
}

impl Relu {
    /// Creates a standard ReLU.
    pub fn new() -> Self {
        Relu::default()
    }

    /// Creates a leaky ReLU with the given negative-side slope.
    pub fn leaky(negative_slope: f32) -> Self {
        Relu {
            negative_slope,
            cached_input: None,
        }
    }

    /// Forward pass (any shape).
    pub fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        if train {
            // Refresh the previous step's cache in place.
            self.cached_input
                .get_or_insert_with(|| Tensor::zeros(&[0]))
                .clone_from(x);
        }
        self.forward_infer(x)
    }

    /// Inference-only forward through `&self` (no cache writes).
    pub fn forward_infer(&self, x: &Tensor) -> Tensor {
        let a = self.negative_slope;
        x.map(|v| if v > 0.0 { v } else { a * v })
    }

    /// Allocation-free inference: applies the (leaky) ReLU in place; see
    /// [`Gelu::forward_infer_in_place`] for the rationale.
    pub fn forward_infer_in_place(&self, x: &mut Tensor) {
        let a = self.negative_slope;
        x.map_in_place(|v| if v > 0.0 { v } else { a * v });
    }

    /// Backward pass.
    ///
    /// # Panics
    ///
    /// Panics if called before a training-mode forward pass.
    pub fn backward(&mut self, dy: &Tensor) -> Tensor {
        let x = self
            .cached_input
            .as_ref()
            .expect("Relu: backward before forward");
        let a = self.negative_slope;
        dy.zip_with(x, |g, v| g * if v > 0.0 { 1.0 } else { a })
    }

    /// Drops the forward cache.
    pub fn clear_cache(&mut self) {
        self.cached_input = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn filled(dims: &[usize], seed: u64) -> Tensor {
        let mut rng = StdRng::seed_from_u64(seed);
        Tensor::from_fn(dims, |_| rng.gen_range(-2.0..2.0))
    }

    #[test]
    fn gelu_gradcheck() {
        let mut g = Gelu::new();
        let x = filled(&[2, 5], 0);
        let _ = g.forward(&x, true);
        let dy = filled(&[2, 5], 1);
        let dx = g.backward(&dy);
        let eps = 1e-3;
        for idx in 0..x.len() {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let num = (g.forward(&xp, false).mul(&dy).sum() - g.forward(&xm, false).mul(&dy).sum())
                / (2.0 * eps);
            assert!((num - dx.data()[idx]).abs() < 1e-2);
        }
    }

    #[test]
    fn relu_zeroes_negatives() {
        let mut r = Relu::new();
        let x = Tensor::from_vec(vec![-1.0, 2.0, -3.0], &[1, 3]);
        let y = r.forward(&x, true);
        assert_eq!(y.data(), &[0.0, 2.0, 0.0]);
        let dy = Tensor::ones(&[1, 3]);
        let dx = r.backward(&dy);
        assert_eq!(dx.data(), &[0.0, 1.0, 0.0]);
    }
}
