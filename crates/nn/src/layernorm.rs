//! LayerNorm layer with trainable affine parameters.

use crate::param::Param;
use bioformer_tensor::ops::{
    layernorm_backward, layernorm_forward, layernorm_rows_into, layernorm_train_into,
    LayerNormCache,
};
use bioformer_tensor::{Tensor, TensorArena};

/// Row-wise layer normalisation `y = γ ⊙ x̂ + β` over `[rows, features]`.
///
/// `γ` initialises to ones and `β` to zeros. Inputs of shape
/// `[batch, seq, features]` are flattened to rows by the caller.
#[derive(Debug, Clone)]
pub struct LayerNorm {
    gamma: Param,
    beta: Param,
    features: usize,
    cache: Option<LayerNormCache>,
}

impl LayerNorm {
    /// Creates a LayerNorm over `features`-wide rows.
    pub fn new(name: &str, features: usize) -> Self {
        LayerNorm {
            gamma: Param::new(format!("{name}.gamma"), Tensor::ones(&[features])),
            beta: Param::new(format!("{name}.beta"), Tensor::zeros(&[features])),
            features,
            cache: None,
        }
    }

    /// Feature width.
    pub fn features(&self) -> usize {
        self.features
    }

    /// Immutable access to `γ`.
    pub fn gamma(&self) -> &Param {
        &self.gamma
    }

    /// Immutable access to `β`.
    pub fn beta(&self) -> &Param {
        &self.beta
    }

    /// Number of trainable scalars.
    pub fn num_params(&self) -> usize {
        2 * self.features
    }

    /// Forward pass over `[rows, features]`. A training pass also takes
    /// any tensor whose last axis is `features` wide (a `[batch, seq,
    /// features]` token tensor), returns that shape, and caches the
    /// normalised rows as `[rows, features]` in the buffers the previous
    /// step cached into; [`LayerNorm::backward`] then takes the gradient as
    /// `[rows, features]`.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from `features`.
    pub fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        if !train {
            return self.forward_infer(x);
        }
        assert_eq!(
            x.dims().last(),
            Some(&self.features),
            "LayerNorm {}: width mismatch",
            self.gamma.name
        );
        let cache = self.cache.get_or_insert_with(|| LayerNormCache {
            xhat: Tensor::zeros(&[0, self.features]),
            inv_std: Vec::new(),
        });
        let mut y = Tensor::zeros(x.dims());
        layernorm_train_into(
            x.data(),
            self.gamma.value.data(),
            self.beta.value.data(),
            y.data_mut(),
            cache,
        );
        y
    }

    /// Inference-only forward pass over `[rows, features]` through `&self`:
    /// same arithmetic as `forward(x, false)`, no cache writes, so one layer
    /// instance can serve concurrent readers without cloning.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from `features`.
    pub fn forward_infer(&self, x: &Tensor) -> Tensor {
        assert_eq!(
            x.dims()[1],
            self.features,
            "LayerNorm {}: width mismatch",
            self.gamma.name
        );
        layernorm_forward(x, &self.gamma.value, &self.beta.value).0
    }

    /// Arena variant of [`LayerNorm::forward_infer`]: skips the backward
    /// cache entirely (no `x̂`/`1/σ` tensors) and draws the output from
    /// `arena`. Bit-identical to the cached forward.
    pub fn forward_infer_in(&self, x: &Tensor, arena: &mut TensorArena) -> Tensor {
        assert_eq!(
            x.dims()[1],
            self.features,
            "LayerNorm {}: width mismatch",
            self.gamma.name
        );
        let mut out = arena.tensor(x.dims());
        self.infer_into(x.data(), out.data_mut());
        out
    }

    /// Slice-level inference entry: normalises `gamma`-width rows of `x`
    /// into `out` with no allocation (see
    /// [`bioformer_tensor::ops::layernorm_rows_into`]).
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` is not a multiple of the feature width or the
    /// buffer lengths disagree.
    pub fn infer_into(&self, x: &[f32], out: &mut [f32]) {
        layernorm_rows_into(x, self.gamma.value.data(), self.beta.value.data(), out);
    }

    /// Backward pass: accumulates `dγ`, `dβ`, returns `dx`.
    ///
    /// # Panics
    ///
    /// Panics if called before a training-mode forward pass.
    pub fn backward(&mut self, dy: &Tensor) -> Tensor {
        let cache = self
            .cache
            .as_ref()
            .unwrap_or_else(|| panic!("LayerNorm {}: backward before forward", self.gamma.name));
        let (dx, dgamma, dbeta) = layernorm_backward(dy, &self.gamma.value, cache);
        self.gamma.accumulate(&dgamma);
        self.beta.accumulate(&dbeta);
        dx
    }

    /// Visits the layer's parameters in deterministic order.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }

    /// Copies `src`'s `γ` and `β` into this layer in place (a training
    /// replica catching up with its primary).
    pub fn sync_from(&mut self, src: &LayerNorm) {
        self.gamma.sync_from(&src.gamma);
        self.beta.sync_from(&src.beta);
    }

    /// Drops the forward cache.
    pub fn clear_cache(&mut self) {
        self.cache = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn filled(dims: &[usize], seed: u64) -> Tensor {
        let mut rng = StdRng::seed_from_u64(seed);
        Tensor::from_fn(dims, |_| rng.gen_range(-1.0..1.0))
    }

    #[test]
    fn identity_initialisation_normalises() {
        let mut ln = LayerNorm::new("ln", 8);
        let x = filled(&[4, 8], 0).scale(10.0);
        let y = ln.forward(&x, false);
        for r in 0..4 {
            let m: f32 = y.row(r).iter().sum::<f32>() / 8.0;
            assert!(m.abs() < 1e-4);
        }
    }

    /// infer == eval pin for the arena path (satellite: allocation-free
    /// layernorm must not change a single bit).
    #[test]
    fn arena_forward_matches_eval_bitwise() {
        let mut ln = LayerNorm::new("ln", 10);
        let mut rng = StdRng::seed_from_u64(5);
        for v in ln.gamma.value.data_mut() {
            *v = rng.gen_range(0.5..1.5);
        }
        for v in ln.beta.value.data_mut() {
            *v = rng.gen_range(-0.5..0.5);
        }
        let x = filled(&[6, 10], 6).scale(4.0);
        let eval = ln.forward(&x, false);
        let mut arena = TensorArena::new();
        let infer = ln.forward_infer_in(&x, &mut arena);
        assert!(infer.allclose(&eval, 0.0), "arena layernorm diverges");
    }

    #[test]
    fn gradcheck_through_layer() {
        let mut ln = LayerNorm::new("ln", 6);
        // Perturb affine params away from identity for a stronger check.
        let mut rng = StdRng::seed_from_u64(1);
        for v in ln.gamma.value.data_mut() {
            *v = rng.gen_range(0.5..1.5);
        }
        for v in ln.beta.value.data_mut() {
            *v = rng.gen_range(-0.5..0.5);
        }

        let x = filled(&[3, 6], 2);
        let _y = ln.forward(&x, true);
        let dy = filled(&[3, 6], 3);
        let dx = ln.backward(&dy);
        let dg = ln.gamma.grad.clone();

        let objective =
            |ln: &mut LayerNorm, x: &Tensor| -> f32 { ln.forward(x, false).mul(&dy).sum() };
        let eps = 1e-3;
        for idx in 0..x.len() {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let num = (objective(&mut ln, &xp) - objective(&mut ln, &xm)) / (2.0 * eps);
            assert!(
                (num - dx.data()[idx]).abs() < 2e-2,
                "dx[{idx}] fd={num} got={}",
                dx.data()[idx]
            );
        }
        for idx in 0..dg.len() {
            let orig = ln.gamma.value.data()[idx];
            ln.gamma.value.data_mut()[idx] = orig + eps;
            let fp = objective(&mut ln, &x);
            ln.gamma.value.data_mut()[idx] = orig - eps;
            let fm = objective(&mut ln, &x);
            ln.gamma.value.data_mut()[idx] = orig;
            let num = (fp - fm) / (2.0 * eps);
            assert!(
                (num - dg.data()[idx]).abs() < 1e-2,
                "dγ[{idx}] fd={num} got={}",
                dg.data()[idx]
            );
        }
    }
}
