//! Trainable parameters: value + accumulated gradient.

use bioformer_tensor::Tensor;

/// A trainable tensor with its accumulated gradient.
///
/// Layers expose their parameters through [`crate::Model::visit_params`];
/// optimizers consume `grad` and update `value`. Gradients accumulate across
/// backward calls until [`Param::zero_grad`] is invoked (mirroring PyTorch
/// semantics, which the trainer relies on for gradient accumulation across
/// data-parallel shards).
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Stable identifier used for serialization and debugging
    /// (e.g. `"patch_embed.weight"`).
    pub name: String,
    /// Current parameter value.
    pub value: Tensor,
    /// Accumulated gradient, always the same shape as `value`.
    pub grad: Tensor,
}

impl Param {
    /// Creates a parameter from an initial value with a zeroed gradient.
    pub fn new(name: impl Into<String>, value: Tensor) -> Self {
        let grad = Tensor::zeros(value.dims());
        Param {
            name: name.into(),
            value,
            grad,
        }
    }

    /// Number of scalar elements.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// Returns `true` when the parameter holds no elements.
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }

    /// Resets the accumulated gradient to zero.
    pub fn zero_grad(&mut self) {
        self.grad.data_mut().fill(0.0);
    }

    /// Accumulates `g` into the gradient.
    ///
    /// # Panics
    ///
    /// Panics if `g` has a different shape than the parameter.
    pub fn accumulate(&mut self, g: &Tensor) {
        self.grad.add_assign(g);
    }

    /// [`Param::accumulate`] from a flat slice: `grad[i] += g[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `g` has a different length than the parameter.
    pub(crate) fn accumulate_slice(&mut self, g: &[f32]) {
        assert_eq!(g.len(), self.len(), "{}: gradient size mismatch", self.name);
        for (a, b) in self.grad.data_mut().iter_mut().zip(g) {
            *a += b;
        }
    }

    /// Copies `src`'s value into this parameter's buffer (a training
    /// replica catching up with its primary); the gradient is untouched.
    pub fn sync_from(&mut self, src: &Param) {
        self.value.clone_from(&src.value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_param_has_zero_grad() {
        let p = Param::new("w", Tensor::ones(&[2, 3]));
        assert_eq!(p.name, "w");
        assert_eq!(p.grad.dims(), &[2, 3]);
        assert!(p.grad.data().iter().all(|&v| v == 0.0));
        assert_eq!(p.len(), 6);
    }

    #[test]
    fn accumulate_and_zero() {
        let mut p = Param::new("b", Tensor::zeros(&[2]));
        p.accumulate(&Tensor::ones(&[2]));
        p.accumulate(&Tensor::ones(&[2]));
        assert_eq!(p.grad.data(), &[2.0, 2.0]);
        p.zero_grad();
        assert_eq!(p.grad.data(), &[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn accumulate_shape_mismatch_panics() {
        let mut p = Param::new("b", Tensor::zeros(&[2]));
        p.accumulate(&Tensor::ones(&[3]));
    }
}
