//! The [`Model`] and [`InferForward`] abstractions shared by trainers,
//! optimizers, protocols and the serving layer.

use crate::param::Param;
use bioformer_tensor::{Tensor, TensorArena};

/// An inference-only forward pass over shared model state.
///
/// [`Model::forward`] takes `&mut self` because training-mode passes stash
/// activation caches for backprop. Serving has no use for those caches, and
/// the `&mut` receiver forces engines to either lock or deep-copy the model
/// per request. Implementors of this trait provide the eval-mode forward
/// through `&self` — bit-identical logits to `Model::forward(x, false)`,
/// no cache writes — so a single model instance can be shared across a
/// worker pool (`Arc<M>`) with zero clones.
///
/// Every layer in this crate exposes a matching `forward_infer(&self, …)`
/// building block (e.g. [`crate::Linear::forward_infer`]).
pub trait InferForward {
    /// Eval-mode forward pass:
    /// `[batch, channels, samples] → [batch, classes]`.
    fn forward_infer(&self, x: &Tensor) -> Tensor;

    /// Eval-mode forward pass drawing every intermediate tensor from
    /// `arena` and recycling it before returning, so repeated calls with
    /// the same warmed arena perform **zero heap allocations** (see
    /// [`bioformer_tensor::arena`]).
    ///
    /// Must return logits bit-identical to [`InferForward::forward_infer`]
    /// — the arena changes where buffers come from, never what is computed.
    /// The returned tensor's buffer is arena-owned: callers that want the
    /// allocation-free steady state copy the logits out and
    /// [`TensorArena::recycle`] it.
    ///
    /// The default implementation ignores the arena and delegates to
    /// `forward_infer`, so models without an arena-threaded path (e.g.
    /// integer-only backends with their own scratch story) stay correct.
    fn forward_infer_in(&self, x: &Tensor, arena: &mut TensorArena) -> Tensor {
        let _ = arena;
        self.forward_infer(x)
    }
}

/// A trainable classifier over sEMG windows.
///
/// Models map a batch of windows `[batch, channels, samples]` to logits
/// `[batch, classes]`, own their parameters, and implement explicit
/// backward passes. `Clone + Send` enables the trainer's data-parallel
/// gradient computation (each shard runs on a replica of the primary,
/// re-synced with [`Model::sync_from`] before every step; gradients are
/// summed back into the primary instance).
pub trait Model: Send + Clone {
    /// Forward pass: `[batch, channels, samples] → [batch, classes]`.
    /// With `train == true` the model caches activations for
    /// [`Model::backward`].
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor;

    /// Backward pass from the loss gradient w.r.t. the logits; accumulates
    /// parameter gradients.
    fn backward(&mut self, dlogits: &Tensor);

    /// Visits every parameter exactly once, in an order that is stable
    /// across clones of the same architecture (the optimizer and the
    /// gradient-merge step rely on this).
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param));

    /// Drops forward caches (reduces clone cost; optional).
    fn clear_cache(&mut self) {}

    /// Makes this model a training replica of `src` again: `src`'s
    /// parameter values and training-time random state (dropout streams),
    /// so that a forward here draws what one on a fresh clone of `src`
    /// would. Gradients and caches may be left as they are; the trainer
    /// zeroes the gradients itself.
    ///
    /// The default replaces `self` with a clone of `src`. Models override
    /// it to copy into the buffers they already hold, so a replica that
    /// lives for a whole training run allocates nothing per step.
    fn sync_from(&mut self, src: &Self) {
        *self = src.clone();
    }

    /// Number of trainable scalars.
    fn num_params(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p| n += p.len());
        n
    }

    /// Zeroes all accumulated gradients.
    fn zero_grad(&mut self) {
        self.visit_params(&mut |p| p.zero_grad());
    }

    /// Extracts a snapshot of all gradients, in visit order.
    fn grads(&mut self) -> Vec<Tensor> {
        let mut out = Vec::new();
        self.visit_params(&mut |p| out.push(p.grad.clone()));
        out
    }

    /// Accumulates externally computed gradients (in visit order) into this
    /// model's parameters.
    ///
    /// # Panics
    ///
    /// Panics if `grads` does not match the parameter count or shapes.
    fn accumulate_grads(&mut self, grads: &[Tensor]) {
        let mut i = 0;
        self.visit_params(&mut |p| {
            assert!(i < grads.len(), "gradient list too short");
            p.accumulate(&grads[i]);
            i += 1;
        });
        assert_eq!(i, grads.len(), "gradient list too long");
    }
}
