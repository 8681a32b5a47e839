//! Fully-connected (affine) layer.

use crate::init;
use crate::param::Param;
use crate::scratch::TrainScratch;
use bioformer_tensor::matmul::matmul_tn_into;
use bioformer_tensor::pack::{
    gemm_packed_with, pack_b, pack_b_t, packed_len, Epilogue, Fp32Kernel, PackedB,
};
use bioformer_tensor::{Tensor, TensorArena};
use rand::Rng;
use std::sync::OnceLock;

/// An activation fused into a [`Linear`] forward's GEMM epilogue: the
/// nonlinearity is applied as each output tile is stored, instead of in a
/// separate pass over the activations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FusedActivation {
    /// Plain affine output.
    None,
    /// tanh-approximated GELU (transformer FFN).
    Gelu,
    /// (Leaky) ReLU with the given negative-side slope.
    Relu(f32),
}

/// An affine layer `y = x · Wᵀ + b` with weight layout `[out, in]`
/// (PyTorch convention, so int8 export in `bioformer-quant` maps 1:1).
///
/// Inputs are 2-D `[rows, in_features]`; the layer is shape-agnostic in the
/// row count, so callers flatten `[batch, seq, features]` to
/// `[batch·seq, features]` before applying it.
///
/// # Weight packing
///
/// The inference path runs the layer's [`Fp32Kernel`] (the dispatched tile
/// unless [`Linear::set_kernel`] pins a SIMD tier), and
/// the packed image of `W` is cached inside
/// the layer so serving packs each weight matrix **once**, not per call.
/// The cache follows a simple freshness rule: any `&mut self` entry point
/// that could have observed a weight mutation ([`Linear::forward`],
/// [`Linear::visit_params`]) drops it, and the `&self` inference paths
/// rebuild it lazily. External code can only mutate weights through
/// `visit_params` (the optimizer and the state-dict loader both do), so a
/// shared `&self` instance behind an `Arc` always sees a fresh pack.
///
/// A training forward packs the weights it is about to change into the
/// layer's training scratch instead, leaving the inference cache empty.
#[derive(Debug, Clone)]
pub struct Linear {
    weight: Param,
    bias: Param,
    in_features: usize,
    out_features: usize,
    cached_input: Option<Tensor>,
    /// Lazily-built packed image of `weight` for the inference GEMM.
    packed: OnceLock<PackedB>,
    /// The SIMD tier every GEMM of this layer runs, forward and backward
    /// (`dW` runs the weight-gradient kernel, whose bits no tier changes).
    kernel: Fp32Kernel,
    /// Packed weights and gradient blocks of the training step.
    scratch: TrainScratch,
}

impl Linear {
    /// Creates a Xavier-initialised linear layer.
    pub fn new(name: &str, in_features: usize, out_features: usize, rng: &mut impl Rng) -> Self {
        let weight = Param::new(
            format!("{name}.weight"),
            init::xavier_uniform(rng, &[out_features, in_features], in_features, out_features),
        );
        let bias = Param::new(format!("{name}.bias"), Tensor::zeros(&[out_features]));
        Linear {
            weight,
            bias,
            in_features,
            out_features,
            cached_input: None,
            packed: OnceLock::new(),
            kernel: Fp32Kernel::Dispatch,
            scratch: TrainScratch::default(),
        }
    }

    /// Pins the SIMD tier of this layer's forward GEMMs. The packed-weight
    /// cache survives: every tier reads the same packed image.
    pub fn set_kernel(&mut self, kernel: Fp32Kernel) {
        self.kernel = kernel;
    }

    /// Input width.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output width.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Immutable access to the weight parameter.
    pub fn weight(&self) -> &Param {
        &self.weight
    }

    /// Immutable access to the bias parameter.
    pub fn bias(&self) -> &Param {
        &self.bias
    }

    /// Number of trainable scalars.
    pub fn num_params(&self) -> usize {
        self.weight.len() + self.bias.len()
    }

    /// The packed image of the weight matrix, built on first use after any
    /// invalidation. `&self`-safe and thread-safe (`OnceLock` arbitrates
    /// concurrent first calls).
    fn packed_weight(&self) -> &PackedB {
        self.packed.get_or_init(|| {
            PackedB::from_b_t(
                self.weight.value.data(),
                self.out_features,
                self.in_features,
            )
        })
    }

    /// Forward pass. When `train` is set, the input is cached for
    /// [`Linear::backward`].
    ///
    /// Taking `&mut self`, this entry point assumes the weights may have
    /// been mutated since the last call (gradient steps, direct pokes) and
    /// re-packs them; the `&self` paths assume frozen weights and reuse the
    /// pack.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not `[rows, in_features]`.
    pub fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        self.packed.take();
        if !train {
            return self.forward_infer(x);
        }
        assert_eq!(
            x.dims()[1],
            self.in_features,
            "Linear {}: input width {} != {}",
            self.weight.name,
            x.dims()[1],
            self.in_features
        );
        self.forward_rows(x.data(), x.dims()[0])
    }

    /// The training forward over `rows` rows of `in_features` floats:
    /// `x · Wᵀ + b` as `[rows, out_features]`, with `x` cached for
    /// [`Linear::backward`] in the buffer the previous step cached into.
    /// The weights are packed into the training scratch and multiplied
    /// with the layer's tile, so the product is bit-identical to the
    /// inference path's.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not `rows × in_features` floats.
    pub(crate) fn forward_rows(&mut self, x: &[f32], rows: usize) -> Tensor {
        let (k, n) = (self.in_features, self.out_features);
        assert_eq!(
            x.len(),
            rows * k,
            "Linear {}: input size mismatch",
            self.weight.name
        );
        let mut packed = self.scratch.alloc(packed_len(k, n));
        pack_b_t(self.weight.value.data(), n, k, &mut packed);
        let mut out = Tensor::zeros(&[rows, n]);
        gemm_packed_with(
            self.kernel.tile(),
            x,
            rows,
            k,
            &packed,
            n,
            out.data_mut(),
            Epilogue::Bias(self.bias.value.data()),
        );
        self.scratch.recycle_vec(packed);
        match &mut self.cached_input {
            Some(c) if c.len() == x.len() => {
                c.data_mut().copy_from_slice(x);
                c.reshape_in_place(&[rows, k]);
            }
            slot => *slot = Some(Tensor::from_vec(x.to_vec(), &[rows, k])),
        }
        out
    }

    /// Inference-only forward pass over shared state: identical arithmetic
    /// to `forward(x, false)` but through `&self`, so a single layer
    /// instance can serve concurrent readers without cloning. Runs on the
    /// cached packed weights with the bias fused into the GEMM store loop.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not `[rows, in_features]`.
    pub fn forward_infer(&self, x: &Tensor) -> Tensor {
        assert_eq!(
            x.dims()[1],
            self.in_features,
            "Linear {}: input width {} != {}",
            self.weight.name,
            x.dims()[1],
            self.in_features
        );
        let rows = x.dims()[0];
        let mut out = vec![0.0f32; rows * self.out_features];
        self.infer_into(x.data(), rows, &mut out, FusedActivation::None);
        Tensor::from_vec(out, &[rows, self.out_features])
    }

    /// Arena variant of [`Linear::forward_infer`]: the output tensor is
    /// drawn from `arena` (recycle it when consumed) and `act` is fused
    /// into the GEMM epilogue.
    pub fn forward_infer_in(
        &self,
        x: &Tensor,
        act: FusedActivation,
        arena: &mut TensorArena,
    ) -> Tensor {
        assert_eq!(
            x.dims()[1],
            self.in_features,
            "Linear {}: input width {} != {}",
            self.weight.name,
            x.dims()[1],
            self.in_features
        );
        let rows = x.dims()[0];
        let mut out = arena.tensor(&[rows, self.out_features]);
        self.infer_into(x.data(), rows, out.data_mut(), act);
        out
    }

    /// Lowest-level inference entry: `out = act(x · Wᵀ + b)` over `rows`
    /// rows of `in_features` floats, written into a caller-provided buffer.
    /// This is what both `forward_infer*` wrappers and the attention layer
    /// (which works on flattened `[batch·seq, features]` slices) call.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths disagree with `rows` and the layer
    /// widths.
    pub fn infer_into(&self, x: &[f32], rows: usize, out: &mut [f32], act: FusedActivation) {
        assert_eq!(
            x.len(),
            rows * self.in_features,
            "Linear {}: input size mismatch",
            self.weight.name
        );
        let bias = self.bias.value.data();
        let epi = match act {
            FusedActivation::None => Epilogue::Bias(bias),
            FusedActivation::Gelu => Epilogue::BiasGelu(bias),
            FusedActivation::Relu(slope) => Epilogue::BiasRelu(bias, slope),
        };
        let (k, n) = (self.in_features, self.out_features);
        let packed = self.packed_weight().as_slice();
        gemm_packed_with(self.kernel.tile(), x, rows, k, packed, n, out, epi);
    }

    /// Backward pass: accumulates `dW`, `db` and returns `dx`.
    ///
    /// `dW = dyᵀ·x` sums each element's rows in ascending order and skips
    /// zero gradients ([`matmul_tn_into`]), and `db` sums rows in the same
    /// order, so rows of `dy` that are zero throughout leave both unchanged:
    /// a caller may drop them (with the matching rows of the forward input)
    /// and get the same bits.
    ///
    /// # Panics
    ///
    /// Panics if called before a training-mode forward pass.
    pub fn backward(&mut self, dy: &Tensor) -> Tensor {
        let x = self
            .cached_input
            .as_ref()
            .unwrap_or_else(|| panic!("Linear {}: backward before forward", self.weight.name));
        let (rows, cols) = (dy.dims()[0], dy.dims()[1]);
        let (k, n) = (self.in_features, self.out_features);
        assert_eq!(cols, n, "Linear {}: gradient width", self.weight.name);
        assert_eq!(
            x.dims()[0],
            rows,
            "Linear {}: batch mismatch",
            self.weight.name
        );
        // dW[out,in] = dyᵀ[out,rows]·x[rows,in]
        let mut dw = self.scratch.alloc(n * k);
        matmul_tn_into(dy.data(), rows, n, x.data(), k, &mut dw);
        self.weight.accumulate_slice(&dw);
        self.scratch.recycle_vec(dw);
        // db = column sums of dy
        let mut db = self.scratch.alloc(n);
        for row in dy.data().chunks_exact(n) {
            for (d, &g) in db.iter_mut().zip(row) {
                *d += g;
            }
        }
        self.bias.accumulate_slice(&db);
        self.scratch.recycle_vec(db);
        // dx = dy · W
        let mut packed = self.scratch.alloc(packed_len(n, k));
        pack_b(self.weight.value.data(), n, k, &mut packed);
        let mut dx = Tensor::zeros(&[rows, k]);
        gemm_packed_with(
            self.kernel.tile(),
            dy.data(),
            rows,
            n,
            &packed,
            k,
            dx.data_mut(),
            Epilogue::None,
        );
        self.scratch.recycle_vec(packed);
        dx
    }

    /// Visits the layer's parameters in deterministic order.
    ///
    /// The visitor receives `&mut Param` and may rewrite the weights
    /// (optimizer steps, state-dict loads), so the packed-weight cache is
    /// dropped up front and rebuilt lazily on the next inference call.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.packed.take();
        f(&mut self.weight);
        f(&mut self.bias);
    }

    /// Copies `src`'s weights into this layer in place (a training
    /// replica catching up with its primary).
    pub fn sync_from(&mut self, src: &Linear) {
        self.packed.take();
        self.weight.sync_from(&src.weight);
        self.bias.sync_from(&src.bias);
    }

    /// Drops the forward cache and the training scratch (used when cloning
    /// models for inference). The packed-weight cache survives: it depends
    /// only on the weights.
    pub fn clear_cache(&mut self) {
        self.cached_input = None;
        self.scratch = TrainScratch::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn filled(dims: &[usize], seed: u64) -> Tensor {
        let mut rng = StdRng::seed_from_u64(seed);
        Tensor::from_fn(dims, |_| rng.gen_range(-1.0..1.0))
    }

    #[test]
    fn forward_shape_and_bias() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut l = Linear::new("l", 4, 3, &mut rng);
        let x = Tensor::zeros(&[5, 4]);
        let y = l.forward(&x, false);
        assert_eq!(y.dims(), &[5, 3]);
        // zero input → output equals bias (zero-initialised here)
        assert!(y.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn gradcheck() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut l = Linear::new("l", 6, 4, &mut rng);
        let x = filled(&[3, 6], 2);
        let dy = filled(&[3, 4], 3);

        let _ = l.forward(&x, true);
        let dx = l.backward(&dy);

        let objective = |l: &mut Linear, x: &Tensor| -> f32 { l.forward(x, false).mul(&dy).sum() };

        let eps = 1e-3;
        // dx check
        for idx in 0..x.len() {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let num = (objective(&mut l, &xp) - objective(&mut l, &xm)) / (2.0 * eps);
            assert!(
                (num - dx.data()[idx]).abs() < 1e-2,
                "dx[{idx}] fd={num} got={}",
                dx.data()[idx]
            );
        }
        // dW check
        let dw = l.weight.grad.clone();
        for idx in 0..dw.len() {
            let orig = l.weight.value.data()[idx];
            l.weight.value.data_mut()[idx] = orig + eps;
            let fp = objective(&mut l, &x);
            l.weight.value.data_mut()[idx] = orig - eps;
            let fm = objective(&mut l, &x);
            l.weight.value.data_mut()[idx] = orig;
            let num = (fp - fm) / (2.0 * eps);
            assert!(
                (num - dw.data()[idx]).abs() < 1e-2,
                "dW[{idx}] fd={num} got={}",
                dw.data()[idx]
            );
        }
        // db check
        let db = l.bias.grad.clone();
        for idx in 0..db.len() {
            let orig = l.bias.value.data()[idx];
            l.bias.value.data_mut()[idx] = orig + eps;
            let fp = objective(&mut l, &x);
            l.bias.value.data_mut()[idx] = orig - eps;
            let fm = objective(&mut l, &x);
            l.bias.value.data_mut()[idx] = orig;
            let num = (fp - fm) / (2.0 * eps);
            assert!(
                (num - db.data()[idx]).abs() < 1e-2,
                "db[{idx}] fd={num} got={}",
                db.data()[idx]
            );
        }
    }

    #[test]
    fn grads_accumulate_across_batches() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut l = Linear::new("l", 2, 2, &mut rng);
        let x = filled(&[2, 2], 5);
        let dy = filled(&[2, 2], 6);
        let _ = l.forward(&x, true);
        let _ = l.backward(&dy);
        let g1 = l.weight.grad.clone();
        let _ = l.forward(&x, true);
        let _ = l.backward(&dy);
        assert!(l.weight.grad.allclose(&g1.scale(2.0), 1e-5));
    }

    #[test]
    fn param_count() {
        let mut rng = StdRng::seed_from_u64(7);
        let l = Linear::new("l", 64, 256, &mut rng);
        assert_eq!(l.num_params(), 64 * 256 + 256);
    }

    #[test]
    fn arena_forward_is_bit_identical() {
        let mut rng = StdRng::seed_from_u64(9);
        let l = Linear::new("l", 12, 7, &mut rng);
        let x = filled(&[5, 12], 10);
        let want = l.forward_infer(&x);
        let mut arena = TensorArena::new();
        let got = l.forward_infer_in(&x, FusedActivation::None, &mut arena);
        assert!(got.allclose(&want, 0.0), "arena path diverges");
    }

    #[test]
    fn fused_gelu_matches_separate_activation() {
        let mut rng = StdRng::seed_from_u64(11);
        let l = Linear::new("l", 8, 6, &mut rng);
        let x = filled(&[3, 8], 12);
        let mut arena = TensorArena::new();
        let fused = l.forward_infer_in(&x, FusedActivation::Gelu, &mut arena);
        let separate = l.forward_infer(&x).map(bioformer_tensor::ops::gelu);
        assert!(fused.allclose(&separate, 0.0), "fused GELU diverges");
    }

    /// The packed-weight cache must never serve stale weights: mutations
    /// through `visit_params` (the only external mutation path) and calls
    /// through `forward` (&mut) both invalidate it.
    #[test]
    fn weight_mutation_invalidates_packed_cache() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut l = Linear::new("l", 6, 4, &mut rng);
        let x = filled(&[2, 6], 14);
        let before = l.forward_infer(&x); // builds the pack
        l.visit_params(&mut |p| {
            if p.name.ends_with("weight") {
                p.value.scale_in_place(2.0);
            }
        });
        let after = l.forward_infer(&x);
        // Bias is zero-initialised, so doubling W must double the output.
        assert!(
            after.allclose(&before.scale(2.0), 1e-5),
            "stale packed weights served after visit_params mutation"
        );
        // And &mut forward repacks too (covers direct in-module pokes).
        l.weight.value.scale_in_place(0.5);
        let half = l.forward(&x, false);
        assert!(half.allclose(&before, 1e-5), "forward served stale pack");
    }

    /// Pinning a kernel reuses the cached pack (every tier reads the same
    /// image) and stays within fp32 kernel tolerance of the dispatched tile.
    #[test]
    fn set_kernel_reuses_the_pack_and_matches_default() {
        let mut rng = StdRng::seed_from_u64(15);
        let mut l = Linear::new("l", 6, 4, &mut rng);
        let x = filled(&[3, 6], 16);
        let want = l.forward_infer(&x); // packs on the dispatched kernel
        l.set_kernel(Fp32Kernel::Portable);
        assert!(l.packed.get().is_some(), "set_kernel dropped the pack");
        let got = l.forward_infer(&x);
        assert!(got.allclose(&want, 1e-4), "portable kernel diverges");
    }

    #[test]
    #[should_panic(expected = "backward before forward")]
    fn backward_without_forward_panics() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut l = Linear::new("l", 2, 2, &mut rng);
        l.backward(&Tensor::zeros(&[1, 2]));
    }
}
