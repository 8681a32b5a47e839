//! Batched 1-D convolution layer.

use crate::init;
use crate::param::Param;
use crate::scratch::TrainScratch;
use bioformer_tensor::conv::{
    conv1d_backward_input, conv1d_backward_params_into, conv1d_forward_cols_into, im2col_into,
    Conv1dSpec,
};
use bioformer_tensor::pack::{
    gemm_packed_with, pack_b_t, packed_len, Epilogue, Fp32Kernel, PackedB,
};
use bioformer_tensor::{Tensor, TensorArena};
use rand::Rng;
use std::sync::OnceLock;

/// A batched 1-D convolution over `[batch, in_channels, length]` tensors.
///
/// The Bioformer front-end uses this with `stride == kernel` (non-overlapping
/// patch embedding, paper §III-A); TEMPONet uses dilated variants.
///
/// The inference path lowers each sample to im2col + packed GEMM with the
/// flattened `[out, in·kernel]` weight packed once and cached (same
/// freshness rule as [`crate::Linear`]: `&mut self` entry points
/// invalidate, `&self` paths rebuild lazily).
#[derive(Debug, Clone)]
pub struct Conv1d {
    weight: Param,
    bias: Param,
    spec: Conv1dSpec,
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    /// The batch's im2col rows, `[batch·out_len, in·kernel]`, cached
    /// during a training forward pass (read by both weight and input
    /// gradients) plus the input length.
    cached_cols: Option<(Tensor, usize)>,
    /// Packed weights and per-sample gradient blocks of the training step.
    scratch: TrainScratch,
    /// Lazily-built packed image of the flattened weight for inference.
    packed: OnceLock<PackedB>,
    /// The SIMD tier of every GEMM, training and inference (`kernel` is
    /// the filter width).
    fp32_kernel: Fp32Kernel,
}

impl Conv1d {
    /// Creates a Kaiming-initialised convolution.
    pub fn new(
        name: &str,
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        spec: Conv1dSpec,
        rng: &mut impl Rng,
    ) -> Self {
        let fan_in = in_channels * kernel;
        let weight = Param::new(
            format!("{name}.weight"),
            init::kaiming_uniform(rng, &[out_channels, in_channels, kernel], fan_in),
        );
        let bias = Param::new(format!("{name}.bias"), Tensor::zeros(&[out_channels]));
        Conv1d {
            weight,
            bias,
            spec,
            in_channels,
            out_channels,
            kernel,
            cached_cols: None,
            scratch: TrainScratch::default(),
            packed: OnceLock::new(),
            fp32_kernel: Fp32Kernel::Dispatch,
        }
    }

    /// Pins the SIMD tier of every GEMM. The packed weight survives:
    /// every tier reads the same packed image.
    pub fn set_kernel(&mut self, kernel: Fp32Kernel) {
        self.fp32_kernel = kernel;
    }

    /// The convolution hyper-parameters.
    pub fn spec(&self) -> Conv1dSpec {
        self.spec
    }

    /// Kernel width.
    pub fn kernel(&self) -> usize {
        self.kernel
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Input channel count.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Immutable access to the weight parameter (`[out, in, kernel]`).
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

    /// Output length for an input of `len` samples.
    ///
    /// # Panics
    ///
    /// Panics if the input is shorter than the dilated kernel extent.
    pub fn out_len(&self, len: usize) -> usize {
        self.spec
            .out_len(len, self.kernel)
            .unwrap_or_else(|| panic!("Conv1d: input length {len} too short"))
    }

    /// Forward pass over `[batch, in_channels, length]`, returning
    /// `[batch, out_channels, out_length]`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        // Weights may have been mutated since the last call through this
        // `&mut` entry point; drop the packed cache (rebuilt lazily).
        self.packed.take();
        if !train {
            return self.forward_infer(x);
        }
        assert_eq!(x.shape().rank(), 3, "Conv1d: input must be [B, C, L]");
        let (b, c, len) = (x.dims()[0], x.dims()[1], x.dims()[2]);
        assert_eq!(c, self.in_channels, "Conv1d: channel mismatch");
        let out_len = self.out_len(len);
        let (c_out, ck) = (self.out_channels, c * self.kernel);
        // Lower the whole batch into the previous step's im2col buffer.
        let mut cols = match self.cached_cols.take() {
            Some((t, _)) if t.dims() == [b * out_len, ck] => t,
            _ => Tensor::zeros(&[b * out_len, ck]),
        };
        for (xi, ci) in x
            .data()
            .chunks_exact(c * len)
            .zip(cols.data_mut().chunks_exact_mut(out_len * ck))
        {
            im2col_into(xi, c, len, self.kernel, self.spec, ci);
        }
        // The weights are packed once per batch, not once per sample.
        let mut packed = self.scratch.alloc(packed_len(ck, c_out));
        pack_b_t(self.weight.value.data(), c_out, ck, &mut packed);
        let mut yt = self.scratch.alloc(b * out_len * c_out);
        let mut y = Tensor::zeros(&[b, c_out, out_len]);
        conv1d_forward_cols_into(
            self.fp32_kernel.tile(),
            cols.data(),
            out_len,
            ck,
            &packed,
            self.bias.value.data(),
            &mut yt,
            y.data_mut(),
        );
        self.scratch.recycle_vec(packed);
        self.scratch.recycle_vec(yt);
        self.cached_cols = Some((cols, len));
        y
    }

    /// Inference-only forward over `[batch, in_channels, length]` through
    /// `&self`: same arithmetic as `forward(x, false)`, no cache writes, so
    /// one layer instance can serve concurrent readers without cloning.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn forward_infer(&self, x: &Tensor) -> Tensor {
        self.forward_infer_in(x, &mut TensorArena::new())
    }

    /// The packed image of the flattened `[out, in·kernel]` weight, built
    /// on first use after any invalidation.
    fn packed_weight(&self) -> &PackedB {
        self.packed.get_or_init(|| {
            PackedB::from_b_t(
                self.weight.value.data(),
                self.out_channels,
                self.in_channels * self.kernel,
            )
        })
    }

    /// Arena variant of [`Conv1d::forward_infer`]: the token-major body
    /// ([`Conv1d::infer_tokens_into`]) followed by a transpose of each
    /// sample's `[out_len, out]` product into the `[out, out_len]` output
    /// layout. Bit-identical to the training-path arithmetic.
    ///
    /// The returned tensor is arena-owned; recycle it when consumed.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn forward_infer_in(&self, x: &Tensor, arena: &mut TensorArena) -> Tensor {
        assert_eq!(x.shape().rank(), 3, "Conv1d: input must be [B, C, L]");
        assert_eq!(x.dims()[1], self.in_channels, "Conv1d: channel mismatch");
        let (b, c_out) = (x.dims()[0], self.out_channels);
        let out_len = self.out_len(x.dims()[2]);
        let out_sample = c_out * out_len;
        let mut yt = arena.alloc(b * out_sample);
        self.infer_tokens_into(x.data(), x.dims()[2], &mut yt, out_sample, arena);
        let mut y = arena.tensor(&[b, c_out, out_len]);
        for (yi, ti) in y
            .data_mut()
            .chunks_mut(out_sample)
            .zip(yt.chunks(out_sample))
        {
            for ot in 0..out_len {
                for oc in 0..c_out {
                    yi[oc * out_len + ot] = ti[ot * c_out + oc];
                }
            }
        }
        arena.recycle_vec(yt);
        y
    }

    /// The token-major inference body over `x`, whole `[in_channels, len]`
    /// samples back to back: each sample is lowered into an arena im2col
    /// buffer and multiplied against the cached packed weight with the bias
    /// fused into the GEMM store, and sample `i`'s `[out_len, out]` product
    /// lands at `out[i·sample_stride..]`. A stride wider than `out_len·out`
    /// leaves room behind each sample's rows — Bioformer writes its class
    /// token there.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not whole samples, or if `out` is too short for
    /// its samples `sample_stride ≥ out_len·out` floats apart.
    pub fn infer_tokens_into(
        &self,
        x: &[f32],
        len: usize,
        out: &mut [f32],
        sample_stride: usize,
        arena: &mut TensorArena,
    ) {
        let c = self.in_channels;
        let sample = c * len;
        assert!(
            sample > 0 && x.len().is_multiple_of(sample),
            "Conv1d: input must be whole [in_channels, len] samples"
        );
        let b = x.len() / sample;
        let out_len = self.out_len(len);
        let (c_out, ck) = (self.out_channels, c * self.kernel);
        let rows = out_len * c_out;
        assert!(sample_stride >= rows, "Conv1d: sample stride too small");
        assert!(
            b == 0 || out.len() >= (b - 1) * sample_stride + rows,
            "Conv1d: output too short"
        );
        let (tile, packed) = (self.fp32_kernel.tile(), self.packed_weight().as_slice());
        let mut cols = arena.alloc(out_len * ck);
        for (i, xi) in x.chunks_exact(sample).enumerate() {
            im2col_into(xi, c, len, self.kernel, self.spec, &mut cols);
            gemm_packed_with(
                tile,
                &cols,
                out_len,
                ck,
                packed,
                c_out,
                &mut out[i * sample_stride..i * sample_stride + rows],
                Epilogue::Bias(self.bias.value.data()),
            );
        }
        arena.recycle_vec(cols);
    }

    /// Backward pass: accumulates weight/bias gradients, returns `dx`.
    ///
    /// # Panics
    ///
    /// Panics if called before a training-mode forward pass.
    pub fn backward(&mut self, dy: &Tensor) -> Tensor {
        self.backward_weights(dy);
        let (_, len) = self
            .cached_cols
            .as_ref()
            .expect("checked by backward_weights");
        let len = *len;
        let (b, c) = (dy.dims()[0], self.in_channels);
        let (out_c, out_len) = (dy.dims()[1], dy.dims()[2]);
        let tile = self.fp32_kernel.tile();
        let mut dx = Tensor::zeros(&[b, c, len]);
        for (dyi, dxi) in dy
            .data()
            .chunks_exact(out_c * out_len)
            .zip(dx.data_mut().chunks_exact_mut(c * len))
        {
            let dyi = Tensor::from_vec(dyi.to_vec(), &[out_c, out_len]);
            dxi.copy_from_slice(
                conv1d_backward_input(tile, &dyi, &self.weight.value, self.spec, len).data(),
            );
        }
        dx
    }

    /// The parameter half of [`Conv1d::backward`]: accumulates the weight
    /// and bias gradients of `dy` (`[batch, out_channels, out_length]`),
    /// sample by sample in batch order, and computes no input gradient — for
    /// a first layer, whose input needs none (Bioformer's patch embedding).
    ///
    /// # Panics
    ///
    /// Panics if called before a training-mode forward pass.
    pub fn backward_weights(&mut self, dy: &Tensor) {
        let (cols, _) = self
            .cached_cols
            .as_ref()
            .unwrap_or_else(|| panic!("Conv1d {}: backward before forward", self.weight.name));
        let (c_out, ck) = (self.out_channels, self.in_channels * self.kernel);
        let (b, out_len) = (dy.dims()[0], dy.dims()[2]);
        assert_eq!(
            cols.dims()[0],
            b * out_len,
            "Conv1d backward: batch mismatch"
        );
        assert_eq!(dy.dims()[1], c_out, "Conv1d backward: channel mismatch");
        let mut dw = self.scratch.alloc(c_out * ck);
        let mut db = self.scratch.alloc(c_out);
        for (dyi, ci) in dy
            .data()
            .chunks_exact(c_out * out_len)
            .zip(cols.data().chunks_exact(out_len * ck))
        {
            conv1d_backward_params_into(dyi, ci, &mut dw, &mut db);
            self.weight.accumulate_slice(&dw);
            self.bias.accumulate_slice(&db);
        }
        for buf in [dw, db] {
            self.scratch.recycle_vec(buf);
        }
    }

    /// Copies `src`'s weights into this layer in place (a training replica
    /// catching up with its primary).
    pub fn sync_from(&mut self, src: &Conv1d) {
        self.packed.take();
        self.weight.sync_from(&src.weight);
        self.bias.sync_from(&src.bias);
    }

    /// Visits the layer's parameters in deterministic order. The visitor
    /// may rewrite the weights, so the packed cache is invalidated.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.packed.take();
        f(&mut self.weight);
        f(&mut self.bias);
    }

    /// Drops the forward cache and the training scratch.
    pub fn clear_cache(&mut self) {
        self.cached_cols = None;
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
    fn forward_patch_embedding_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        // Paper config: 14 channels, 300 samples, filter 10 → 30 tokens of 64.
        let mut conv = Conv1d::new("patch", 14, 64, 10, Conv1dSpec::patch(10), &mut rng);
        let x = filled(&[2, 14, 300], 1);
        let y = conv.forward(&x, false);
        assert_eq!(y.dims(), &[2, 64, 30]);
    }

    #[test]
    fn batch_samples_independent() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut conv = Conv1d::new("c", 2, 3, 2, Conv1dSpec::patch(2), &mut rng);
        let a = filled(&[1, 2, 6], 3);
        let b = filled(&[1, 2, 6], 4);
        let mut both = Tensor::zeros(&[2, 2, 6]);
        both.data_mut()[..12].copy_from_slice(a.data());
        both.data_mut()[12..].copy_from_slice(b.data());
        let ya = conv.forward(&a, false);
        let yb = conv.forward(&b, false);
        let yboth = conv.forward(&both, false);
        assert_eq!(&yboth.data()[..ya.len()], ya.data());
        assert_eq!(&yboth.data()[ya.len()..], yb.data());
    }

    #[test]
    fn gradcheck_batched() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut conv = Conv1d::new(
            "c",
            2,
            3,
            3,
            Conv1dSpec {
                stride: 2,
                padding: 1,
                dilation: 1,
            },
            &mut rng,
        );
        let x = filled(&[2, 2, 8], 6);
        let y = conv.forward(&x, true);
        let dy = filled(y.dims(), 7);
        let dx = conv.backward(&dy);
        let dw = conv.weight.grad.clone();

        let objective =
            |conv: &mut Conv1d, x: &Tensor| -> f32 { conv.forward(x, false).mul(&dy).sum() };
        let eps = 1e-3;
        for idx in 0..x.len() {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let num = (objective(&mut conv, &xp) - objective(&mut conv, &xm)) / (2.0 * eps);
            assert!(
                (num - dx.data()[idx]).abs() < 1e-2,
                "dx[{idx}] fd={num} got={}",
                dx.data()[idx]
            );
        }
        for idx in 0..dw.len() {
            let orig = conv.weight.value.data()[idx];
            conv.weight.value.data_mut()[idx] = orig + eps;
            let fp = objective(&mut conv, &x);
            conv.weight.value.data_mut()[idx] = orig - eps;
            let fm = objective(&mut conv, &x);
            conv.weight.value.data_mut()[idx] = orig;
            let num = (fp - fm) / (2.0 * eps);
            assert!(
                (num - dw.data()[idx]).abs() < 1e-2,
                "dW[{idx}] fd={num} got={}",
                dw.data()[idx]
            );
        }
    }

    /// The weight-only backward accumulates exactly the parameter
    /// gradients of the full one.
    #[test]
    fn weight_only_backward_matches_the_full_backward() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut full = Conv1d::new("c", 3, 5, 4, Conv1dSpec::patch(4), &mut rng);
        let mut weights_only = full.clone();
        let x = filled(&[3, 3, 24], 12);
        let dy = filled(&[3, 5, 6], 13);
        let _ = full.forward(&x, true);
        let _ = full.backward(&dy);
        let _ = weights_only.forward(&x, true);
        weights_only.backward_weights(&dy);
        assert_eq!(weights_only.weight.grad, full.weight.grad);
        assert_eq!(weights_only.bias.grad, full.bias.grad);
    }

    /// Every pinned tier reuses the cached pack and stays within fp32
    /// kernel tolerance of the dispatched tile, on a dilated TEMPONet-style
    /// convolution.
    #[test]
    fn set_kernel_reuses_the_pack_and_matches_default() {
        let mut rng = StdRng::seed_from_u64(14);
        let spec = Conv1dSpec {
            stride: 1,
            padding: 2,
            dilation: 2,
        };
        let mut conv = Conv1d::new("c", 6, 20, 3, spec, &mut rng);
        let x = filled(&[2, 6, 33], 15);
        let want = conv.forward_infer(&x); // packs on the dispatched kernel
        for kernel in [Fp32Kernel::Portable, Fp32Kernel::Fma, Fp32Kernel::Avx512] {
            conv.set_kernel(kernel);
            assert!(conv.packed.get().is_some(), "{kernel:?} dropped the pack");
            let got = conv.forward_infer(&x);
            assert!(got.allclose(&want, 1e-4), "{kernel:?} diverges");
        }
    }

    #[test]
    fn param_count_matches_paper_patch_layer() {
        let mut rng = StdRng::seed_from_u64(9);
        // filter=10: 14·10·64 + 64 = 9024 params (paper's front-end)
        let conv = Conv1d::new("patch", 14, 64, 10, Conv1dSpec::patch(10), &mut rng);
        assert_eq!(conv.num_params(), 9024);
    }
}
