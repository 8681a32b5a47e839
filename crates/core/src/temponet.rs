//! TEMPONet-like temporal convolutional baseline.
//!
//! The paper compares Bioformers against **TEMPONet** (Zanghieri et al.,
//! "Robust real-time embedded EMG recognition framework using temporal
//! convolutional networks on a multicore IoT processor", TBioCAS 2019):
//! a TCN of three blocks — two dilated temporal convolutions plus a strided
//! down-sampling convolution each, channel widths 32/64/128, dilations
//! 2/4/8 — followed by a small fully-connected classifier.
//!
//! This reconstruction matches the published scale (paper Table I: 461 kB
//! int8, 16 MMAC; ours ≈435 kB / ≈15.3 MMAC — the original's batch-norm
//! layers are folded and its exact FC sizing is not public). The
//! original's BatchNorm is replaced by per-sample [`GroupNorm1d`] with 4
//! groups after every convolution: no running statistics to synchronise
//! across data-parallel training shards. Unlike an eval-mode BatchNorm it
//! does **not** fold into the convolutions — its mean and variance are
//! computed from each input — so the network that runs keeps its 9 norm
//! layers, while [`crate::descriptor::temponet_descriptor`] counts only
//! the convolutions and the classifier.

use bioformer_nn::{
    AvgPool1d, Conv1d, Dropout, GroupNorm1d, InferForward, Linear, Model, Param, Relu,
};
use bioformer_semg::{CHANNELS, GESTURE_CLASSES, WINDOW};
use bioformer_tensor::conv::Conv1dSpec;
use bioformer_tensor::{Fp32Kernel, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One TCN block: two dilated same-length convolutions and a strided
/// down-sampling convolution, each followed by normalisation and ReLU.
/// (The original uses BatchNorm; this reconstruction normalises per
/// sample with a 4-group [`GroupNorm1d`], which stays a separate layer at
/// inference because its statistics depend on the input.)
#[derive(Debug, Clone)]
struct TcnBlock {
    conv0: Conv1d,
    norm0: GroupNorm1d,
    relu0: Relu,
    conv1: Conv1d,
    norm1: GroupNorm1d,
    relu1: Relu,
    down: Conv1d,
    norm2: GroupNorm1d,
    relu2: Relu,
}

impl TcnBlock {
    fn new(name: &str, in_ch: usize, out_ch: usize, dilation: usize, rng: &mut impl Rng) -> Self {
        let same = Conv1dSpec {
            stride: 1,
            padding: dilation,
            dilation,
        };
        let down = Conv1dSpec {
            stride: 2,
            padding: 2,
            dilation: 1,
        };
        TcnBlock {
            conv0: Conv1d::new(&format!("{name}.conv0"), in_ch, out_ch, 3, same, rng),
            norm0: GroupNorm1d::new(&format!("{name}.norm0"), out_ch, 4),
            relu0: Relu::new(),
            conv1: Conv1d::new(&format!("{name}.conv1"), out_ch, out_ch, 3, same, rng),
            norm1: GroupNorm1d::new(&format!("{name}.norm1"), out_ch, 4),
            relu1: Relu::new(),
            down: Conv1d::new(&format!("{name}.down"), out_ch, out_ch, 5, down, rng),
            norm2: GroupNorm1d::new(&format!("{name}.norm2"), out_ch, 4),
            relu2: Relu::new(),
        }
    }

    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        if !train {
            return self.forward_infer(x);
        }
        let h = self.conv0.forward(x, true);
        let h = self.relu0.forward(&self.norm0.forward(&h, true), true);
        let h = self.conv1.forward(&h, true);
        let h = self.relu1.forward(&self.norm1.forward(&h, true), true);
        let h = self.down.forward(&h, true);
        self.relu2.forward(&self.norm2.forward(&h, true), true)
    }

    fn forward_infer(&self, x: &Tensor) -> Tensor {
        let h = self.conv0.forward_infer(x);
        let h = self.relu0.forward_infer(&self.norm0.forward_infer(&h));
        let h = self.conv1.forward_infer(&h);
        let h = self.relu1.forward_infer(&self.norm1.forward_infer(&h));
        let h = self.down.forward_infer(&h);
        self.relu2.forward_infer(&self.norm2.forward_infer(&h))
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let d = self.norm2.backward(&self.relu2.backward(dy));
        let d = self.down.backward(&d);
        let d = self.norm1.backward(&self.relu1.backward(&d));
        let d = self.conv1.backward(&d);
        let d = self.norm0.backward(&self.relu0.backward(&d));
        self.conv0.backward(&d)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.conv0.visit_params(f);
        self.norm0.visit_params(f);
        self.conv1.visit_params(f);
        self.norm1.visit_params(f);
        self.down.visit_params(f);
        self.norm2.visit_params(f);
    }

    fn clear_cache(&mut self) {
        self.conv0.clear_cache();
        self.norm0.clear_cache();
        self.relu0.clear_cache();
        self.conv1.clear_cache();
        self.norm1.clear_cache();
        self.relu1.clear_cache();
        self.down.clear_cache();
        self.norm2.clear_cache();
        self.relu2.clear_cache();
    }

    fn set_kernel(&mut self, kernel: Fp32Kernel) {
        self.conv0.set_kernel(kernel);
        self.conv1.set_kernel(kernel);
        self.down.set_kernel(kernel);
    }
}

/// The TEMPONet-like baseline model.
///
/// # Example
///
/// ```
/// use bioformer_core::TempoNet;
/// use bioformer_nn::Model;
/// use bioformer_tensor::Tensor;
///
/// let mut net = TempoNet::new(42);
/// let logits = net.forward(&Tensor::zeros(&[1, 14, 300]), false);
/// assert_eq!(logits.dims(), &[1, 8]);
/// ```
#[derive(Debug, Clone)]
pub struct TempoNet {
    blocks: Vec<TcnBlock>,
    pool: AvgPool1d,
    fc1: Linear,
    relu_fc1: Relu,
    drop1: Dropout,
    fc2: Linear,
    relu_fc2: Relu,
    drop2: Dropout,
    head: Linear,
    fwd_shape: Option<(usize, usize, usize)>,
}

/// Flattened feature width entering the classifier: 128 channels × 19
/// time steps (three stride-2 stages on a 300-sample window, then a 2×
/// average pool).
pub const TEMPONET_FLAT: usize = 128 * 19;

impl TempoNet {
    /// Builds the baseline with weights initialised from `seed`.
    pub fn new(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let blocks = vec![
            TcnBlock::new("b0", CHANNELS, 32, 2, &mut rng),
            TcnBlock::new("b1", 32, 64, 4, &mut rng),
            TcnBlock::new("b2", 64, 128, 8, &mut rng),
        ];
        let drop_seed = rng.gen::<u64>();
        TempoNet {
            blocks,
            pool: AvgPool1d::new(2, 2),
            fc1: Linear::new("fc1", TEMPONET_FLAT, 96, &mut rng),
            relu_fc1: Relu::leaky(0.1),
            drop1: Dropout::new(0.3, drop_seed),
            fc2: Linear::new("fc2", 96, 48, &mut rng),
            relu_fc2: Relu::leaky(0.1),
            drop2: Dropout::new(0.3, drop_seed.wrapping_add(1)),
            head: Linear::new("head", 48, GESTURE_CLASSES, &mut rng),
            fwd_shape: None,
        }
    }

    /// Pins the SIMD tier of every GEMM-bearing layer (all nine
    /// convolutions and the three classifier linears).
    pub fn set_kernel(&mut self, kernel: Fp32Kernel) {
        for blk in &mut self.blocks {
            blk.set_kernel(kernel);
        }
        self.fc1.set_kernel(kernel);
        self.fc2.set_kernel(kernel);
        self.head.set_kernel(kernel);
    }

    /// One-line description of the compute path (packed fp32 GEMMs on the
    /// CPU) — surfaced per replica through the serving engines'
    /// `compute_report`.
    pub fn compute_report(&self) -> String {
        "packed-cpu".to_string()
    }
}

impl InferForward for TempoNet {
    /// Eval-mode forward through `&self` (dropout layers are the identity at
    /// inference and are skipped): bit-identical logits to
    /// [`Model::forward`]`(x, false)`, no cache writes.
    fn forward_infer(&self, x: &Tensor) -> Tensor {
        assert_eq!(x.dims()[1], CHANNELS, "TempoNet: channel mismatch");
        assert_eq!(x.dims()[2], WINDOW, "TempoNet: window mismatch");
        let mut h = x.clone();
        for blk in &self.blocks {
            h = blk.forward_infer(&h);
        }
        let h = self.pool.forward_infer(&h);
        let (b, c, l) = (h.dims()[0], h.dims()[1], h.dims()[2]);
        let flat = h.reshape(&[b, c * l]);
        let f = self.relu_fc1.forward_infer(&self.fc1.forward_infer(&flat));
        let f = self.relu_fc2.forward_infer(&self.fc2.forward_infer(&f));
        self.head.forward_infer(&f)
    }
}

impl Model for TempoNet {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        if !train {
            return self.forward_infer(x);
        }
        assert_eq!(x.dims()[1], CHANNELS, "TempoNet: channel mismatch");
        assert_eq!(x.dims()[2], WINDOW, "TempoNet: window mismatch");
        let mut h = x.clone();
        for blk in &mut self.blocks {
            h = blk.forward(&h, true);
        }
        let h = self.pool.forward(&h, true);
        let (b, c, l) = (h.dims()[0], h.dims()[1], h.dims()[2]);
        self.fwd_shape = Some((b, c, l));
        let flat = h.reshape(&[b, c * l]);
        let f = self.relu_fc1.forward(&self.fc1.forward(&flat, true), true);
        let f = self.drop1.forward(&f, true);
        let f = self.relu_fc2.forward(&self.fc2.forward(&f, true), true);
        let f = self.drop2.forward(&f, true);
        self.head.forward(&f, true)
    }

    fn backward(&mut self, dlogits: &Tensor) {
        let (b, c, l) = self
            .fwd_shape
            .expect("TempoNet: backward before training-mode forward");
        let d = self.head.backward(dlogits);
        let d = self.drop2.backward(&d);
        let d = self.fc2.backward(&self.relu_fc2.backward(&d));
        let d = self.drop1.backward(&d);
        let d = self.fc1.backward(&self.relu_fc1.backward(&d));
        let d = d.reshape(&[b, c, l]);
        let mut d = self.pool.backward(&d);
        for blk in self.blocks.iter_mut().rev() {
            d = blk.backward(&d);
        }
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for blk in &mut self.blocks {
            blk.visit_params(f);
        }
        self.fc1.visit_params(f);
        self.fc2.visit_params(f);
        self.head.visit_params(f);
    }

    fn clear_cache(&mut self) {
        for blk in &mut self.blocks {
            blk.clear_cache();
        }
        self.pool.clear_cache();
        self.fc1.clear_cache();
        self.relu_fc1.clear_cache();
        self.drop1.clear_cache();
        self.fc2.clear_cache();
        self.relu_fc2.clear_cache();
        self.drop2.clear_cache();
        self.head.clear_cache();
        self.fwd_shape = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptor::temponet_descriptor;

    #[test]
    fn forward_shape() {
        let mut net = TempoNet::new(0);
        let x = Tensor::zeros(&[2, CHANNELS, WINDOW]);
        let y = net.forward(&x, false);
        assert_eq!(y.dims(), &[2, GESTURE_CLASSES]);
    }

    #[test]
    fn param_count_matches_descriptor_plus_foldable_norms() {
        let mut net = TempoNet::new(1);
        // The descriptor counts the convolutions and the classifier only;
        // the GroupNorm affine params (2 per channel, 3 norms per block)
        // are not in it.
        let norm_params: usize = 2 * 3 * (32 + 64 + 128);
        assert_eq!(
            net.num_params(),
            temponet_descriptor().params() as usize + norm_params
        );
    }

    #[test]
    fn backward_accumulates_gradients() {
        let mut net = TempoNet::new(2);
        let mut rng = StdRng::seed_from_u64(3);
        let x = Tensor::from_fn(&[2, CHANNELS, WINDOW], |_| rng.gen_range(-1.0..1.0));
        let y = net.forward(&x, true);
        net.zero_grad();
        net.backward(&Tensor::ones(y.dims()));
        let mut nonzero = 0usize;
        let mut total = 0usize;
        net.visit_params(&mut |p| {
            total += 1;
            if p.grad.abs_max() > 0.0 {
                nonzero += 1;
            }
        });
        assert_eq!(nonzero, total, "{nonzero}/{total} params received gradient");
    }

    #[test]
    fn forward_infer_matches_eval_forward_exactly() {
        let mut net = TempoNet::new(5);
        let mut rng = StdRng::seed_from_u64(6);
        let x = Tensor::from_fn(&[2, CHANNELS, WINDOW], |_| rng.gen_range(-1.0..1.0));
        let eval = net.forward(&x, false);
        let infer = (&net as &TempoNet).forward_infer(&x);
        assert!(infer.allclose(&eval, 0.0), "infer path diverges from eval");
    }

    #[test]
    fn deterministic_inference_given_seed() {
        let mut a = TempoNet::new(7);
        let mut b = TempoNet::new(7);
        let mut rng = StdRng::seed_from_u64(4);
        let x = Tensor::from_fn(&[1, CHANNELS, WINDOW], |_| rng.gen_range(-1.0..1.0));
        assert!(a.forward(&x, false).allclose(&b.forward(&x, false), 0.0));
    }

    #[test]
    fn temponet_is_much_larger_than_bioformer() {
        let mut tempo = TempoNet::new(0);
        let mut bio = crate::Bioformer::new(&crate::BioformerConfig::bio1());
        let ratio = tempo.num_params() as f64 / bio.num_params() as f64;
        assert!(
            ratio > 3.5,
            "param ratio {ratio} should be large (paper: 4.9×)"
        );
    }
}
