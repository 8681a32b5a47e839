//! Quantization-aware fine-tuning ("QAT-lite").
//!
//! The paper performs "a few epochs of quantization aware training" before
//! deployment (§III-C). Full fake-quant QAT threads simulated quantizers
//! through every activation; this module implements the lighter,
//! widely-used variant that recovers most of the gap: after each training
//! epoch, **weights are snapped to their int8 grid** so the optimiser
//! learns parameters that survive quantization. Activation ranges are then
//! calibrated post-hoc as usual. This deviates from the paper: activations
//! see no simulated quantizer during training, so the int8 model's
//! activation error is left to calibration.

use crate::qtensor::{fake_quantize, QParams};
use bioformer_nn::optim::Adam;
use bioformer_nn::schedule::LrSchedule;
use bioformer_nn::trainer::{train, EpochStats, TrainConfig};
use bioformer_nn::Model;
use bioformer_tensor::Tensor;

/// Snaps every weight-like parameter of `model` to its symmetric int8
/// grid in place. LayerNorm affine parameters and biases are left at full
/// precision (they deploy as int32, matching I-BERT).
pub fn fake_quantize_weights<M: Model>(model: &mut M) {
    model.visit_params(&mut |p| {
        let is_weight = p.name.ends_with(".weight") || p.name == "class_token";
        if is_weight {
            let params = QParams::symmetric(p.value.abs_max());
            p.value = fake_quantize(&p.value, params);
        }
    });
}

/// Configuration of the QAT fine-tuning loop.
#[derive(Debug, Clone)]
pub struct QatConfig {
    /// Fine-tuning epochs with per-epoch weight snapping (paper: "a few").
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Learning rate (low — QAT is a refinement step).
    pub lr: f32,
    /// Shuffle seed.
    pub seed: u64,
}

impl Default for QatConfig {
    fn default() -> Self {
        QatConfig {
            epochs: 2,
            batch_size: 32,
            lr: 5e-5,
            seed: 0x0A7,
        }
    }
}

/// Runs QAT-lite: `epochs` rounds of (train one epoch → snap weights to
/// the int8 grid). Returns the per-epoch training statistics.
pub fn qat_finetune<M: Model>(
    model: &mut M,
    x: &Tensor,
    labels: &[usize],
    cfg: &QatConfig,
) -> Vec<EpochStats> {
    let mut opt = Adam::default();
    let mut stats = Vec::with_capacity(cfg.epochs);
    for e in 0..cfg.epochs {
        let tc = TrainConfig {
            batch_size: cfg.batch_size,
            epochs: 1,
            schedule: LrSchedule::Constant(cfg.lr),
            shuffle_seed: cfg.seed ^ e as u64,
            shards: 0,
            max_grad_norm: Some(1.0),
            augment: None,
        };
        let s = train(model, &mut opt, x, labels, &tc);
        stats.extend(s);
        fake_quantize_weights(model);
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use bioformer_nn::{Linear, Param};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[derive(Clone)]
    struct Toy {
        lin: Linear,
    }

    impl Model for Toy {
        fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
            let b = x.dims()[0];
            let f = x.len() / b;
            self.lin.forward(&x.reshape(&[b, f]), train)
        }
        fn backward(&mut self, d: &Tensor) {
            let _ = self.lin.backward(d);
        }
        fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
            self.lin.visit_params(f);
        }
        fn clear_cache(&mut self) {
            self.lin.clear_cache();
        }
    }

    #[test]
    fn snapping_moves_weights_to_grid() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut m = Toy {
            lin: Linear::new("toy", 4, 3, &mut rng),
        };
        fake_quantize_weights(&mut m);
        // Every weight must be an integer multiple of the scale.
        let w = m.lin.weight().value.clone();
        let scale = w.abs_max() / 127.0;
        for &v in w.data() {
            let steps = v / scale;
            assert!(
                (steps - steps.round()).abs() < 1e-3,
                "weight {v} not on grid (scale {scale})"
            );
        }
    }

    #[test]
    fn bias_left_untouched() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut m = Toy {
            lin: Linear::new("toy", 4, 3, &mut rng),
        };
        // Give the bias an off-grid value and verify it survives.
        let mut before = None;
        m.visit_params(&mut |p| {
            if p.name.ends_with(".bias") {
                p.value.data_mut()[0] = 0.123_456_7;
                before = Some(p.value.clone());
            }
        });
        fake_quantize_weights(&mut m);
        m.visit_params(&mut |p| {
            if p.name.ends_with(".bias") {
                assert!(p.value.allclose(before.as_ref().unwrap(), 0.0));
            }
        });
    }

    #[test]
    fn qat_keeps_model_trainable() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut m = Toy {
            lin: Linear::new("toy", 6, 3, &mut rng),
        };
        // Separable toy data.
        let n = 48;
        let mut x = Tensor::zeros(&[n, 1, 6]);
        let mut labels = Vec::new();
        for i in 0..n {
            let c = i % 3;
            labels.push(c);
            for j in 0..6 {
                x.data_mut()[i * 6 + j] =
                    if j == c * 2 { 2.0 } else { 0.0 } + rng.gen_range(-0.2f32..0.2);
            }
        }
        let cfg = QatConfig {
            epochs: 16,
            batch_size: 16,
            lr: 0.05,
            seed: 3,
        };
        let stats = qat_finetune(&mut m, &x, &labels, &cfg);
        assert!(
            stats.last().unwrap().accuracy > 0.8,
            "QAT training failed to learn: {:?}",
            stats.last()
        );
        // Loss must decrease monotonically-ish from start to finish.
        assert!(stats.last().unwrap().loss < stats[0].loss * 0.5);
    }
}
