//! Per-sample group normalisation for convolutional stacks.

use crate::param::Param;
use bioformer_tensor::ops::{layernorm_backward, layernorm_forward, LayerNormCache};
use bioformer_tensor::Tensor;

/// Group normalisation over `[batch, channels, len]`: channels are split
/// into `groups`, each group's `(channels/groups) × len` slab is
/// standardised **within its own sample**, then a per-channel affine
/// (γ, β) is applied.
///
/// `groups == 1` normalises all channels jointly (preserving the relative
/// channel amplitudes that carry the gesture information in sEMG);
/// `groups == channels` is InstanceNorm. The TEMPONet reconstruction uses
/// 4 groups in place of the original's BatchNorm: it is independent of
/// batch composition (no running statistics to synchronise across
/// data-parallel shards). Because its statistics are computed from each
/// input, it does not fold into the preceding convolution at inference
/// the way an eval-mode BatchNorm does: it runs as its own layer.
#[derive(Debug, Clone)]
pub struct GroupNorm1d {
    gamma: Param,
    beta: Param,
    channels: usize,
    groups: usize,
    cache: Option<(LayerNormCache, usize, usize)>,
}

impl GroupNorm1d {
    /// Creates a GroupNorm over `channels` channels in `groups` groups
    /// (γ=1, β=0).
    ///
    /// # Panics
    ///
    /// Panics if `groups` does not divide `channels`.
    pub fn new(name: &str, channels: usize, groups: usize) -> Self {
        assert!(
            groups > 0 && channels.is_multiple_of(groups),
            "groups must divide channels"
        );
        GroupNorm1d {
            gamma: Param::new(format!("{name}.gamma"), Tensor::ones(&[channels])),
            beta: Param::new(format!("{name}.beta"), Tensor::zeros(&[channels])),
            channels,
            groups,
            cache: None,
        }
    }

    /// Channel count.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Group count.
    pub fn groups(&self) -> usize {
        self.groups
    }

    /// Number of trainable scalars.
    pub fn num_params(&self) -> usize {
        2 * self.channels
    }

    /// Forward over `[batch, channels, len]`.
    ///
    /// # Panics
    ///
    /// Panics on channel-count mismatch.
    pub fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        if !train {
            return self.forward_infer(x);
        }
        assert_eq!(x.dims()[1], self.channels, "GroupNorm1d: channel mismatch");
        let (b, c, len) = (x.dims()[0], x.dims()[1], x.dims()[2]);
        let cg = c / self.groups;
        let row_w = cg * len;
        // Normalise each (sample, group) slab.
        let rows = x.reshape(&[b * self.groups, row_w]);
        let ones = Tensor::ones(&[row_w]);
        let zeros = Tensor::zeros(&[row_w]);
        let (xhat, cache) = layernorm_forward(&rows, &ones, &zeros);
        // Per-channel affine: position p in a row belongs to channel
        // group_base + p / len. The backward pass reads x̂ from the cache,
        // so the affine is applied to a copy.
        let mut y = xhat.clone();
        self.affine(&mut y, b, len);
        self.cache = Some((cache, b, len));
        y.reshape(&[b, c, len])
    }

    /// Inference-only forward over `[batch, channels, len]` through `&self`
    /// (no cache writes): same arithmetic as `forward(x, false)`.
    ///
    /// # Panics
    ///
    /// Panics on channel-count mismatch.
    pub fn forward_infer(&self, x: &Tensor) -> Tensor {
        assert_eq!(x.dims()[1], self.channels, "GroupNorm1d: channel mismatch");
        let (b, c, len) = (x.dims()[0], x.dims()[1], x.dims()[2]);
        let cg = c / self.groups;
        let row_w = cg * len;
        let rows = x.reshape(&[b * self.groups, row_w]);
        let ones = Tensor::ones(&[row_w]);
        let zeros = Tensor::zeros(&[row_w]);
        let (mut y, _) = layernorm_forward(&rows, &ones, &zeros);
        self.affine(&mut y, b, len);
        y.reshape(&[b, c, len])
    }

    /// Applies the per-channel affine `γ ⊙ x̂ + β` in place over
    /// `[b·groups, (channels/groups)·len]` rows.
    fn affine(&self, y: &mut Tensor, b: usize, len: usize) {
        let cg = self.channels / self.groups;
        for r in 0..b * self.groups {
            let group = r % self.groups;
            let row = y.row_mut(r);
            for (p, v) in row.iter_mut().enumerate() {
                let ch = group * cg + p / len;
                *v = self.gamma.value.data()[ch] * *v + self.beta.value.data()[ch];
            }
        }
    }

    /// Backward pass; returns `dx` of the input shape.
    ///
    /// # Panics
    ///
    /// Panics if called before a training-mode forward pass.
    pub fn backward(&mut self, dy: &Tensor) -> Tensor {
        let (cache, b, len) = self
            .cache
            .as_ref()
            .expect("GroupNorm1d: backward before forward");
        let (b, len) = (*b, *len);
        let c = self.channels;
        let cg = c / self.groups;
        let row_w = cg * len;
        let dy_rows = dy.reshape(&[b * self.groups, row_w]);
        // Affine backward: per-channel grads; scale upstream by γ.
        let mut dxhat = dy_rows.clone();
        for r in 0..b * self.groups {
            let group = r % self.groups;
            let xh_row = &cache.xhat.data()[r * row_w..(r + 1) * row_w];
            let row = dxhat.row_mut(r);
            for (p, v) in row.iter_mut().enumerate() {
                let ch = group * cg + p / len;
                self.gamma.grad.data_mut()[ch] += *v * xh_row[p];
                self.beta.grad.data_mut()[ch] += *v;
                *v *= self.gamma.value.data()[ch];
            }
        }
        // Normalisation backward (γ=1 path — the affine was folded above).
        let ones = Tensor::ones(&[row_w]);
        let (dx, _, _) = layernorm_backward(&dxhat, &ones, cache);
        dx.reshape(&[b, c, len])
    }

    /// Visits the affine parameters.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.gamma);
        f(&mut self.beta);
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
        Tensor::from_fn(dims, |_| rng.gen_range(-2.0..2.0))
    }

    #[test]
    fn single_group_preserves_channel_ratios() {
        let mut norm = GroupNorm1d::new("gn", 2, 1);
        // Channel 0 has 4× the amplitude of channel 1.
        let mut x = Tensor::zeros(&[1, 2, 64]);
        let mut rng = StdRng::seed_from_u64(0);
        for t in 0..64 {
            let v: f32 = rng.gen_range(-1.0..1.0);
            x.set(&[0, 0, t], 4.0 * v);
            x.set(&[0, 1, t], rng.gen_range(-1.0f32..1.0));
        }
        let y = norm.forward(&x, false);
        let rms = |c: usize| -> f32 {
            ((0..64).map(|t| y.at(&[0, c, t]).powi(2)).sum::<f32>() / 64.0).sqrt()
        };
        let ratio = rms(0) / rms(1);
        assert!(
            ratio > 2.5,
            "joint normalisation must keep channel amplitude ratio, got {ratio}"
        );
    }

    #[test]
    fn instance_mode_normalises_each_channel() {
        let mut norm = GroupNorm1d::new("gn", 3, 3);
        let x = filled(&[2, 3, 32], 1).scale(7.0);
        let y = norm.forward(&x, false);
        for b in 0..2 {
            for c in 0..3 {
                let mean: f32 = (0..32).map(|t| y.at(&[b, c, t])).sum::<f32>() / 32.0;
                assert!(mean.abs() < 1e-4, "b{b} c{c} mean {mean}");
            }
        }
    }

    #[test]
    fn affine_applies_per_channel() {
        let mut norm = GroupNorm1d::new("gn", 2, 1);
        norm.gamma.value.data_mut()[1] = 3.0;
        norm.beta.value.data_mut()[0] = -1.0;
        let x = filled(&[1, 2, 16], 2);
        let y = norm.forward(&x, false);
        // β shifts channel 0's mean; γ scales channel 1.
        let m0: f32 = (0..16).map(|t| y.at(&[0, 0, t])).sum::<f32>() / 16.0;
        let y0: Vec<f32> = {
            let mut n2 = GroupNorm1d::new("gn", 2, 1);
            let y = n2.forward(&x, false);
            (0..16).map(|t| y.at(&[0, 1, t])).collect()
        };
        for (t, &y0t) in y0.iter().enumerate() {
            assert!((y.at(&[0, 1, t]) - 3.0 * y0t).abs() < 1e-5);
        }
        // Channel 0 mean shifted by -1 relative to the unshifted layer.
        let base_m0: f32 = {
            let mut n2 = GroupNorm1d::new("gn", 2, 1);
            let y = n2.forward(&x, false);
            (0..16).map(|t| y.at(&[0, 0, t])).sum::<f32>() / 16.0
        };
        assert!((m0 - (base_m0 - 1.0)).abs() < 1e-5);
    }

    #[test]
    fn gradcheck_groups_1_and_2() {
        for groups in [1usize, 2] {
            let mut norm = GroupNorm1d::new("gn", 4, groups);
            let mut rng = StdRng::seed_from_u64(3);
            for v in norm.gamma.value.data_mut() {
                *v = rng.gen_range(0.5..1.5);
            }
            let x = filled(&[2, 4, 5], 4);
            let y = norm.forward(&x, true);
            let dy = filled(y.dims(), 5);
            norm.gamma.zero_grad();
            norm.beta.zero_grad();
            let dx = norm.backward(&dy);
            let dg = norm.gamma.grad.clone();

            let objective =
                |n: &mut GroupNorm1d, x: &Tensor| -> f32 { n.forward(x, false).mul(&dy).sum() };
            let eps = 1e-3;
            for idx in (0..x.len()).step_by(2) {
                let mut xp = x.clone();
                xp.data_mut()[idx] += eps;
                let mut xm = x.clone();
                xm.data_mut()[idx] -= eps;
                let num = (objective(&mut norm, &xp) - objective(&mut norm, &xm)) / (2.0 * eps);
                assert!(
                    (num - dx.data()[idx]).abs() < 2e-2,
                    "groups={groups} dx[{idx}] fd={num} got={}",
                    dx.data()[idx]
                );
            }
            for idx in 0..dg.len() {
                let orig = norm.gamma.value.data()[idx];
                norm.gamma.value.data_mut()[idx] = orig + eps;
                let fp = objective(&mut norm, &x);
                norm.gamma.value.data_mut()[idx] = orig - eps;
                let fm = objective(&mut norm, &x);
                norm.gamma.value.data_mut()[idx] = orig;
                let num = (fp - fm) / (2.0 * eps);
                assert!(
                    (num - dg.data()[idx]).abs() < 1e-2,
                    "groups={groups} dγ[{idx}] fd={num} got={}",
                    dg.data()[idx]
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "groups must divide channels")]
    fn bad_groups_rejected() {
        GroupNorm1d::new("gn", 6, 4);
    }
}
