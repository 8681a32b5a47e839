//! Inverted dropout with a deterministic per-layer RNG stream.

use bioformer_tensor::Tensor;

/// Inverted dropout: during training each element is zeroed with probability
/// `p` and the survivors are scaled by `1/(1−p)`; inference is the identity.
///
/// The mask RNG is an internal `xorshift64*` stream seeded at construction,
/// so training runs are bit-reproducible regardless of the platform RNG.
#[derive(Debug, Clone)]
pub struct Dropout {
    p: f32,
    state: u64,
    cached_mask: Option<Tensor>,
}

impl Dropout {
    /// Creates a dropout layer with drop probability `p ∈ [0, 1)`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1)`.
    pub fn new(p: f32, seed: u64) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "dropout probability must be in [0,1)"
        );
        Dropout {
            p,
            state: seed | 1,
            cached_mask: None,
        }
    }

    /// Drop probability.
    pub fn p(&self) -> f32 {
        self.p
    }

    fn next_f32(&mut self) -> f32 {
        self.state ^= self.state >> 12;
        self.state ^= self.state << 25;
        self.state ^= self.state >> 27;
        ((self.state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 40) as f32) / (1u64 << 24) as f32
    }

    /// Forward pass. In inference mode (`train == false`) or with `p == 0`
    /// this is the identity.
    pub fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        if !train || self.p == 0.0 {
            self.cached_mask = None;
            return x.clone();
        }
        self.masked(x, 1)
    }

    /// Training forward over the last row of every `seq`-row group of a
    /// `[groups·seq, width]` tensor, given only those rows as `x`
    /// (`[groups, width]`): the rows a class-token head reads. The stream
    /// advances over the whole tensor, exactly as [`Dropout::forward`] on
    /// it would, and each kept row gets the mask that pass would give it.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not 2-D or `seq` is zero.
    pub(crate) fn forward_last_rows(&mut self, x: &Tensor, seq: usize) -> Tensor {
        assert_eq!(x.shape().rank(), 2, "dropout: rows must be [groups, width]");
        assert!(seq > 0, "dropout: empty row groups");
        if self.p == 0.0 {
            self.cached_mask = None;
            return x.clone();
        }
        self.masked(x, seq)
    }

    /// Draws a mask for `seq` rows per row of `x` (rows of `x`'s last-axis
    /// width), keeps the last of each group and applies it. The mask is
    /// drawn into the previous step's buffer.
    fn masked(&mut self, x: &Tensor, seq: usize) -> Tensor {
        let keep = 1.0 - self.p;
        let scale = 1.0 / keep;
        let width = x.dims().last().copied().unwrap_or(1).max(1);
        let mut mask = match self.cached_mask.take() {
            Some(m) if m.dims() == x.dims() => m,
            _ => Tensor::zeros(x.dims()),
        };
        for row in mask.data_mut().chunks_mut(width) {
            for _ in 0..(seq - 1) * width {
                self.next_f32();
            }
            for m in row {
                *m = if self.next_f32() < keep { scale } else { 0.0 };
            }
        }
        let y = x.mul(&mask);
        self.cached_mask = Some(mask);
        y
    }

    /// Inference-only forward through `&self`: dropout is the identity at
    /// inference, so this simply clones the input. Callers that can keep the
    /// original tensor (e.g. [`crate::TransformerBlock::forward_infer`])
    /// should skip the layer entirely to avoid the copy.
    pub fn forward_infer(&self, x: &Tensor) -> Tensor {
        x.clone()
    }

    /// Backward pass; applies the cached mask (identity if the forward pass
    /// ran in inference mode).
    pub fn backward(&mut self, dy: &Tensor) -> Tensor {
        match &self.cached_mask {
            Some(mask) => dy.mul(mask),
            None => dy.clone(),
        }
    }

    /// Copies `src`'s stream state into this layer (a training replica
    /// catching up with its primary: its next mask is the one `src` would
    /// draw).
    pub(crate) fn sync_from(&mut self, src: &Dropout) {
        self.state = src.state;
    }

    /// Drops the cached mask.
    pub fn clear_cache(&mut self) {
        self.cached_mask = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inference_is_identity() {
        let mut d = Dropout::new(0.5, 1);
        let x = Tensor::ones(&[4, 4]);
        assert!(d.forward(&x, false).allclose(&x, 0.0));
    }

    #[test]
    fn zero_p_is_identity_in_training() {
        let mut d = Dropout::new(0.0, 1);
        let x = Tensor::ones(&[4, 4]);
        assert!(d.forward(&x, true).allclose(&x, 0.0));
    }

    #[test]
    fn keeps_expectation() {
        let mut d = Dropout::new(0.3, 7);
        let x = Tensor::ones(&[100, 100]);
        let y = d.forward(&x, true);
        // E[y] = 1; empirical mean should be close.
        assert!((y.mean() - 1.0).abs() < 0.05, "mean {}", y.mean());
    }

    #[test]
    fn backward_uses_same_mask() {
        let mut d = Dropout::new(0.5, 3);
        let x = Tensor::ones(&[8, 8]);
        let y = d.forward(&x, true);
        let dx = d.backward(&Tensor::ones(&[8, 8]));
        // Gradient flows exactly where activations survived.
        for i in 0..64 {
            assert_eq!(y.data()[i] == 0.0, dx.data()[i] == 0.0);
        }
    }

    /// The class-row forward keeps exactly the full forward's masks for
    /// the last row of each group, and leaves the stream where it would.
    #[test]
    fn last_rows_match_the_full_forward() {
        let (seq, width) = (5, 3);
        let mut full = Dropout::new(0.4, 9);
        let mut last = full.clone();
        let x = Tensor::from_fn(&[2 * seq, width], |i| i as f32 + 1.0);
        let rows = Tensor::from_fn(&[2, width], |i| {
            x.data()[((i / width) * seq + seq - 1) * width + i % width]
        });
        let y = full.forward(&x, true);
        let got = last.forward_last_rows(&rows, seq);
        for g in 0..2 {
            let want = &y.data()[(g * seq + seq - 1) * width..(g * seq + seq) * width];
            assert_eq!(&got.data()[g * width..(g + 1) * width], want);
        }
        assert_eq!(last.state, full.state, "stream position differs");
    }

    #[test]
    #[should_panic(expected = "must be in [0,1)")]
    fn rejects_bad_probability() {
        Dropout::new(1.0, 0);
    }
}
