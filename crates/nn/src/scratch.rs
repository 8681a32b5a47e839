//! The buffers a layer's training step reuses from one step to the next.

use bioformer_tensor::TensorArena;
use std::ops::{Deref, DerefMut};

/// A layer's training scratch: the [`TensorArena`] its training forward
/// and backward draw packed panels, per-head products and weight-gradient
/// blocks from, and return them to, so a warmed step allocates none of
/// them. A clone starts empty (a replica warms its own), and the layer's
/// `clear_cache` drops the buffers.
#[derive(Debug, Default)]
pub(crate) struct TrainScratch(TensorArena);

impl Clone for TrainScratch {
    fn clone(&self) -> Self {
        TrainScratch::default()
    }
}

impl Deref for TrainScratch {
    type Target = TensorArena;

    fn deref(&self) -> &TensorArena {
        &self.0
    }
}

impl DerefMut for TrainScratch {
    fn deref_mut(&mut self) -> &mut TensorArena {
        &mut self.0
    }
}
