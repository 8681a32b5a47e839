//! Neural-network layers, optimizers and a training loop for the Bioformers
//! reproduction.
//!
//! Every layer owns its parameters ([`Param`]) and forward caches, and
//! implements an explicit backward pass (manual backprop — no tape). The
//! correctness of each backward pass is pinned by finite-difference gradient
//! checks in the test-suites.
//!
//! # Layer inventory
//!
//! * [`Linear`] — affine map with PyTorch `[out, in]` weight layout.
//! * [`Conv1d`] — batched 1-D convolution (stride/dilation/padding).
//! * [`LayerNorm`] — row-wise layer normalisation.
//! * [`Gelu`], [`Relu`], [`Dropout`] — activations and regularisation.
//! * [`MultiHeadSelfAttention`] — the paper's MHSA block (`H` heads of
//!   dimension `P`, `H·P` may differ from the embedding width).
//! * [`TransformerBlock`] — pre-LN block: `x + MHSA(LN(x))`,
//!   `x + FFN(LN(x))` with a GELU MLP.
//! * [`HaarWavelet1d`] — parameter-free wavelet-packet front-end
//!   (WaveFormer-style multi-resolution tokenisation).
//!
//! Every layer additionally exposes an inference-only `forward_infer(&self, …)`
//! path: the same eval-mode arithmetic as `forward(x, false)` but through a
//! shared reference, with no cache writes. Models assemble these into
//! [`InferForward`], which lets the serving layer share one model instance
//! across a worker pool without cloning.
//!
//! # Training
//!
//! [`optim::Adam`] / [`optim::Sgd`] update any [`Model`] through its
//! parameter visitor; [`trainer::train`] runs mini-batch epochs with
//! deterministic shuffling and data-parallel gradient computation across
//! batch shards.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod activation;
pub mod attention;
pub mod block;
pub mod conv1d;
pub mod dropout;
pub mod init;
pub mod layernorm;
pub mod linear;
pub mod loss;
pub mod model;
pub mod norm;
pub mod optim;
pub mod param;
pub mod pool;
pub mod schedule;
mod scratch;
pub mod serialize;
pub mod trainer;
pub mod wavelet;

pub use activation::{Gelu, Relu};
pub use attention::MultiHeadSelfAttention;
pub use block::TransformerBlock;
pub use conv1d::Conv1d;
pub use dropout::Dropout;
pub use layernorm::LayerNorm;
pub use linear::Linear;
pub use loss::cross_entropy;
pub use model::{InferForward, Model};
pub use norm::GroupNorm1d;
pub use param::Param;
pub use pool::AvgPool1d;
pub use wavelet::HaarWavelet1d;
