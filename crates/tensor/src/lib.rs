//! Minimal, dependency-light `f32` tensor library underpinning the Bioformers
//! reproduction.
//!
//! The crate provides exactly what a tiny-transformer training/inference stack
//! needs and nothing more:
//!
//! * [`Tensor`] — a contiguous, row-major `f32` tensor with shape metadata,
//!   element-wise arithmetic and reshaping ([`tensor`]).
//! * Panel-packed, register-tiled, cache-blocked and (for large problems)
//!   multi-threaded matrix multiplication ([`matmul`], [`pack`]), with
//!   fused bias/activation epilogues for the inference hot path.
//! * A recycling scratch allocator ([`arena::TensorArena`]) so repeated
//!   inference forwards reuse buffers instead of hitting the global
//!   allocator.
//! * 1-D convolution forward and backward primitives ([`conv`]).
//! * Neural-network math primitives — softmax, log-softmax, GELU, LayerNorm —
//!   with their analytic derivatives ([`ops`]), including in-place variants
//!   for allocation-free inference.
//!
//! # Design notes
//!
//! Shape mismatches are *programming errors* in this stack, so the hot-path
//! methods panic with descriptive messages rather than returning `Result`
//! (documented per method under **Panics**). Constructors that take
//! user-supplied buffers offer fallible `try_*` variants.
//!
//! # Example
//!
//! ```
//! use bioformer_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b);
//! assert_eq!(c.data(), a.data());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod conv;
pub mod matmul;
pub mod ops;
pub mod pack;
pub mod parallel;
pub mod qgemm;
pub mod shape;
pub mod tensor;

pub use arena::TensorArena;
pub use pack::Fp32Kernel;
pub use shape::Shape;
pub use tensor::Tensor;

/// Absolute tolerance used by [`Tensor::allclose`] and the test-suites of the
/// downstream crates when comparing floating-point results.
pub const DEFAULT_ATOL: f32 = 1e-5;
