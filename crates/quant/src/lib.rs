//! int8 quantization for Bioformers, following the paper's deployment flow
//! (§III-C): *"We follow the steps described in I-BERT to replace the
//! floating-point operators that compose MHSA layers with their int8
//! counterparts."*
//!
//! * [`qtensor`] — quantization parameters (scale/zero-point) and int8
//!   tensors.
//! * [`observer`] — min/max range calibration over representative data.
//! * [`requant`] — gemmlowp-style fixed-point requantization
//!   (int32 multiplier + right shift; no floating point on the hot path).
//! * [`kernels`] — integer GEMM/conv over row-major operands with i32
//!   accumulation, dispatched through the runtime-selected SIMD kernels of
//!   `bioformer_simd`, and the prepared residual add.
//! * [`arena`] — [`arena::QuantArena`]: the one slab, laid out at
//!   conversion time, that makes warmed integer forwards allocation-free.
//! * [`ibert`] — integer-only softmax (i-exp), GELU (i-erf) and LayerNorm
//!   (integer Newton square root), after Kim et al., *I-BERT: Integer-only
//!   BERT Quantization* (ICML 2021).
//! * [`layers`] — quantized Linear / Conv1d building blocks over weights
//!   packed once for the SIMD kernels.
//! * [`model`] — [`model::QuantBioformer`]: a fully integer, fully planned
//!   inference pipeline converted from a trained fp32
//!   [`bioformer_core::Bioformer`].
//! * [`qat`] — weight fake-quantization ("QAT-lite") to recover accuracy
//!   before conversion, standing in for the paper's few epochs of
//!   quantization-aware training.
//!
//! The integer pipeline here is the *same arithmetic* the MCU executes, so
//! the quantized-accuracy numbers feeding Table I are measured, not
//! estimated.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod ibert;
pub mod kernels;
pub mod layers;
pub mod model;
pub mod observer;
pub mod qat;
pub mod qtensor;
pub mod requant;

pub use arena::QuantArena;
pub use model::QuantBioformer;
pub use qtensor::{QParams, QTensor};
