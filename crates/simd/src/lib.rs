//! Explicit-SIMD microkernels with runtime CPU-feature dispatch.
//!
//! This is the **one** crate in the workspace allowed to use `unsafe`: it
//! wraps hand-written `std::arch` x86-64 microkernels behind safe slice
//! APIs and a process-global dispatch table. Everything above it
//! (`bioformer-tensor`, `bioformer-quant`, …) stays
//! `#![forbid(unsafe_code)]` and calls through [`kernels`].
//!
//! # Why hand-written kernels
//!
//! The fp32 packed GEMM in `bioformer-tensor` relied on LLVM's
//! auto-vectoriser (helped by `-C target-cpu=native`); the int8 GEMM in
//! `bioformer-quant` was a plain scalar reduction that LLVM widens only
//! half-heartedly — on CPU the int8 serving path was *slower* than fp32,
//! inverting the paper's central systems claim (int8 is the fast mode on
//! the MCU). The kernels here make the intended instruction mix explicit:
//!
//! * **int8**: a 1×[`QNR`] dot-product tile. The AVX2 variant widens both
//!   operands to i16 (`vpmovsxbw`) and reduces with the widening
//!   multiply–add `vpmaddwd` — exact, no saturation. Where VNNI is
//!   available (AVX-512-VNNI+VL or AVX-VNNI) the tile uses `vpdpbusd`
//!   (u8×s8 dot-accumulate straight into i32 lanes): the signed activation
//!   is biased by 128 into u8 (`a ⊕ 0x80`) and the bias is subtracted
//!   exactly via a `vpdpbusd`-computed column sum, so the result is still
//!   **bit-identical** to the scalar reduction. (The classic saturating
//!   `vpmaddubsw` idiom was rejected: `u8·s8` pair sums can exceed i16
//!   range, which would break the bit-exactness contract.)
//! * **int8 against packed weights** ([`packed`]): weights are laid out
//!   once, k-by-4 interleaved in 16-column panels, so every accumulator
//!   lane is an output column — no horizontal sums, the `vpdpbusd` bias
//!   correction folded into the i32 bias at pack time, requantization
//!   done in registers by the store ([`qout`]).
//! * **I-BERT non-linearities** ([`ibert`]): the per-element loops of the
//!   integer softmax and LayerNorm as AVX2 lanes, bit-identical to the
//!   scalar operators in `bioformer_quant::ibert`.
//! * **fp32**: the [`MR`]`×`[`NR`] register tile of the packed GEMM as a
//!   dense run of broadcast-FMAs — 8 `ymm` accumulators on AVX2/FMA, 4
//!   `zmm` accumulators on AVX-512F.
//! * **fp32 weight gradients** ([`tn`]): `dW = dyᵀ · x` as `4×64`
//!   register tiles of separate multiplies and adds, so every tier
//!   returns the same bits as the portable loop.
//!
//! # Dispatch
//!
//! [`kernels`] selects implementations **once** (first call) from
//! `is_x86_feature_detected!` and caches the resulting [`Kernels`] table of
//! function pointers. The portable fallbacks are the exact safe loops the
//! workspace used before this crate existed; they also serve as the
//! oracles for the parity test-suite. Selection can be forced down with
//! the `BIOFORMER_SIMD` environment variable (read once, before the first
//! kernel call):
//!
//! | value | effect |
//! |---|---|
//! | `portable` / `scalar` / `off` | portable fallbacks only |
//! | `avx2` | cap at AVX2/FMA (no VNNI, no AVX-512) |
//! | `vnni` / `avx512` / `auto` / unset | best detected tier |
//!
//! Unknown values fall back to `auto` (library initialisation must not
//! panic). Contracts: int8 tiles and the fp32 weight-gradient kernels
//! are bit-identical across every tier; fp32 GEMM tiles agree within
//! normal FMA reassociation error (the parity suite pins 1e-4 at
//! workload shapes).

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod fp32;
pub mod ibert;
pub mod int8;
pub mod packed;
pub mod qout;
pub mod tn;

pub use ibert::{ExpLanes, NormLanes};
pub use packed::{qgemm_nt_fits, PackedQB};
pub use qout::{QMat, QOut, Requant};
pub use tn::TnLhs;

use std::sync::OnceLock;

/// Rows of `A` per fp32 microkernel tile (matches
/// `bioformer_tensor::pack::MR`).
pub const MR: usize = 4;

/// Columns per fp32 packed panel (matches `bioformer_tensor::pack::NR`).
pub const NR: usize = 16;

/// `B` rows per int8 dot tile (matches `bioformer_quant::kernels::QNR`).
pub const QNR: usize = 4;

/// fp32 microkernel: given `mr ≤ MR` rows of `A` (`a.len() == mr·k`, row
/// stride `k`) and one zero-padded packed panel (`panel.len() == k·NR`,
/// row stride `NR`), writes the `mr×NR` accumulator tile
/// `acc[r][j] = Σ_kk a[r·k+kk] · panel[kk·NR+j]` (rows `mr..MR` are left
/// untouched).
pub type Fp32TileFn = fn(a: &[f32], k: usize, panel: &[f32], mr: usize, acc: &mut [[f32; NR]; MR]);

/// fp32 weight-gradient kernel ([`tn`]): overwrites `out`'s rows
/// `kk0..kk0 + out.len()/n` with `Σ_mm a(mm, kk) · b[mm, j]` for a
/// row-major `b[m, n]`; `exact` must be set when `b` holds a non-finite
/// value.
pub type Fp32TnFn =
    fn(lhs: TnLhs<'_>, kk0: usize, b: &[f32], n: usize, exact: bool, out: &mut [f32]);

/// int8 microkernel: given one `A` row (`a.len() == k`) and `jw ≤ QNR`
/// consecutive `B` rows packed back-to-back (`b_tile.len() == jw·k`),
/// writes `out[lj] = Σ_kk a[kk] · b_tile[lj·k+kk]` as exact i32 dots
/// (entries `jw..QNR` are left untouched).
pub type QdotTileFn = fn(a: &[i8], b_tile: &[i8], k: usize, jw: usize, out: &mut [i32; QNR]);

/// Whole-GEMM int8 kernel over row-major, possibly strided operands (for
/// activation × activation products): stores
/// `Σ_kk a[i,kk] · b[j,kk] (+ bias[j])` for the full
/// `C[m,n] = A[m,k]·B[n,k]ᵀ` product through `out` in **one call**.
/// Hoisting the dispatch boundary from a `1×QNR` tile to the whole GEMM is
/// what lets a kernel treat an operand it cannot pack ahead of time like
/// one it can: `B` is gathered once into the packed lane layout, the
/// `128·Σb` bias corrections are derived once per call (not once per tile
/// visit), and the packed register-block body — no horizontal sums,
/// requantizing store — does the rest. Products that do not fit
/// ([`packed::qgemm_nt_fits`]) run the portable loop.
pub type QgemmNtFn =
    fn(a: QMat<'_>, b: QMat<'_>, bias: Option<&[i32]>, m: usize, k: usize, n: usize, out: QOut<'_>);

/// Packed-weight int8 GEMM: `C[m,n] = A[m,k] · Wᵀ + bias` against a
/// [`PackedQB`] (weights, bias and the folded `vpdpbusd` correction),
/// stored through `out`. Bit-identical across tiers.
pub type QgemmPackedFn = fn(a: QMat<'_>, m: usize, b: &PackedQB, out: QOut<'_>);

/// SIMD body of the integer softmax over one row; `false` means "declined,
/// run the scalar code" (see [`ibert::softmax_row_avx2`]).
pub type SoftmaxRowFn = fn(c: &ExpLanes, scores: &[i32], out: &mut [i8]) -> bool;

/// SIMD element pass of the integer LayerNorm over one row; returns how
/// many leading elements it wrote (see [`ibert::layernorm_row_avx2`]).
pub type LayerNormRowFn =
    fn(c: &NormLanes<'_>, mean: i32, std: i32, row: &[i8], out: &mut [i8]) -> usize;

/// Largest `n` the SIMD [`QgemmNtFn`] kernels run (bounds their
/// stack-resident seed table). Covers every GEMM in the workspace.
pub const QGEMM_N_CAP: usize = 512;

/// Largest `k` the SIMD [`QgemmNtFn`] kernels run (keeps the biased u8×s8
/// partial sums far inside i32: `255·127·k < 2^31` needs `k < 66k`).
pub const QGEMM_K_CAP: usize = 2048;

/// Largest packed image (padded `n` × padded `k`, in bytes) the SIMD
/// [`QgemmNtFn`] kernels stage on their stack; see
/// [`packed::qgemm_nt_fits`].
pub const QGEMM_AREA_CAP: usize = 32 * 1024;

/// The resolved microkernel set for this process.
#[derive(Clone, Copy)]
pub struct Kernels {
    /// Human-readable tier, e.g. `"avx512f+vnni"` — for logs and compute reports.
    pub name: &'static str,
    /// fp32 `MR×NR` accumulator tile.
    pub fp32_tile: Fp32TileFn,
    /// fp32 weight-gradient kernel (bit-identical on every tier).
    pub fp32_tn: Fp32TnFn,
    /// int8 `1×QNR` dot tile.
    pub qdot_tile: QdotTileFn,
    /// Whole-GEMM int8 kernel over row-major operands, present on the
    /// SIMD tiers. `None` means "drive [`Kernels::qdot_tile`] from the
    /// generic GEMM loop" — all the portable tier has.
    pub qgemm_nt: Option<QgemmNtFn>,
    /// Packed-weight int8 GEMM (every tier has one).
    pub qgemm_packed: QgemmPackedFn,
    /// SIMD integer-softmax row body; `None` on the portable tier, where
    /// the scalar operator is the implementation.
    pub softmax_row: Option<SoftmaxRowFn>,
    /// SIMD integer-LayerNorm element pass; `None` on the portable tier.
    pub layernorm_row: Option<LayerNormRowFn>,
    /// `true` when every entry is a portable fallback.
    pub portable: bool,
}

impl std::fmt::Debug for Kernels {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernels")
            .field("name", &self.name)
            .field("portable", &self.portable)
            .finish()
    }
}

/// The dispatch tiers [`select`] can resolve to, weakest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    /// Safe scalar fallbacks (always available, any architecture).
    Portable,
    /// AVX2 int8 widening tile + AVX2/FMA fp32 tile.
    Avx2,
    /// VNNI `vpdpbusd` int8 tile + the best detected fp32 tile
    /// (AVX-512F when present, else AVX2/FMA).
    Vnni,
}

/// Builds a [`Kernels`] table for the given cap, clamped to what the CPU
/// actually supports. `None` means "best available" (the `auto` policy).
///
/// This is `kernels()` without the cache — tests and tier-pinning
/// backends use it to compare tiers side by side in one process.
pub fn select(cap: Option<Tier>) -> Kernels {
    let cap = cap.unwrap_or(Tier::Vnni);
    let fp32_avx512 = cap >= Tier::Vnni && fp32::avx512_supported();
    let fp32_fma = cap >= Tier::Avx2 && fp32::fma_supported();
    let int8_vnni = cap >= Tier::Vnni && int8::vnni_supported();
    let int8_avx2 = cap >= Tier::Avx2 && int8::avx2_supported();

    let (fp32_name, fp32_tile): (&'static str, Fp32TileFn) = if fp32_avx512 {
        ("avx512f", fp32::tile_avx512)
    } else if fp32_fma {
        ("fma", fp32::tile_fma)
    } else {
        ("portable", fp32::tile_portable)
    };
    let fp32_tn: Fp32TnFn = if fp32_avx512 {
        tn::tn_avx512
    } else {
        tn::tn_portable
    };
    let (int8_name, qdot_tile): (&'static str, QdotTileFn) = if int8_vnni {
        ("vnni", int8::tile_vnni)
    } else if int8_avx2 {
        ("avx2", int8::tile_avx2)
    } else {
        ("portable", int8::tile_portable)
    };
    let qgemm_nt: Option<QgemmNtFn> = if int8_vnni {
        Some(packed::qgemm_nt_vnni)
    } else if int8_avx2 {
        Some(packed::qgemm_nt_avx2)
    } else {
        None
    };
    let qgemm_packed: QgemmPackedFn = if int8_vnni {
        packed::qgemm_packed_vnni
    } else if int8_avx2 {
        packed::qgemm_packed_avx2
    } else {
        packed::qgemm_packed_portable
    };
    let softmax_row: Option<SoftmaxRowFn> = int8_avx2.then_some(ibert::softmax_row_avx2 as _);
    let layernorm_row: Option<LayerNormRowFn> = int8_avx2.then_some(ibert::layernorm_row_avx2 as _);

    let name = match (fp32_name, int8_name) {
        ("portable", "portable") => "portable",
        ("fma", "avx2") => "avx2+fma",
        ("fma", "vnni") => "fma+vnni",
        ("avx512f", "vnni") => "avx512f+vnni",
        ("avx512f", "avx2") => "avx512f+avx2",
        // Odd mixes (e.g. FMA without AVX2) fall out of per-feature
        // detection; name the stronger half.
        (f, _) => f,
    };
    Kernels {
        name,
        fp32_tile,
        fp32_tn,
        qdot_tile,
        qgemm_nt,
        qgemm_packed,
        softmax_row,
        layernorm_row,
        portable: fp32_name == "portable" && int8_name == "portable",
    }
}

/// Parses a `BIOFORMER_SIMD` value into a cap; unknown strings mean
/// "auto".
fn parse_cap(v: &str) -> Option<Tier> {
    match v.trim().to_ascii_lowercase().as_str() {
        "portable" | "scalar" | "off" | "0" => Some(Tier::Portable),
        "avx2" => Some(Tier::Avx2),
        "vnni" | "avx512" | "auto" | "native" | "" => None,
        _ => None,
    }
}

/// The process-global microkernel table: CPU features are detected and the
/// `BIOFORMER_SIMD` override read **once**, on first call; every GEMM in
/// the workspace then dispatches through the cached function pointers.
pub fn kernels() -> &'static Kernels {
    static KERNELS: OnceLock<Kernels> = OnceLock::new();
    KERNELS.get_or_init(|| {
        let cap = std::env::var("BIOFORMER_SIMD")
            .ok()
            .and_then(|v| parse_cap(&v));
        select(cap)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_cap_policies() {
        assert_eq!(parse_cap("portable"), Some(Tier::Portable));
        assert_eq!(parse_cap("SCALAR"), Some(Tier::Portable));
        assert_eq!(parse_cap("off"), Some(Tier::Portable));
        assert_eq!(parse_cap("avx2"), Some(Tier::Avx2));
        assert_eq!(parse_cap("vnni"), None);
        assert_eq!(parse_cap("auto"), None);
        assert_eq!(parse_cap("definitely-not-a-tier"), None);
    }

    #[test]
    fn portable_cap_selects_portable() {
        let k = select(Some(Tier::Portable));
        assert!(k.portable);
        assert_eq!(k.name, "portable");
    }

    #[test]
    fn auto_selection_is_consistent_with_detection() {
        let k = select(None);
        if int8::vnni_supported() || int8::avx2_supported() || fp32::fma_supported() {
            assert!(!k.portable, "SIMD host must not resolve to portable");
        } else {
            assert!(k.portable);
        }
    }

    #[test]
    fn kernels_is_cached_and_stable() {
        let a = kernels() as *const Kernels;
        let b = kernels() as *const Kernels;
        assert_eq!(a, b);
    }
}
