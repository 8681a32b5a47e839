//! The `ComputeBackend` seam: every fp32 GEMM in the nn layers runs
//! through this trait instead of naming a kernel directly.
//!
//! Layers hold an `Arc<dyn ComputeBackend>` (the process-wide
//! [`default_backend`] unless a model installs its own through
//! `set_backend`), pack their weights once, and run the [`Fp32Kernel`] the
//! backend's [`ComputeBackend::plan_fp32`] names. Every plan uses the one
//! `MR×NR` register tile geometry of [`crate::pack`]; a plan only chooses
//! which SIMD tier's tile runs it, so tests can pin a tier (the portable
//! oracle, FMA or AVX-512) through the same seam production code uses.
//! int8 products have no plan: weights are packed for one kernel per SIMD
//! tier, and activation products run [`crate::qgemm::qgemm_nt_into`].
//!
//! # Determinism contract
//!
//! Every fp32 tile keeps per-element ascending-`k` accumulation; FMA and
//! AVX-512 tiles agree with the portable one within the usual 1e-4 the
//! SIMD layer already guarantees.

use std::sync::{Arc, OnceLock};

use crate::pack::{self, Epilogue, PackedB};

/// Which SIMD tier's fp32 tile a GEMM runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fp32Kernel {
    /// The process-wide [`bioformer_simd::kernels`] dispatch.
    Dispatch,
    /// Pin the portable scalar tile.
    Portable,
    /// Pin the AVX2/FMA tile (clamped to the portable tile where
    /// unsupported).
    Fma,
    /// Pin the AVX-512F tile (clamped to the best supported tile).
    Avx512,
}

impl Fp32Kernel {
    /// The `MR×NR` SIMD tile this kernel runs. Unsupported tiers clamp
    /// downward exactly as [`bioformer_simd::select`] does.
    fn tile(self) -> bioformer_simd::Fp32TileFn {
        use bioformer_simd::{select, Tier};
        match self {
            Fp32Kernel::Dispatch => bioformer_simd::kernels().fp32_tile,
            Fp32Kernel::Portable => select(Some(Tier::Portable)).fp32_tile,
            Fp32Kernel::Fma => select(Some(Tier::Avx2)).fp32_tile,
            Fp32Kernel::Avx512 => select(Some(Tier::Vnni)).fp32_tile,
        }
    }
}

/// The kernel-selection seam every nn compute call site goes through.
///
/// Object-safe by design: models hold `Arc<dyn ComputeBackend>`. Only
/// [`ComputeBackend::name`] and [`ComputeBackend::plan_fp32`] are
/// required; the rest execute under the backend's plan.
pub trait ComputeBackend: Send + Sync + std::fmt::Debug {
    /// Short stable identifier, e.g. `"packed-cpu"` — what the fp32
    /// models' `compute_report` names.
    fn name(&self) -> &'static str;

    /// The fp32 kernel every GEMM under this backend runs.
    fn plan_fp32(&self) -> Fp32Kernel;

    /// Packs a weight matrix in `Bᵀ` layout (`[out, in]`) once, for the
    /// backend's kernel — the entry point behind the per-layer
    /// `OnceLock<PackedB>` caches.
    fn pack_weight(&self, bt: &[f32], n: usize, k: usize) -> PackedB {
        PackedB::from_b_t_with(self.plan_fp32(), bt, n, k)
    }

    /// `out = epi(A · B)` against a pre-packed weight; the kernel travels
    /// with the [`PackedB`].
    fn gemm(&self, a: &[f32], m: usize, packed: &PackedB, out: &mut [f32], epi: Epilogue<'_>) {
        let _ = self;
        pack::gemm_packed_with(
            packed.kernel().tile(),
            a,
            m,
            packed.k(),
            packed.as_slice(),
            packed.n(),
            out,
            epi,
        );
    }

    /// `out = epi(A · B)` against a raw packed slice (arena-owned buffers
    /// on the attention path, where nothing outlives the call), on the
    /// backend's kernel.
    #[allow(clippy::too_many_arguments)]
    fn gemm_with(
        &self,
        a: &[f32],
        m: usize,
        k: usize,
        packed: &[f32],
        n: usize,
        out: &mut [f32],
        epi: Epilogue<'_>,
    ) {
        let tile = self.plan_fp32().tile();
        pack::gemm_packed_with(tile, a, m, k, packed, n, out, epi);
    }

    /// Matrix–vector product `out[m] = A[m,k] · v[k]`.
    fn matvec(&self, a: &[f32], m: usize, k: usize, v: &[f32], out: &mut [f32]) {
        let _ = self;
        assert_eq!(a.len(), m * k, "matvec: A size");
        assert_eq!(v.len(), k, "matvec: v size");
        assert_eq!(out.len(), m, "matvec: out size");
        for (i, o) in out.iter_mut().enumerate() {
            *o = crate::matmul::dot_unrolled(&a[i * k..(i + 1) * k], v);
        }
    }
}

/// The packed-CPU backend: every GEMM runs the dispatched SIMD tile.
#[derive(Debug, Default)]
pub struct PackedCpuBackend;

impl PackedCpuBackend {
    /// The backend (it has no configuration).
    pub fn new() -> Self {
        PackedCpuBackend
    }
}

impl ComputeBackend for PackedCpuBackend {
    fn name(&self) -> &'static str {
        "packed-cpu"
    }

    fn plan_fp32(&self) -> Fp32Kernel {
        Fp32Kernel::Dispatch
    }
}

/// The process-wide default backend: a [`PackedCpuBackend`]. Layers that
/// are not handed an explicit backend use this one.
pub fn default_backend() -> Arc<dyn ComputeBackend> {
    static DEFAULT: OnceLock<Arc<PackedCpuBackend>> = OnceLock::new();
    DEFAULT
        .get_or_init(|| Arc::new(PackedCpuBackend::new()))
        .clone() as Arc<dyn ComputeBackend>
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(len: usize, seed: u64) -> Vec<f32> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                ((state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 40) as f32 / (1u64 << 24) as f32)
                    - 0.5
            })
            .collect()
    }

    #[test]
    fn default_backend_runs_default_plans() {
        let b = default_backend();
        assert_eq!(b.plan_fp32(), Fp32Kernel::Dispatch);
        assert_eq!(
            b.pack_weight(&[0.0; 6], 2, 3).kernel(),
            Fp32Kernel::Dispatch
        );
        assert_eq!(b.name(), "packed-cpu");
    }

    #[test]
    fn backend_gemm_matches_direct_call_for_every_plan() {
        let (m, k, n) = (5, 33, 19);
        let a = filled(m * k, 3);
        let wt = filled(n * k, 4); // [out, in] weight layout
        let bias = filled(n, 5);
        let backend = PackedCpuBackend::new();
        let reference = {
            let packed = backend.pack_weight(&wt, n, k);
            let mut out = vec![f32::NAN; m * n];
            backend.gemm(&a, m, &packed, &mut out, Epilogue::Bias(&bias));
            out
        };
        for kernel in [Fp32Kernel::Portable, Fp32Kernel::Fma, Fp32Kernel::Avx512] {
            let packed = PackedB::from_b_t_with(kernel, &wt, n, k);
            let mut out = vec![f32::NAN; m * n];
            backend.gemm(&a, m, &packed, &mut out, Epilogue::Bias(&bias));
            for (got, want) in out.iter().zip(reference.iter()) {
                assert!((got - want).abs() <= 1e-4, "kernel {kernel:?} diverges");
            }
        }
    }

    #[test]
    fn backend_matvec_matches_tensor_matvec() {
        let (m, k) = (7, 29);
        let a = filled(m * k, 6);
        let v = filled(k, 7);
        let mut out = vec![0.0f32; m];
        default_backend().matvec(&a, m, k, &v, &mut out);
        let want = crate::matmul::matvec(
            &crate::tensor::Tensor::from_vec(a.clone(), &[m, k]),
            &crate::tensor::Tensor::from_vec(v.clone(), &[k]),
        );
        assert_eq!(out, want.data());
    }
}
