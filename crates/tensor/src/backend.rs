//! The `ComputeBackend` seam: every fp32 GEMM in the nn layers runs
//! through this trait instead of naming a kernel directly, and the int8
//! pipeline asks it which kernel its activation × activation products run
//! ([`ComputeBackend::plan_int8`]; int8 *weight* products are packed for
//! one kernel per SIMD tier and have no choice to make).
//!
//! # Why a seam
//!
//! bio1's GEMMs are small and skinny; which tile wins is a property of the
//! *shape*, not of the layer that issues it. Putting kernel choice behind
//! an object-safe trait makes it a data-plane detail: layers hold an
//! `Arc<dyn ComputeBackend>` (the process-wide [`default_backend`] unless a
//! model installs its own), ask it for a [`GemmPlan`] per shape, pack
//! weights at the plan's panel width, and run whatever driver the plan
//! names. A [`crate::tune::TuneTable`] produced by the load-time autotuner
//! slots in as [`PackedCpuBackend::with_table`]; a future GPU or simulated
//! accelerator backend is just another impl behind the same `Arc`.
//!
//! # Determinism contract
//!
//! Plans only ever steer *which* kernel runs — never the arithmetic
//! contract. All int8 drivers are bit-identical to each other; all fp32
//! drivers keep per-element ascending-`k` accumulation (the
//! [`Fp32Kernel::Generic`] driver is bit-identical to the portable tile;
//! FMA/AVX-512 tiles agree within the usual 1e-4 the SIMD layer already
//! guarantees).

use std::sync::{Arc, OnceLock};

use crate::pack::{self, Epilogue, PackedB, MAX_MR, MAX_NR, MR, NR};
use crate::tune::TuneTable;

/// Register-tile geometry of a packed fp32 GEMM: `mr` rows of `A` per
/// block, `nr` columns per packed panel, and a `kc` contraction-blocking
/// depth (`0` = unblocked).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileSpec {
    /// Row-block height (`1..=`[`MAX_MR`]).
    pub mr: usize,
    /// Panel width (`1..=`[`MAX_NR`]).
    pub nr: usize,
    /// `k`-blocking depth; `0` disables blocking.
    pub kc: usize,
}

impl TileSpec {
    /// The fixed geometry the SIMD microkernels implement.
    pub const DEFAULT: TileSpec = TileSpec {
        mr: MR,
        nr: NR,
        kc: 0,
    };

    /// `true` for the geometry the fixed SIMD tiles can run.
    pub fn is_default(self) -> bool {
        self == Self::DEFAULT
    }
}

impl Default for TileSpec {
    fn default() -> Self {
        Self::DEFAULT
    }
}

/// Which fp32 driver a plan runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Fp32Kernel {
    /// The process-wide [`bioformer_simd::kernels`] dispatch (the
    /// pre-seam behavior).
    #[default]
    Dispatch,
    /// Pin the portable scalar tile.
    Portable,
    /// Pin the AVX2/FMA tile (clamped to the portable tile where
    /// unsupported).
    Fma,
    /// Pin the AVX-512F tile (clamped to the best supported tile).
    Avx512,
    /// The safe variable-geometry driver ([`pack::gemm_packed_generic`]) —
    /// the only kernel valid at a non-default [`TileSpec`].
    Generic,
}

impl Fp32Kernel {
    /// Short stable name (used in tuning-table JSON).
    pub fn name(self) -> &'static str {
        match self {
            Fp32Kernel::Dispatch => "dispatch",
            Fp32Kernel::Portable => "portable",
            Fp32Kernel::Fma => "fma",
            Fp32Kernel::Avx512 => "avx512",
            Fp32Kernel::Generic => "generic",
        }
    }

    /// Inverse of [`Fp32Kernel::name`].
    pub fn from_name(s: &str) -> Option<Self> {
        Some(match s {
            "dispatch" => Fp32Kernel::Dispatch,
            "portable" => Fp32Kernel::Portable,
            "fma" => Fp32Kernel::Fma,
            "avx512" => Fp32Kernel::Avx512,
            "generic" => Fp32Kernel::Generic,
            _ => return None,
        })
    }

    /// The fixed `MR×NR` SIMD tile this kernel pins, if any (`None` for
    /// [`Fp32Kernel::Generic`]). Unsupported tiers clamp downward exactly
    /// as [`bioformer_simd::select`] does.
    fn tile(self) -> Option<bioformer_simd::Fp32TileFn> {
        use bioformer_simd::{select, Tier};
        match self {
            Fp32Kernel::Dispatch => Some(bioformer_simd::kernels().fp32_tile),
            Fp32Kernel::Portable => Some(select(Some(Tier::Portable)).fp32_tile),
            Fp32Kernel::Fma => Some(select(Some(Tier::Avx2)).fp32_tile),
            Fp32Kernel::Avx512 => Some(select(Some(Tier::Vnni)).fp32_tile),
            Fp32Kernel::Generic => None,
        }
    }
}

/// Which int8 driver a plan runs. All choices are bit-identical; this is
/// purely a performance decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Int8Kernel {
    /// Whole-GEMM where available and in-cap, else the dispatched tile
    /// (the pre-seam behavior).
    #[default]
    Dispatch,
    /// Force the tier's whole-GEMM kernel (falls back to the tile path when
    /// the kernel is absent or the shape exceeds its caps).
    WholeGemm,
    /// Force the dispatched `1×QNR` dot tile driven by the generic loop.
    Tile,
}

impl Int8Kernel {
    /// Short stable name (used in tuning-table JSON).
    pub fn name(self) -> &'static str {
        match self {
            Int8Kernel::Dispatch => "dispatch",
            Int8Kernel::WholeGemm => "whole",
            Int8Kernel::Tile => "tile",
        }
    }

    /// Inverse of [`Int8Kernel::name`].
    pub fn from_name(s: &str) -> Option<Self> {
        Some(match s {
            "dispatch" => Int8Kernel::Dispatch,
            "whole" => Int8Kernel::WholeGemm,
            "tile" => Int8Kernel::Tile,
            _ => return None,
        })
    }
}

/// A resolved fp32 execution plan: tile geometry plus the kernel that
/// drives it. Packed buffers carry the plan they were packed for
/// ([`PackedB::plan`]), so a buffer can never meet the wrong driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GemmPlan {
    /// Tile geometry (decides the packed layout).
    pub spec: TileSpec,
    /// Driver for this geometry.
    pub kernel: Fp32Kernel,
}

impl GemmPlan {
    /// Builds a plan, normalising invalid combinations: any non-default
    /// geometry must run the generic driver, and the generic driver clamps
    /// its geometry into the driver's supported range.
    pub fn new(spec: TileSpec, kernel: Fp32Kernel) -> Self {
        let spec = TileSpec {
            mr: spec.mr.clamp(1, MAX_MR),
            nr: spec.nr.clamp(1, MAX_NR),
            kc: spec.kc,
        };
        let kernel = if spec.is_default() {
            kernel
        } else {
            Fp32Kernel::Generic
        };
        GemmPlan { spec, kernel }
    }

    /// Packed-buffer length for a `k×n` right-hand side under this plan.
    pub fn packed_len(&self, k: usize, n: usize) -> usize {
        pack::packed_len_nr(k, n, self.spec.nr)
    }

    /// Compact human-readable form, e.g. `fma@4x16` or `generic@8x32/k64`.
    pub fn describe(&self) -> String {
        let TileSpec { mr, nr, kc } = self.spec;
        if kc == 0 {
            format!("{}@{}x{}", self.kernel.name(), mr, nr)
        } else {
            format!("{}@{}x{}/k{}", self.kernel.name(), mr, nr, kc)
        }
    }
}

/// Runs a packed fp32 GEMM under an explicit plan. `packed` must be the
/// image packed at the plan's panel width.
///
/// # Panics
///
/// Panics if any buffer length disagrees with `(m, k, n)` under the plan.
#[allow(clippy::too_many_arguments)]
pub fn gemm_with_plan(
    plan: GemmPlan,
    a: &[f32],
    m: usize,
    k: usize,
    packed: &[f32],
    n: usize,
    out: &mut [f32],
    epi: Epilogue<'_>,
) {
    if plan.spec.is_default() {
        if let Some(tile) = plan.kernel.tile() {
            pack::gemm_packed_with(tile, a, m, k, packed, n, out, epi);
            return;
        }
    }
    let TileSpec { mr, nr, kc } = plan.spec;
    pack::gemm_packed_generic(a, m, k, packed, n, out, epi, mr, nr, kc);
}

/// The kernel-selection seam every nn/quant compute call site goes
/// through.
///
/// Object-safe by design: models hold `Arc<dyn ComputeBackend>` and the
/// serving layer treats backend choice as replica configuration. The
/// `plan_*` methods answer "how should this shape run"; the rest execute
/// under a plan. `m = 0` in a plan query means "row count varies call to
/// call" (linear layers pack weights before they see a batch).
pub trait ComputeBackend: Send + Sync + std::fmt::Debug {
    /// Short stable identifier, e.g. `"packed-cpu"`.
    fn name(&self) -> &'static str;

    /// One-line description of the backend's configuration (tuning state
    /// included) — surfaced in `EngineStats`.
    fn describe(&self) -> String {
        self.name().to_string()
    }

    /// The fp32 plan for an `[m,k]·[k,n]` GEMM (`m = 0` = unknown/varies).
    fn plan_fp32(&self, m: usize, k: usize, n: usize) -> GemmPlan;

    /// The int8 kernel for an `[m,k]·[n,k]ᵀ` GEMM over row-major operands
    /// (`m = 0` = unknown) — consulted by callers of
    /// [`crate::qgemm::qgemm_nt_into`], i.e. for products whose right-hand
    /// side is an activation. Weight products run the packed kernel and
    /// have nothing to plan.
    fn plan_int8(&self, m: usize, k: usize, n: usize) -> Int8Kernel;

    /// Packs a `B[k, n]` whose rows lie `ld ≥ n` floats apart for the given
    /// plan into `dst` (length `plan.packed_len(k, n)`).
    fn pack_b_into(
        &self,
        plan: GemmPlan,
        b: &[f32],
        ld: usize,
        k: usize,
        n: usize,
        dst: &mut [f32],
    ) {
        let _ = self;
        pack::pack_b_nr(b, ld, k, n, plan.spec.nr, dst);
    }

    /// Packs a `Bᵀ`-layout `bt[n, k]` whose rows lie `ld ≥ k` floats apart
    /// for the given plan into `dst` (length `plan.packed_len(k, n)`).
    fn pack_b_t_into(
        &self,
        plan: GemmPlan,
        bt: &[f32],
        ld: usize,
        n: usize,
        k: usize,
        dst: &mut [f32],
    ) {
        let _ = self;
        pack::pack_b_t_nr(bt, ld, n, k, plan.spec.nr, dst);
    }

    /// Packs a weight matrix in `Bᵀ` layout (`[out, in]`) once, under the
    /// plan for its shape — the entry point behind the per-layer
    /// `OnceLock<PackedB>` caches.
    fn pack_weight(&self, bt: &[f32], n: usize, k: usize) -> PackedB {
        PackedB::from_b_t_with(self.plan_fp32(0, k, n), bt, n, k)
    }

    /// Packs a row-major `B[k, n]` once, under the plan for its shape.
    fn pack_weight_b(&self, b: &[f32], k: usize, n: usize) -> PackedB {
        PackedB::from_b_with(self.plan_fp32(0, k, n), b, k, n)
    }

    /// `out = epi(A · B)` against a pre-packed weight; the plan travels
    /// with the [`PackedB`].
    fn gemm(&self, a: &[f32], m: usize, packed: &PackedB, out: &mut [f32], epi: Epilogue<'_>) {
        let _ = self;
        gemm_with_plan(
            packed.plan(),
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
    /// on the attention path, where nothing outlives the call).
    #[allow(clippy::too_many_arguments)]
    fn gemm_with(
        &self,
        plan: GemmPlan,
        a: &[f32],
        m: usize,
        k: usize,
        packed: &[f32],
        n: usize,
        out: &mut [f32],
        epi: Epilogue<'_>,
    ) {
        let _ = self;
        gemm_with_plan(plan, a, m, k, packed, n, out, epi);
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

/// The packed-CPU backend: the pre-seam compute path, optionally steered
/// by a tuning table.
///
/// Without a table every plan query returns the defaults, which makes the
/// refactor bit-identical to the code it replaced. With a table
/// ([`PackedCpuBackend::with_table`]) plan queries consult the table's
/// per-shape winners (exact `(m,k,n)` first, then the `m = 0` wildcard).
#[derive(Debug, Default)]
pub struct PackedCpuBackend {
    table: Option<TuneTable>,
}

impl PackedCpuBackend {
    /// Untuned backend (default plans everywhere).
    pub fn new() -> Self {
        Self::default()
    }

    /// Backend steered by an autotuned table. Tables recorded under a
    /// different CPU tier are ignored wholesale (their timings are
    /// meaningless here) — the backend then behaves as untuned.
    pub fn with_table(table: TuneTable) -> Self {
        let table = table.matches_current_tier().then_some(table);
        PackedCpuBackend { table }
    }

    /// The tuning table in effect, if any.
    pub fn table(&self) -> Option<&TuneTable> {
        self.table.as_ref()
    }
}

impl ComputeBackend for PackedCpuBackend {
    fn name(&self) -> &'static str {
        "packed-cpu"
    }

    fn describe(&self) -> String {
        match &self.table {
            Some(t) => format!("packed-cpu[{}]", t.summary()),
            None => "packed-cpu[default]".to_string(),
        }
    }

    fn plan_fp32(&self, m: usize, k: usize, n: usize) -> GemmPlan {
        self.table
            .as_ref()
            .and_then(|t| t.lookup_fp32(m, k, n))
            .unwrap_or_default()
    }

    fn plan_int8(&self, m: usize, k: usize, n: usize) -> Int8Kernel {
        self.table
            .as_ref()
            .and_then(|t| t.lookup_int8(m, k, n))
            .unwrap_or_default()
    }
}

/// The process-wide default backend: an untuned [`PackedCpuBackend`].
/// Layers that are not handed an explicit backend use this one, which
/// keeps their behavior identical to the pre-seam code.
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
        assert_eq!(b.plan_fp32(31, 64, 256), GemmPlan::default());
        assert_eq!(b.plan_int8(31, 64, 256), Int8Kernel::Dispatch);
        assert_eq!(b.name(), "packed-cpu");
    }

    #[test]
    fn plan_new_forces_generic_off_default_spec() {
        let spec = TileSpec {
            mr: 8,
            nr: 32,
            kc: 0,
        };
        let plan = GemmPlan::new(spec, Fp32Kernel::Fma);
        assert_eq!(plan.kernel, Fp32Kernel::Generic);
        let plan = GemmPlan::new(TileSpec::DEFAULT, Fp32Kernel::Fma);
        assert_eq!(plan.kernel, Fp32Kernel::Fma);
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
        for plan in [
            GemmPlan::new(TileSpec::DEFAULT, Fp32Kernel::Portable),
            GemmPlan::new(
                TileSpec {
                    mr: 8,
                    nr: 32,
                    kc: 16,
                },
                Fp32Kernel::Generic,
            ),
            GemmPlan::new(
                TileSpec {
                    mr: 2,
                    nr: 8,
                    kc: 0,
                },
                Fp32Kernel::Generic,
            ),
        ] {
            let packed = PackedB::from_b_t_with(plan, &wt, n, k);
            let mut out = vec![f32::NAN; m * n];
            backend.gemm(&a, m, &packed, &mut out, Epilogue::Bias(&bias));
            for (got, want) in out.iter().zip(reference.iter()) {
                assert!(
                    (got - want).abs() <= 1e-4,
                    "plan {} diverges",
                    plan.describe()
                );
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
