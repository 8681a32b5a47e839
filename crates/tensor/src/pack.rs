//! Panel-packed, register-tiled GEMM kernels — the fp32 compute core of the
//! inference hot path.
//!
//! # Why packing
//!
//! The naive kernels in [`crate::matmul`] stream the right-hand matrix `B`
//! straight from its row-major buffer. For `A·Bᵀ` (the linear-layer layout)
//! every output element re-reads a whole `B` row, and for `A·B` every `k`
//! step touches a full `B` row of `n` floats — at model sizes the same
//! cache lines are fetched over and over.
//!
//! The packed kernels instead reorganise `B` **once** into column panels of
//! width [`NR`]: panel `p` stores `B[kk][p·NR .. p·NR+NR]` contiguously for
//! `kk = 0..k` (zero-padded past `n`). A register-tiled [`MR`]`×`[`NR`]
//! microkernel then walks one `A` row block against one panel with all
//! `MR·NR` accumulators live in registers, so each packed element is loaded
//! once per row block and the inner loop is a dense run of FMAs. The tile
//! itself comes from the [`bioformer_simd`] dispatch table — explicit
//! AVX-512F/FMA broadcast-FMA kernels on x86-64, with the original safe
//! loop kept as the portable fallback. Packing costs `O(k·n)` against
//! the GEMM's `O(m·k·n)` work, and for layer weights it is cached across
//! calls (see `bioformer-nn::Linear`).
//!
//! # Epilogues
//!
//! The store loop accepts an [`Epilogue`] so bias-add and element-wise
//! activations happen while the output tile is still hot, instead of in a
//! separate pass over the activations:
//! `out = act(acc + bias)` per element, exactly once.
//!
//! Accumulation order within one output element is the plain `k`-ascending
//! order, so results are deterministic and independent of threading (threads
//! split output *rows*, never the `k` dimension).
//!
//! # Kernel tiers
//!
//! Every tile shares the one `MR×NR` geometry, so a packed image serves
//! every SIMD tier; an [`Fp32Kernel`] only names which tier's tile
//! multiplies it. The nn layers carry one (the dispatched tile by default),
//! and tests pin the portable oracle, FMA or AVX-512 through the same
//! field. FMA and AVX-512 tiles agree with the portable one within the
//! usual 1e-4, each keeping per-element ascending-`k` accumulation.

use crate::ops;
use crate::tensor::Tensor;

/// Rows of `A` processed per microkernel invocation.
pub const MR: usize = 4;

/// Columns of `B` per packed panel (and per microkernel invocation).
pub const NR: usize = 16;

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
    /// The `MR×NR` SIMD tile this kernel runs, for [`gemm_packed_with`].
    /// Unsupported tiers clamp downward exactly as
    /// [`bioformer_simd::select`] does.
    pub fn tile(self) -> bioformer_simd::Fp32TileFn {
        use bioformer_simd::{select, Tier};
        match self {
            Fp32Kernel::Dispatch => bioformer_simd::kernels().fp32_tile,
            Fp32Kernel::Portable => select(Some(Tier::Portable)).fp32_tile,
            Fp32Kernel::Fma => select(Some(Tier::Avx2)).fp32_tile,
            Fp32Kernel::Avx512 => select(Some(Tier::Vnni)).fp32_tile,
        }
    }
}

/// Length in floats of the packed image of a `k×n` right-hand side: `n`
/// rounded up to whole [`NR`] panels, each panel `k` deep.
pub const fn packed_len(k: usize, n: usize) -> usize {
    k * n.div_ceil(NR) * NR
}

/// What happens to each output element as it is stored.
///
/// All variants holding a slice expect it to be `n` long (one entry per
/// output column).
#[derive(Clone, Copy)]
pub enum Epilogue<'a> {
    /// `out = acc` — plain GEMM.
    None,
    /// `out = acc · s` — scaled GEMM (attention's `Q·Kᵀ/√P` in one pass).
    Scale(f32),
    /// `out = acc + bias[j]` — affine layer.
    Bias(&'a [f32]),
    /// `out = gelu(acc + bias[j])` — affine layer fused with the tanh-GELU
    /// used inside transformer FFNs.
    BiasGelu(&'a [f32]),
    /// `out = leaky_relu(acc + bias[j], slope)` — affine layer fused with a
    /// (possibly leaky) ReLU.
    BiasRelu(&'a [f32], f32),
}

impl Epilogue<'_> {
    /// Applies the epilogue to one accumulated element of column `j`.
    #[inline(always)]
    fn apply(&self, acc: f32, j: usize) -> f32 {
        match *self {
            Epilogue::None => acc,
            Epilogue::Scale(s) => acc * s,
            Epilogue::Bias(b) => acc + b[j],
            Epilogue::BiasGelu(b) => ops::gelu(acc + b[j]),
            Epilogue::BiasRelu(b, slope) => {
                let v = acc + b[j];
                if v > 0.0 {
                    v
                } else {
                    slope * v
                }
            }
        }
    }
}

/// Packs a row-major `B[k, n]` into panel layout (`C = A·B` orientation).
///
/// `dst` must be exactly [`packed_len`]`(k, n)` long; panel tails past `n`
/// are zero-filled so the microkernel never needs a column bound check.
///
/// # Panics
///
/// Panics if `b` or `dst` have the wrong length.
pub fn pack_b(b: &[f32], k: usize, n: usize, dst: &mut [f32]) {
    assert_eq!(b.len(), k * n, "pack_b: source size");
    pack_b_strided(b, n, k, n, dst);
}

/// Number of floats a strided `rows × cols` source with row stride `ld`
/// spans: every row but the last contributes `ld`.
fn strided_span(rows: usize, cols: usize, ld: usize) -> usize {
    if rows == 0 {
        0
    } else {
        (rows - 1) * ld + cols
    }
}

/// [`pack_b`] over a source whose rows lie `ld ≥ n` floats apart — `B`
/// may be a column block of a wider row-major buffer, such as one head's
/// `V` inside the `[seq, heads·P]` projection. `dst` must be
/// [`packed_len`]`(k, n)` long; `b` must span at least `(k−1)·ld + n`
/// floats.
///
/// # Panics
///
/// Panics if `ld < n` or `b` or `dst` have the wrong length.
pub fn pack_b_strided(b: &[f32], ld: usize, k: usize, n: usize, dst: &mut [f32]) {
    assert!(ld >= n, "pack_b: row stride {ld} < width {n}");
    assert!(b.len() >= strided_span(k, n, ld), "pack_b: source size");
    assert_eq!(dst.len(), packed_len(k, n), "pack_b: destination size");
    for p in 0..n.div_ceil(NR) {
        let j0 = p * NR;
        let w = (n - j0).min(NR);
        let panel = &mut dst[p * k * NR..(p + 1) * k * NR];
        for kk in 0..k {
            let src = &b[kk * ld + j0..kk * ld + j0 + w];
            let row = &mut panel[kk * NR..kk * NR + NR];
            row[..w].copy_from_slice(src);
            row[w..].fill(0.0);
        }
    }
}

/// Packs a row-major `Bᵀ`-layout matrix `bt[n, k]` into the same panel
/// layout as [`pack_b`] (`C = A·Bᵀ` orientation — linear-layer weights
/// `[out, in]`, attention keys `[seq, head_dim]`).
///
/// # Panics
///
/// Panics if `bt` or `dst` have the wrong length.
pub fn pack_b_t(bt: &[f32], n: usize, k: usize, dst: &mut [f32]) {
    assert_eq!(bt.len(), n * k, "pack_b_t: source size");
    pack_b_t_strided(bt, k, n, k, dst);
}

/// [`pack_b_t`] over a source whose rows lie `ld ≥ k` floats apart (one
/// head's keys inside the `[seq, heads·P]` projection, read in place).
/// `dst` must be [`packed_len`]`(k, n)` long; `bt` must span at least
/// `(n−1)·ld + k` floats.
///
/// # Panics
///
/// Panics if `ld < k` or `bt` or `dst` have the wrong length.
pub fn pack_b_t_strided(bt: &[f32], ld: usize, n: usize, k: usize, dst: &mut [f32]) {
    assert!(ld >= k, "pack_b_t: row stride {ld} < depth {k}");
    assert!(bt.len() >= strided_span(n, k, ld), "pack_b_t: source size");
    assert_eq!(dst.len(), packed_len(k, n), "pack_b_t: destination size");
    for p in 0..n.div_ceil(NR) {
        let j0 = p * NR;
        let w = (n - j0).min(NR);
        let panel = &mut dst[p * k * NR..(p + 1) * k * NR];
        // Fill one panel row at a time, reading down `bt`'s columns. The
        // other order (walk a source row, store down a panel column) is
        // vectorised with the panel's fixed stride into scatter stores,
        // which measured slower than scalar stores on AVX-512 hosts.
        for (kk, row) in panel.chunks_exact_mut(NR).enumerate() {
            for (j, o) in row[..w].iter_mut().enumerate() {
                *o = bt[(j0 + j) * ld + kk];
            }
            row[w..].fill(0.0);
        }
    }
}

/// A heap-owned packed right-hand side, for weight matrices that are packed
/// once and reused across many GEMM calls. The image is the same for every
/// [`Fp32Kernel`].
#[derive(Debug, Clone)]
pub struct PackedB {
    buf: Vec<f32>,
    k: usize,
    n: usize,
}

impl PackedB {
    /// Packs a row-major `Bᵀ`-layout matrix `bt[n, k]`
    /// (`C = A·Bᵀ` orientation — PyTorch `[out, in]` weights).
    pub fn from_b_t(bt: &[f32], n: usize, k: usize) -> Self {
        let mut buf = vec![0.0f32; packed_len(k, n)];
        pack_b_t(bt, n, k, &mut buf);
        PackedB { buf, k, n }
    }

    /// Inner (contraction) dimension.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Output columns.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The packed storage (length [`packed_len`]`(k, n)`).
    pub fn as_slice(&self) -> &[f32] {
        &self.buf
    }
}

// The tile geometry is shared with the microkernel crate; a mismatch would
// silently corrupt panel indexing, so pin it at compile time.
const _: () = assert!(MR == bioformer_simd::MR && NR == bioformer_simd::NR);

/// `MR × NR` register-tiled microkernel: accumulates `mr` rows of `a`
/// (row stride `k`) against one packed panel via the dispatched
/// [`bioformer_simd`] tile and stores one output tile.
///
/// `mr ≤ MR` handles the row tail; the column tail needs no handling
/// because panels are zero-padded and `store_w ≤ NR` bounds the store.
/// The accumulator tile lives in registers inside `tile`; only the
/// epilogue-applied store touches `out`.
#[allow(clippy::too_many_arguments)] // hot-loop primitive: a struct would obscure the call
#[inline(always)]
fn microkernel(
    tile: bioformer_simd::Fp32TileFn,
    a: &[f32],
    k: usize,
    panel: &[f32],
    mr: usize,
    out: &mut [f32],
    ldc: usize,
    j0: usize,
    store_w: usize,
    epi: &Epilogue<'_>,
) {
    let mut acc = [[0.0f32; NR]; MR];
    tile(a, k, panel, mr, &mut acc);
    for (i, acc_row) in acc.iter().enumerate().take(mr) {
        let out_row = &mut out[i * ldc + j0..i * ldc + j0 + store_w];
        for (j, o) in out_row.iter_mut().enumerate() {
            *o = epi.apply(acc_row[j], j0 + j);
        }
    }
}

/// Serial packed GEMM over a row range: `out[i, :] = epi(A[i, :] · B)` for
/// `i` in `0..m`, with `a` holding exactly those `m` rows and `out` the
/// matching `m × n` destination slice (`ldc == n`).
#[allow(clippy::too_many_arguments)] // hot-loop driver, mirrors gemm_packed_with
fn gemm_rows(
    tile: bioformer_simd::Fp32TileFn,
    a: &[f32],
    m: usize,
    k: usize,
    packed: &[f32],
    n: usize,
    out: &mut [f32],
    epi: &Epilogue<'_>,
) {
    let panels = n.div_ceil(NR);
    let mut i = 0usize;
    while i < m {
        let mr = (m - i).min(MR);
        let a_block = &a[i * k..(i + mr) * k];
        let out_block = &mut out[i * n..(i + mr) * n];
        for p in 0..panels {
            let j0 = p * NR;
            let store_w = (n - j0).min(NR);
            let panel = panel_of(packed, k, p);
            microkernel(tile, a_block, k, panel, mr, out_block, n, j0, store_w, epi);
        }
        i += mr;
    }
}

/// The `p`-th panel of a packed buffer.
#[inline(always)]
fn panel_of(packed: &[f32], k: usize, p: usize) -> &[f32] {
    &packed[p * k * NR..(p + 1) * k * NR]
}

/// Packed GEMM with fused epilogue: `out = epi(A · B)` where `a` is
/// row-major `[m, k]`, `packed` is the [`pack_b`]/[`pack_b_t`] image of the
/// `k×n` right-hand side, and `out` is row-major `[m, n]`.
///
/// Output rows are split across threads via the shared
/// [`crate::parallel::plan_threads`] planner when the problem is large
/// enough; the per-element accumulation order (ascending `k`) is identical
/// either way, so results do not depend on the thread count.
///
/// # Panics
///
/// Panics if any buffer length disagrees with `(m, k, n)`.
pub fn gemm_packed(
    a: &[f32],
    m: usize,
    k: usize,
    packed: &[f32],
    n: usize,
    out: &mut [f32],
    epi: Epilogue<'_>,
) {
    // Resolve the dispatched tile once per GEMM, not once per tile.
    gemm_packed_with(
        bioformer_simd::kernels().fp32_tile,
        a,
        m,
        k,
        packed,
        n,
        out,
        epi,
    );
}

/// [`gemm_packed`] with an explicitly chosen microkernel tile — what the
/// nn layers call with their [`Fp32Kernel::tile`], so a layer (or a
/// tier-parity test) can pin a [`bioformer_simd`] tier, e.g. the portable
/// oracle, instead of the runtime-dispatched one.
///
/// # Panics
///
/// Panics if any buffer length disagrees with `(m, k, n)`.
#[allow(clippy::too_many_arguments)]
pub fn gemm_packed_with(
    tile: bioformer_simd::Fp32TileFn,
    a: &[f32],
    m: usize,
    k: usize,
    packed: &[f32],
    n: usize,
    out: &mut [f32],
    epi: Epilogue<'_>,
) {
    assert_eq!(a.len(), m * k, "gemm_packed: A size");
    assert_eq!(packed.len(), packed_len(k, n), "gemm_packed: packed size");
    assert_eq!(out.len(), m * n, "gemm_packed: out size");
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        // Degenerate contraction: the accumulators are all zero, but the
        // epilogue still applies (bias rows survive an empty reduction).
        for row in out.chunks_mut(n) {
            for (j, o) in row.iter_mut().enumerate() {
                *o = epi.apply(0.0, j);
            }
        }
        return;
    }
    let work = crate::matmul::gemm_work(m, n, k);
    crate::parallel::parallel_rows(out, n, work, |row0, rows_out| {
        let rows = rows_out.len() / n;
        let a_rows = &a[row0 * k..(row0 + rows) * k];
        gemm_rows(tile, a_rows, rows, k, packed, n, rows_out, &epi);
    });
}

/// Convenience wrapper: packs `b[k, n]` into `scratch` and multiplies.
/// `scratch` is resized as needed (reuse it across calls to avoid
/// reallocation — e.g. from a [`crate::arena::TensorArena`] buffer).
pub fn matmul_packed_into(
    a: &Tensor,
    b: &Tensor,
    scratch: &mut Vec<f32>,
    out: &mut [f32],
    epi: Epilogue<'_>,
) {
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let (k2, n) = (b.dims()[0], b.dims()[1]);
    assert_eq!(k, k2, "matmul_packed_into: inner dimensions disagree");
    scratch.clear();
    scratch.resize(packed_len(k, n), 0.0);
    pack_b(b.data(), k, n, scratch);
    gemm_packed(a.data(), m, k, scratch, n, out, epi);
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

    fn naive(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for kk in 0..k {
                    acc += a[i * k + kk] * b[kk * n + j];
                }
                out[i * n + j] = acc;
            }
        }
        out
    }

    fn close(a: &[f32], b: &[f32], atol: f32) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() <= atol)
    }

    #[test]
    fn packed_matches_naive_across_shapes() {
        // Tile-multiple, sub-tile, and ragged shapes.
        for &(m, k, n) in &[
            (4, 16, 16),
            (1, 1, 1),
            (3, 5, 7),
            (8, 64, 256),
            (31, 64, 17),
            (9, 3, 33),
            (5, 0, 4),
            (0, 4, 4),
            (4, 4, 0),
        ] {
            let a = filled(m * k, 1 + m as u64);
            let b = filled(k * n, 2 + n as u64);
            let mut packed = vec![0.0f32; packed_len(k, n)];
            pack_b(&b, k, n, &mut packed);
            let mut out = vec![f32::NAN; m * n];
            gemm_packed(&a, m, k, &packed, n, &mut out, Epilogue::None);
            let want = naive(&a, &b, m, k, n);
            assert!(close(&out, &want, 1e-4), "shape ({m},{k},{n})");
        }
    }

    #[test]
    fn pack_b_t_matches_pack_of_transpose() {
        let (n, k) = (7, 5);
        let bt = filled(n * k, 3);
        // Transpose to row-major [k, n].
        let mut b = vec![0.0f32; k * n];
        for j in 0..n {
            for kk in 0..k {
                b[kk * n + j] = bt[j * k + kk];
            }
        }
        let mut p1 = vec![0.0f32; packed_len(k, n)];
        let mut p2 = vec![0.0f32; packed_len(k, n)];
        pack_b(&b, k, n, &mut p1);
        pack_b_t(&bt, n, k, &mut p2);
        assert_eq!(p1, p2);
    }

    /// Two panels, the second ragged, through the strided entry points at
    /// a dense row stride.
    #[test]
    fn pack_b_t_nr_matches_pack_b_nr_of_transpose() {
        let (n, k) = (NR + 1, 9);
        let bt = filled(n * k, 31);
        let mut b = vec![0.0f32; k * n];
        for j in 0..n {
            for kk in 0..k {
                b[kk * n + j] = bt[j * k + kk];
            }
        }
        let mut p1 = vec![0.0f32; packed_len(k, n)];
        let mut p2 = vec![0.0f32; packed_len(k, n)];
        pack_b_strided(&b, n, k, n, &mut p1);
        pack_b_t_strided(&bt, k, n, k, &mut p2);
        assert_eq!(p1, p2);
    }

    #[test]
    fn bias_epilogue_adds_per_column() {
        let (m, k, n) = (3, 4, 6);
        let a = filled(m * k, 4);
        let b = filled(k * n, 5);
        let bias = filled(n, 6);
        let mut packed = vec![0.0f32; packed_len(k, n)];
        pack_b(&b, k, n, &mut packed);
        let mut out = vec![0.0f32; m * n];
        gemm_packed(&a, m, k, &packed, n, &mut out, Epilogue::Bias(&bias));
        let want = naive(&a, &b, m, k, n);
        for i in 0..m {
            for j in 0..n {
                assert!((out[i * n + j] - (want[i * n + j] + bias[j])).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn gelu_epilogue_matches_separate_pass() {
        let (m, k, n) = (5, 8, 19);
        let a = filled(m * k, 7);
        let b = filled(k * n, 8);
        let bias = filled(n, 9);
        let mut packed = vec![0.0f32; packed_len(k, n)];
        pack_b(&b, k, n, &mut packed);
        let mut fused = vec![0.0f32; m * n];
        gemm_packed(&a, m, k, &packed, n, &mut fused, Epilogue::BiasGelu(&bias));
        let mut separate = vec![0.0f32; m * n];
        gemm_packed(&a, m, k, &packed, n, &mut separate, Epilogue::Bias(&bias));
        for v in &mut separate {
            *v = ops::gelu(*v);
        }
        assert_eq!(fused, separate, "fusion must be bit-identical");
    }

    #[test]
    fn relu_epilogue_applies_slope() {
        let (m, k, n) = (2, 3, 4);
        let a = filled(m * k, 10);
        let b = filled(k * n, 11);
        let bias = vec![0.0f32; n];
        let mut packed = vec![0.0f32; packed_len(k, n)];
        pack_b(&b, k, n, &mut packed);
        let mut out = vec![0.0f32; m * n];
        gemm_packed(
            &a,
            m,
            k,
            &packed,
            n,
            &mut out,
            Epilogue::BiasRelu(&bias, 0.5),
        );
        let want = naive(&a, &b, m, k, n);
        for (o, w) in out.iter().zip(want.iter()) {
            let expect = if *w > 0.0 { *w } else { 0.5 * *w };
            assert!((o - expect).abs() < 1e-5);
        }
    }

    #[test]
    fn zero_k_with_bias_emits_bias() {
        let (m, k, n) = (2, 0, 3);
        let bias = vec![1.0f32, 2.0, 3.0];
        let packed = vec![0.0f32; packed_len(k, n)];
        let mut out = vec![f32::NAN; m * n];
        gemm_packed(&[], m, k, &packed, n, &mut out, Epilogue::Bias(&bias));
        assert_eq!(out, vec![1.0, 2.0, 3.0, 1.0, 2.0, 3.0]);
    }

    /// Packing a column block straight out of a wider row-major buffer
    /// (row stride `ld`) is the same image as gathering the block into a
    /// dense matrix first — at widths that leave ragged panel tails and at
    /// the block offsets attention's heads sit at.
    #[test]
    fn strided_packs_match_gather_then_pack() {
        let (rows, ld) = (31, 256);
        let wide = filled(rows * ld, 41);
        for &(col, width) in &[(0, 32), (224, 32), (5, 17), (40, 23), (0, 1)] {
            // The `rows × width` block at column `col`, gathered densely.
            let dense: Vec<f32> = (0..rows)
                .flat_map(|r| wide[r * ld + col..r * ld + col + width].to_vec())
                .collect();
            let src = &wide[col..];

            // As `B[k = rows, n = width]` (attention's V).
            let mut want = vec![f32::NAN; packed_len(rows, width)];
            let mut got = vec![f32::NAN; packed_len(rows, width)];
            pack_b(&dense, rows, width, &mut want);
            pack_b_strided(src, ld, rows, width, &mut got);
            assert_eq!(got, want, "pack_b_strided col {col} width {width}");

            // As `Bᵀ[n = rows, k = width]` (attention's keys).
            let mut want = vec![f32::NAN; packed_len(width, rows)];
            let mut got = vec![f32::NAN; packed_len(width, rows)];
            pack_b_t(&dense, rows, width, &mut want);
            pack_b_t_strided(src, ld, rows, width, &mut got);
            assert_eq!(got, want, "pack_b_t_strided col {col} width {width}");
        }
    }

    #[test]
    #[should_panic(expected = "row stride")]
    fn stride_narrower_than_the_row_panics() {
        let mut dst = vec![0.0f32; packed_len(4, 8)];
        pack_b_strided(&[0.0; 32], 4, 4, 8, &mut dst);
    }

    /// Every pinned tier multiplies the one packed image to within 1e-4 of
    /// the dispatched tile, bias epilogue included.
    #[test]
    fn every_kernel_matches_dispatch() {
        let (m, k, n) = (5, 33, 19);
        let a = filled(m * k, 3);
        let wt = filled(n * k, 4); // [out, in] weight layout
        let bias = filled(n, 5);
        let packed = PackedB::from_b_t(&wt, n, k);
        let run = |kernel: Fp32Kernel| {
            let mut out = vec![f32::NAN; m * n];
            let epi = Epilogue::Bias(&bias);
            gemm_packed_with(kernel.tile(), &a, m, k, packed.as_slice(), n, &mut out, epi);
            out
        };
        let reference = run(Fp32Kernel::Dispatch);
        for kernel in [Fp32Kernel::Portable, Fp32Kernel::Fma, Fp32Kernel::Avx512] {
            assert!(
                close(&run(kernel), &reference, 1e-4),
                "kernel {kernel:?} diverges"
            );
        }
    }

    #[test]
    fn threaded_rows_match_serial() {
        let _guard = crate::parallel::override_guard(4);
        // Big enough to clear PARALLEL_WORK_THRESHOLD (2·m·n·k ≥ 2^26).
        let (m, k, n) = (256, 256, 256);
        let a = filled(m * k, 12);
        let b = filled(k * n, 13);
        let mut packed = vec![0.0f32; packed_len(k, n)];
        pack_b(&b, k, n, &mut packed);
        let mut threaded = vec![0.0f32; m * n];
        gemm_packed(&a, m, k, &packed, n, &mut threaded, Epilogue::None);
        drop(_guard);
        let _guard = crate::parallel::override_guard(1);
        let mut serial = vec![0.0f32; m * n];
        gemm_packed(&a, m, k, &packed, n, &mut serial, Epilogue::None);
        assert_eq!(threaded, serial, "thread count must not change results");
    }
}
