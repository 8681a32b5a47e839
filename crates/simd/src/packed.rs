//! The packed-weight int8 GEMM: `C[m,n] = A[m,k] · Wᵀ (+ bias)` against a
//! weight matrix laid out **once**, at model-conversion time, for the
//! instruction that consumes it.
//!
//! # Layout
//!
//! [`PackedQB`] stores `W[n,k]` in panels of [`QPANEL`] output columns.
//! Inside a panel the codes are interleaved *k-by-4*: for each group of
//! four consecutive `k` indices, the four codes of column 0, then of
//! column 1, … — 64 bytes per group, so one 32-bit lane of a vector
//! register holds exactly the four codes one `vpdpbusd` lane multiplies
//! against a broadcast activation quad:
//!
//! ```text
//! panel p, k-group g:  | c0:k0 k1 k2 k3 | c1:k0 k1 k2 k3 | … | c15:k0 k1 k2 k3 |
//! ```
//!
//! Each accumulator lane therefore *is* an output column — there are no
//! horizontal sums anywhere (the row-major kernels in [`crate::int8`]
//! spend as many instructions reducing lanes as multiplying at bio1's
//! `k = 64`), and the finished lanes requantize and store as contiguous
//! output codes. `k` and `n` are zero-padded to the group/panel size; zero
//! codes contribute exactly zero.
//!
//! # The `vpdpbusd` correction lives in the bias
//!
//! `vpdpbusd` multiplies an *unsigned* byte by a signed one, so the
//! activation is biased into u8 (`a ⊕ 0x80 = a + 128`) and
//! `Σ (a+128)·w = Σ a·w + 128·Σ w`. `Σ w` is a property of the weights:
//! packing folds `−128·Σ_k w[j,k]` into a second copy of the i32 bias, and
//! the VNNI tier starts its accumulators from that copy. The AVX2 and
//! portable tiers multiply signed×signed and start from the plain bias.
//! All tiers are **bit-identical** (integer arithmetic, exact lowering).
//!
//! # Right-hand sides that are activations
//!
//! Attention multiplies activations by activations (`q·kᵀ`, `probs·v`),
//! and those cannot be packed ahead of time. The whole-GEMM kernels
//! ([`qgemm_nt_vnni`], [`qgemm_nt_avx2`]) take such a right-hand side
//! row-major and possibly strided — one head read in place out of a wider
//! projection — gather it **once per call** into a packed image on their
//! stack (a 4-byte move per column per k-group, with the `−128·Σ` seeds
//! derived from the image by `vpdpbusd` against all-ones), and then run
//! the very same register-block body as the packed-weight path. Staging
//! costs `n·k` byte moves against `m·n·k` multiply-adds; products too
//! large for the stack image ([`qgemm_nt_fits`]) are left to the dot-tile
//! drivers of [`crate::int8`].

use crate::qout::{QMat, QOut};
use crate::{QGEMM_AREA_CAP, QGEMM_K_CAP, QGEMM_N_CAP};

/// Output columns per packed panel (two 8-lane registers).
pub const QPANEL: usize = 16;

/// Consecutive `k` codes interleaved per column lane.
pub const QKGROUP: usize = 4;

/// Largest `k` a [`PackedQB`] accepts (bounds the kernels' stack-resident
/// staging of biased activation rows).
pub const QPACK_K_CAP: usize = 4096;

/// Bytes of one k-group of one panel.
const GROUP_BYTES: usize = QPANEL * QKGROUP;

/// An int8 weight matrix packed for [`crate::QgemmPackedFn`] kernels,
/// together with its i32 bias (see the module docs for the layout).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedQB {
    data: Vec<i8>,
    /// Plain bias, zero-padded to whole panels.
    bias: Vec<i32>,
    /// `bias[j] − 128·Σ_k w[j,k]` — the VNNI tier's accumulator seed.
    bias_folded: Vec<i32>,
    k: usize,
    n: usize,
    kgroups: usize,
}

impl PackedQB {
    /// Packs row-major `w[n, k]` (the `[out, in]` layout of linear-layer
    /// weights, or `[out_ch, in_ch·kernel]` of a lowered convolution) with
    /// an optional per-column bias.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent lengths or `k >` [`QPACK_K_CAP`].
    pub fn from_rows(w: &[i8], n: usize, k: usize, bias: Option<&[i32]>) -> Self {
        assert_eq!(w.len(), n * k, "pack: weight size");
        assert!(k <= QPACK_K_CAP, "pack: k {k} over cap");
        if let Some(bias) = bias {
            assert_eq!(bias.len(), n, "pack: bias size");
        }
        let kgroups = k.div_ceil(QKGROUP);
        let panels = n.div_ceil(QPANEL);
        let mut data = vec![0i8; panels * kgroups * GROUP_BYTES];
        let mut plain = vec![0i32; panels * QPANEL];
        let mut folded = vec![0i32; panels * QPANEL];
        for j in 0..n {
            let row = &w[j * k..(j + 1) * k];
            let base = (j / QPANEL) * kgroups * GROUP_BYTES + (j % QPANEL) * QKGROUP;
            for (kk, &code) in row.iter().enumerate() {
                data[base + (kk / QKGROUP) * GROUP_BYTES + kk % QKGROUP] = code;
            }
            let sum: i32 = row.iter().map(|&c| c as i32).sum();
            plain[j] = bias.map_or(0, |b| b[j]);
            folded[j] = plain[j] - 128 * sum;
        }
        PackedQB {
            data,
            bias: plain,
            bias_folded: folded,
            k,
            n,
            kgroups,
        }
    }

    /// Contraction length.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Output columns.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Heap bytes held (codes plus both bias copies).
    pub fn bytes(&self) -> usize {
        self.data.len() + 4 * (self.bias.len() + self.bias_folded.len())
    }

    fn panels(&self) -> usize {
        self.n.div_ceil(QPANEL)
    }

    /// The image a kernel body runs on: `folded` picks the VNNI seeds.
    #[cfg(target_arch = "x86_64")]
    fn image(&self, folded: bool) -> x86::Image {
        let seed = if folded {
            &self.bias_folded
        } else {
            &self.bias
        };
        x86::Image {
            data: self.data.as_ptr(),
            seed: seed.as_ptr(),
            k: self.k,
            n: self.n,
            kgroups: self.kgroups,
        }
    }

    fn check(&self, a: &QMat<'_>, m: usize, out: &QOut<'_>) {
        a.check(m, self.k, "packed gemm A");
        out.check(m, self.n);
    }
}

/// Portable packed GEMM — plain loops over the packed layout; the fallback
/// tier and the oracle of the SIMD tiers.
///
/// # Panics
///
/// Panics when `a` or `out` cannot hold `m` rows.
pub fn qgemm_packed_portable(a: QMat<'_>, m: usize, b: &PackedQB, mut out: QOut<'_>) {
    b.check(&a, m, &out);
    let panel_bytes = b.kgroups * GROUP_BYTES;
    for i in 0..m {
        let row = &a.data[i * a.ld..i * a.ld + b.k];
        for p in 0..b.panels() {
            let mut acc = [0i32; QPANEL];
            acc.copy_from_slice(&b.bias[p * QPANEL..(p + 1) * QPANEL]);
            let panel = &b.data[p * panel_bytes..(p + 1) * panel_bytes];
            for (quad, group) in row.chunks(QKGROUP).zip(panel.chunks_exact(GROUP_BYTES)) {
                for (s, lane) in acc.iter_mut().zip(group.chunks_exact(QKGROUP)) {
                    for (&x, &w) in quad.iter().zip(lane) {
                        *s += x as i32 * w as i32;
                    }
                }
            }
            let cols = (b.n - p * QPANEL).min(QPANEL);
            for (c, &s) in acc.iter().enumerate().take(cols) {
                out.put(i, p * QPANEL + c, s);
            }
        }
    }
}

/// AVX2 packed GEMM: both operands widen to i16 (`vpmovsxbw`) and reduce
/// with `vpmaddwd` — exact, no saturation. Each accumulator holds two
/// partial sums per column; one `vphaddd` per finished block folds them.
/// Falls back to [`qgemm_packed_portable`] when AVX2 is absent.
///
/// # Panics
///
/// Panics when `a` or `out` cannot hold `m` rows.
pub fn qgemm_packed_avx2(a: QMat<'_>, m: usize, b: &PackedQB, out: QOut<'_>) {
    #[cfg(target_arch = "x86_64")]
    if x86::Tier::Avx2.usable(&out) {
        b.check(&a, m, &out);
        if m > 0 && b.n > 0 {
            // SAFETY: the tier was detected; extents checked just above;
            // the image borrows `b`, which outlives the call.
            unsafe { x86::Tier::Avx2.run(a, m, b.image(false), out) };
        }
        return;
    }
    qgemm_packed_portable(a, m, b, out);
}

/// VNNI packed GEMM: one `vpdpbusd` per (row, 8 columns, 4 `k`) against a
/// broadcast quad of the `⊕0x80`-biased activation row, accumulators
/// seeded from the folded bias. Prefers the AVX-512-VNNI+VL encoding, then
/// AVX-VNNI; falls back to [`qgemm_packed_avx2`] (and transitively to
/// portable) when neither is present.
///
/// # Panics
///
/// Panics when `a` or `out` cannot hold `m` rows.
pub fn qgemm_packed_vnni(a: QMat<'_>, m: usize, b: &PackedQB, out: QOut<'_>) {
    #[cfg(target_arch = "x86_64")]
    if let Some(tier) = x86::Tier::vnni().filter(|t| t.usable(&out)) {
        b.check(&a, m, &out);
        if m > 0 && b.n > 0 {
            // SAFETY: as `qgemm_packed_avx2`.
            unsafe { tier.run(a, m, b.image(true), out) };
        }
        return;
    }
    qgemm_packed_avx2(a, m, b, out);
}

/// Whether the SIMD whole-GEMM kernels take an `[·,k]·[n,k]ᵀ` product:
/// the packed image of its right-hand side must fit their stack buffer.
pub fn qgemm_nt_fits(k: usize, n: usize) -> bool {
    n <= QGEMM_N_CAP
        && k <= QGEMM_K_CAP
        && n.next_multiple_of(QPANEL) * k.next_multiple_of(QKGROUP) <= QGEMM_AREA_CAP
}

#[inline(always)]
fn check_nt_args(
    a: &QMat<'_>,
    b: &QMat<'_>,
    bias: Option<&[i32]>,
    m: usize,
    k: usize,
    n: usize,
    out: &QOut<'_>,
) {
    a.check(m, k, "int8 qgemm A");
    b.check(n, k, "int8 qgemm B");
    if let Some(bias) = bias {
        assert_eq!(bias.len(), n, "int8 qgemm: bias size");
    }
    out.check(m, n);
}

/// Portable `C[m,n] = A[m,k]·B[n,k]ᵀ (+ bias)` over strided row-major
/// operands — the naive triple loop, and the oracle of the SIMD
/// whole-GEMM kernels.
///
/// # Panics
///
/// Panics when an operand or `out` cannot hold the stated shape.
pub fn qgemm_nt_portable(
    a: QMat<'_>,
    b: QMat<'_>,
    bias: Option<&[i32]>,
    m: usize,
    k: usize,
    n: usize,
    mut out: QOut<'_>,
) {
    check_nt_args(&a, &b, bias, m, k, n, &out);
    for i in 0..m {
        let a_row = &a.data[i * a.ld..i * a.ld + k];
        for j in 0..n {
            let b_row = &b.data[j * b.ld..j * b.ld + k];
            let mut s = bias.map_or(0, |bias| bias[j]);
            for (&x, &y) in a_row.iter().zip(b_row) {
                s += x as i32 * y as i32;
            }
            out.put(i, j, s);
        }
    }
}

/// AVX2 whole-GEMM kernel over row-major operands ([`crate::QgemmNtFn`]):
/// stages `b` into a packed image and runs the [`qgemm_packed_avx2`] body
/// (module docs). Falls back to [`qgemm_nt_portable`] when AVX2 is absent
/// or the product does not fit ([`qgemm_nt_fits`]).
///
/// # Panics
///
/// Panics when an operand or `out` cannot hold the stated shape.
pub fn qgemm_nt_avx2(
    a: QMat<'_>,
    b: QMat<'_>,
    bias: Option<&[i32]>,
    m: usize,
    k: usize,
    n: usize,
    out: QOut<'_>,
) {
    #[cfg(target_arch = "x86_64")]
    if qgemm_nt_fits(k, n) && x86::Tier::Avx2.usable(&out) {
        check_nt_args(&a, &b, bias, m, k, n, &out);
        if m > 0 && n > 0 {
            // SAFETY: the tier was detected; extents and fit checked
            // just above.
            unsafe { x86::Tier::Avx2.run_nt(a, b, bias, m, k, n, out) };
        }
        return;
    }
    qgemm_nt_portable(a, b, bias, m, k, n, out);
}

/// VNNI whole-GEMM kernel over row-major operands ([`crate::QgemmNtFn`]) —
/// the kernel for products whose right-hand side is itself an activation
/// (attention scores, `A·V`): stages `b` into a packed image once per
/// call, derives the `−128·Σb` seeds from it, and runs the
/// [`qgemm_packed_vnni`] body, [`QOut`] store included. Both operands may
/// be strided ([`QMat::ld`]), which is how a caller multiplies one
/// attention head straight out of a packed projection. Falls back to
/// [`qgemm_nt_avx2`] (and transitively to portable) when no `vpdpbusd`
/// encoding is present or the product does not fit ([`qgemm_nt_fits`]).
///
/// # Panics
///
/// Panics when an operand or `out` cannot hold the stated shape.
pub fn qgemm_nt_vnni(
    a: QMat<'_>,
    b: QMat<'_>,
    bias: Option<&[i32]>,
    m: usize,
    k: usize,
    n: usize,
    out: QOut<'_>,
) {
    #[cfg(target_arch = "x86_64")]
    if let Some(tier) = x86::Tier::vnni().filter(|t| qgemm_nt_fits(k, n) && t.usable(&out)) {
        check_nt_args(&a, &b, bias, m, k, n, &out);
        if m > 0 && n > 0 {
            // SAFETY: as `qgemm_nt_avx2`.
            unsafe { tier.run_nt(a, b, bias, m, k, n, out) };
        }
        return;
    }
    qgemm_nt_avx2(a, b, bias, m, k, n, out);
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{GROUP_BYTES, QKGROUP, QPACK_K_CAP, QPANEL};
    use crate::qout::{pack16, QMat, QOut, Requant, RqLanes};
    use crate::{QGEMM_AREA_CAP, QGEMM_N_CAP};
    use core::arch::x86_64::*;
    use core::mem::MaybeUninit;

    /// `A` rows per register block.
    const MRB: usize = 4;

    /// Row stride of the staged activation block (whole 32-byte steps).
    const STAGE_STRIDE: usize = QPACK_K_CAP.next_multiple_of(32);

    /// Stand-in multiplier for [`QOut::Acc`] stores (never applied).
    const NO_REQUANT: Requant = Requant {
        mantissa: 1 << 30,
        shift: 0,
        zero_point: 0,
    };

    /// A packed right-hand side as the kernel bodies see it: a
    /// [`super::PackedQB`]'s buffers, or an image staged on the caller's
    /// stack. `seed` holds one accumulator seed per padded column.
    #[derive(Clone, Copy)]
    pub(super) struct Image {
        pub data: *const i8,
        pub seed: *const i32,
        pub k: usize,
        pub n: usize,
        pub kgroups: usize,
    }

    impl Image {
        fn panels(&self) -> usize {
            self.n.div_ceil(QPANEL)
        }
    }

    /// The instruction sets a body exists for.
    #[derive(Clone, Copy, PartialEq, Eq)]
    pub(super) enum Tier {
        Avx2,
        VnniAvx,
        Vnni512,
    }

    impl Tier {
        /// The best detected `vpdpbusd` encoding.
        pub(super) fn vnni() -> Option<Tier> {
            if crate::int8::avx512_vnni_supported() {
                Some(Tier::Vnni512)
            } else if crate::int8::avx_vnni_supported() {
                Some(Tier::VnniAvx)
            } else {
                None
            }
        }

        /// Detected, and able to requantize `out`'s multiplier in lanes.
        pub(super) fn usable(self, out: &QOut<'_>) -> bool {
            let detected = match self {
                Tier::Avx2 => crate::int8::avx2_supported(),
                Tier::VnniAvx => crate::int8::avx_vnni_supported(),
                Tier::Vnni512 => crate::int8::avx512_vnni_supported(),
            };
            detected && out.requant().is_none_or(|rq| rq.simd_ok())
        }

        /// # Safety
        ///
        /// `self.usable(&out)`; `b` must describe live buffers of whole
        /// panels and k-groups; `a`/`out` must hold `m ≥ 1` rows of `b.k` /
        /// `b.n ≥ 1` elements (`QMat::check` / `QOut::check`).
        pub(super) unsafe fn run(self, a: QMat<'_>, m: usize, b: Image, out: QOut<'_>) {
            // SAFETY: forwarded contract; the feature set of each body is
            // what `usable` detected.
            unsafe {
                match self {
                    Tier::Avx2 => packed_avx2(a, m, b, out),
                    Tier::VnniAvx => packed_vnni_avx(a, m, b, out),
                    Tier::Vnni512 => packed_vnni512(a, m, b, out),
                }
            }
        }

        /// Stages `b` (row-major `[n, k]`) into a packed image on this
        /// frame, seeds it, and runs the body.
        ///
        /// # Safety
        ///
        /// `self.usable(&out)`; `qgemm_nt_fits(k, n)`; `m, n ≥ 1`; the
        /// operands and `out` must have passed `check_nt_args`.
        #[allow(clippy::too_many_arguments)]
        pub(super) unsafe fn run_nt(
            self,
            a: QMat<'_>,
            b: QMat<'_>,
            bias: Option<&[i32]>,
            m: usize,
            k: usize,
            n: usize,
            out: QOut<'_>,
        ) {
            let kgroups = k.div_ceil(QKGROUP);
            let panels = n.div_ceil(QPANEL);
            // Deliberately uninitialised: `stage_b` writes every byte of
            // the `panels·kgroups·64` prefix, the seed loop below every
            // one of the `panels·16` seeds, before the body reads them.
            let mut data = MaybeUninit::<[i8; QGEMM_AREA_CAP]>::uninit();
            let mut seed = MaybeUninit::<[i32; QGEMM_N_CAP + QPANEL]>::uninit();
            let (dp, sp) = (data.as_mut_ptr() as *mut i8, seed.as_mut_ptr() as *mut i32);
            // SAFETY: `qgemm_nt_fits` bounds both prefixes by the buffer
            // sizes; `b` holds `n` rows of `k` codes.
            unsafe {
                stage_b(b, k, n, kgroups, dp);
                sp.write_bytes(0, panels * QPANEL);
                if let Some(bias) = bias {
                    sp.copy_from_nonoverlapping(bias.as_ptr(), n);
                }
                match self {
                    Tier::Avx2 => {}
                    Tier::VnniAvx => fold_seeds_avx(dp, sp, kgroups, panels),
                    Tier::Vnni512 => fold_seeds_512(dp, sp, kgroups, panels),
                }
                let image = Image {
                    data: dp,
                    seed: sp,
                    k,
                    n,
                    kgroups,
                };
                self.run(a, m, image, out);
            }
        }
    }

    /// Gathers row-major `b[n, k]` into the packed layout at `dst`. Eight
    /// columns by eight k-groups at a time go through an 8×8 dword
    /// transpose (eight 32-byte loads along the rows become eight 32-byte
    /// stores along the lanes); ragged edges — the last columns, the last
    /// groups, the zero lanes that pad a panel — move one dword at a time.
    ///
    /// # Safety
    ///
    /// Requires AVX2; `b` must hold `n` rows of `k` codes; `dst` must be
    /// valid for `n.div_ceil(16)·kgroups·64` bytes.
    #[target_feature(enable = "avx2")]
    unsafe fn stage_b(b: QMat<'_>, k: usize, n: usize, kgroups: usize, dst: *mut i8) {
        let whole = k / QKGROUP;
        // Lane `j`'s slot in group 0; later groups follow at `GROUP_BYTES`.
        let lane = |j: usize| (j / QPANEL) * kgroups * GROUP_BYTES + (j % QPANEL) * QKGROUP;
        for j0 in (0..n.next_multiple_of(QPANEL)).step_by(8) {
            let mut done = 0;
            // SAFETY (both blocks): lane `j` of group `g` lives at
            // `lane(j) + g·64`, inside the stated extent; source reads
            // stay inside row `j`'s `k` codes (`4·(g0 + 8) ≤ k` for the
            // vector loads).
            if j0 + 8 <= n {
                unsafe {
                    let src = b.data.as_ptr().add(j0 * b.ld);
                    let to = dst.add(lane(j0));
                    while done + 8 <= whole {
                        let row = |c: usize| {
                            _mm256_loadu_si256(src.add(c * b.ld + done * QKGROUP) as *const __m256i)
                        };
                        let t = [
                            _mm256_unpacklo_epi32(row(0), row(1)),
                            _mm256_unpackhi_epi32(row(0), row(1)),
                            _mm256_unpacklo_epi32(row(2), row(3)),
                            _mm256_unpackhi_epi32(row(2), row(3)),
                            _mm256_unpacklo_epi32(row(4), row(5)),
                            _mm256_unpackhi_epi32(row(4), row(5)),
                            _mm256_unpacklo_epi32(row(6), row(7)),
                            _mm256_unpackhi_epi32(row(6), row(7)),
                        ];
                        // u[g] = columns 0–3 (then 4–7) of groups g, g + 4.
                        let u = [
                            _mm256_unpacklo_epi64(t[0], t[2]),
                            _mm256_unpackhi_epi64(t[0], t[2]),
                            _mm256_unpacklo_epi64(t[1], t[3]),
                            _mm256_unpackhi_epi64(t[1], t[3]),
                            _mm256_unpacklo_epi64(t[4], t[6]),
                            _mm256_unpackhi_epi64(t[4], t[6]),
                            _mm256_unpacklo_epi64(t[5], t[7]),
                            _mm256_unpackhi_epi64(t[5], t[7]),
                        ];
                        for g in 0..4 {
                            let at = |g: usize| to.add((done + g) * GROUP_BYTES) as *mut __m256i;
                            _mm256_storeu_si256(
                                at(g),
                                _mm256_permute2x128_si256(u[g], u[g + 4], 0x20),
                            );
                            _mm256_storeu_si256(
                                at(g + 4),
                                _mm256_permute2x128_si256(u[g], u[g + 4], 0x31),
                            );
                        }
                        done += 8;
                    }
                }
            }
            for j in j0..j0 + 8 {
                unsafe {
                    let to = dst.add(lane(j));
                    if j >= n {
                        for g in 0..kgroups {
                            (to.add(g * GROUP_BYTES) as *mut u32).write_unaligned(0);
                        }
                        continue;
                    }
                    let row = b.data.as_ptr().add(j * b.ld);
                    for g in done..whole {
                        let quad = (row.add(g * QKGROUP) as *const u32).read_unaligned();
                        (to.add(g * GROUP_BYTES) as *mut u32).write_unaligned(quad);
                    }
                    if whole < kgroups {
                        let mut quad = [0i8; QKGROUP];
                        let rest = &b.data[j * b.ld + whole * QKGROUP..j * b.ld + k];
                        quad[..rest.len()].copy_from_slice(rest);
                        (to.add(whole * GROUP_BYTES) as *mut [i8; QKGROUP]).write_unaligned(quad);
                    }
                }
            }
        }
    }

    /// `seed[j] −= 128·Σ_k b[j,k]` over a staged image: `vpdpbusd` of
    /// all-ones against each k-group sums the four codes of every lane.
    macro_rules! fold_seeds_body {
        ($dp:ident, $data:ident, $seed:ident, $kgroups:ident, $panels:ident) => {{
            let ones = _mm256_set1_epi8(1);
            for p in 0..$panels {
                let panel = $data.add(p * $kgroups * GROUP_BYTES);
                let mut sums = [_mm256_setzero_si256(); 2];
                for g in 0..$kgroups {
                    let w = panel.add(g * GROUP_BYTES) as *const __m256i;
                    sums[0] = $dp(sums[0], ones, _mm256_loadu_si256(w));
                    sums[1] = $dp(sums[1], ones, _mm256_loadu_si256(w.add(1)));
                }
                for (h, sum) in sums.iter().enumerate() {
                    let at = $seed.add(p * QPANEL + h * 8) as *mut __m256i;
                    let folded =
                        _mm256_sub_epi32(_mm256_loadu_si256(at), _mm256_slli_epi32(*sum, 7));
                    _mm256_storeu_si256(at, folded);
                }
            }
        }};
    }

    /// # Safety
    ///
    /// Requires AVX-512-VNNI+VL and AVX2; `data` / `seed` must be
    /// initialised for `panels` whole panels of `kgroups` groups.
    #[target_feature(enable = "avx512vnni,avx512vl,avx2")]
    unsafe fn fold_seeds_512(data: *const i8, seed: *mut i32, kgroups: usize, panels: usize) {
        // SAFETY: loads and stores stay inside the stated extents.
        unsafe { fold_seeds_body!(_mm256_dpbusd_epi32, data, seed, kgroups, panels) }
    }

    /// # Safety
    ///
    /// As [`fold_seeds_512`], with AVX-VNNI in place of AVX-512-VNNI+VL.
    #[target_feature(enable = "avxvnni,avx2")]
    unsafe fn fold_seeds_avx(data: *const i8, seed: *mut i32, kgroups: usize, panels: usize) {
        // SAFETY: as `fold_seeds_512`.
        unsafe { fold_seeds_body!(_mm256_dpbusd_avx_epi32, data, seed, kgroups, panels) }
    }

    /// Copies rows `i..i+MRB` of `a` (clamped to the last row, so a ragged
    /// final block recomputes it instead of branching) into the staging
    /// block at stride `ks`, XOR-ing every code with `flip` and
    /// zero-extending each row to `ks` codes. Forced inline, like
    /// [`store_block`].
    ///
    /// # Safety
    ///
    /// Call only from a function with AVX2 enabled; `a` must hold `m ≥ 1`
    /// rows of `k` codes; `dst` must be valid for `MRB·ks` bytes with
    /// `ks = k.next_multiple_of(32)`.
    #[inline(always)]
    unsafe fn stage_rows(
        a: QMat<'_>,
        i: usize,
        m: usize,
        k: usize,
        ks: usize,
        dst: *mut i8,
        flip: __m256i,
    ) {
        let full = k / 32 * 32;
        for r in 0..MRB {
            let row = (i + r).min(m - 1) * a.ld;
            // SAFETY: the caller guarantees `row + k ≤ a.data.len()`, so
            // every 32-byte load below `full` is in bounds, and `dst` has
            // room for `ks ≥ full (+ 32 when k has a tail)` bytes per row.
            unsafe {
                let src = a.data.as_ptr().add(row);
                let d = dst.add(r * ks);
                let mut c = 0;
                while c < full {
                    let v = _mm256_loadu_si256(src.add(c) as *const __m256i);
                    _mm256_storeu_si256(d.add(c) as *mut __m256i, _mm256_xor_si256(v, flip));
                    c += 32;
                }
                if full < ks {
                    let tail = &a.data[row + full..row + k];
                    let mut last = [0i8; 32];
                    last[..tail.len()].copy_from_slice(tail);
                    let v = _mm256_loadu_si256(last.as_ptr() as *const __m256i);
                    _mm256_storeu_si256(d.add(full) as *mut __m256i, _mm256_xor_si256(v, flip));
                }
            }
        }
    }

    /// Stores one finished `mr×cols` block (`acc[r]` = columns 0–7 and
    /// 8–15 of row `i + r`) at output column `j0`. Forced inline (hence no
    /// `target_feature` of its own): it must dissolve into each body so
    /// the block never round-trips through memory.
    ///
    /// # Safety
    ///
    /// Call only from a function with AVX2 enabled; `out` must have passed
    /// `QOut::check(m, n)` with `i + mr ≤ m` and `j0 + cols ≤ n`.
    #[inline(always)]
    unsafe fn store_block(
        acc: &[[__m256i; 2]; MRB],
        mr: usize,
        i: usize,
        j0: usize,
        cols: usize,
        out: &mut QOut<'_>,
        lanes: RqLanes,
    ) {
        // SAFETY (whole body): full-width stores are taken only when the
        // block is full in the stored dimension, and `QOut::check` proved
        // `(rows−1)·ld + cols ≤ len`; ragged edges go through slices.
        unsafe {
            match out {
                QOut::Acc { out, ld } => {
                    for (r, row) in acc.iter().enumerate().take(mr) {
                        let at = (i + r) * *ld + j0;
                        if cols == QPANEL {
                            let p = out.as_mut_ptr().add(at);
                            _mm256_storeu_si256(p as *mut __m256i, row[0]);
                            _mm256_storeu_si256(p.add(8) as *mut __m256i, row[1]);
                        } else {
                            let mut t = [0i32; QPANEL];
                            _mm256_storeu_si256(t.as_mut_ptr() as *mut __m256i, row[0]);
                            _mm256_storeu_si256(t.as_mut_ptr().add(8) as *mut __m256i, row[1]);
                            out[at..at + cols].copy_from_slice(&t[..cols]);
                        }
                    }
                }
                QOut::Rows { out, ld, .. } => {
                    for (r, row) in acc.iter().enumerate().take(mr) {
                        let codes = pack16(lanes.scale8(row[0]), lanes.scale8(row[1]));
                        let at = (i + r) * *ld + j0;
                        if cols == QPANEL {
                            _mm_storeu_si128(out.as_mut_ptr().add(at) as *mut __m128i, codes);
                        } else {
                            let mut t = [0i8; QPANEL];
                            _mm_storeu_si128(t.as_mut_ptr() as *mut __m128i, codes);
                            out[at..at + cols].copy_from_slice(&t[..cols]);
                        }
                    }
                }
                QOut::Cols { out, ld, .. } => {
                    let mut rows = [_mm_setzero_si128(); MRB];
                    for (codes, row) in rows.iter_mut().zip(acc.iter()).take(mr) {
                        *codes = pack16(lanes.scale8(row[0]), lanes.scale8(row[1]));
                    }
                    // 4×16 byte transpose: after the two unpack levels,
                    // dword `c % 4` of `quads[c / 4]` holds column c's four
                    // row codes.
                    let r01l = _mm_unpacklo_epi8(rows[0], rows[1]);
                    let r01h = _mm_unpackhi_epi8(rows[0], rows[1]);
                    let r23l = _mm_unpacklo_epi8(rows[2], rows[3]);
                    let r23h = _mm_unpackhi_epi8(rows[2], rows[3]);
                    let quads = [
                        _mm_unpacklo_epi16(r01l, r23l),
                        _mm_unpackhi_epi16(r01l, r23l),
                        _mm_unpacklo_epi16(r01h, r23h),
                        _mm_unpackhi_epi16(r01h, r23h),
                    ];
                    if mr == MRB && cols == QPANEL {
                        // Four codes per column, straight from registers.
                        let base = out.as_mut_ptr().add(j0 * *ld + i);
                        for (g, quad) in quads.iter().enumerate() {
                            let col = |c: usize| base.add((g * 4 + c) * *ld) as *mut i32;
                            col(0).write_unaligned(_mm_cvtsi128_si32(*quad));
                            col(1).write_unaligned(_mm_extract_epi32(*quad, 1));
                            col(2).write_unaligned(_mm_extract_epi32(*quad, 2));
                            col(3).write_unaligned(_mm_extract_epi32(*quad, 3));
                        }
                    } else {
                        let mut t = [[0i8; MRB]; QPANEL];
                        for (g, quad) in quads.iter().enumerate() {
                            _mm_storeu_si128(t.as_mut_ptr().add(g * 4) as *mut __m128i, *quad);
                        }
                        for (c, quad) in t.iter().enumerate().take(cols) {
                            let at = (j0 + c) * *ld + i;
                            out[at..at + mr].copy_from_slice(&quad[..mr]);
                        }
                    }
                }
            }
        }
    }

    macro_rules! packed_vnni_body {
        ($dp:ident, $a:ident, $m:ident, $b:ident, $out:ident) => {{
            let (k, n, kgroups) = ($b.k, $b.n, $b.kgroups);
            let ks = k.next_multiple_of(32);
            let lanes = RqLanes::new($out.requant().unwrap_or(NO_REQUANT));
            // Deliberately uninitialised: `stage_rows` writes every byte
            // of the `MRB·ks` prefix before the block loop reads it.
            let mut stage = MaybeUninit::<[i8; MRB * STAGE_STRIDE]>::uninit();
            let sp = stage.as_mut_ptr() as *mut i8;
            let flip = _mm256_set1_epi8(-128i8);
            let mut i = 0usize;
            while i < $m {
                let mr = ($m - i).min(MRB);
                stage_rows($a, i, $m, k, ks, sp, flip);
                for p in 0..$b.panels() {
                    let panel = $b.data.add(p * kgroups * GROUP_BYTES);
                    let s0 = _mm256_loadu_si256($b.seed.add(p * QPANEL) as *const __m256i);
                    let s1 = _mm256_loadu_si256($b.seed.add(p * QPANEL + 8) as *const __m256i);
                    let mut acc = [[s0, s1]; MRB];
                    for g in 0..kgroups {
                        let w = panel.add(g * GROUP_BYTES);
                        let w0 = _mm256_loadu_si256(w as *const __m256i);
                        let w1 = _mm256_loadu_si256(w.add(32) as *const __m256i);
                        for (r, row) in acc.iter_mut().enumerate() {
                            let quad = (sp.add(r * ks + g * 4) as *const i32).read_unaligned();
                            let av = _mm256_set1_epi32(quad);
                            row[0] = $dp(row[0], av, w0);
                            row[1] = $dp(row[1], av, w1);
                        }
                    }
                    let cols = (n - p * QPANEL).min(QPANEL);
                    store_block(&acc, mr, i, p * QPANEL, cols, &mut $out, lanes);
                }
                i += MRB;
            }
        }};
    }

    /// # Safety
    ///
    /// Requires AVX-512-VNNI+VL and AVX2; otherwise as [`Tier::run`]. The
    /// image's seeds must be the folded ones.
    #[target_feature(enable = "avx512vnni,avx512vl,avx2")]
    unsafe fn packed_vnni512(a: QMat<'_>, m: usize, b: Image, mut out: QOut<'_>) {
        // SAFETY (whole body): image loads stay inside its whole panels
        // and k-groups; staged reads stay inside the `MRB·ks` prefix
        // `stage_rows` wrote (`g·4 + 4 ≤ kgroups·4 ≤ ks`); stores are
        // `store_block`'s.
        unsafe { packed_vnni_body!(_mm256_dpbusd_epi32, a, m, b, out) }
    }

    /// # Safety
    ///
    /// As [`packed_vnni512`], with AVX-VNNI in place of AVX-512-VNNI+VL.
    #[target_feature(enable = "avxvnni,avx2")]
    unsafe fn packed_vnni_avx(a: QMat<'_>, m: usize, b: Image, mut out: QOut<'_>) {
        // SAFETY: as `packed_vnni512`.
        unsafe { packed_vnni_body!(_mm256_dpbusd_avx_epi32, a, m, b, out) }
    }

    /// # Safety
    ///
    /// Requires AVX2; otherwise as [`Tier::run`]. The image's seeds must
    /// be the plain bias.
    #[target_feature(enable = "avx2")]
    unsafe fn packed_avx2(a: QMat<'_>, m: usize, b: Image, mut out: QOut<'_>) {
        let (k, n, kgroups) = (b.k, b.n, b.kgroups);
        let ks = k.next_multiple_of(32);
        // SAFETY (whole body): as `packed_vnni512`; the 16-byte panel
        // loads cover the four quarters of one 64-byte k-group.
        unsafe {
            let lanes = RqLanes::new(out.requant().unwrap_or(NO_REQUANT));
            // Deliberately uninitialised: see `packed_vnni_body`.
            let mut stage = MaybeUninit::<[i8; MRB * STAGE_STRIDE]>::uninit();
            let sp = stage.as_mut_ptr() as *mut i8;
            let mut i = 0usize;
            while i < m {
                let mr = (m - i).min(MRB);
                stage_rows(a, i, m, k, ks, sp, _mm256_setzero_si256());
                for p in 0..b.panels() {
                    let panel = b.data.add(p * kgroups * GROUP_BYTES);
                    let b0 = _mm256_loadu_si256(b.seed.add(p * QPANEL) as *const __m256i);
                    let b1 = _mm256_loadu_si256(b.seed.add(p * QPANEL + 8) as *const __m256i);
                    let mut block = [[b0, b1]; MRB];
                    // Sixteen ymm registers hold two rows of partial sums
                    // (four accumulators each) plus the widened panel.
                    for (half, pair) in block.chunks_exact_mut(2).enumerate() {
                        if half * 2 >= mr {
                            break;
                        }
                        let mut acc = [[_mm256_setzero_si256(); 4]; 2];
                        for g in 0..kgroups {
                            let w = panel.add(g * GROUP_BYTES) as *const __m128i;
                            let wide = [
                                _mm256_cvtepi8_epi16(_mm_loadu_si128(w)),
                                _mm256_cvtepi8_epi16(_mm_loadu_si128(w.add(1))),
                                _mm256_cvtepi8_epi16(_mm_loadu_si128(w.add(2))),
                                _mm256_cvtepi8_epi16(_mm_loadu_si128(w.add(3))),
                            ];
                            for (r, row) in acc.iter_mut().enumerate() {
                                let at = (half * 2 + r) * ks + g * 4;
                                let quad = (sp.add(at) as *const i32).read_unaligned();
                                let av = _mm256_cvtepi8_epi16(_mm_set1_epi32(quad));
                                for (s, &wq) in row.iter_mut().zip(wide.iter()) {
                                    *s = _mm256_add_epi32(*s, _mm256_madd_epi16(av, wq));
                                }
                            }
                        }
                        // vphaddd interleaves per 128-bit lane; qwords
                        // (0,2,1,3) restore column order.
                        for (row, sums) in pair.iter_mut().zip(acc.iter()) {
                            let lo = _mm256_hadd_epi32(sums[0], sums[1]);
                            let hi = _mm256_hadd_epi32(sums[2], sums[3]);
                            row[0] = _mm256_add_epi32(row[0], _mm256_permute4x64_epi64(lo, 0xD8));
                            row[1] = _mm256_add_epi32(row[1], _mm256_permute4x64_epi64(hi, 0xD8));
                        }
                    }
                    let cols = (n - p * QPANEL).min(QPANEL);
                    store_block(&block, mr, i, p * QPANEL, cols, &mut out, lanes);
                }
                i += MRB;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qout::Requant;

    fn codes(len: usize, seed: u64) -> Vec<i8> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 40) as i8
            })
            .collect()
    }

    const RQ: Requant = Requant {
        mantissa: 0x6b3a_91c5,
        shift: 9,
        zero_point: 2,
    };

    /// `want[i·n + j] = Σ_k a[i·lda + k]·b[j·ldb + k] + bias[j]`.
    #[allow(clippy::too_many_arguments)]
    fn triple_loop(
        a: &[i8],
        lda: usize,
        b: &[i8],
        ldb: usize,
        bias: Option<&[i32]>,
        m: usize,
        k: usize,
        n: usize,
    ) -> Vec<i32> {
        let mut want = vec![0i32; m * n];
        for i in 0..m {
            for j in 0..n {
                let dot: i32 = (0..k)
                    .map(|kk| a[i * lda + kk] as i32 * b[j * ldb + kk] as i32)
                    .sum();
                want[i * n + j] = dot + bias.map_or(0, |b| b[j]);
            }
        }
        want
    }

    /// Runs `run` with each store form and checks the product against
    /// `want`, gaps between rows included.
    fn check_forms(what: &str, want: &[i32], m: usize, n: usize, mut run: impl FnMut(QOut<'_>)) {
        let mut acc = vec![i32::MIN; m * n];
        run(QOut::Acc {
            out: &mut acc,
            ld: n,
        });
        assert_eq!(acc, want, "{what}: accumulators");
        for transposed in [false, true] {
            let (rows, cols) = if transposed { (n, m) } else { (m, n) };
            let ld = cols + 3;
            let mut codes = vec![55i8; rows * ld];
            let (out, rq) = (&mut codes[..], RQ);
            run(if transposed {
                QOut::Cols { out, ld, rq }
            } else {
                QOut::Rows { out, ld, rq }
            });
            for r in 0..rows {
                for c in 0..ld {
                    let (i, j) = if transposed { (c, r) } else { (r, c) };
                    let expect = if c < cols {
                        RQ.to_i8(want[i * n + j])
                    } else {
                        55
                    };
                    assert_eq!(codes[r * ld + c], expect, "{what}: transposed={transposed}");
                }
            }
        }
    }

    /// Ragged shapes, degenerate dims and the bio1 hot shapes, as
    /// `(m, k, n, operand padding)`.
    const SHAPES: [(usize, usize, usize, usize); 11] = [
        (0, 5, 3, 0),
        (2, 0, 5, 1),
        (1, 1, 1, 2),
        (3, 7, 2, 0),
        (4, 32, 16, 0),
        (5, 33, 17, 5),
        (7, 140, 64, 0),
        (31, 64, 40, 0),
        (31, 32, 31, 224),
        (8, 64, 16, 0),
        (6, 420, 11, 1),
    ];

    /// Every tier's packed and whole-GEMM kernels against the naive triple
    /// loop: strided operands, with and without bias, every store form.
    #[test]
    fn kernels_match_the_triple_loop() {
        for (m, k, n, pad) in SHAPES {
            let (lda, ldb) = (k + pad, k + 2 * pad);
            let a = codes(m * lda, 91 + (m * k) as u64);
            let b = codes(n * ldb, 92 + (n * k) as u64);
            let dense: Vec<i8> = (0..n)
                .flat_map(|j| b[j * ldb..j * ldb + k].to_vec())
                .collect();
            let bias: Vec<i32> = (0..n as i32).map(|j| 1000 - 77 * j).collect();
            let (qa, qb) = (QMat { data: &a, ld: lda }, QMat { data: &b, ld: ldb });
            for bias in [None, Some(bias.as_slice())] {
                let want = triple_loop(&a, lda, &b, ldb, bias, m, k, n);
                let packed = PackedQB::from_rows(&dense, n, k, bias);
                for (tier, kernel) in [
                    qgemm_packed_portable as crate::QgemmPackedFn,
                    qgemm_packed_avx2,
                    qgemm_packed_vnni,
                ]
                .into_iter()
                .enumerate()
                {
                    let what = format!("packed tier {tier} ({m},{k},{n})");
                    check_forms(&what, &want, m, n, |out| kernel(qa, m, &packed, out));
                }
                for (tier, kernel) in [
                    qgemm_nt_portable as crate::QgemmNtFn,
                    qgemm_nt_avx2,
                    qgemm_nt_vnni,
                ]
                .into_iter()
                .enumerate()
                {
                    let what = format!("whole-GEMM tier {tier} ({m},{k},{n})");
                    check_forms(&what, &want, m, n, |out| kernel(qa, qb, bias, m, k, n, out));
                }
            }
        }
    }

    /// Extreme codes: the biased u8 operand hits 255 against alternating
    /// ±max codes — the case `vpmaddubsw` would saturate on.
    #[test]
    fn extreme_codes_are_exact() {
        let (m, k, n) = (5usize, 64usize, 19usize);
        let a = vec![-128i8; m * k];
        let w: Vec<i8> = (0..n * k)
            .map(|i| if i % 2 == 0 { 127 } else { -128 })
            .collect();
        let want = triple_loop(&a, k, &w, k, None, m, k, n);
        assert_eq!(want[0], (-128 * 127 + 128 * 128) * (k as i32 / 2));
        let packed = PackedQB::from_rows(&w, n, k, None);
        let (qa, qw) = (QMat::dense(&a, k), QMat::dense(&w, k));
        for kernel in [qgemm_packed_avx2 as crate::QgemmPackedFn, qgemm_packed_vnni] {
            check_forms("packed", &want, m, n, |out| kernel(qa, m, &packed, out));
        }
        for kernel in [qgemm_nt_avx2 as crate::QgemmNtFn, qgemm_nt_vnni] {
            check_forms("whole-GEMM", &want, m, n, |out| {
                kernel(qa, qw, None, m, k, n, out)
            });
        }
    }

    /// The public entry points prefer one `vpdpbusd` encoding; on a host
    /// with both, this drives each detected body — the AVX-VNNI one too —
    /// directly, packed and staged.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn every_detected_body_is_bit_exact() {
        use super::x86::Tier;
        let (m, k, n) = (7usize, 37usize, 21usize);
        let a = codes(m * k, 41);
        let w = codes(n * k, 42);
        let bias: Vec<i32> = (0..n as i32).map(|j| 500 - 61 * j).collect();
        let want = triple_loop(&a, k, &w, k, Some(&bias), m, k, n);
        let packed = PackedQB::from_rows(&w, n, k, Some(&bias));
        let (qa, qw) = (QMat::dense(&a, k), QMat::dense(&w, k));
        for tier in [Tier::Avx2, Tier::VnniAvx, Tier::Vnni512] {
            let detected = tier.usable(&QOut::Acc {
                out: &mut [],
                ld: 0,
            });
            if !detected {
                continue;
            }
            // SAFETY: the tier was just detected; `check_forms` sizes every
            // output for an m×n product; (k, n) fit the staged image.
            check_forms("packed body", &want, m, n, |out| unsafe {
                tier.run(qa, m, packed.image(tier != Tier::Avx2), out)
            });
            check_forms("staged body", &want, m, n, |out| unsafe {
                tier.run_nt(qa, qw, Some(&bias), m, k, n, out)
            });
        }
    }

    /// A product whose packed image would overflow the kernels' stack
    /// buffer is declined by the fit rule and still computed exactly.
    #[test]
    fn oversized_products_take_the_portable_loop() {
        let (m, k, n) = (2usize, crate::QGEMM_K_CAP + 4, 3usize);
        assert!(!qgemm_nt_fits(k, n));
        assert!(!qgemm_nt_fits(64, crate::QGEMM_N_CAP + 1));
        assert!(qgemm_nt_fits(64, 256) && qgemm_nt_fits(256, 64));
        let a = codes(m * k, 3);
        let b = codes(n * k, 4);
        let want = triple_loop(&a, k, &b, k, None, m, k, n);
        check_forms("oversized", &want, m, n, |out| {
            qgemm_nt_vnni(QMat::dense(&a, k), QMat::dense(&b, k), None, m, k, n, out)
        });
    }
}
