//! Integer-only nonlinear operators after I-BERT (Kim et al., ICML 2021).
//!
//! The paper quantizes its MHSA blocks "following the steps described in
//! I-BERT": softmax, GELU and LayerNorm are evaluated with **integer
//! arithmetic only**, using second-order polynomial approximations
//! (`i-exp`, `i-erf`) and an integer Newton square root (`i-sqrt`). All
//! constants involving the input scale are computed **once at conversion
//! time**; the per-inference path is pure i32/i64 arithmetic, mirroring
//! what executes on the MCU.
//!
//! The scalar bodies here ([`ISoftmax::apply_row_scalar`],
//! [`ILayerNorm::apply_row_scalar`], [`IGelu::apply`]) are the definition
//! of each operator, the portable tier, and the oracle. On SIMD tiers
//! [`ISoftmax::apply_row`] and [`ILayerNorm::apply_row`] hand their
//! per-element loops to the dispatched lanes of [`bioformer_simd::ibert`]
//! — bit-identical, and declining (back to the scalar body) whenever a
//! constant or a row falls outside the range the 32-bit lanes can hold —
//! and the converted model evaluates GELU through [`IGelu::table`].

use crate::qtensor::QParams;
use crate::requant::FixedMultiplier;
use bioformer_simd::ibert::LN_FBITS;
use bioformer_simd::{ExpLanes, Kernels, NormLanes};

/// Exact unsigned division by a precomputed reciprocal.
///
/// The per-element hot loops of [`ISoftmax`] and [`ILayerNorm`] each
/// divide by a value that is fixed for the whole row (or for the operator
/// instance). A hardware 64-bit `div` costs tens of cycles; this replaces
/// it with one widening multiply plus an at-most-two-step remainder
/// correction, and is **bit-identical** to `x / d` for every `x`
/// (`m = ⌊(2⁶⁴−1)/d⌋` never overestimates the quotient, and understates
/// it by at most 2, which the correction loop repairs).
#[derive(Debug, Clone, Copy)]
struct Recip {
    d: u64,
    m: u64,
}

impl Recip {
    /// Prepares the reciprocal of `d > 0` (one hardware divide).
    fn new(d: u64) -> Self {
        debug_assert!(d > 0, "Recip of zero divisor");
        Recip { d, m: u64::MAX / d }
    }

    /// `x / d`, exactly.
    #[inline(always)]
    fn div(&self, x: u64) -> u64 {
        let mut q = ((x as u128 * self.m as u128) >> 64) as u64;
        let mut rem = x - q * self.d;
        while rem >= self.d {
            q += 1;
            rem -= self.d;
        }
        q
    }
}

/// Integer square root: `⌊√n⌋` via Newton iteration (I-BERT Alg. 4).
///
/// # Panics
///
/// Panics if `n < 0`.
pub fn i_sqrt(n: i64) -> i64 {
    assert!(n >= 0, "i_sqrt of negative value");
    if n < 2 {
        return n;
    }
    // Initial guess: 2^ceil(bits/2).
    let bits = 64 - n.leading_zeros() as i64;
    let mut x = 1i64 << ((bits + 1) / 2);
    loop {
        let next = (x + n / x) / 2;
        if next >= x {
            return x;
        }
        x = next;
    }
}

/// Integer exponential for non-positive arguments (I-BERT I-EXP).
///
/// Decomposes `x = −z·ln2 + p` with `p ∈ (−ln2, 0]`, evaluates a
/// polynomial approximation of `exp(p)` and shifts by `z`.
#[derive(Debug, Clone, Copy)]
pub struct IExp {
    q_ln2: i64,
    /// Reciprocal of `q_ln2` for the divide-free range reduction.
    r_ln2: Recip,
    /// `⌊b/s⌋` of the second-order polynomial `a(x+b)² + c` (I-POLY).
    q_b: i64,
    /// `⌊c/(a·s²)⌋` of the same polynomial.
    q_c: i64,
    /// Scale of the returned integer (`a·s²` of the exp polynomial).
    pub s_out: f64,
}

const EXP_A: f64 = 0.3585;
const EXP_B: f64 = 1.353;
const EXP_C: f64 = 0.344;

impl IExp {
    /// Prepares constants for inputs at scale `s_in`.
    ///
    /// # Panics
    ///
    /// Panics if `s_in` is not positive.
    pub fn new(s_in: f64) -> Self {
        assert!(s_in > 0.0, "IExp scale must be positive");
        let q_ln2 = (std::f64::consts::LN_2 / s_in).floor() as i64;
        let q_ln2 = q_ln2.max(1);
        let s_out = EXP_A * s_in * s_in;
        IExp {
            q_ln2,
            r_ln2: Recip::new(q_ln2 as u64),
            q_b: (EXP_B / s_in).floor() as i64,
            q_c: (EXP_C / s_out).floor() as i64,
            s_out,
        }
    }

    /// `exp(q·s_in)` for `q ≤ 0`, as an integer at scale [`IExp::s_out`].
    pub fn apply(&self, q: i64) -> i64 {
        debug_assert!(q <= 0, "IExp argument must be non-positive");
        let z = (self.r_ln2.div((-q) as u64) as i64).min(62);
        let p = q + z * self.q_ln2; // in (-ln2/s, 0]
        let l = (p + self.q_b) * (p + self.q_b) + self.q_c;
        (l.max(0)) >> z
    }
}

/// Integer softmax over attention-score rows (I-BERT §3.2).
///
/// Input: raw i32 GEMM accumulators at scale `s_in` (the `1/√P`
/// normalisation of Eq. 2 is folded into `s_in`, so no integer division by
/// `√P` happens at runtime). Output: int8 probabilities with parameters
/// `scale = 1/127, zero_point = 0`.
#[derive(Debug, Clone, Copy)]
pub struct ISoftmax {
    exp: IExp,
    /// The i-exp constants as SIMD lanes, when they fit 32 bits.
    lanes: Option<ExpLanes>,
}

impl ISoftmax {
    /// Output quantization parameters of the probabilities.
    pub const OUT_PARAMS: QParams = QParams {
        scale: 1.0 / 127.0,
        zero_point: 0,
    };

    /// Prepares constants for score accumulators at scale `s_in`.
    pub fn new(s_in: f64) -> Self {
        let exp = IExp::new(s_in);
        ISoftmax {
            exp,
            lanes: ExpLanes::new(exp.q_ln2, exp.q_b, exp.q_c),
        }
    }

    /// Applies softmax to one row of score accumulators, through the
    /// runtime-dispatched kernel table.
    pub fn apply_row(&self, scores: &[i32], out: &mut [i8]) {
        self.apply_row_with(bioformer_simd::kernels(), scores, out);
    }

    /// [`ISoftmax::apply_row`] on an explicitly chosen kernel table — the
    /// hook tier-parity tests use. The SIMD body is bit-identical to
    /// [`ISoftmax::apply_row_scalar`] and hands back to it when it
    /// declines a row.
    pub fn apply_row_with(&self, kernels: &Kernels, scores: &[i32], out: &mut [i8]) {
        debug_assert_eq!(scores.len(), out.len());
        if let (Some(body), Some(lanes)) = (kernels.softmax_row, &self.lanes) {
            if body(lanes, scores, out) {
                return;
            }
        }
        self.apply_row_scalar(scores, out);
    }

    /// The scalar operator: the portable tier and the oracle.
    ///
    /// Allocation-free: exponentials are staged on the stack for rows up
    /// to 128 wide (every attention row the Bioformer configs produce) and
    /// recomputed in the normalisation pass beyond that — [`IExp::apply`]
    /// is deterministic, so both strategies are bit-identical.
    pub fn apply_row_scalar(&self, scores: &[i32], out: &mut [i8]) {
        debug_assert_eq!(scores.len(), out.len());
        let max = scores.iter().copied().max().unwrap_or(0) as i64;
        let mut inline = [0i64; 128];
        let staged = scores.len() <= inline.len();
        let mut sum = 0i64;
        if staged {
            for (e, &s) in inline.iter_mut().zip(scores.iter()) {
                *e = self.exp.apply(s as i64 - max);
                sum += *e;
            }
        } else {
            for &s in scores {
                sum += self.exp.apply(s as i64 - max);
            }
        }
        if sum <= 0 {
            // Degenerate row: fall back to uniform.
            let u = (127 / scores.len().max(1)) as i8;
            out.fill(u);
            return;
        }
        // `e ≤ sum`, so `e·127` fits u64 comfortably; the shared
        // reciprocal replaces one hardware divide per element.
        let r_sum = Recip::new(sum as u64);
        if staged {
            for (o, &e) in out.iter_mut().zip(inline.iter()) {
                *o = (r_sum.div(e as u64 * 127) as i64).clamp(0, 127) as i8;
            }
        } else {
            for (o, &s) in out.iter_mut().zip(scores.iter()) {
                let e = self.exp.apply(s as i64 - max);
                *o = (r_sum.div(e as u64 * 127) as i64).clamp(0, 127) as i8;
            }
        }
    }
}

const ERF_A: f64 = -0.2888;
const ERF_B: f64 = -1.769;
const ERF_C: f64 = 1.0;

/// Integer GELU via the i-erf polynomial (I-BERT §3.3):
/// `GELU(x) ≈ x · ½(1 + erf(x/√2))`.
///
/// Input int8 at `s_in`; output int8 at caller-chosen parameters.
#[derive(Debug, Clone, Copy)]
pub struct IGelu {
    /// Clip bound for |q| in erf-argument units.
    q_clip: i64,
    /// `b` in erf-argument units.
    q_b: i64,
    /// `c` term of the polynomial.
    q_c: i64,
    /// `⌊1/|s_erf|⌋` — the integer representing 1.0 at the erf output scale.
    q_one: i64,
    /// Final requantization to the output activation grid.
    mult: FixedMultiplier,
    out_zp: i32,
}

impl IGelu {
    /// Prepares constants for int8 inputs at scale `s_in`, producing int8
    /// outputs at `out`.
    ///
    /// # Panics
    ///
    /// Panics if scales are not positive.
    pub fn new(s_in: f64, out: QParams) -> Self {
        assert!(
            s_in > 0.0 && out.scale > 0.0,
            "IGelu scales must be positive"
        );
        // erf argument x/√2 shares the integer value of x at scale s_in/√2.
        let s_erf_in = s_in / std::f64::consts::SQRT_2;
        let q_b = (ERF_B / s_erf_in).floor() as i64; // negative
        let q_c = (ERF_C / (ERF_A * s_erf_in * s_erf_in)).floor() as i64; // negative
        let s_l = ERF_A * s_erf_in * s_erf_in; // negative
        let q_one = (1.0 / s_l.abs()).floor() as i64;
        // gelu = x·(erf'+1)/2 at scale s_in·|s_l|/2 (erf' sign-normalised).
        let s_gelu = s_in * s_l.abs() / 2.0;
        IGelu {
            q_clip: (-q_b).max(1),
            q_b,
            q_c,
            q_one,
            mult: FixedMultiplier::encode(s_gelu / out.scale as f64),
            out_zp: out.zero_point,
        }
    }

    /// Integer erf at the prepared scale; returns a **sign-normalised**
    /// value `q'` such that `erf ≈ q' · |s_l|`.
    fn i_erf(&self, q: i64) -> i64 {
        let sign = if q < 0 { -1 } else { 1 };
        let qa = q.abs().min(self.q_clip);
        let l = (qa + self.q_b) * (qa + self.q_b) + self.q_c; // ≤ 0
                                                              // erf = sign · l · s_l; with s_l < 0: erf = sign · (−l) · |s_l|.
        sign * (-l)
    }

    /// GELU of every int8 code, indexed by the code's bit pattern
    /// (`table[q as u8]`) — what a converted model looks values up in
    /// instead of evaluating the polynomial per activation.
    pub fn table(&self) -> [i8; 256] {
        std::array::from_fn(|code| self.apply(code as u8 as i8))
    }

    /// GELU of one int8 value.
    pub fn apply(&self, q: i8) -> i8 {
        let q = q as i64;
        let erf = self.i_erf(q);
        // acc = q·(1 + erf) in integer units: scale s_in·|s_l|, i.e. 2×s_gelu.
        // The ÷2 of the GELU formula is folded into `mult` via s_gelu.
        let acc = q * (erf + self.q_one);
        let acc32 = acc.clamp(i32::MIN as i64, i32::MAX as i64) as i32;
        ((self.mult.apply(acc32) + self.out_zp).clamp(-128, 127)) as i8
    }
}

/// Integer LayerNorm (I-BERT §3.4): per-row mean/variance in integers,
/// `i_sqrt` for the standard deviation, fixed-point normalisation, then an
/// affine `γ, β` and requantization.
#[derive(Debug, Clone)]
pub struct ILayerNorm {
    /// Per-feature γ quantized symmetrically.
    q_gamma: Vec<i32>,
    /// Per-feature β at scale `s_γ / 2^FBITS`.
    q_beta: Vec<i64>,
    /// `q_beta` narrowed for the SIMD lanes, when `γ·x̂ + β` provably
    /// fits i32 for every feature.
    beta_lanes: Option<Vec<i32>>,
    /// Requantization from `s_γ/2^FBITS` to the output grid.
    mult: FixedMultiplier,
    out_zp: i32,
}

/// Fraction bits of the normalised activation `x̂`.
const FBITS: u32 = LN_FBITS;

/// Largest `|γ·x̂|`: `|γ| ≤ 127`, `|x − mean| ≤ 255`, `std ≥ 1`.
const GAMMA_XHAT_MAX: i64 = 127 * (255 << FBITS);

impl ILayerNorm {
    /// Prepares an integer LayerNorm from fp32 affine parameters and the
    /// desired output quantization.
    ///
    /// # Panics
    ///
    /// Panics if `gamma`/`beta` lengths differ.
    pub fn new(gamma: &[f32], beta: &[f32], out: QParams) -> Self {
        assert_eq!(gamma.len(), beta.len(), "gamma/beta length mismatch");
        let absmax = gamma.iter().fold(0.0f32, |m, v| m.max(v.abs())).max(1e-8);
        let s_gamma = (absmax / 127.0) as f64;
        let q_gamma = gamma
            .iter()
            .map(|&g| ((g as f64 / s_gamma).round() as i32).clamp(-127, 127))
            .collect();
        let s_acc = s_gamma / (1u64 << FBITS) as f64;
        let q_beta: Vec<i64> = beta
            .iter()
            .map(|&b| (b as f64 / s_acc).round() as i64)
            .collect();
        let narrow = q_beta
            .iter()
            .all(|b| b.abs() <= i32::MAX as i64 - GAMMA_XHAT_MAX);
        ILayerNorm {
            q_gamma,
            beta_lanes: narrow.then(|| q_beta.iter().map(|&b| b as i32).collect()),
            q_beta,
            mult: FixedMultiplier::encode(s_acc / out.scale as f64),
            out_zp: out.zero_point,
        }
    }

    /// Feature width.
    pub fn width(&self) -> usize {
        self.q_gamma.len()
    }

    /// Integer mean (rounded to nearest) and standard deviation (`≥ 1`)
    /// of one row. The two reductions run in i32 over chunks short enough
    /// that neither can overflow (`4096·255² < 2^31`) — exact, and narrow
    /// enough for the compiler to vectorize — and are widened per chunk.
    fn moments(row: &[i8]) -> (i64, i64) {
        const CHUNK: usize = 4096;
        let n = row.len() as i64;
        let sum: i64 = row
            .chunks(CHUNK)
            .map(|c| c.iter().map(|&v| v as i32).sum::<i32>() as i64)
            .sum();
        // Round-to-nearest mean keeps the centering unbiased.
        let mean = (2 * sum + n) / (2 * n);
        let centre = mean as i32;
        let mut var: i64 = row
            .chunks(CHUNK)
            .map(|c| {
                let squares = c.iter().map(|&v| {
                    let d = v as i32 - centre;
                    d * d
                });
                squares.sum::<i32>() as i64
            })
            .sum();
        var /= n;
        (mean, i_sqrt(var).max(1))
    }

    /// Normalises one row of int8 activations (the input zero-point and
    /// scale cancel inside the normalisation, so only raw codes are
    /// needed), through the runtime-dispatched kernel table.
    pub fn apply_row(&self, row: &[i8], out: &mut [i8]) {
        self.apply_row_with(bioformer_simd::kernels(), row, out);
    }

    /// [`ILayerNorm::apply_row`] on an explicitly chosen kernel table —
    /// the hook tier-parity tests use. The mean and deviation are always
    /// reduced in scalar integers; the SIMD lanes take the leading whole
    /// vectors of the element pass and the scalar loop the remainder, both
    /// bit-identical to [`ILayerNorm::apply_row_scalar`].
    pub fn apply_row_with(&self, kernels: &Kernels, row: &[i8], out: &mut [i8]) {
        debug_assert_eq!(row.len(), self.q_gamma.len());
        let (mean, std) = Self::moments(row);
        let done = match (kernels.layernorm_row, &self.beta_lanes) {
            (Some(body), Some(beta)) => {
                let lanes = NormLanes {
                    gamma: &self.q_gamma,
                    beta,
                    rq: self.mult.requant(self.out_zp),
                };
                body(&lanes, mean as i32, std as i32, row, out)
            }
            _ => 0,
        };
        self.finish_row(mean, std, done, row, out);
    }

    /// The scalar operator: the portable tier and the oracle.
    pub fn apply_row_scalar(&self, row: &[i8], out: &mut [i8]) {
        debug_assert_eq!(row.len(), self.q_gamma.len());
        let (mean, std) = Self::moments(row);
        self.finish_row(mean, std, 0, row, out);
    }

    /// The scalar element pass over features `from..`.
    fn finish_row(&self, mean: i64, std: i64, from: usize, row: &[i8], out: &mut [i8]) {
        // One reciprocal per row replaces a hardware divide per element;
        // signed truncating division is recovered via |c| and the sign.
        let r_std = Recip::new(std as u64);
        for (i, (&v, o)) in row.iter().zip(out.iter_mut()).enumerate().skip(from) {
            let c = v as i64 - mean;
            // scale 2^-FBITS, dimensionless; == (c << FBITS) / std
            let xhat = r_std.div(c.unsigned_abs() << FBITS) as i64 * c.signum();
            let acc = self.q_gamma[i] as i64 * xhat + self.q_beta[i];
            let acc32 = acc.clamp(i32::MIN as i64, i32::MAX as i64) as i32;
            *o = ((self.mult.apply(acc32) + self.out_zp).clamp(-128, 127)) as i8;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn i_sqrt_exact_squares_and_floors() {
        for n in 0..2000i64 {
            let r = i_sqrt(n);
            assert!(r * r <= n && (r + 1) * (r + 1) > n, "i_sqrt({n}) = {r}");
        }
        assert_eq!(i_sqrt(1 << 40), 1 << 20);
    }

    #[test]
    fn i_exp_tracks_float_exp() {
        let s = 1e-3f64;
        let exp = IExp::new(s);
        for q in [-5000i64, -2000, -800, -100, -10, 0] {
            let x = q as f64 * s;
            let got = exp.apply(q) as f64 * exp.s_out;
            let want = x.exp();
            assert!(
                (got - want).abs() < 0.02,
                "exp({x}): got {got}, want {want}"
            );
        }
    }

    #[test]
    fn i_softmax_close_to_float() {
        let s = 2e-3f64;
        let sm = ISoftmax::new(s);
        let scores_f = [1.2f64, 0.3, -0.5, 0.9, -2.0];
        let scores_q: Vec<i32> = scores_f.iter().map(|&x| (x / s).round() as i32).collect();
        let mut out = vec![0i8; 5];
        sm.apply_row(&scores_q, &mut out);
        // Float softmax reference.
        let max = scores_f.iter().cloned().fold(f64::MIN, f64::max);
        let exps: Vec<f64> = scores_f.iter().map(|&x| (x - max).exp()).collect();
        let sum: f64 = exps.iter().sum();
        for i in 0..5 {
            let got = out[i] as f64 / 127.0;
            let want = exps[i] / sum;
            assert!(
                (got - want).abs() < 0.03,
                "softmax[{i}]: got {got}, want {want}"
            );
        }
    }

    #[test]
    fn i_softmax_rows_sum_near_one() {
        let sm = ISoftmax::new(1e-3);
        let scores: Vec<i32> = vec![100, -500, 700, 0, 350, -2000, 120, 80];
        let mut out = vec![0i8; scores.len()];
        sm.apply_row(&scores, &mut out);
        let total: i32 = out.iter().map(|&v| v as i32).sum();
        assert!(
            (110..=130).contains(&total),
            "softmax row sums to {total}/127"
        );
    }

    #[test]
    fn i_softmax_degenerate_row_uniform() {
        let sm = ISoftmax::new(1e-3);
        // Extremely negative scores underflow to 0 exp; ensure no panic.
        let scores = vec![i32::MIN / 4; 4];
        let mut out = vec![0i8; 4];
        sm.apply_row(&scores, &mut out);
        assert!(out.iter().all(|&v| v >= 0));
    }

    #[test]
    fn i_gelu_tracks_float_gelu() {
        let s_in = 4.0 / 127.0; // int8 covering ±4
        let out = QParams::symmetric(4.0);
        let g = IGelu::new(s_in as f64, out);
        for q in (-127..=127).step_by(3) {
            let x = q as f32 * s_in;
            let got = out.dequantize(g.apply(q as i8));
            let want = bioformer_tensor::ops::gelu(x);
            assert!(
                (got - want).abs() < 0.08,
                "gelu({x}): got {got}, want {want}"
            );
        }
    }

    #[test]
    fn i_layernorm_tracks_float_layernorm() {
        let width = 16;
        let gamma: Vec<f32> = (0..width).map(|i| 0.8 + 0.03 * i as f32).collect();
        let beta: Vec<f32> = (0..width).map(|i| -0.2 + 0.02 * i as f32).collect();
        let out = QParams::symmetric(4.0);
        let ln = ILayerNorm::new(&gamma, &beta, out);

        // Random-ish int8 row.
        let row: Vec<i8> = (0..width)
            .map(|i| ((i * 37 + 11) % 256) as i32 as u8 as i8)
            .collect();
        let mut qout = vec![0i8; width];
        ln.apply_row(&row, &mut qout);

        // Float reference on the dequantized row (scale arbitrary: LN is
        // scale-invariant, so use raw codes directly).
        let vals: Vec<f32> = row.iter().map(|&v| v as f32).collect();
        let mean: f32 = vals.iter().sum::<f32>() / width as f32;
        let var: f32 = vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / width as f32;
        let std = var.sqrt().max(1e-6);
        for i in 0..width {
            let want = gamma[i] * (vals[i] - mean) / std + beta[i];
            let got = out.dequantize(qout[i]);
            assert!((got - want).abs() < 0.12, "ln[{i}]: got {got}, want {want}");
        }
    }

    #[test]
    fn i_layernorm_constant_row_is_finite() {
        let ln = ILayerNorm::new(&[1.0; 8], &[0.0; 8], QParams::symmetric(2.0));
        let row = [42i8; 8];
        let mut out = [0i8; 8];
        ln.apply_row(&row, &mut out);
        // x̂ = 0 everywhere → output ≈ β = 0.
        assert!(out.iter().all(|&v| v.abs() <= 1), "{out:?}");
    }
}
