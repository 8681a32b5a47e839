//! Fixed-point requantization (gemmlowp style).
//!
//! Integer kernels accumulate in i32 at scale `s_in = s_a · s_w`; the
//! result must be rescaled to the next layer's activation scale `s_out`.
//! The real multiplier `M = s_in / s_out` is encoded once, offline, as a
//! normalised int32 mantissa and a right-shift; on the hot path only i64
//! multiply + rounding shift are used — exactly what ships on the MCU.
//!
//! The implementation lives in [`bioformer_tensor::qgemm`], because the
//! fused-requantize GEMM drivers there need it below this crate; this
//! module re-exports it, so there is exactly one definition and the
//! bit-exactness contract cannot fork.

pub use bioformer_tensor::qgemm::FixedMultiplier;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_roundtrip_accuracy() {
        for &m in &[0.5f64, 0.1, 0.0123, 0.7734, 1.0, 3.7, 1e-4] {
            let f = FixedMultiplier::encode(m);
            let rel = (f.to_real() - m).abs() / m;
            assert!(rel < 1e-6, "m={m} encoded as {} (rel {rel})", f.to_real());
        }
    }

    #[test]
    fn mantissa_is_normalised() {
        for &m in &[0.3f64, 0.003, 2.5] {
            let f = FixedMultiplier::encode(m);
            assert!(f.mantissa >= (1 << 30), "mantissa {}", f.mantissa);
        }
    }

    #[test]
    fn apply_matches_float_mul() {
        for &m in &[0.5f64, 0.1, 0.0123, 0.9999] {
            let f = FixedMultiplier::encode(m);
            for &acc in &[0i32, 1, -1, 100, -100, 10_000, -32_000, 1_000_000] {
                let got = f.apply(acc);
                let want = (acc as f64 * m).round() as i32;
                assert!(
                    (got - want).abs() <= 1,
                    "m={m} acc={acc}: got {got}, want {want}"
                );
            }
        }
    }

    #[test]
    fn requantize_saturates() {
        let f = FixedMultiplier::encode(1.0);
        assert_eq!(f.requantize_to_i8(1_000_000, 0), 127);
        assert_eq!(f.requantize_to_i8(-1_000_000, 0), -128);
    }

    #[test]
    fn zero_point_applied_after_scaling() {
        let f = FixedMultiplier::encode(0.5);
        assert_eq!(f.requantize_to_i8(10, 3), 8); // 10*0.5 + 3
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_multiplier() {
        FixedMultiplier::encode(0.0);
    }
}
