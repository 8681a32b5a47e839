//! Dataset generation parameters.

use crate::{SAMPLE_RATE, WINDOW};

/// Parameters controlling synthetic DB6 generation.
///
/// [`DatasetSpec::paper`] mirrors the acquisition protocol of the real
/// dataset; because training a transformer on ~3.8 M windows is infeasible
/// on CPU, [`DatasetSpec::default`] produces a scaled-down set (shorter
/// repetitions, larger window slide) preserving the protocol structure, and
/// [`DatasetSpec::tiny`] is a seconds-scale configuration for unit tests.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetSpec {
    /// Number of subjects (paper: 10).
    pub subjects: usize,
    /// Recording sessions per subject (paper: 10, over 5 days).
    pub sessions: usize,
    /// Gesture repetitions per session (paper: 12).
    pub reps_per_gesture: usize,
    /// Duration of one gesture repetition in seconds (paper: ≈6 s).
    pub rep_duration_s: f32,
    /// Window slide in samples (paper: 30 = 15 ms).
    pub slide: usize,
    /// Master seed; all generated signals are deterministic in it.
    pub seed: u64,

    // ---- difficulty calibration knobs ----
    // Hand-set, not fitted: the real DB6 recordings cannot be
    // redistributed, so these only set how hard the synthetic corpus is
    // (the paper's fp32 ceiling is ≈66 %).
    /// Std-dev of the per-session mixing-matrix random walk. Drives the
    /// accuracy decay across test sessions (Fig. 2).
    pub session_drift: f32,
    /// Std-dev of the per-session multiplicative channel-gain walk.
    pub gain_drift: f32,
    /// Additive white sensor-noise std-dev (relative to unit carrier RMS).
    pub sensor_noise: f32,
    /// Std-dev of per-subject perturbation of the base mixing matrix.
    pub subject_variability: f32,
    /// Std-dev of per-subject perturbation of the synergy vectors.
    pub style_variability: f32,
    /// Range half-width of the per-subject difficulty multiplier: subject
    /// noise/drift is scaled by `1 ± difficulty_spread` (uniform). Creates
    /// the strong/weak-subject split visible in Fig. 3.
    pub difficulty_spread: f32,
}

impl Default for DatasetSpec {
    /// Scaled-down default used by the experiment harnesses in `--quick`
    /// mode: full 10×10 protocol shape, ~1 s repetitions, 75 ms slide.
    fn default() -> Self {
        DatasetSpec {
            subjects: 10,
            sessions: 10,
            reps_per_gesture: 3,
            rep_duration_s: 1.0,
            slide: 150,
            seed: 0xD86_2022,
            session_drift: 0.055,
            gain_drift: 0.045,
            sensor_noise: 0.45,
            subject_variability: 0.35,
            style_variability: 0.085,
            difficulty_spread: 0.55,
        }
    }
}

impl DatasetSpec {
    /// The real DB6 acquisition protocol (10 subjects, 10 sessions, 12
    /// repetitions of ~6 s, 15 ms slide). **Enormous** — only use for
    /// `--full` runs with hours of budget.
    pub fn paper() -> Self {
        DatasetSpec {
            reps_per_gesture: 12,
            rep_duration_s: 6.0,
            slide: 30,
            ..DatasetSpec::default()
        }
    }

    /// Seconds-scale configuration for unit and integration tests:
    /// 2 subjects × 4 sessions, 2 short repetitions.
    pub fn tiny() -> Self {
        DatasetSpec {
            subjects: 2,
            sessions: 4,
            reps_per_gesture: 2,
            rep_duration_s: 0.6,
            slide: 150,
            ..DatasetSpec::default()
        }
    }

    /// Samples in one repetition.
    pub fn rep_samples(&self) -> usize {
        (self.rep_duration_s * SAMPLE_RATE as f32).round() as usize
    }

    /// Windows extracted from one repetition.
    pub fn windows_per_rep(&self) -> usize {
        let t = self.rep_samples();
        if t < WINDOW {
            0
        } else {
            (t - WINDOW) / self.slide + 1
        }
    }

    /// Windows in one (subject, session) recording
    /// (`gestures × reps × windows_per_rep`).
    pub fn windows_per_session(&self) -> usize {
        crate::GESTURE_CLASSES * self.reps_per_gesture * self.windows_per_rep()
    }

    /// Sessions used for training in the paper's sequential protocol
    /// (first half: sessions 1–5 of 10, i.e. indices `0..5`).
    pub fn train_sessions(&self) -> Vec<usize> {
        (0..self.sessions / 2).collect()
    }

    /// Sessions held out for testing (second half: indices `5..10`).
    pub fn test_sessions(&self) -> Vec<usize> {
        (self.sessions / 2..self.sessions).collect()
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.subjects == 0 {
            return Err("subjects must be > 0".into());
        }
        if self.sessions < 2 {
            return Err("sessions must be >= 2 (need train and test)".into());
        }
        if self.reps_per_gesture == 0 {
            return Err("reps_per_gesture must be > 0".into());
        }
        if self.rep_samples() < WINDOW {
            return Err(format!(
                "rep_duration too short: {} samples < window {}",
                self.rep_samples(),
                WINDOW
            ));
        }
        if self.slide == 0 {
            return Err("slide must be > 0".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        DatasetSpec::default().validate().unwrap();
        DatasetSpec::paper().validate().unwrap();
        DatasetSpec::tiny().validate().unwrap();
    }

    #[test]
    fn paper_window_counts() {
        let p = DatasetSpec::paper();
        assert_eq!(p.rep_samples(), 12_000);
        // (12000-300)/30+1 = 391 windows per 6 s repetition
        assert_eq!(p.windows_per_rep(), 391);
    }

    #[test]
    fn default_window_counts() {
        let d = DatasetSpec::default();
        assert_eq!(d.rep_samples(), 2000);
        assert_eq!(d.windows_per_rep(), 12);
        assert_eq!(d.windows_per_session(), 8 * 3 * 12);
    }

    #[test]
    fn session_split_halves() {
        let d = DatasetSpec::default();
        assert_eq!(d.train_sessions(), vec![0, 1, 2, 3, 4]);
        assert_eq!(d.test_sessions(), vec![5, 6, 7, 8, 9]);
    }

    #[test]
    fn validation_catches_bad_specs() {
        let mut s = DatasetSpec::tiny();
        s.rep_duration_s = 0.05;
        assert!(s.validate().is_err());
        let mut s2 = DatasetSpec::tiny();
        s2.sessions = 1;
        assert!(s2.validate().is_err());
        let mut s3 = DatasetSpec::tiny();
        s3.slide = 0;
        assert!(s3.validate().is_err());
    }
}
