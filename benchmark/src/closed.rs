//! The closed-loop workloads: one caller whose next operation starts when
//! the previous one returns.

use crate::host::now_ns;
use crate::measure::{checksum, Measured, Slicer};
use crate::sut::{Classifier, Fixture, Precision, Signal, Topology, WINDOW_LEN};
use crate::trace::SpanLog;
use crate::workload::{shuffled, Running};
use std::sync::Arc;

/// Length of the discarded warm-up that ends a closed loop's set-up.
const WARM_UP_NS: u64 = 500_000_000;

fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn bits(values: &[f32]) -> impl Iterator<Item = u64> + '_ {
    values.iter().map(|v| v.to_bits() as u64)
}

/// `solo_int8` / `solo_fp32`: one `[1, 14, 300]` window per `classify`
/// over an inline engine, cycling through every held-out window in a
/// seed-shuffled order so that inputs arrive cache-cold (448 windows of
/// 16.8 kB are 7.5 MB, more than the 4 MB second-level cache here).
pub struct Solo {
    engine: Classifier,
    windows: Vec<f32>,
    expected: Vec<f32>,
    order: Vec<usize>,
    classes: usize,
    cursor: usize,
}

/// A decision must come before the next window is due: one 15 ms slide.
const SOLO_LIMIT_NS: u64 = 15_000_000;

impl Solo {
    pub fn start(
        fixture: &Fixture,
        precision: Precision,
        seed: u64,
        log: Option<&Arc<SpanLog>>,
    ) -> Solo {
        let windows = fixture.eval_windows();
        let count = windows.len() / WINDOW_LEN;
        assert!(count >= 256, "only {count} distinct windows");
        Solo {
            engine: Classifier::start(fixture, Topology::Inline, precision, log),
            expected: fixture.reference(precision, windows.clone()),
            windows,
            order: shuffled(count, seed),
            classes: fixture.classes(),
            cursor: 0,
        }
    }

    /// Runs operations for `duration_ns`, feeding each into `record` as
    /// `(end, latency, correct)`.
    fn drive(&mut self, duration_ns: u64, mut record: impl FnMut(u64, u64, bool)) {
        let until = now_ns() + duration_ns;
        loop {
            let at = self.order[self.cursor % self.order.len()];
            self.cursor += 1;
            // The engine takes ownership of its input, so the copy is
            // made before the clock starts.
            let window = self.windows[at * WINDOW_LEN..(at + 1) * WINDOW_LEN].to_vec();
            let start = now_ns();
            let answer = self.engine.classify(window);
            let end = now_ns();
            let want = &self.expected[at * self.classes..(at + 1) * self.classes];
            let correct = answer.is_ok_and(|logits| same_bits(&logits, want));
            record(end, end - start, correct);
            if end >= until {
                return;
            }
        }
    }
}

impl Running for Solo {
    fn warm_up(&mut self) {
        self.drive(WARM_UP_NS, |_, _, _| {});
    }

    fn measure(&mut self, seconds: f64) -> Measured {
        let mut slicer = Slicer::start(8192);
        let (mut attempted, mut failed, mut late) = (0u64, 0u64, 0u64);
        self.drive((seconds * 1e9) as u64, |end, latency, correct| {
            attempted += 1;
            failed += u64::from(!correct);
            late += u64::from(correct && latency > SOLO_LIMIT_NS);
            slicer.record(end, latency, 1);
        });
        Measured {
            attempted,
            failed,
            late,
            // Every distinct input's answer was compared with the
            // reference each time it came round, so the reference's hash
            // is the outputs' hash whenever nothing failed.
            checksum: checksum(bits(&self.expected)),
            ..slicer.finish()
        }
    }

    fn stop(self: Box<Self>) {}
}

/// `offline_b32`: one operation is one session recording through
/// `extract_all_into` + `Normalizer` + `InferenceEngine` with micro-batch
/// 32, first in fp32 and then in int8. Both precisions are one operation
/// (the issue text alternates them) so that the latency distribution has
/// one mode; with two, the median would sit on the edge between them.
pub struct Offline {
    fp32: Classifier,
    int8: Classifier,
    recordings: Vec<Signal>,
    /// Reference logits per recording, fp32 then int8.
    expected: Vec<[Vec<f32>; 2]>,
    order: Vec<usize>,
    slide: usize,
    cursor: usize,
    fixture: Arc<Fixture>,
}

impl Offline {
    pub fn start(fixture: &Arc<Fixture>, seed: u64, log: Option<&Arc<SpanLog>>) -> Offline {
        let recordings = fixture.recordings();
        let slide = fixture.dataset_slide();
        let expected = recordings
            .iter()
            .map(|r| {
                let windows = fixture.offline_windows(r, slide);
                [
                    fixture.reference(Precision::Fp32, windows.clone()),
                    fixture.reference(Precision::Int8, windows),
                ]
            })
            .collect();
        Offline {
            fp32: Classifier::start(fixture, Topology::Inline, Precision::Fp32, log),
            int8: Classifier::start(fixture, Topology::Inline, Precision::Int8, log),
            order: shuffled(recordings.len(), seed),
            recordings,
            expected,
            slide,
            cursor: 0,
            fixture: Arc::clone(fixture),
        }
    }

    fn drive(&mut self, duration_ns: u64, mut record: impl FnMut(u64, u64, u64, bool)) {
        let until = now_ns() + duration_ns;
        loop {
            let at = self.order[self.cursor % self.order.len()];
            self.cursor += 1;
            let start = now_ns();
            let windows = self
                .fixture
                .offline_windows(&self.recordings[at], self.slide);
            let count = (windows.len() / WINDOW_LEN) as u64;
            let a = self.fp32.classify(windows.clone());
            let b = self.int8.classify(windows);
            let end = now_ns();
            let [want_a, want_b] = &self.expected[at];
            let correct =
                a.is_ok_and(|l| same_bits(&l, want_a)) && b.is_ok_and(|l| same_bits(&l, want_b));
            record(end, end - start, 2 * count, correct);
            if end >= until {
                return;
            }
        }
    }
}

impl Running for Offline {
    fn warm_up(&mut self) {
        self.drive(WARM_UP_NS, |_, _, _, _| {});
    }

    fn measure(&mut self, seconds: f64) -> Measured {
        let mut slicer = Slicer::start(64);
        let (mut attempted, mut failed) = (0u64, 0u64);
        self.drive((seconds * 1e9) as u64, |end, latency, windows, correct| {
            attempted += 1;
            failed += u64::from(!correct);
            slicer.record(end, latency, windows);
        });
        Measured {
            attempted,
            failed,
            checksum: checksum(self.expected.iter().flatten().flat_map(|l| bits(l))),
            ..slicer.finish()
        }
    }

    fn stop(self: Box<Self>) {}
}
