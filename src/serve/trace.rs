//! Decision-latency tracing: the per-stage breakdown of what a user
//! actually feels — sample arrival → emitted [`GestureEvent`].
//!
//! The serving stack already measures per-micro-batch *compute* time
//! ([`LatencyStats`]), but a streamed gesture decision spends time in four
//! places, and only one of them is the backend:
//!
//! ```text
//!  samples arrive      window full      batch starts     batch done
//!       │  buffering       │  queueing       │  compute       │  smoothing
//!       ▼──────────────────▼─────────────────▼────────────────▼────────────▶
//!                                                              GestureEvent
//! ```
//!
//! * **buffering** — samples waiting for enough new frames to complete the
//!   next window (scales with the stream's `slide`);
//! * **queueing** — window submitted → prediction absorbed, less the
//!   compute stage (engine queue wait: linger, backlog, busy workers; then
//!   the served response waiting for its session to take it);
//! * **compute** — the coalesced batch's backend execution;
//! * **smoothing** — decision available → debounced emission (the majority
//!   vote / min-hold delay, plus any lookahead pipelining).
//!
//! [`StreamSession`](super::StreamSession) records one [`LatencyTrace`] per
//! emitted event into a [`StageRecorder`] — fixed-capacity rings, so the
//! steady-state record path performs **zero heap allocations**
//! (`tests/arena_alloc.rs` proves it with a counting global allocator) —
//! and [`StreamServer`](super::StreamServer) rolls per-session traces into
//! a per-server recorder surfaced through
//! [`ServerStats`](super::ServerStats) and the gateway `Stats` frame.
//! [`LatencyBudget`] turns a [`StageSummary`] into an actionable verdict
//! against a UX target (e.g. 100 ms): which stage blows the budget and
//! which knob — `slide`, linger/workers, precision, `vote_depth` /
//! `lookahead` — would make it fit.
//!
//! [`GestureEvent`]: super::GestureEvent
//! [`LatencyStats`]: super::LatencyStats

use std::fmt;
use std::time::Duration;

/// Default number of recent traces a [`StageRecorder`] retains per stage.
/// Percentiles are estimated over this sliding window (like the engines'
/// `LATENCY_WINDOW`), so a long-lived session's memory stays constant.
pub const DEFAULT_TRACE_WINDOW: usize = 1024;

/// The per-stage latency breakdown of one emitted gesture event: how long
/// the decision spent in each pipeline stage on its way from raw samples
/// to a debounced [`GestureEvent`](super::GestureEvent).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencyTrace {
    /// Samples waiting for the triggering window to fill (window cadence).
    pub buffering: Duration,
    /// Triggering window's submit → absorption into the decision layer,
    /// less `compute`: the wait before the backend and the wait after it.
    pub queueing: Duration,
    /// Triggering window's coalesced-batch backend execution.
    pub compute: Duration,
    /// Decision available → event emitted (vote/debounce delay; measured
    /// from the earliest supporting vote's absorption for `Started`).
    pub smoothing: Duration,
}

impl LatencyTrace {
    /// Total sample-to-event latency: the sum of all four stages.
    pub fn total(&self) -> Duration {
        self.buffering + self.queueing + self.compute + self.smoothing
    }
}

/// Percentile summary of one pipeline stage over recent traces.
///
/// `count` is exact over the recorder's lifetime; the percentiles are
/// estimated over the recorder's sliding window using the same
/// nearest-rank rule as [`LatencyStats`](super::LatencyStats)
/// (`ceil(n·q) − 1` on the sorted samples).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageStats {
    /// Traces recorded (lifetime; the percentile window may be smaller).
    pub count: u64,
    /// Median stage latency.
    pub p50: Duration,
    /// 95th-percentile stage latency.
    pub p95: Duration,
    /// 99th-percentile stage latency.
    pub p99: Duration,
}

/// Per-stage percentile rollup of the decision-latency pipeline: one
/// [`StageStats`] per stage, in pipeline order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageSummary {
    /// Samples waiting for a full window.
    pub buffering: StageStats,
    /// Window submission → absorption, less compute.
    pub queueing: StageStats,
    /// Coalesced-batch backend execution.
    pub compute: StageStats,
    /// Decision → debounced emission.
    pub smoothing: StageStats,
}

impl StageSummary {
    /// The stages in pipeline order, with their names — for display,
    /// budget analysis, and wire encoding.
    pub fn stages(&self) -> [(&'static str, StageStats); 4] {
        [
            ("buffering", self.buffering),
            ("queueing", self.queueing),
            ("compute", self.compute),
            ("smoothing", self.smoothing),
        ]
    }

    /// Traces summarised (every stage records once per trace).
    pub fn count(&self) -> u64 {
        self.buffering.count
    }

    /// Sum of the four stages' p99s: a conservative upper bound on the
    /// end-to-end p99 (stages are positively correlated at worst).
    pub fn total_p99(&self) -> Duration {
        self.buffering.p99 + self.queueing.p99 + self.compute.p99 + self.smoothing.p99
    }

    /// Sum of the four stages' p50s: a typical end-to-end latency.
    pub fn total_p50(&self) -> Duration {
        self.buffering.p50 + self.queueing.p50 + self.compute.p50 + self.smoothing.p50
    }
}

impl fmt::Display for StageSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} traces:", self.count())?;
        for (name, s) in self.stages() {
            write!(
                f,
                " {name} p50={:.1?}/p95={:.1?}/p99={:.1?}",
                s.p50, s.p95, s.p99
            )?;
        }
        Ok(())
    }
}

/// Fixed-capacity recorder of [`LatencyTrace`]s with per-stage percentile
/// summaries.
///
/// [`StageRecorder::record`] writes into preallocated rings and touches no
/// allocator — the invariant the streaming hot path relies on (and
/// `tests/arena_alloc.rs` pins). [`StageRecorder::summary`] copies the
/// rings into scratch buffers to sort; it is a reporting call and may
/// allocate freely.
#[derive(Debug, Clone)]
pub struct StageRecorder {
    /// One ring per stage, nanosecond samples, in pipeline order.
    rings: [Vec<u64>; 4],
    /// Next ring slot to overwrite once the rings are full.
    next: usize,
    /// Samples currently held (≤ window).
    len: usize,
    /// Ring capacity.
    window: usize,
    /// Lifetime trace count.
    count: u64,
}

impl StageRecorder {
    /// A recorder retaining the most recent [`DEFAULT_TRACE_WINDOW`]
    /// traces for percentile estimation.
    pub fn new() -> Self {
        StageRecorder::with_window(DEFAULT_TRACE_WINDOW)
    }

    /// A recorder with an explicit sliding-window capacity (≥ 1). All
    /// ring storage is allocated here, up front — never on `record`.
    pub fn with_window(window: usize) -> Self {
        let window = window.max(1);
        StageRecorder {
            rings: std::array::from_fn(|_| vec![0u64; window]),
            next: 0,
            len: 0,
            window,
            count: 0,
        }
    }

    /// Records one trace. Zero heap allocations: four ring writes.
    pub fn record(&mut self, trace: LatencyTrace) {
        let stages = [
            trace.buffering,
            trace.queueing,
            trace.compute,
            trace.smoothing,
        ];
        for (ring, d) in self.rings.iter_mut().zip(stages) {
            ring[self.next] = d.as_nanos().min(u64::MAX as u128) as u64;
        }
        self.next = (self.next + 1) % self.window;
        self.len = (self.len + 1).min(self.window);
        self.count += 1;
    }

    /// Traces recorded over the recorder's lifetime.
    pub fn recorded(&self) -> u64 {
        self.count
    }

    /// True if nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Per-stage percentile summary over the sliding window. Reporting
    /// path: copies and sorts each ring (allocates; not the hot path).
    pub fn summary(&self) -> StageSummary {
        let stats = |ring: &Vec<u64>| -> StageStats {
            if self.len == 0 {
                return StageStats::default();
            }
            let mut samples: Vec<u64> = ring[..self.len].to_vec();
            samples.sort_unstable();
            let pct = |q: f64| {
                // Nearest-rank: the ceil(n·q)-th smallest, 1-indexed —
                // the same rule as `LatencyStats::from_samples`.
                let n = samples.len();
                let rank = ((n as f64) * q).ceil() as usize;
                Duration::from_nanos(samples[rank.saturating_sub(1).min(n - 1)])
            };
            StageStats {
                count: self.count,
                p50: pct(0.50),
                p95: pct(0.95),
                p99: pct(0.99),
            }
        };
        StageSummary {
            buffering: stats(&self.rings[0]),
            queueing: stats(&self.rings[1]),
            compute: stats(&self.rings[2]),
            smoothing: stats(&self.rings[3]),
        }
    }
}

impl Default for StageRecorder {
    fn default() -> Self {
        StageRecorder::new()
    }
}

/// A decision-latency budget: turns a [`StageSummary`] into a verdict
/// against a UX target and names the knob to turn.
///
/// ```
/// use bioformers::serve::trace::{LatencyBudget, StageRecorder, LatencyTrace};
/// use std::time::Duration;
///
/// let mut rec = StageRecorder::new();
/// rec.record(LatencyTrace {
///     buffering: Duration::from_millis(60),
///     queueing: Duration::from_millis(2),
///     compute: Duration::from_millis(55),
///     smoothing: Duration::from_millis(10),
/// });
/// let report = LatencyBudget::new(Duration::from_millis(100)).evaluate(&rec.summary());
/// assert!(!report.fits);
/// assert_eq!(report.worst, Some("buffering"));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyBudget {
    target: Duration,
}

/// The verdict of [`LatencyBudget::evaluate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BudgetReport {
    /// The end-to-end target evaluated against.
    pub target: Duration,
    /// Conservative end-to-end p99: the sum of the stage p99s.
    pub p99_total: Duration,
    /// Whether `p99_total` fits inside `target`.
    pub fits: bool,
    /// The stage with the largest p99 (`None` before any trace).
    pub worst: Option<&'static str>,
    /// One knob suggestion per over-budget stage, worst first. Empty when
    /// the budget fits.
    pub advice: Vec<String>,
}

impl fmt::Display for BudgetReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.fits {
            write!(
                f,
                "p99 {:.1?} fits the {:.1?} budget",
                self.p99_total, self.target
            )
        } else {
            write!(
                f,
                "p99 {:.1?} blows the {:.1?} budget",
                self.p99_total, self.target
            )?;
            for line in &self.advice {
                write!(f, "\n  - {line}")?;
            }
            Ok(())
        }
    }
}

impl LatencyBudget {
    /// A budget with an end-to-end decision-latency target.
    pub fn new(target: Duration) -> Self {
        LatencyBudget { target }
    }

    /// The target this budget evaluates against.
    pub fn target(&self) -> Duration {
        self.target
    }

    /// Evaluates `stages` against the target: the summed stage p99s must
    /// fit. When they don't, every stage exceeding an equal share of the
    /// target gets a knob suggestion (the stages are independent knobs:
    /// `slide` for buffering, linger/workers for queueing, precision /
    /// `micro_batch` for compute, `vote_depth` / `lookahead` for
    /// smoothing), ordered worst first.
    pub fn evaluate(&self, stages: &StageSummary) -> BudgetReport {
        let p99_total = stages.total_p99();
        let fits = p99_total <= self.target;
        let named = stages.stages();
        let worst = named
            .iter()
            .filter(|(_, s)| s.count > 0)
            .max_by_key(|(_, s)| s.p99)
            .map(|(name, _)| *name);
        let mut advice = Vec::new();
        if !fits {
            // Equal-share heuristic: a stage is an offender once its p99
            // alone eats more than a quarter of the end-to-end target.
            let share = self.target / 4;
            let mut offenders: Vec<(&'static str, StageStats)> = named
                .iter()
                .copied()
                .filter(|(_, s)| s.p99 > share)
                .collect();
            offenders.sort_by_key(|(_, s)| std::cmp::Reverse(s.p99));
            for (name, s) in offenders {
                let over = format!("p99 {:.1?} > share {:.1?}", s.p99, share);
                advice.push(match name {
                    "buffering" => format!(
                        "buffering {over}: reduce the stream `slide` (window hop) — \
                         buffering tracks the hop interval, so a ~{:.1}× smaller hop \
                         would fit the share",
                        ratio(s.p99, share)
                    ),
                    "queueing" => format!(
                        "queueing {over}: reduce replica `linger` (or use adaptive \
                         linger), add workers, or add replicas — the engine queue is \
                         the bottleneck"
                    ),
                    "compute" => format!(
                        "compute {over}: route to an int8 replica, shrink the model, \
                         or lower `micro_batch` so batches finish sooner"
                    ),
                    _ => format!(
                        "smoothing {over}: lower `vote_depth`/`min_hold` (fewer \
                         windows per decision) and keep `lookahead` small"
                    ),
                });
            }
        }
        BudgetReport {
            target: self.target,
            p99_total,
            fits,
            worst,
            advice,
        }
    }
}

/// `a / b` as a float ratio, saturating at 1.0 from below.
fn ratio(a: Duration, b: Duration) -> f64 {
    if b.is_zero() {
        1.0
    } else {
        (a.as_secs_f64() / b.as_secs_f64()).max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn trace_total_sums_all_stages() {
        let t = LatencyTrace {
            buffering: ms(10),
            queueing: ms(20),
            compute: ms(30),
            smoothing: ms(40),
        };
        assert_eq!(t.total(), ms(100));
    }

    #[test]
    fn recorder_percentiles_use_nearest_rank_per_stage() {
        let mut rec = StageRecorder::new();
        // 100 traces: buffering 1..=100 ms, the rest constant.
        for i in 1..=100u64 {
            rec.record(LatencyTrace {
                buffering: ms(i),
                queueing: ms(5),
                compute: ms(7),
                smoothing: Duration::ZERO,
            });
        }
        let s = rec.summary();
        assert_eq!(s.count(), 100);
        // Nearest-rank over 1..=100: p50 -> 50th, p95 -> 95th, p99 -> 99th.
        assert_eq!(s.buffering.p50, ms(50));
        assert_eq!(s.buffering.p95, ms(95));
        assert_eq!(s.buffering.p99, ms(99));
        assert_eq!(s.queueing.p50, ms(5));
        assert_eq!(s.queueing.p99, ms(5));
        assert_eq!(s.compute.p95, ms(7));
        assert_eq!(s.smoothing.p99, Duration::ZERO);
        assert_eq!(s.total_p99(), ms(99 + 5 + 7));
    }

    #[test]
    fn recorder_window_slides_but_count_is_exact() {
        let mut rec = StageRecorder::with_window(4);
        for i in 1..=10u64 {
            rec.record(LatencyTrace {
                compute: ms(i),
                ..LatencyTrace::default()
            });
        }
        let s = rec.summary();
        // Lifetime count is exact; percentiles see only the last 4 samples
        // (7, 8, 9, 10 ms).
        assert_eq!(s.count(), 10);
        assert_eq!(s.compute.p50, ms(8));
        assert_eq!(s.compute.p99, ms(10));
    }

    #[test]
    fn empty_recorder_summarises_to_zeros() {
        let rec = StageRecorder::new();
        assert!(rec.is_empty());
        let s = rec.summary();
        assert_eq!(s, StageSummary::default());
        assert_eq!(s.count(), 0);
        assert_eq!(s.total_p99(), Duration::ZERO);
    }

    #[test]
    fn budget_fits_when_stage_p99s_sum_under_target() {
        let mut rec = StageRecorder::new();
        rec.record(LatencyTrace {
            buffering: ms(15),
            queueing: ms(1),
            compute: Duration::from_micros(300),
            smoothing: ms(30),
        });
        let report = LatencyBudget::new(ms(100)).evaluate(&rec.summary());
        assert!(report.fits);
        assert!(report.advice.is_empty());
        assert_eq!(report.worst, Some("smoothing"));
    }

    #[test]
    fn budget_names_the_offending_stage_and_knob() {
        let mut rec = StageRecorder::new();
        rec.record(LatencyTrace {
            buffering: ms(5),
            queueing: ms(2),
            compute: ms(120),
            smoothing: ms(10),
        });
        let report = LatencyBudget::new(ms(100)).evaluate(&rec.summary());
        assert!(!report.fits);
        assert_eq!(report.p99_total, ms(137));
        assert_eq!(report.worst, Some("compute"));
        assert_eq!(report.advice.len(), 1, "only compute exceeds target/4");
        assert!(report.advice[0].contains("int8"), "{}", report.advice[0]);
        let shown = format!("{report}");
        assert!(shown.contains("blows"), "{shown}");
    }

    #[test]
    fn budget_orders_multiple_offenders_worst_first() {
        let mut rec = StageRecorder::new();
        rec.record(LatencyTrace {
            buffering: ms(60),
            queueing: ms(40),
            compute: ms(90),
            smoothing: ms(1),
        });
        let report = LatencyBudget::new(ms(100)).evaluate(&rec.summary());
        assert!(!report.fits);
        assert_eq!(report.advice.len(), 3);
        assert!(report.advice[0].starts_with("compute"));
        assert!(report.advice[1].starts_with("buffering"));
        assert!(report.advice[2].starts_with("queueing"));
    }

    #[test]
    fn empty_summary_evaluates_without_a_worst_stage() {
        let report = LatencyBudget::new(ms(100)).evaluate(&StageSummary::default());
        assert!(report.fits);
        assert_eq!(report.worst, None);
    }
}
