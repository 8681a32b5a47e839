//! Streaming sessions: raw sEMG samples in, debounced gesture decisions
//! out.
//!
//! The paper's deployment target is *continuous* recognition — firmware
//! slides a 150 ms window over the live electrode stream and smooths the
//! per-window predictions into stable gesture decisions. The batch engines
//! in this module's siblings leave all of that to the caller;
//! [`StreamSession`] makes it part of the serving API:
//!
//! 1. **Online windowing** — [`StreamSession::push_samples`] ingests raw
//!    `[channels]`-interleaved samples in arbitrary chunk sizes and
//!    extracts sliding windows incrementally
//!    ([`bioformer_semg::windowing::OnlineWindower`]), bit-identical to
//!    the offline extractor on the same signal.
//! 2. **Per-channel normalization** — the training-time
//!    [`Normalizer`] statistics are applied per window with the exact
//!    dataset-path arithmetic.
//! 3. **Inference through any [`Engine`]** — windows are submitted
//!    one-per-request; a bounded **lookahead** keeps several windows in
//!    flight through the concurrent engines (pipelining, and food for
//!    their cross-request coalescing) while `lookahead = 0` serves each
//!    window inline.
//! 4. **Decision smoothing** — per-window predictions run through a
//!    majority-vote/debounce policy ([`DecisionPolicy`]) that emits typed
//!    [`GestureEvent`]s instead of a twitchy per-window class signal.
//!
//! **Offline equivalence:** for the same signal, the streamed per-window
//! predictions bit-match the offline path (extract every window with
//! [`bioformer_semg::windowing::extract_all_into`], normalize, run one
//! `predict_batch`) regardless of how the stream was chunked, which engine
//! served it, or the precision of the backend. The decision layer is a
//! deterministic function of those predictions ([`DecisionSmoother`] is
//! public precisely so offline pipelines can reuse it), so streamed
//! decisions bit-match batch decisions too. `tests/serving_stream.rs`
//! holds the property tests.

use super::engine::Engine;
use super::queue::{ReadyHook, RequestOutput, ServeError};
use super::trace::{LatencyTrace, StageRecorder, StageSummary};
use bioformer_semg::windowing::OnlineWindower;
use bioformer_semg::{CalibrationConfig, Gesture, Normalizer, SessionCalibrator};
use bioformer_tensor::Tensor;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Minimum absorbed-window marks a session retains for attributing an
/// emitted event back to its triggering window's stage timings (grown to
/// cover the vote depth when the policy needs more).
const MARK_WINDOW: usize = 64;

/// Fresh [`LatencyTrace`]s buffered between
/// [`StreamSession::drain_new_traces`] calls; beyond this the oldest
/// undrained trace is dropped (the session's own [`StageRecorder`] has
/// already absorbed it).
const TRACE_BACKLOG: usize = 256;

/// The softmax probability of class `class` under `logits` — the
/// confidence the decision layer feeds on.
///
/// Deterministic f32 arithmetic (max-subtracted exponentials, summed in
/// index order), shared by the streaming and offline paths so their
/// confidences are bit-identical.
///
/// Hardened against degenerate logits: when the result is non-finite —
/// NaN logits poison the max-subtraction, or every shifted exponential
/// underflows to a 0/0 — the window reports confidence **0.0**, so it
/// *abstains* under any `confidence_floor` instead of a NaN silently
/// passing the `conf < floor` comparison (NaN compares false) and voting
/// with garbage. Finite extreme logits (±1e30) are already safe: the
/// max-subtraction keeps every exponent ≤ 0.
///
/// # Panics
///
/// Panics if `class` is out of range or `logits` is empty.
pub fn confidence(logits: &[f32], class: usize) -> f32 {
    assert!(class < logits.len(), "confidence: class out of range");
    let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f32;
    for &l in logits {
        sum += (l - max).exp();
    }
    let p = (logits[class] - max).exp() / sum;
    if p.is_finite() {
        p
    } else {
        0.0
    }
}

/// How per-window predictions are smoothed into gesture decisions.
///
/// Raw per-window argmaxes flicker — confusable grasps swap on single
/// windows, and transitions smear across window boundaries. The policy is
/// the classic majority-vote debounce the paper's deployment story implies:
///
/// * **Confidence floor** — windows whose top-class softmax probability is
///   below `confidence_floor` *abstain*: they cast no vote and do not age
///   the hold counter. (0.0 disables the floor.)
/// * **Vote depth `K`** — the last `vote_depth` voting windows form the
///   electorate; a class becomes the *candidate* when it holds a strict
///   majority (> half) of the buffered votes.
/// * **Min-hold** — an active decision must have held for at least
///   `min_hold` voting windows before a different candidate may replace
///   it, suppressing single-window flicker even when the vote buffer is
///   short.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionPolicy {
    /// Majority-vote depth `K` (≥ 1): the number of most recent voting
    /// windows considered.
    pub vote_depth: usize,
    /// Voting windows a decision must hold before it can be replaced.
    pub min_hold: usize,
    /// Minimum top-class softmax probability for a window to vote, in
    /// `[0, 1)`; `0.0` lets every window vote.
    pub confidence_floor: f32,
}

impl Default for DecisionPolicy {
    /// `K = 5`, `min_hold = 3`, no confidence floor.
    fn default() -> Self {
        DecisionPolicy {
            vote_depth: 5,
            min_hold: 3,
            confidence_floor: 0.0,
        }
    }
}

impl DecisionPolicy {
    /// Validates the policy.
    fn validate(&self) -> Result<(), ServeError> {
        if self.vote_depth == 0 {
            return Err(ServeError::BadRequest(
                "DecisionPolicy: vote_depth must be >= 1".into(),
            ));
        }
        if !(0.0..1.0).contains(&self.confidence_floor) {
            return Err(ServeError::BadRequest(format!(
                "DecisionPolicy: confidence_floor {} outside [0, 1)",
                self.confidence_floor
            )));
        }
        Ok(())
    }
}

/// A debounced gesture decision emitted by the smoothing layer.
///
/// Classes are plain `usize` labels (engines may serve vocabularies other
/// than DB6's 8 gestures); [`GestureEvent::gesture`] maps a label into the
/// typed DB6 [`Gesture`] when it fits.
#[derive(Debug, Clone, PartialEq)]
pub enum GestureEvent {
    /// A new gesture decision took effect at (0-based) window `window`.
    Started {
        /// The decided class label.
        class: usize,
        /// Window index at which the decision took effect.
        window: usize,
        /// Mean confidence of the buffered votes that elected the class.
        confidence: f32,
    },
    /// The active gesture decision ended at window `window` (because a new
    /// decision replaced it, or the stream finished).
    Ended {
        /// The class label that had been active.
        class: usize,
        /// Window index at which the decision ended.
        window: usize,
        /// Voting windows the decision was held for.
        held: usize,
    },
}

impl GestureEvent {
    /// The event's class label.
    pub fn class(&self) -> usize {
        match self {
            GestureEvent::Started { class, .. } | GestureEvent::Ended { class, .. } => *class,
        }
    }

    /// The window index the event anchors to.
    pub fn window(&self) -> usize {
        match self {
            GestureEvent::Started { window, .. } | GestureEvent::Ended { window, .. } => *window,
        }
    }

    /// The typed DB6 gesture, when the label is in the 8-class vocabulary.
    pub fn gesture(&self) -> Option<Gesture> {
        Gesture::try_from_label(self.class())
    }
}

impl std::fmt::Display for GestureEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = |class: usize| {
            Gesture::try_from_label(class)
                .map(|g| g.name().to_string())
                .unwrap_or_else(|| format!("class {class}"))
        };
        match self {
            GestureEvent::Started {
                class,
                window,
                confidence,
            } => write!(
                f,
                "window {window}: {} started (confidence {confidence:.2})",
                name(*class)
            ),
            GestureEvent::Ended {
                class,
                window,
                held,
            } => write!(
                f,
                "window {window}: {} ended after {held} windows",
                name(*class)
            ),
        }
    }
}

/// The majority-vote/debounce state machine behind [`StreamSession`],
/// public so offline pipelines can replay recorded predictions through the
/// **same** decision logic (the streamed-equals-batch guarantee depends on
/// both paths sharing this type).
///
/// Feed per-window `(class, confidence)` pairs in window order with
/// [`DecisionSmoother::push`]; call [`DecisionSmoother::flush`] at end of
/// stream to close the final decision.
///
/// ```
/// use bioformers::serve::{DecisionPolicy, DecisionSmoother, GestureEvent};
///
/// let policy = DecisionPolicy { vote_depth: 3, min_hold: 1, confidence_floor: 0.0 };
/// let mut smoother = DecisionSmoother::new(policy).unwrap();
/// let mut events = Vec::new();
/// for class in [0, 0, 0, 1, 0, 0] {
///     smoother.push(class, 1.0, &mut events);
/// }
/// smoother.flush(&mut events);
/// // The lone class-1 window never wins a majority: one decision, start to end.
/// assert_eq!(events.len(), 2);
/// assert!(matches!(events[0], GestureEvent::Started { class: 0, .. }));
/// assert!(matches!(events[1], GestureEvent::Ended { class: 0, .. }));
/// ```
#[derive(Debug, Clone)]
pub struct DecisionSmoother {
    policy: DecisionPolicy,
    /// Ring of the last `vote_depth` voting windows' `(class, confidence)`.
    votes: VecDeque<(usize, f32)>,
    /// The active decision, if any.
    current: Option<usize>,
    /// Voting windows the active decision has held.
    held: usize,
    /// Windows pushed so far (abstentions included) — the event clock.
    processed: usize,
}

impl DecisionSmoother {
    /// Creates a smoother; fails on an invalid policy.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] when `vote_depth == 0` or the confidence
    /// floor is outside `[0, 1)`.
    pub fn new(policy: DecisionPolicy) -> Result<Self, ServeError> {
        policy.validate()?;
        Ok(DecisionSmoother {
            votes: VecDeque::with_capacity(policy.vote_depth),
            policy,
            current: None,
            held: 0,
            processed: 0,
        })
    }

    /// The policy in force.
    pub fn policy(&self) -> &DecisionPolicy {
        &self.policy
    }

    /// The active decision's class label, if any.
    pub fn current(&self) -> Option<usize> {
        self.current
    }

    /// Windows pushed so far (abstaining windows included).
    pub fn windows_seen(&self) -> usize {
        self.processed
    }

    /// The class with a strict majority of the buffered votes and the mean
    /// confidence of its votes, if any class has one.
    fn majority(&self) -> Option<(usize, f32)> {
        // Class counts over the buffer (tiny K: a linear scan beats a map).
        let mut best: Option<(usize, usize, f32)> = None; // (class, count, conf_sum)
        for &(class, _) in &self.votes {
            if best.is_some_and(|(c, _, _)| c == class) {
                continue;
            }
            let mut count = 0usize;
            let mut conf_sum = 0.0f32;
            for &(c, conf) in &self.votes {
                if c == class {
                    count += 1;
                    conf_sum += conf;
                }
            }
            // Deterministic tie-break: first class reaching the best count
            // in buffer order wins (ties cannot hold a strict majority
            // anyway, so this only orders the scan).
            if best.is_none_or(|(_, n, _)| count > n) {
                best = Some((class, count, conf_sum));
            }
        }
        let (class, count, conf_sum) = best?;
        (count * 2 > self.votes.len()).then(|| (class, conf_sum / count as f32))
    }

    /// Feeds one window's prediction; any resulting events are appended to
    /// `events`. Windows below the confidence floor abstain (no vote, no
    /// hold aging).
    pub fn push(&mut self, class: usize, confidence: f32, events: &mut Vec<GestureEvent>) {
        let window = self.processed;
        self.processed += 1;
        if confidence < self.policy.confidence_floor {
            return;
        }
        if self.votes.len() == self.policy.vote_depth {
            self.votes.pop_front();
        }
        self.votes.push_back((class, confidence));
        if self.current.is_some() {
            self.held += 1;
        }
        let Some((candidate, mean_conf)) = self.majority() else {
            return;
        };
        match self.current {
            None => {
                self.current = Some(candidate);
                self.held = 0;
                events.push(GestureEvent::Started {
                    class: candidate,
                    window,
                    confidence: mean_conf,
                });
            }
            Some(active) if active != candidate && self.held >= self.policy.min_hold => {
                events.push(GestureEvent::Ended {
                    class: active,
                    window,
                    held: self.held,
                });
                self.current = Some(candidate);
                self.held = 0;
                events.push(GestureEvent::Started {
                    class: candidate,
                    window,
                    confidence: mean_conf,
                });
            }
            Some(_) => {}
        }
    }

    /// Ends the stream: emits the closing [`GestureEvent::Ended`] for the
    /// active decision, if any, and fully resets the smoother — the window
    /// clock restarts at 0, so one smoother can replay recording after
    /// recording with correctly anchored event indices.
    pub fn flush(&mut self, events: &mut Vec<GestureEvent>) {
        if let Some(active) = self.current.take() {
            events.push(GestureEvent::Ended {
                class: active,
                window: self.processed,
                held: self.held,
            });
        }
        self.votes.clear();
        self.held = 0;
        self.processed = 0;
    }
}

/// Configuration for a [`StreamSession`].
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Electrode channels in the interleaved stream.
    pub channels: usize,
    /// Window length in frames (samples per channel).
    pub window: usize,
    /// Frames between consecutive window starts.
    pub slide: usize,
    /// Maximum windows kept in flight through the engine after a
    /// `push_samples` call returns. `0` serves every window inline
    /// (synchronous); larger values pipeline submissions through the
    /// concurrent engines — and give their coalescing workers concurrent
    /// windows to batch — at the cost of decision latency of up to
    /// `lookahead` windows.
    pub lookahead: usize,
    /// How many times a window whose request comes back
    /// [`ServeError::Cancelled`] (a backend panicked mid-batch) is
    /// re-submitted before the error surfaces. Re-submission goes back
    /// through the engine's routing, so over a sharded pool a retried
    /// window lands on a healthy replica — a live stream survives the
    /// same transient faults the batch `classify` path re-routes around.
    /// `0` fails the session on the first cancellation.
    pub retries: usize,
    /// The vote/debounce policy turning window predictions into events.
    pub policy: DecisionPolicy,
    /// Per-channel normalization applied to each extracted window
    /// (training-time statistics). `None` streams raw windows.
    pub normalizer: Option<Normalizer>,
    /// Per-session user calibration: when set, the session fits a
    /// session-adapted affine transform from its first
    /// [`CalibrationConfig::warmup_windows`] raw windows (DB6 sessions open
    /// with rest repetitions, so this is classic rest-period calibration)
    /// and uses it in place of the frozen `normalizer` from then on. The
    /// frozen `normalizer` is the calibration baseline: it applies
    /// unchanged during warm-up and is blended into the adapted transform
    /// by [`CalibrationConfig::blend`].
    pub calibration: Option<CalibrationConfig>,
}

impl StreamConfig {
    /// A config for `[channels, window]` backends with non-overlapping
    /// windows, no normalization, lookahead 4 and the default policy.
    pub fn new(channels: usize, window: usize) -> Self {
        StreamConfig {
            channels,
            window,
            slide: window,
            lookahead: 4,
            retries: 2,
            policy: DecisionPolicy::default(),
            normalizer: None,
            calibration: None,
        }
    }

    /// The paper's DB6 deployment shape: 14 channels × 300 samples
    /// (150 ms @ 2 kHz), 15 ms slide (30 frames).
    pub fn db6() -> Self {
        StreamConfig::new(bioformer_semg::CHANNELS, bioformer_semg::WINDOW).with_slide(30)
    }

    /// Sets the slide in frames.
    pub fn with_slide(mut self, slide: usize) -> Self {
        self.slide = slide;
        self
    }

    /// Sets the in-flight lookahead.
    pub fn with_lookahead(mut self, lookahead: usize) -> Self {
        self.lookahead = lookahead;
        self
    }

    /// Sets the per-window re-submission budget for cancelled requests.
    pub fn with_retries(mut self, retries: usize) -> Self {
        self.retries = retries;
        self
    }

    /// Sets the decision policy.
    pub fn with_policy(mut self, policy: DecisionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the per-channel normalizer (training-time statistics).
    pub fn with_normalizer(mut self, normalizer: Normalizer) -> Self {
        self.normalizer = Some(normalizer);
        self
    }

    /// Enables per-session user calibration (see
    /// [`StreamConfig::calibration`]).
    pub fn with_calibration(mut self, calibration: CalibrationConfig) -> Self {
        self.calibration = Some(calibration);
        self
    }
}

/// The portable state of a suspended [`StreamSession`], produced by
/// [`StreamSession::suspend`] and consumed by [`StreamSession::resume`].
///
/// A checkpoint carries everything a reconnecting client needs for the
/// resumed stream to behave **exactly** as if the session had never been
/// interrupted: the online windower (buffered tail samples included, so
/// windows spanning the seam are not lost), the [`DecisionSmoother`] with
/// its active decision, vote buffer and window clock, and the per-window
/// prediction/confidence history that the final [`StreamSummary`] reports.
/// No window is served twice and no event is duplicated or dropped across
/// the seam — the multi-tenant [`StreamServer`](super::StreamServer) uses
/// checkpoints for both idle-timeout eviction and client reconnects.
#[derive(Debug, Clone)]
pub struct SessionCheckpoint {
    windower: OnlineWindower,
    smoother: DecisionSmoother,
    predictions: Vec<usize>,
    confidences: Vec<f32>,
    /// Decision-latency recorder, carried across the seam so per-session
    /// [`StageSummary`] percentiles survive park/resume. (Transient
    /// attribution state — in-flight marks and undrained traces — is
    /// timing of a stream that no longer exists, and is dropped.)
    recorder: StageRecorder,
    /// Per-session calibration state (warm-up accumulators or the frozen
    /// adapted transform), carried across the seam: a resumed session
    /// normalizes exactly like one that was never suspended.
    calibrator: Option<SessionCalibrator>,
}

impl SessionCheckpoint {
    /// Electrode channels of the suspended stream.
    pub fn channels(&self) -> usize {
        self.windower.channels()
    }

    /// Window length in frames of the suspended stream.
    pub fn window(&self) -> usize {
        self.windower.window()
    }

    /// Slide in frames of the suspended stream.
    pub fn slide(&self) -> usize {
        self.windower.slide()
    }

    /// Windows decided before the suspension.
    pub fn windows_decided(&self) -> usize {
        self.predictions.len()
    }

    /// The active gesture decision's class label at suspension, if any.
    pub fn current_class(&self) -> Option<usize> {
        self.smoother.current()
    }

    /// Whether the suspended stream's calibration had frozen its adapted
    /// transform (`None` when the session ran without calibration).
    pub fn calibration_ready(&self) -> Option<bool> {
        self.calibrator.as_ref().map(SessionCalibrator::is_ready)
    }
}

/// Final summary of a finished [`StreamSession`].
#[derive(Debug, Clone)]
pub struct StreamSummary {
    /// Windows extracted and served.
    pub windows: usize,
    /// Per-window argmax predictions, in window order.
    pub predictions: Vec<usize>,
    /// Per-window top-class confidences, aligned with `predictions`.
    pub confidences: Vec<f32>,
    /// Events emitted at finish time (tail windows drained after the last
    /// `push_samples`, plus the closing `Ended`). Events already returned
    /// by earlier `push_samples` calls are not repeated.
    pub events: Vec<GestureEvent>,
    /// Per-stage decision-latency percentiles over the session's emitted
    /// events (buffering / queueing / compute / smoothing), from the
    /// session's [`StageRecorder`]. All zeros when no event was emitted.
    pub stages: StageSummary,
}

/// One submitted window: the response handle plus what is needed to
/// re-submit it if the engine cancels (a bounded copy — at most
/// `lookahead + 1` windows are retained).
struct Inflight {
    pending: super::PendingResponse,
    /// The normalized window tensor, kept for re-submission — `None` when
    /// the session's retry budget is 0, so retry-disabled sessions don't
    /// pay a per-window copy.
    window: Option<Tensor>,
    retries_left: usize,
    /// Carried through retries into the decision-latency trace.
    timing: WindowTiming,
}

/// What the session itself times of a window on its way to the engine.
#[derive(Debug, Clone, Copy)]
struct WindowTiming {
    /// Time the window's samples spent buffering before it was complete.
    buffering: Duration,
    /// When the window was first submitted.
    submitted: Instant,
}

/// Stage timings of one absorbed window, retained until the decision
/// layer emits the event it supports (bounded ring; see [`MARK_WINDOW`]).
#[derive(Debug, Clone, Copy)]
struct WindowMark {
    /// 0-based window index (the smoother's event clock).
    window: usize,
    /// The window's argmax class (its vote).
    class: usize,
    buffering: Duration,
    queueing: Duration,
    compute: Duration,
    /// When the window's prediction was absorbed into the decision layer.
    absorbed: Instant,
}

/// A client-facing streaming session over any [`Engine`]: push raw
/// interleaved sEMG samples, get debounced [`GestureEvent`]s back.
///
/// The session **owns** its engine handle (`Arc<dyn Engine>`), so sessions
/// can outlive the scope that resolved the engine — the model-zoo layer
/// hands each session the `Arc` of whichever model variant it selected
/// (possibly a [`ShadowEngine`](super::ShadowEngine) while an experiment is
/// live), and the multi-tenant server keeps sessions in plain owned maps.
///
/// ```
/// use std::sync::Arc;
/// use bioformers::core::{Bioformer, BioformerConfig};
/// use bioformers::serve::{InferenceEngine, StreamConfig, StreamSession};
///
/// let engine = Arc::new(InferenceEngine::new(Box::new(Bioformer::new(&BioformerConfig::bio1()))));
/// let cfg = StreamConfig::db6().with_slide(300).with_lookahead(0);
/// let mut session = StreamSession::new(engine, cfg).unwrap();
/// // One 150 ms frame burst: 300 frames × 14 channels, interleaved.
/// let burst = vec![0.0f32; 300 * 14];
/// let events = session.push_samples(&burst).unwrap();
/// // Decisions are debounced: one window cannot out-vote the default
/// // policy's vote buffer by itself unless it is the very first majority.
/// for event in &events {
///     println!("{event}");
/// }
/// let summary = session.finish().unwrap();
/// assert_eq!(summary.windows, 1);
/// assert_eq!(summary.predictions.len(), 1);
/// ```
pub struct StreamSession {
    engine: Arc<dyn Engine>,
    channels: usize,
    window: usize,
    lookahead: usize,
    retries: usize,
    windower: OnlineWindower,
    normalizer: Option<Normalizer>,
    /// Per-session calibration; when set it **replaces** the bare
    /// normalizer on the window path (the normalizer is its baseline).
    calibrator: Option<SessionCalibrator>,
    smoother: DecisionSmoother,
    /// In-flight window requests, oldest first; absorbed strictly in
    /// order so decisions are deterministic.
    inflight: VecDeque<Inflight>,
    predictions: Vec<usize>,
    confidences: Vec<f32>,
    /// When the currently-buffering window started waiting for samples
    /// (armed on the first push, re-armed each time a window completes).
    buffer_from: Option<Instant>,
    /// Recent absorbed-window stage timings for event attribution
    /// (bounded at `mark_cap`; preallocated, never grown).
    marks: VecDeque<WindowMark>,
    mark_cap: usize,
    /// Per-event decision-latency rollup (fixed rings; zero-alloc record).
    recorder: StageRecorder,
    /// Traces not yet handed to [`StreamSession::drain_new_traces`]
    /// (bounded at [`TRACE_BACKLOG`]; preallocated, never grown).
    pending_traces: VecDeque<LatencyTrace>,
    /// Called when the window [`StreamSession::poll`] is waiting on has
    /// been served (see [`StreamSession::wake_with`]).
    ready_hook: Option<ReadyHook>,
}

impl StreamSession {
    /// Opens a session over `engine`.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] when the config is invalid (zero
    /// channels/window/slide, bad policy, an invalid calibration config, a
    /// normalizer whose channel count differs from the stream's) or when
    /// the engine declares an input shape that differs from
    /// `[channels, window]`.
    pub fn new(engine: Arc<dyn Engine>, cfg: StreamConfig) -> Result<Self, ServeError> {
        if cfg.channels == 0 || cfg.window == 0 || cfg.slide == 0 {
            return Err(ServeError::BadRequest(format!(
                "StreamConfig: channels {}, window {}, slide {} must all be >= 1",
                cfg.channels, cfg.window, cfg.slide
            )));
        }
        if let Some((ec, es)) = engine.input_shape() {
            if (cfg.channels, cfg.window) != (ec, es) {
                return Err(ServeError::BadRequest(format!(
                    "stream shape [{}, {}] does not match engine shape [{ec}, {es}]",
                    cfg.channels, cfg.window
                )));
            }
        }
        if let Some(norm) = &cfg.normalizer {
            if norm.mean().len() != cfg.channels {
                return Err(ServeError::BadRequest(format!(
                    "normalizer covers {} channels, stream has {}",
                    norm.mean().len(),
                    cfg.channels
                )));
            }
        }
        let calibrator = match cfg.calibration {
            Some(cal) => {
                cal.validate().map_err(|e| {
                    ServeError::BadRequest(format!("invalid CalibrationConfig: {e}"))
                })?;
                Some(SessionCalibrator::new(
                    cfg.channels,
                    cfg.normalizer.clone(),
                    cal,
                ))
            }
            None => None,
        };
        // Enough marks to attribute a `Started` event back to its earliest
        // supporting vote, whatever the vote depth.
        let mark_cap = MARK_WINDOW.max(cfg.policy.vote_depth + 1);
        Ok(StreamSession {
            engine,
            channels: cfg.channels,
            window: cfg.window,
            lookahead: cfg.lookahead,
            retries: cfg.retries,
            windower: OnlineWindower::new(cfg.channels, cfg.window, cfg.slide),
            normalizer: cfg.normalizer,
            calibrator,
            smoother: DecisionSmoother::new(cfg.policy)?,
            inflight: VecDeque::new(),
            predictions: Vec::new(),
            confidences: Vec::new(),
            buffer_from: None,
            marks: VecDeque::with_capacity(mark_cap),
            mark_cap,
            recorder: StageRecorder::new(),
            pending_traces: VecDeque::with_capacity(TRACE_BACKLOG),
            ready_hook: None,
        })
    }

    /// Windows extracted and submitted so far.
    pub fn windows_submitted(&self) -> usize {
        self.windower.windows_emitted()
    }

    /// Windows whose predictions have been absorbed into decisions.
    pub fn windows_decided(&self) -> usize {
        self.predictions.len()
    }

    /// Window requests currently in flight through the engine.
    pub fn pending(&self) -> usize {
        self.inflight.len()
    }

    /// The active gesture decision's class label, if any.
    pub fn current_class(&self) -> Option<usize> {
        self.smoother.current()
    }

    /// The active gesture decision as a typed DB6 [`Gesture`], when the
    /// label fits the 8-class vocabulary.
    pub fn current_gesture(&self) -> Option<Gesture> {
        self.current_class().and_then(Gesture::try_from_label)
    }

    /// Per-window predictions absorbed so far (window order).
    pub fn predictions(&self) -> &[usize] {
        &self.predictions
    }

    /// Per-window top-class confidences absorbed so far.
    pub fn confidences(&self) -> &[f32] {
        &self.confidences
    }

    /// Per-stage decision-latency percentiles over the events this session
    /// has emitted so far (one [`LatencyTrace`] is recorded per event into
    /// a fixed-capacity [`StageRecorder`]; the steady-state record path
    /// performs no heap allocations).
    pub fn stage_stats(&self) -> StageSummary {
        self.recorder.summary()
    }

    /// The per-session calibrator, when calibration is enabled — `None`
    /// for sessions normalizing with the frozen training statistics only.
    pub fn calibrator(&self) -> Option<&SessionCalibrator> {
        self.calibrator.as_ref()
    }

    /// Moves the traces recorded since the last call into `out` (the
    /// [`StreamServer`](super::StreamServer) uses this to roll
    /// per-session traces into the per-server recorder). The session's own
    /// recorder keeps them regardless; at most 256 undrained traces are
    /// retained.
    pub fn drain_new_traces(&mut self, out: &mut Vec<LatencyTrace>) {
        out.extend(self.pending_traces.drain(..));
    }

    /// Ingests raw interleaved samples (`samples[k]` belongs to channel
    /// `k % channels`; any chunk length is fine, including ones that split
    /// a frame), extracting/normalizing/submitting every completed window
    /// and returning the gesture events decided so far.
    ///
    /// With `lookahead = 0` every window is served before the call
    /// returns; otherwise up to `lookahead` windows stay in flight and
    /// their events surface on a later call (or at [`StreamSession::finish`]).
    ///
    /// # Errors
    ///
    /// Propagates the first [`ServeError`] from the engine (backpressure
    /// waits instead of erroring — submission uses the blocking path;
    /// cancelled windows are re-submitted up to [`StreamConfig::retries`]
    /// times first). On error the session drops its remaining in-flight
    /// windows; the stream's decision state is no longer meaningful and
    /// the session should be discarded.
    pub fn push_samples(&mut self, samples: &[f32]) -> Result<Vec<GestureEvent>, ServeError> {
        let mut events = Vec::new();
        // Arm the buffering clock on the stream's first samples; completed
        // windows re-arm it in `submit_window`.
        if self.buffer_from.is_none() && !samples.is_empty() {
            self.buffer_from = Some(Instant::now());
        }
        self.windower.push_interleaved(samples);
        loop {
            let window = {
                let Some(w) = self.windower.next_window() else {
                    break;
                };
                w.to_vec()
            };
            self.submit_window(window)?;
            self.drain(false, &mut events)?;
        }
        self.drain(false, &mut events)?;
        Ok(events)
    }

    /// Absorbs, without blocking, whatever the front of the in-flight
    /// queue has finished since the last push or poll — window order,
    /// retries and the lookahead bound exactly as in
    /// [`StreamSession::push_samples`] — and returns the events decided.
    /// Makes no heap allocation when nothing has finished.
    ///
    /// A session whose owner sleeps between bursts pairs this with
    /// [`StreamSession::wake_with`]: a decided window then reaches the
    /// decision layer when it is served, not when the next samples arrive.
    ///
    /// # Errors
    ///
    /// As [`StreamSession::push_samples`].
    pub fn poll(&mut self) -> Result<Vec<GestureEvent>, ServeError> {
        let mut events = Vec::new();
        self.drain(false, &mut events)?;
        Ok(events)
    }

    /// Registers the wake-up of this session's owner: whenever a push or
    /// poll leaves a window in flight, `hook` is called — on the thread
    /// that completes it, or at once if it completed meanwhile — as soon as
    /// the oldest such window has been served, i.e. as soon as
    /// [`StreamSession::poll`] has something to absorb. Windows are
    /// absorbed in order, so only the oldest one's completion matters; the
    /// hook rides that window's [`PendingResponse`](super::PendingResponse)
    /// and so passes through every engine decorator.
    pub fn wake_with(&mut self, hook: ReadyHook) {
        self.ready_hook = Some(hook);
    }

    /// Ends the stream: waits out every in-flight window, closes the final
    /// decision and returns the summary. Samples of an incomplete tail
    /// window are discarded (exactly like the offline extractor).
    pub fn finish(mut self) -> Result<StreamSummary, ServeError> {
        let mut events = Vec::new();
        self.drain(true, &mut events)?;
        let flushed_from = events.len();
        self.smoother.flush(&mut events);
        let now = Instant::now();
        for event in &events[flushed_from..] {
            self.trace_event(event, now);
        }
        Ok(StreamSummary {
            windows: self.predictions.len(),
            predictions: std::mem::take(&mut self.predictions),
            confidences: std::mem::take(&mut self.confidences),
            events,
            stages: self.recorder.summary(),
        })
    }

    /// Suspends the stream **without** closing it: waits out every
    /// in-flight window, then exports the session's complete state as a
    /// [`SessionCheckpoint`] plus any gesture events the drained windows
    /// decided. Unlike [`StreamSession::finish`] the active decision stays
    /// open (no closing [`GestureEvent::Ended`] is emitted) and buffered
    /// tail samples are **kept** in the checkpoint, so a session resumed
    /// from it continues bit-identically to one that was never suspended.
    ///
    /// # Errors
    ///
    /// Propagates the first engine error from draining the in-flight
    /// windows, exactly like `finish`.
    pub fn suspend(mut self) -> Result<(SessionCheckpoint, Vec<GestureEvent>), ServeError> {
        let mut events = Vec::new();
        self.drain(true, &mut events)?;
        Ok((
            SessionCheckpoint {
                windower: self.windower.clone(),
                smoother: self.smoother.clone(),
                predictions: std::mem::take(&mut self.predictions),
                confidences: std::mem::take(&mut self.confidences),
                recorder: self.recorder.clone(),
                calibrator: self.calibrator.clone(),
            },
            events,
        ))
    }

    /// Reopens a suspended stream over `engine` (not necessarily the one it
    /// was suspended from): windowing continues from the checkpoint's
    /// buffered tail, the decision state machine keeps its active decision
    /// and window clock, and the eventual [`StreamSummary`] covers the
    /// whole logical stream, pre- and post-suspension windows alike.
    ///
    /// The checkpoint overrides `cfg.policy` (the smoother resumes as
    /// suspended) **and** `cfg.calibration` (the calibrator resumes with
    /// its warm-up accumulators or frozen adapted transform — a reconnect
    /// must not restart calibration), while `lookahead`, `retries` and the
    /// normalizer are taken from `cfg` — operational knobs may change
    /// across a reconnect, stream semantics may not.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] when `cfg`'s channels/window/slide
    /// disagree with the checkpoint's, or on the same config/engine
    /// mismatches [`StreamSession::new`] rejects.
    pub fn resume(
        engine: Arc<dyn Engine>,
        cfg: StreamConfig,
        checkpoint: SessionCheckpoint,
    ) -> Result<Self, ServeError> {
        if (cfg.channels, cfg.window, cfg.slide)
            != (
                checkpoint.channels(),
                checkpoint.window(),
                checkpoint.slide(),
            )
        {
            return Err(ServeError::BadRequest(format!(
                "resume shape [channels {}, window {}, slide {}] does not match \
                 checkpoint [channels {}, window {}, slide {}]",
                cfg.channels,
                cfg.window,
                cfg.slide,
                checkpoint.channels(),
                checkpoint.window(),
                checkpoint.slide()
            )));
        }
        let mut session = StreamSession::new(engine, cfg)?;
        // The checkpoint's policy governs the resumed stream; re-fit the
        // attribution ring to its vote depth.
        let mark_cap = MARK_WINDOW.max(checkpoint.smoother.policy().vote_depth + 1);
        if mark_cap != session.mark_cap {
            session.marks = VecDeque::with_capacity(mark_cap);
            session.mark_cap = mark_cap;
        }
        session.windower = checkpoint.windower;
        session.smoother = checkpoint.smoother;
        session.predictions = checkpoint.predictions;
        session.confidences = checkpoint.confidences;
        session.recorder = checkpoint.recorder;
        session.calibrator = checkpoint.calibrator;
        Ok(session)
    }

    /// Normalizes and submits one extracted window.
    fn submit_window(&mut self, mut window: Vec<f32>) -> Result<(), ServeError> {
        // Buffering stage: how long samples waited for this window to
        // fill. Re-arm the clock for the next window.
        let now = Instant::now();
        let buffering = self
            .buffer_from
            .replace(now)
            .map(|from| now.saturating_duration_since(from))
            .unwrap_or_default();
        match (&mut self.calibrator, &self.normalizer) {
            // Calibration subsumes the normalizer: it observes the raw
            // window, then applies the adapted transform (or the baseline
            // normalizer during warm-up).
            (Some(cal), _) => cal.normalize_window(&mut window),
            (None, Some(norm)) => norm.apply_window(&mut window),
            (None, None) => {}
        }
        let tensor = Tensor::from_vec(window, &[1, self.channels, self.window]);
        // Keep a retry copy only when a retry could ever use it.
        let retry_copy = (self.retries > 0).then(|| tensor.clone());
        let pending = self.engine.submit(tensor)?;
        self.inflight.push_back(Inflight {
            pending,
            window: retry_copy,
            retries_left: self.retries,
            timing: WindowTiming {
                buffering,
                submitted: now,
            },
        });
        Ok(())
    }

    /// Handles one resolved front-of-queue response: absorb it, or — on a
    /// cancellation with retry budget left — re-submit the window through
    /// the engine's routing and put it back at the **front**, so window
    /// order (and with it decision determinism) is preserved.
    fn resolve(
        &mut self,
        result: Result<RequestOutput, ServeError>,
        window: Option<Tensor>,
        retries_left: usize,
        timing: WindowTiming,
        events: &mut Vec<GestureEvent>,
    ) -> Result<(), ServeError> {
        match (result, window) {
            (Ok(out), _) => {
                self.absorb(out, timing, events);
                Ok(())
            }
            (Err(ServeError::Cancelled), Some(window)) if retries_left > 0 => {
                let pending = self.engine.submit(window.clone())?;
                self.inflight.push_front(Inflight {
                    pending,
                    window: Some(window),
                    retries_left: retries_left - 1,
                    timing,
                });
                Ok(())
            }
            (Err(e), _) => Err(e),
        }
    }

    /// Absorbs completed responses from the front of the in-flight queue —
    /// opportunistically (non-blocking) while within the lookahead budget,
    /// blocking when over it or when `drain_all` is set.
    fn drain(&mut self, drain_all: bool, events: &mut Vec<GestureEvent>) -> Result<(), ServeError> {
        while let Some(Inflight {
            pending,
            window,
            retries_left,
            timing,
        }) = self.inflight.pop_front()
        {
            let must_wait = drain_all || self.inflight.len() >= self.lookahead;
            if must_wait {
                let result = pending.wait();
                self.resolve(result, window, retries_left, timing, events)?;
            } else {
                match pending.try_wait() {
                    Ok(result) => self.resolve(result, window, retries_left, timing, events)?,
                    Err(pending) => {
                        // Still in flight, and next in line: have its
                        // completion wake the session's owner.
                        if let Some(hook) = &self.ready_hook {
                            pending.on_ready(Arc::clone(hook));
                        }
                        self.inflight.push_front(Inflight {
                            pending,
                            window,
                            retries_left,
                            timing,
                        });
                        break;
                    }
                }
            }
        }
        Ok(())
    }

    /// Feeds one served window into the decision layer, marking its stage
    /// timings so any event it triggers can be traced.
    fn absorb(&mut self, out: RequestOutput, timing: WindowTiming, events: &mut Vec<GestureEvent>) {
        debug_assert_eq!(out.predictions.len(), 1, "stream requests hold one window");
        let class = out.predictions[0];
        let conf = confidence(out.logits.row(0), class);
        if self.marks.len() == self.mark_cap {
            self.marks.pop_front();
        }
        let absorbed = Instant::now();
        self.marks.push_back(WindowMark {
            window: self.predictions.len(),
            class,
            buffering: timing.buffering,
            // Everything between submission and this moment that was not
            // the backend: the engine's queue, and the response waiting
            // for this session to come and take it.
            queueing: absorbed
                .saturating_duration_since(timing.submitted)
                .saturating_sub(out.batch_latency),
            compute: out.batch_latency,
            absorbed,
        });
        self.predictions.push(class);
        self.confidences.push(conf);
        let before = events.len();
        self.smoother.push(class, conf, events);
        let now = Instant::now();
        for event in &events[before..] {
            self.trace_event(event, now);
        }
    }

    /// Attributes one emitted event back to its triggering window's stage
    /// marks and records the resulting [`LatencyTrace`]. Steady-state
    /// zero-allocation: ring scans and ring writes only.
    fn trace_event(&mut self, event: &GestureEvent, now: Instant) {
        let Some(&latest) = self.marks.back() else {
            return;
        };
        // Events anchor to a window index; fall back to the latest mark
        // for events past the marked range (e.g. the flush-time `Ended`,
        // anchored one window past the last absorbed one).
        let mark = self
            .marks
            .iter()
            .rev()
            .find(|m| m.window == event.window())
            .copied()
            .unwrap_or(latest);
        let smoothing = match event {
            GestureEvent::Started { class, .. } => {
                // A decision is enabled by its supporting votes: anchor
                // the smoothing delay at the earliest vote for this class
                // within the last `vote_depth` absorbed windows — that is
                // the debounce delay a user feels.
                let depth = self.smoother.policy().vote_depth;
                let mut anchor = mark.absorbed;
                for m in self.marks.iter().rev().take(depth) {
                    if m.class == *class {
                        anchor = m.absorbed;
                    }
                }
                now.saturating_duration_since(anchor)
            }
            // `Ended` is emitted synchronously with the window (or flush)
            // that closed the decision.
            GestureEvent::Ended { .. } => now.saturating_duration_since(mark.absorbed),
        };
        let trace = LatencyTrace {
            buffering: mark.buffering,
            queueing: mark.queueing,
            compute: mark.compute,
            smoothing,
        };
        self.recorder.record(trace);
        if self.pending_traces.len() == TRACE_BACKLOG {
            self.pending_traces.pop_front();
        }
        self.pending_traces.push_back(trace);
    }
}

impl std::fmt::Debug for StreamSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamSession")
            .field("engine", &self.engine.kind())
            .field("channels", &self.channels)
            .field("window", &self.window)
            .field("slide", &self.windower.slide())
            .field("lookahead", &self.lookahead)
            .field("submitted", &self.windower.windows_emitted())
            .field("decided", &self.predictions.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy(vote_depth: usize, min_hold: usize, floor: f32) -> DecisionPolicy {
        DecisionPolicy {
            vote_depth,
            min_hold,
            confidence_floor: floor,
        }
    }

    fn run(policy_: DecisionPolicy, classes: &[usize]) -> Vec<GestureEvent> {
        let mut s = DecisionSmoother::new(policy_).unwrap();
        let mut events = Vec::new();
        for &c in classes {
            s.push(c, 1.0, &mut events);
        }
        s.flush(&mut events);
        events
    }

    #[test]
    fn first_majority_starts_a_decision() {
        let events = run(policy(3, 0, 0.0), &[2, 2]);
        // One vote of K=3 is already a strict majority of a 1-deep buffer.
        assert!(matches!(
            events[0],
            GestureEvent::Started {
                class: 2,
                window: 0,
                ..
            }
        ));
        assert!(matches!(
            events.last().unwrap(),
            GestureEvent::Ended { class: 2, .. }
        ));
    }

    #[test]
    fn single_window_flicker_is_suppressed() {
        // 0 0 0 1 0 0 — the lone 1 never reaches a majority of the K=3
        // buffer, so the decision never changes.
        let events = run(policy(3, 1, 0.0), &[0, 0, 0, 1, 0, 0]);
        assert_eq!(events.len(), 2, "{events:?}");
        assert_eq!(events[0].class(), 0);
    }

    #[test]
    fn sustained_change_switches_after_majority_and_hold() {
        let events = run(policy(3, 2, 0.0), &[0, 0, 0, 1, 1, 1, 1]);
        // 1 gains a 2/3 majority at window 4; hold (>= 2) is satisfied.
        assert_eq!(
            events,
            vec![
                GestureEvent::Started {
                    class: 0,
                    window: 0,
                    confidence: 1.0
                },
                GestureEvent::Ended {
                    class: 0,
                    window: 4,
                    held: 4
                },
                GestureEvent::Started {
                    class: 1,
                    window: 4,
                    confidence: 1.0
                },
                GestureEvent::Ended {
                    class: 1,
                    window: 7,
                    held: 2
                },
            ]
        );
    }

    #[test]
    fn min_hold_delays_a_switch() {
        // Class 1 wins its majority at window 4 (held = 4 by then), but
        // min_hold = 6 postpones the switch until window 6.
        let events = run(policy(3, 6, 0.0), &[0, 0, 0, 1, 1, 1, 1]);
        let switched_at = events
            .iter()
            .find_map(|e| match e {
                GestureEvent::Started {
                    class: 1, window, ..
                } => Some(*window),
                _ => None,
            })
            .expect("must eventually switch");
        assert_eq!(switched_at, 6);
    }

    #[test]
    fn low_confidence_windows_abstain() {
        let mut s = DecisionSmoother::new(policy(3, 0, 0.5)).unwrap();
        let mut events = Vec::new();
        // Confident zeros, then a burst of unconfident ones: no switch.
        for _ in 0..3 {
            s.push(0, 0.9, &mut events);
        }
        for _ in 0..5 {
            s.push(1, 0.2, &mut events);
        }
        assert_eq!(s.current(), Some(0));
        // Confident ones do switch.
        for _ in 0..3 {
            s.push(1, 0.9, &mut events);
        }
        assert_eq!(s.current(), Some(1));
        assert_eq!(s.windows_seen(), 11);
    }

    /// `flush` must reset the window clock too, so one smoother can
    /// replay recording after recording with correctly anchored events.
    #[test]
    fn flush_resets_the_window_clock_for_reuse() {
        let mut s = DecisionSmoother::new(policy(3, 0, 0.0)).unwrap();
        let mut events = Vec::new();
        for _ in 0..4 {
            s.push(2, 1.0, &mut events);
        }
        s.flush(&mut events);
        assert_eq!(s.windows_seen(), 0);
        assert_eq!(s.current(), None);
        events.clear();
        s.push(1, 1.0, &mut events);
        assert!(
            matches!(
                events[0],
                GestureEvent::Started {
                    class: 1,
                    window: 0,
                    ..
                }
            ),
            "second recording must anchor at window 0, got {events:?}"
        );
    }

    #[test]
    fn confidence_is_a_softmax_probability() {
        let logits = [1.0f32, 2.0, 0.5, -1.0];
        let p: Vec<f32> = (0..4).map(|c| confidence(&logits, c)).collect();
        let sum: f32 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert!(p[1] > p[0] && p[0] > p[2] && p[2] > p[3]);
    }

    /// Regression: a backend emitting non-finite or extreme logits must
    /// not produce a NaN confidence — NaN compares false against any
    /// `confidence_floor`, so a poisoned window would *vote* instead of
    /// abstaining. Degenerate inputs now read as confidence 0.0.
    #[test]
    fn confidence_survives_extreme_and_nan_logits() {
        // Finite but huge: naive softmax overflows exp(1e30); the
        // max-subtracted form stays exact.
        let huge = [1e30f32, 0.0, -1e30];
        let p = confidence(&huge, 0);
        assert!((p - 1.0).abs() < 1e-6, "got {p}");
        assert_eq!(confidence(&huge, 2), 0.0);

        // Finite but hugely negative everywhere: every shifted exponential
        // is exp(0) or exp(-inf); still a valid distribution.
        let lows = [-1e30f32, -1e30];
        let p = confidence(&lows, 0);
        assert!(p.is_finite() && p > 0.0, "got {p}");

        // A NaN logit poisons max-subtraction (max = NaN): the hardened
        // path reports 0.0, never NaN.
        let nan = [f32::NAN, 1.0, 2.0];
        for c in 0..3 {
            let p = confidence(&nan, c);
            assert_eq!(p, 0.0, "class {c} got {p}");
            // The abstention contract: 0.0 fails any positive floor.
            assert!(p < 0.01, "NaN-derived confidence must abstain");
        }
        // +inf logits collapse to a 0/0 or inf/inf — also 0.0, not NaN.
        let infs = [f32::INFINITY, f32::INFINITY];
        assert_eq!(confidence(&infs, 0), 0.0);
    }

    #[test]
    fn zero_vote_depth_is_rejected() {
        assert!(DecisionSmoother::new(policy(0, 0, 0.0)).is_err());
        assert!(DecisionSmoother::new(policy(3, 0, 1.5)).is_err());
    }
}
