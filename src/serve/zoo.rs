//! The model zoo: named model variants behind live selection, shadow/A-B
//! routing and promotion gating.
//!
//! A production gesture service never runs *one* model: the incumbent
//! serves users while candidates (a quantized build, a different
//! architecture, a retrained checkpoint) are evaluated **on live traffic**
//! before they are allowed to take over. [`ModelZoo`] is that registry:
//!
//! * Every variant is a named [`Engine`] (or replica pool) — e.g.
//!   `bioformer-fp32`, `bioformer-int8`, `temponet-fp32`,
//!   `waveformer-fp32`. Sessions select a model by name in the wire
//!   protocol's Hello frame (v2); v1 clients get the default.
//! * [`ModelZoo::start_experiment`] pairs an incumbent with a candidate
//!   under a [`RouteMode`]:
//!   - **Shadow** — the candidate receives a *duplicate* of every request
//!     routed to the incumbent; only the incumbent's response is ever
//!     returned, so the served timeline is bit-identical to running
//!     without the experiment (pinned by proptest in
//!     `tests/serving_zoo.rs`). Agreement and confidence deltas are
//!     measured window-by-window.
//!   - **Split(f)** — A/B: a deterministic fraction `f` of requests is
//!     *actually served* by the candidate; per-arm latency is measured,
//!     agreement cannot be (no duplication).
//! * [`PromotionPolicy`] gates [`ModelZoo::promote_if_ready`]: a candidate
//!   is promoted to default only after enough live evidence (compared
//!   windows, agreement rate, latency ratio, drop rate). Until then the
//!   incumbent keeps serving.
//! * [`ZooStats`] snapshots every model's [`EngineStats`] plus the live
//!   experiment counters, with the same rollup-consistency discipline as
//!   the rest of the serving stack ([`ZooStats::rollup_consistent`]).

use super::engine::{Engine, EngineStats};
use super::queue::{PendingResponse, RequestOutput, Responder, ServeError};
use super::stream::confidence;
use super::trace::{LatencyTrace, StageRecorder, StageSummary};
use bioformer_tensor::Tensor;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

/// How an experiment routes traffic between incumbent and candidate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RouteMode {
    /// Duplicate every incumbent request to the candidate; serve only the
    /// incumbent's response. Measures live agreement without any risk.
    Shadow,
    /// Serve a deterministic fraction `0.0..=1.0` of requests from the
    /// candidate (A/B). Measures per-arm latency under real load.
    Split(f32),
}

impl RouteMode {
    /// Validates the mode.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if let RouteMode::Split(f) = self {
            if !f.is_finite() || !(0.0..=1.0).contains(f) {
                return Err(format!("split fraction {f} must be in [0, 1]"));
            }
        }
        Ok(())
    }
}

/// Thresholds a candidate must clear on live traffic before
/// [`ModelZoo::promote_if_ready`] makes it the default.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PromotionPolicy {
    /// Minimum windows compared (Shadow) or served by the candidate
    /// (Split) before any decision.
    pub min_windows: u64,
    /// Minimum window-level agreement rate with the incumbent (Shadow
    /// mode; ignored for Split, where agreement is unmeasurable).
    pub min_agreement: f64,
    /// Maximum candidate/incumbent p99 compute-latency ratio.
    pub max_latency_ratio: f64,
    /// Maximum fraction of duplicated requests the candidate dropped
    /// (queue-full or errors) — a candidate that cannot keep up with
    /// shadow traffic cannot keep up with real traffic.
    pub max_drop_rate: f64,
    /// How long the shadow collector waits for a candidate response before
    /// counting it dropped (never delays the incumbent's response).
    pub candidate_timeout: Duration,
}

impl Default for PromotionPolicy {
    fn default() -> Self {
        PromotionPolicy {
            min_windows: 100,
            min_agreement: 0.85,
            max_latency_ratio: 2.0,
            max_drop_rate: 0.05,
            candidate_timeout: Duration::from_secs(1),
        }
    }
}

/// The verdict of evaluating a [`PromotionPolicy`] against live evidence.
#[derive(Debug, Clone, PartialEq)]
pub enum PromotionDecision {
    /// All gates cleared: the candidate may take over as default.
    Promote,
    /// At least one gate failed or lacks evidence; each entry names one
    /// unmet gate.
    Hold(Vec<String>),
}

impl PromotionPolicy {
    /// Evaluates the policy against an experiment snapshot.
    pub fn evaluate(&self, exp: &ExperimentStats) -> PromotionDecision {
        let mut unmet = Vec::new();
        let evidence = match exp.mode {
            RouteMode::Shadow => exp.compared_windows,
            RouteMode::Split(_) => exp.candidate_windows,
        };
        if evidence < self.min_windows {
            unmet.push(format!(
                "evidence: {evidence} windows < required {}",
                self.min_windows
            ));
        }
        if matches!(exp.mode, RouteMode::Shadow) && evidence > 0 {
            let agreement = exp.agreement_rate();
            if agreement < self.min_agreement {
                unmet.push(format!(
                    "agreement {agreement:.3} < required {:.3}",
                    self.min_agreement
                ));
            }
        }
        let drop_rate = exp.drop_rate();
        if drop_rate > self.max_drop_rate {
            unmet.push(format!(
                "drop rate {drop_rate:.3} > allowed {:.3}",
                self.max_drop_rate
            ));
        }
        let inc_p99 = exp.incumbent_stages.compute.p99;
        let cand_p99 = exp.candidate_stages.compute.p99;
        if inc_p99 > Duration::ZERO && cand_p99 > Duration::ZERO {
            let ratio = cand_p99.as_secs_f64() / inc_p99.as_secs_f64();
            if ratio > self.max_latency_ratio {
                unmet.push(format!(
                    "latency ratio {ratio:.2} > allowed {:.2}",
                    self.max_latency_ratio
                ));
            }
        }
        if unmet.is_empty() {
            PromotionDecision::Promote
        } else {
            PromotionDecision::Hold(unmet)
        }
    }
}

/// Monotonic experiment counters (all units are exact, never sampled).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct AbCounters {
    /// Requests duplicated to (Shadow) or routed to (Split) the candidate.
    candidate_requests: u64,
    /// Windows in those requests.
    candidate_windows: u64,
    /// Duplicated requests whose candidate response resolved and was
    /// compared (Shadow only).
    resolved: u64,
    /// Duplicated requests the candidate dropped: submission failed, the
    /// response errored, or it outwaited the collector's timeout.
    dropped: u64,
    /// Windows compared prediction-by-prediction (Shadow only).
    compared_windows: u64,
    /// Compared windows where both models predicted the same class.
    agreed_windows: u64,
    /// Sum over compared windows of candidate minus incumbent top-class
    /// confidence.
    confidence_delta_sum: f64,
    /// Requests served (Split: incumbent arm; Shadow: every request).
    incumbent_requests: u64,
}

/// Shared experiment state: counters plus per-arm stage recorders.
struct ShadowCore {
    counters: Mutex<AbCounters>,
    incumbent_stages: Mutex<StageRecorder>,
    candidate_stages: Mutex<StageRecorder>,
}

impl ShadowCore {
    fn new() -> Self {
        ShadowCore {
            counters: Mutex::new(AbCounters::default()),
            incumbent_stages: Mutex::new(StageRecorder::new()),
            candidate_stages: Mutex::new(StageRecorder::new()),
        }
    }

    fn lock_counters(&self) -> std::sync::MutexGuard<'_, AbCounters> {
        self.counters.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn record_arm(&self, candidate: bool, out: &RequestOutput) {
        let rec = if candidate {
            &self.candidate_stages
        } else {
            &self.incumbent_stages
        };
        rec.lock()
            .unwrap_or_else(|e| e.into_inner())
            .record(LatencyTrace {
                buffering: Duration::ZERO,
                queueing: out.queue_wait,
                compute: out.batch_latency,
                smoothing: Duration::ZERO,
            });
    }

    fn arm_summary(&self, candidate: bool) -> StageSummary {
        let rec = if candidate {
            &self.candidate_stages
        } else {
            &self.incumbent_stages
        };
        rec.lock().unwrap_or_else(|e| e.into_inner()).summary()
    }
}

/// One job for the shadow collector: forward the incumbent's response
/// untouched, then (if the duplicate was accepted) compare the candidate's.
enum CollectorJob {
    Compare {
        forward: Responder,
        incumbent: PendingResponse,
        candidate: Option<PendingResponse>,
    },
    /// Latency-only recording for a Split-arm response.
    RecordArm {
        forward: Responder,
        response: PendingResponse,
        candidate_arm: bool,
    },
    /// Barrier: ack once every job queued before it has been processed.
    Sync(mpsc::Sender<()>),
}

/// The [`Engine`] wrapper an experiment installs in front of the
/// incumbent.
///
/// For every submission the wrapper (a) submits to the incumbent exactly
/// as the bare engine would, (b) fire-and-forgets a duplicate to the
/// candidate via `try_submit` (Shadow) or routes the request to one arm
/// (Split), and (c) hands the caller a response handle that resolves to
/// the **incumbent's bytes, unmodified** — the collector thread forwards
/// the incumbent's `RequestOutput` before it even looks at the candidate,
/// so a slow or dead candidate can never distort what clients receive.
pub struct ShadowEngine {
    incumbent: Arc<dyn Engine>,
    candidate: Arc<dyn Engine>,
    mode: RouteMode,
    core: Arc<ShadowCore>,
    jobs: mpsc::Sender<CollectorJob>,
    /// Joined on drop so counters are final when the engine goes away.
    collector: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl ShadowEngine {
    /// Wraps `incumbent` with duplication/splitting toward `candidate`.
    ///
    /// # Panics
    ///
    /// Panics if the two engines disagree on class count (their timelines
    /// would be incomparable) or the mode fails validation.
    pub fn new(
        incumbent: Arc<dyn Engine>,
        candidate: Arc<dyn Engine>,
        mode: RouteMode,
        policy: &PromotionPolicy,
    ) -> Self {
        assert_eq!(
            incumbent.num_classes(),
            candidate.num_classes(),
            "ShadowEngine: class-count mismatch between arms"
        );
        if let Err(e) = mode.validate() {
            panic!("invalid RouteMode: {e}");
        }
        let core = Arc::new(ShadowCore::new());
        let (tx, rx) = mpsc::channel::<CollectorJob>();
        let collector_core = Arc::clone(&core);
        let timeout = policy.candidate_timeout;
        let handle = std::thread::Builder::new()
            .name("zoo-shadow-collector".into())
            .spawn(move || collector_loop(rx, collector_core, timeout))
            .expect("spawn zoo-shadow-collector");
        ShadowEngine {
            incumbent,
            candidate,
            mode,
            core,
            jobs: tx,
            collector: Mutex::new(Some(handle)),
        }
    }

    /// Blocks until every response submitted before this call has been
    /// forwarded and its candidate comparison recorded — call before
    /// reading counters that must include in-flight work.
    pub fn sync(&self) {
        let (tx, rx) = mpsc::channel();
        if self.jobs.send(CollectorJob::Sync(tx)).is_ok() {
            let _ = rx.recv();
        }
    }

    /// Whether this submission (0-indexed `seq`) rides the candidate arm
    /// under `Split(f)`: deterministic, exact long-run fraction `f`.
    fn split_takes_candidate(f: f32, seq: u64) -> bool {
        let f = f as f64;
        ((seq + 1) as f64 * f).floor() > (seq as f64 * f).floor()
    }

    fn route(
        &self,
        windows: Tensor,
        submit: impl Fn(&dyn Engine, Tensor) -> Result<PendingResponse, ServeError>,
    ) -> Result<PendingResponse, ServeError> {
        let n = windows.dims()[0];
        match self.mode {
            RouteMode::Shadow => {
                let duplicate = windows.clone();
                let incumbent = submit(&*self.incumbent, windows)?;
                // The duplicate must never block or fail the real request:
                // try_submit only, and a refusal is just a dropped sample.
                let candidate = self.candidate.try_submit(duplicate).ok();
                {
                    let mut c = self.core.lock_counters();
                    c.incumbent_requests += 1;
                    c.candidate_requests += 1;
                    c.candidate_windows += n as u64;
                    if candidate.is_none() {
                        c.dropped += 1;
                    }
                }
                let (forward, pending) = PendingResponse::channel(n);
                // If the collector is gone (engine dropped mid-flight) the
                // job — and with it the responder — drops here, and the
                // caller sees Cancelled.
                let _ = self.jobs.send(CollectorJob::Compare {
                    forward,
                    incumbent,
                    candidate,
                });
                Ok(pending)
            }
            RouteMode::Split(f) => {
                let (candidate_arm, response) = {
                    let seq = {
                        let mut c = self.core.lock_counters();
                        let seq = c.incumbent_requests + c.candidate_requests;
                        let take = Self::split_takes_candidate(f, seq);
                        if take {
                            c.candidate_requests += 1;
                            c.candidate_windows += n as u64;
                        } else {
                            c.incumbent_requests += 1;
                        }
                        take
                    };
                    if seq {
                        (true, submit(&*self.candidate, windows)?)
                    } else {
                        (false, submit(&*self.incumbent, windows)?)
                    }
                };
                let (forward, pending) = PendingResponse::channel(n);
                let _ = self.jobs.send(CollectorJob::RecordArm {
                    forward,
                    response,
                    candidate_arm,
                });
                Ok(pending)
            }
        }
    }
}

impl Drop for ShadowEngine {
    fn drop(&mut self) {
        // Closing the job channel ends the collector loop after it drains.
        let handle = self
            .collector
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take();
        // Replace the sender with a dead one by dropping jobs implicitly:
        // mpsc senders close when all clones drop; ours drops with self,
        // but the collector must not outlive the join below, so signal by
        // sending nothing and joining after self.jobs is unusable. The
        // field drop order (jobs before collector) guarantees the loop's
        // recv errors out.
        if let Some(h) = handle {
            // Drop our sender first so the collector's recv() unblocks.
            let (dead_tx, _dead_rx) = mpsc::channel();
            self.jobs = dead_tx;
            let _ = h.join();
        }
    }
}

fn collector_loop(
    rx: mpsc::Receiver<CollectorJob>,
    core: Arc<ShadowCore>,
    candidate_timeout: Duration,
) {
    while let Ok(job) = rx.recv() {
        match job {
            CollectorJob::Compare {
                forward,
                incumbent,
                candidate,
            } => {
                let inc_result = incumbent.wait();
                // Forward FIRST: the incumbent's timeline must not wait on
                // the candidate.
                let inc_out = match inc_result {
                    Ok(out) => {
                        forward.send(Ok(out.clone()));
                        Some(out)
                    }
                    Err(e) => {
                        forward.send(Err(e));
                        None
                    }
                };
                let Some(inc_out) = inc_out else {
                    // The real request failed; the duplicate is moot.
                    if candidate.is_some() {
                        core.lock_counters().dropped += 1;
                    }
                    continue;
                };
                core.record_arm(false, &inc_out);
                let Some(candidate) = candidate else { continue };
                match candidate.wait_timeout(candidate_timeout) {
                    Ok(Ok(cand_out)) => {
                        core.record_arm(true, &cand_out);
                        let n = inc_out.predictions.len().min(cand_out.predictions.len());
                        let mut agreed = 0u64;
                        let mut delta = 0.0f64;
                        for i in 0..n {
                            if inc_out.predictions[i] == cand_out.predictions[i] {
                                agreed += 1;
                            }
                            let ic = confidence(inc_out.logits.row(i), inc_out.predictions[i]);
                            let cc = confidence(cand_out.logits.row(i), cand_out.predictions[i]);
                            delta += cc as f64 - ic as f64;
                        }
                        let mut c = core.lock_counters();
                        c.resolved += 1;
                        c.compared_windows += n as u64;
                        c.agreed_windows += agreed;
                        c.confidence_delta_sum += delta;
                    }
                    Ok(Err(_)) | Err(_) => {
                        core.lock_counters().dropped += 1;
                    }
                }
            }
            CollectorJob::RecordArm {
                forward,
                response,
                candidate_arm,
            } => match response.wait() {
                Ok(out) => {
                    forward.send(Ok(out.clone()));
                    core.record_arm(candidate_arm, &out);
                    if candidate_arm {
                        core.lock_counters().resolved += 1;
                    }
                }
                Err(e) => {
                    forward.send(Err(e));
                    if candidate_arm {
                        core.lock_counters().dropped += 1;
                    }
                }
            },
            CollectorJob::Sync(ack) => {
                let _ = ack.send(());
            }
        }
    }
}

impl Engine for ShadowEngine {
    fn kind(&self) -> &'static str {
        "shadow"
    }

    /// The incumbent's backends: shadowing is invisible to capacity
    /// planning of the serving arm ([`ZooStats`] exposes both arms).
    fn backends(&self) -> Vec<String> {
        self.incumbent.backends()
    }

    fn num_classes(&self) -> usize {
        self.incumbent.num_classes()
    }

    fn input_shape(&self) -> Option<(usize, usize)> {
        self.incumbent.input_shape()
    }

    fn submit(&self, windows: Tensor) -> Result<PendingResponse, ServeError> {
        self.route(windows, |e, w| e.submit(w))
    }

    fn try_submit(&self, windows: Tensor) -> Result<PendingResponse, ServeError> {
        self.route(windows, |e, w| e.try_submit(w))
    }

    fn submit_with_deadline(
        &self,
        windows: Tensor,
        ttl: Duration,
    ) -> Result<PendingResponse, ServeError> {
        self.route(windows, move |e, w| e.submit_with_deadline(w, ttl))
    }

    fn engine_stats(&self) -> EngineStats {
        self.incumbent.engine_stats()
    }

    fn shutdown(self: Box<Self>) -> EngineStats {
        self.sync();
        self.incumbent.engine_stats()
    }
}

/// A snapshot of one live experiment.
#[derive(Debug, Clone)]
pub struct ExperimentStats {
    /// Name of the model serving real traffic (Shadow) / arm A (Split).
    pub incumbent: String,
    /// Name of the model under evaluation.
    pub candidate: String,
    /// Routing mode.
    pub mode: RouteMode,
    /// Requests the incumbent served.
    pub incumbent_requests: u64,
    /// Requests duplicated or routed to the candidate.
    pub candidate_requests: u64,
    /// Windows duplicated or routed to the candidate.
    pub candidate_windows: u64,
    /// Candidate responses resolved (compared in Shadow mode).
    pub resolved: u64,
    /// Candidate submissions dropped (refused, errored or timed out).
    pub dropped: u64,
    /// Windows compared prediction-by-prediction (Shadow only).
    pub compared_windows: u64,
    /// Compared windows where the two models agreed.
    pub agreed_windows: u64,
    /// Sum of per-window candidate−incumbent top-class confidence.
    pub confidence_delta_sum: f64,
    /// Per-stage latency of the incumbent arm (queueing + compute).
    pub incumbent_stages: StageSummary,
    /// Per-stage latency of the candidate arm.
    pub candidate_stages: StageSummary,
}

impl ExperimentStats {
    /// Fraction of compared windows where both arms agreed (0.0 before any
    /// comparison).
    pub fn agreement_rate(&self) -> f64 {
        if self.compared_windows == 0 {
            0.0
        } else {
            self.agreed_windows as f64 / self.compared_windows as f64
        }
    }

    /// Mean per-window candidate−incumbent confidence delta.
    pub fn mean_confidence_delta(&self) -> f64 {
        if self.compared_windows == 0 {
            0.0
        } else {
            self.confidence_delta_sum / self.compared_windows as f64
        }
    }

    /// Fraction of candidate submissions that never produced a comparable
    /// response.
    pub fn drop_rate(&self) -> f64 {
        if self.candidate_requests == 0 {
            0.0
        } else {
            self.dropped as f64 / self.candidate_requests as f64
        }
    }

    /// Internal-consistency check for the experiment counters: agreements
    /// never exceed comparisons, resolutions and drops never exceed
    /// duplications, and (in Shadow mode) every compared window rode a
    /// resolved duplicate.
    pub fn rollup_consistent(&self) -> bool {
        self.agreed_windows <= self.compared_windows
            && self.resolved + self.dropped <= self.candidate_requests
            && self.compared_windows <= self.candidate_windows
            && (!matches!(self.mode, RouteMode::Shadow)
                || self.candidate_requests == self.incumbent_requests)
    }
}

/// Per-model entry in a [`ZooStats`] snapshot.
#[derive(Debug, Clone)]
pub struct ModelStats {
    /// Registered model name.
    pub name: String,
    /// Whether this model is the current default.
    pub default: bool,
    /// The model engine's live statistics.
    pub engine: EngineStats,
}

/// A full zoo snapshot: every model plus the live experiment (if any).
#[derive(Debug, Clone)]
pub struct ZooStats {
    /// One entry per registered model, registration order.
    pub models: Vec<ModelStats>,
    /// The live experiment's counters, when one is running.
    pub experiment: Option<ExperimentStats>,
}

impl ZooStats {
    /// Rollup consistency: exactly one default model, and the experiment
    /// counters (when present) are internally consistent.
    pub fn rollup_consistent(&self) -> bool {
        self.models.iter().filter(|m| m.default).count() == 1
            && self
                .experiment
                .as_ref()
                .map(ExperimentStats::rollup_consistent)
                .unwrap_or(true)
    }
}

/// A live experiment installed on the zoo.
struct Experiment {
    incumbent: String,
    candidate: String,
    policy: PromotionPolicy,
    shadow: Arc<ShadowEngine>,
}

/// The registry of named model variants.
///
/// Registration happens at build time ([`ModelZoo::register`]); routing
/// state (default model, live experiment) may change while serving, so an
/// `Arc<ModelZoo>` shared with a [`StreamServer`](super::StreamServer) can
/// be experimented on live.
pub struct ModelZoo {
    entries: Vec<(String, Arc<dyn Engine>)>,
    by_name: BTreeMap<String, usize>,
    default_index: AtomicUsize,
    experiment: Mutex<Option<Experiment>>,
}

impl ModelZoo {
    /// An empty zoo.
    pub fn new() -> Self {
        ModelZoo {
            entries: Vec::new(),
            by_name: BTreeMap::new(),
            default_index: AtomicUsize::new(0),
            experiment: Mutex::new(None),
        }
    }

    /// A single-model zoo (how [`StreamServer::start`](super::StreamServer)
    /// wraps a bare engine).
    pub fn single(name: &str, engine: Arc<dyn Engine>) -> Self {
        let mut zoo = ModelZoo::new();
        zoo.register(name, engine)
            .expect("single: first registration cannot collide");
        zoo
    }

    /// Registers a model variant. The first registration becomes the
    /// default.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] on an empty or duplicate name.
    pub fn register(&mut self, name: &str, engine: Arc<dyn Engine>) -> Result<(), ServeError> {
        if name.is_empty() {
            return Err(ServeError::BadRequest("model name is empty".into()));
        }
        if self.by_name.contains_key(name) {
            return Err(ServeError::BadRequest(format!(
                "model {name:?} is already registered"
            )));
        }
        if let Some((_, first)) = self.entries.first() {
            let first_classes = first.num_classes();
            if engine.num_classes() != first_classes {
                return Err(ServeError::BadRequest(format!(
                    "model {name:?} serves {} classes, zoo serves {first_classes}",
                    engine.num_classes()
                )));
            }
        }
        self.by_name.insert(name.to_string(), self.entries.len());
        self.entries.push((name.to_string(), engine));
        Ok(())
    }

    /// Registered model names, registration order.
    pub fn names(&self) -> Vec<&str> {
        self.entries.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// The current default model's name.
    ///
    /// # Panics
    ///
    /// Panics on an empty zoo.
    pub fn default_model(&self) -> &str {
        &self.entries[self.default_index.load(Ordering::Acquire)].0
    }

    /// Makes `name` the default model.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] on an unknown name.
    pub fn set_default(&self, name: &str) -> Result<(), ServeError> {
        let idx = *self
            .by_name
            .get(name)
            .ok_or_else(|| ServeError::BadRequest(format!("unknown model {name:?}")))?;
        self.default_index.store(idx, Ordering::Release);
        Ok(())
    }

    /// Resolves a session's engine: `None` selects the default model. When
    /// a live experiment's incumbent is selected, the returned engine is
    /// the experiment's [`ShadowEngine`] wrapper, so the session's traffic
    /// feeds the experiment transparently.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] on an unknown model name (the typed
    /// error the gateway converts into an Error frame — never a panic).
    pub fn resolve(&self, name: Option<&str>) -> Result<Arc<dyn Engine>, ServeError> {
        if self.entries.is_empty() {
            return Err(ServeError::Unavailable);
        }
        let resolved = match name {
            None => self.default_model().to_string(),
            Some(n) => {
                if !self.by_name.contains_key(n) {
                    return Err(ServeError::BadRequest(format!(
                        "unknown model {n:?} (registered: {})",
                        self.names().join(", ")
                    )));
                }
                n.to_string()
            }
        };
        let exp = self.experiment.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(exp) = exp.as_ref() {
            if exp.incumbent == resolved {
                return Ok(Arc::clone(&exp.shadow) as Arc<dyn Engine>);
            }
        }
        Ok(Arc::clone(&self.entries[self.by_name[&resolved]].1))
    }

    /// The bare engine registered under `name` (experiment-transparent).
    pub fn engine(&self, name: &str) -> Option<Arc<dyn Engine>> {
        self.by_name
            .get(name)
            .map(|&i| Arc::clone(&self.entries[i].1))
    }

    /// Starts an experiment: sessions on `incumbent` are served through a
    /// [`ShadowEngine`] duplicating (Shadow) or splitting (Split) toward
    /// `candidate`. At most one experiment runs at a time.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] on unknown names, identical arms, an
    /// invalid mode, or an experiment already running.
    pub fn start_experiment(
        &self,
        incumbent: &str,
        candidate: &str,
        mode: RouteMode,
        policy: PromotionPolicy,
    ) -> Result<(), ServeError> {
        if incumbent == candidate {
            return Err(ServeError::BadRequest(
                "incumbent and candidate must differ".into(),
            ));
        }
        mode.validate().map_err(ServeError::BadRequest)?;
        let inc = self
            .engine(incumbent)
            .ok_or_else(|| ServeError::BadRequest(format!("unknown model {incumbent:?}")))?;
        let cand = self
            .engine(candidate)
            .ok_or_else(|| ServeError::BadRequest(format!("unknown model {candidate:?}")))?;
        let mut slot = self.experiment.lock().unwrap_or_else(|e| e.into_inner());
        if slot.is_some() {
            return Err(ServeError::BadRequest(
                "an experiment is already running".into(),
            ));
        }
        *slot = Some(Experiment {
            incumbent: incumbent.to_string(),
            candidate: candidate.to_string(),
            policy,
            shadow: Arc::new(ShadowEngine::new(inc, cand, mode, &policy)),
        });
        Ok(())
    }

    /// Stops the live experiment (if any), returning its final snapshot.
    pub fn stop_experiment(&self) -> Option<ExperimentStats> {
        let exp = self
            .experiment
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()?;
        exp.shadow.sync();
        Some(Self::snapshot_experiment(&exp))
    }

    /// The live experiment's snapshot (counters settled via the collector
    /// barrier first).
    pub fn experiment_stats(&self) -> Option<ExperimentStats> {
        let slot = self.experiment.lock().unwrap_or_else(|e| e.into_inner());
        let exp = slot.as_ref()?;
        exp.shadow.sync();
        Some(Self::snapshot_experiment(exp))
    }

    fn snapshot_experiment(exp: &Experiment) -> ExperimentStats {
        let c = *exp.shadow.core.lock_counters();
        ExperimentStats {
            incumbent: exp.incumbent.clone(),
            candidate: exp.candidate.clone(),
            mode: exp.shadow.mode,
            incumbent_requests: c.incumbent_requests,
            candidate_requests: c.candidate_requests,
            candidate_windows: c.candidate_windows,
            resolved: c.resolved,
            dropped: c.dropped,
            compared_windows: c.compared_windows,
            agreed_windows: c.agreed_windows,
            confidence_delta_sum: c.confidence_delta_sum,
            incumbent_stages: exp.shadow.core.arm_summary(false),
            candidate_stages: exp.shadow.core.arm_summary(true),
        }
    }

    /// Evaluates the live experiment against its [`PromotionPolicy`]; on
    /// [`PromotionDecision::Promote`] the candidate becomes the default
    /// model and the experiment ends. Sessions opened after promotion are
    /// served by the promoted model; running sessions keep their engine.
    ///
    /// Returns the decision, or `None` when no experiment is running.
    pub fn promote_if_ready(&self) -> Option<PromotionDecision> {
        let stats = self.experiment_stats()?;
        let decision = {
            let slot = self.experiment.lock().unwrap_or_else(|e| e.into_inner());
            slot.as_ref()?.policy.evaluate(&stats)
        };
        if decision == PromotionDecision::Promote {
            let candidate = stats.candidate.clone();
            let _ = self.stop_experiment();
            self.set_default(&candidate)
                .expect("promoted candidate is registered");
        }
        Some(decision)
    }

    /// A full statistics snapshot in the zoo's registration order.
    pub fn stats(&self) -> ZooStats {
        let default = self.default_index.load(Ordering::Acquire);
        ZooStats {
            models: self
                .entries
                .iter()
                .enumerate()
                .map(|(i, (name, engine))| ModelStats {
                    name: name.clone(),
                    default: i == default,
                    engine: engine.engine_stats(),
                })
                .collect(),
            experiment: self.experiment_stats(),
        }
    }
}

impl Default for ModelZoo {
    fn default() -> Self {
        ModelZoo::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::InferenceEngine;
    use bioformer_core::{Bioformer, BioformerConfig, WaveFormer};

    fn small_bioformer() -> Arc<dyn Engine> {
        let cfg = BioformerConfig {
            heads: 2,
            depth: 1,
            head_dim: 8,
            hidden: 32,
            filter: 30,
            dropout: 0.0,
            ..BioformerConfig::bio1()
        };
        Arc::new(InferenceEngine::new(Box::new(Arc::new(Bioformer::new(
            &cfg,
        )))))
    }

    fn waveformer_engine() -> Arc<dyn Engine> {
        Arc::new(InferenceEngine::new(Box::new(Arc::new(WaveFormer::new(7)))))
    }

    fn window_batch(n: usize, seed: u64) -> Tensor {
        Tensor::from_fn(&[n, 14, 300], |i| {
            ((i as f32 * 0.37 + seed as f32 * 1.13).sin() * 0.8).clamp(-1.0, 1.0)
        })
    }

    #[test]
    fn registration_and_resolution() {
        let mut zoo = ModelZoo::new();
        zoo.register("bioformer-fp32", small_bioformer()).unwrap();
        zoo.register("waveformer-fp32", waveformer_engine())
            .unwrap();
        assert_eq!(zoo.default_model(), "bioformer-fp32");
        assert_eq!(zoo.names(), vec!["bioformer-fp32", "waveformer-fp32"]);
        assert!(zoo.resolve(None).is_ok());
        assert!(zoo.resolve(Some("waveformer-fp32")).is_ok());
        assert!(matches!(
            zoo.resolve(Some("nope")),
            Err(ServeError::BadRequest(_))
        ));
        assert!(matches!(
            zoo.register("bioformer-fp32", small_bioformer()),
            Err(ServeError::BadRequest(_))
        ));
        zoo.set_default("waveformer-fp32").unwrap();
        assert_eq!(zoo.default_model(), "waveformer-fp32");
    }

    #[test]
    fn shadow_preserves_incumbent_outputs_exactly() {
        let incumbent = small_bioformer();
        let mut zoo = ModelZoo::new();
        zoo.register("inc", Arc::clone(&incumbent)).unwrap();
        zoo.register("cand", waveformer_engine()).unwrap();
        zoo.start_experiment("inc", "cand", RouteMode::Shadow, PromotionPolicy::default())
            .unwrap();

        let shadowed = zoo.resolve(None).unwrap();
        assert_eq!(shadowed.kind(), "shadow");
        for seed in 0..4 {
            let batch = window_batch(3, seed);
            let bare = incumbent.classify(batch.clone()).unwrap();
            let via = shadowed.classify(batch).unwrap();
            assert_eq!(bare.predictions, via.predictions);
            assert!(bare.logits.allclose(&via.logits, 0.0), "logits diverge");
        }
        let exp = zoo.experiment_stats().unwrap();
        assert_eq!(exp.candidate_requests, 4);
        assert_eq!(exp.compared_windows, 12);
        assert!(exp.rollup_consistent(), "{exp:?}");
        assert!(exp.candidate_stages.compute.count > 0);
    }

    #[test]
    fn split_routes_exact_fraction() {
        let mut zoo = ModelZoo::new();
        zoo.register("a", small_bioformer()).unwrap();
        zoo.register("b", waveformer_engine()).unwrap();
        zoo.start_experiment("a", "b", RouteMode::Split(0.25), PromotionPolicy::default())
            .unwrap();
        let eng = zoo.resolve(Some("a")).unwrap();
        for s in 0..16 {
            let _ = eng.classify(window_batch(1, s)).unwrap();
        }
        let exp = zoo.experiment_stats().unwrap();
        assert_eq!(exp.candidate_requests, 4, "{exp:?}");
        assert_eq!(exp.incumbent_requests, 12);
        assert!(exp.rollup_consistent());
    }

    #[test]
    fn promotion_gates_on_agreement_and_promotes_identical_models() {
        // Identical architecture + identical seed => 100% agreement.
        let mut zoo = ModelZoo::new();
        zoo.register("inc", small_bioformer()).unwrap();
        zoo.register("cand", small_bioformer()).unwrap();
        let policy = PromotionPolicy {
            min_windows: 8,
            ..PromotionPolicy::default()
        };
        zoo.start_experiment("inc", "cand", RouteMode::Shadow, policy)
            .unwrap();
        let eng = zoo.resolve(None).unwrap();
        // Not enough evidence yet.
        let _ = eng.classify(window_batch(2, 0)).unwrap();
        match zoo.promote_if_ready().unwrap() {
            PromotionDecision::Hold(reasons) => {
                assert!(
                    reasons.iter().any(|r| r.contains("evidence")),
                    "{reasons:?}"
                )
            }
            d => panic!("expected Hold, got {d:?}"),
        }
        for s in 1..6 {
            let _ = eng.classify(window_batch(2, s)).unwrap();
        }
        assert_eq!(zoo.promote_if_ready().unwrap(), PromotionDecision::Promote);
        assert_eq!(zoo.default_model(), "cand");
        assert!(zoo.experiment_stats().is_none(), "experiment must end");
        let stats = zoo.stats();
        assert!(stats.rollup_consistent());
    }

    #[test]
    fn class_count_mismatch_is_rejected_at_registration() {
        struct TinyEngine;
        impl Engine for TinyEngine {
            fn kind(&self) -> &'static str {
                "inference"
            }
            fn backends(&self) -> Vec<String> {
                vec!["tiny".into()]
            }
            fn num_classes(&self) -> usize {
                3
            }
            fn input_shape(&self) -> Option<(usize, usize)> {
                None
            }
            fn submit(&self, _w: Tensor) -> Result<PendingResponse, ServeError> {
                Err(ServeError::Unavailable)
            }
            fn try_submit(&self, _w: Tensor) -> Result<PendingResponse, ServeError> {
                Err(ServeError::Unavailable)
            }
            fn submit_with_deadline(
                &self,
                _w: Tensor,
                _ttl: Duration,
            ) -> Result<PendingResponse, ServeError> {
                Err(ServeError::Unavailable)
            }
            fn engine_stats(&self) -> EngineStats {
                EngineStats {
                    engine: "inference",
                    backends: vec![],
                    requests: 0,
                    expired: 0,
                    failed: 0,
                    rejected: 0,
                    batches: 0,
                    coalesced_batches: 0,
                    windows: 0,
                    latency: crate::serve::LatencyStats::from_samples(&mut [], 0),
                    replicas: vec![],
                }
            }
            fn shutdown(self: Box<Self>) -> EngineStats {
                self.engine_stats()
            }
        }
        let mut zoo = ModelZoo::new();
        zoo.register("real", small_bioformer()).unwrap();
        assert!(matches!(
            zoo.register("tiny", Arc::new(TinyEngine)),
            Err(ServeError::BadRequest(_))
        ));
    }

    #[test]
    fn split_fraction_is_deterministic_and_exact() {
        for f in [0.0f32, 0.1, 0.5, 0.9, 1.0] {
            let taken = (0..1000)
                .filter(|&s| ShadowEngine::split_takes_candidate(f, s))
                .count();
            let expected = (1000.0 * f as f64).floor() as usize;
            assert!(
                (taken as i64 - expected as i64).abs() <= 1,
                "f={f}: took {taken}, expected ~{expected}"
            );
        }
    }
}
