//! The multi-tenant streaming server and its TCP front door.
//!
//! [`StreamSession`] serves **one** electrode array; the ROADMAP's workload
//! is thousands of them multiplexed over a shared engine. [`StreamServer`]
//! is that multiplexer:
//!
//! * **N concurrent sessions, one engine** — every session streams through
//!   the same `Arc<dyn Engine>` (an inline
//!   [`InferenceEngine`](super::InferenceEngine), a coalescing
//!   [`AsyncEngine`](super::AsyncEngine), or a
//!   [`ShardedEngine`](super::ShardedEngine) pool — the server is
//!   topology-generic).
//! * **Sessions run on their caller's thread** — [`SessionHandle::send`]
//!   pushes the samples into the session's own [`StreamSession`] on the
//!   calling thread, and a served window's completion wakes that session's
//!   own waiter ([`SessionHandle::wait_events`]), which absorbs it and
//!   publishes the events. The session's lookahead is the backpressure
//!   bound: a sender blocks only while its own windows in flight fill it
//!   (or [`SessionHandle::try_send`] reports [`ServeError::QueueFull`]). A
//!   session flooding at 100× the others' rate fills *its own* lookahead
//!   while every other session keeps its schedule — flooding cannot starve
//!   the pool. The server's one thread of its own only keeps time: idle
//!   eviction, resume-TTL expiry and shutdown.
//! * **Session lifecycle** — connect / idle-timeout eviction / reconnect.
//!   Eviction and client-side disconnects both [`StreamSession::suspend`]
//!   the stream into a [`SessionCheckpoint`] parked under the session
//!   token; [`StreamServer::resume`] reopens it with the decision smoother,
//!   buffered tail samples, undelivered events and per-window history
//!   intact, so the resumed stream is bit-identical to an uninterrupted
//!   one — no duplicated and no lost [`GestureEvent`] across the seam.
//! * **Per-tenant statistics** — every counter is tracked per tenant and
//!   rolled up into pool totals ([`ServerStats`]), with the same
//!   totals-equal-sum-of-parts invariant the sharded engine's
//!   [`EngineStats`] keeps per replica
//!   ([`ServerStats::rollup_consistent`]).
//!
//! [`TcpGateway`] puts the wire on it: a `std::net` loopback listener
//! speaking the length-prefixed [`proto`](super::proto) frame protocol —
//! sample chunks in; [`GestureEvent`], summary and stats frames out;
//! explicit error frames for every failure. The matching client codec
//! lives in [`client`](super::client).
//!
//! `docs/serving.md` § "Gateway" has the frame diagram, the session
//! lifecycle state machine and the flow-control semantics.

use super::engine::{Engine, EngineStats};
use super::proto::{encode_frame, ErrorCode, Frame, FrameDecoder};
use super::queue::{ReadyHook, ServeError};
use super::stream::{GestureEvent, SessionCheckpoint, StreamConfig, StreamSession, StreamSummary};
use super::trace::{LatencyBudget, LatencyTrace, StageRecorder, StageSummary};
use super::zoo::{ModelZoo, ZooStats};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, TryLockError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Configuration for a [`StreamServer`].
#[derive(Debug, Clone)]
pub struct StreamServerConfig {
    /// The per-session stream template (shape, slide, lookahead, policy,
    /// normalizer). Every session the server opens uses this config; its
    /// `lookahead` is also each session's backpressure bound.
    pub stream: StreamConfig,
    /// Maximum concurrently-open sessions; [`StreamServer::connect`] fails
    /// with [`ServeError::Unavailable`] beyond it. Parked (suspended)
    /// sessions do not occupy a slot.
    pub max_sessions: usize,
    /// Evict sessions idle (no inbound traffic) for this long, suspending
    /// their state for resume. `None` disables eviction.
    pub idle_timeout: Option<Duration>,
    /// Drop parked checkpoints not resumed within this window. `None`
    /// parks them forever.
    pub resume_ttl: Option<Duration>,
    /// Default per-session decision-latency budget (SLO). Sessions whose
    /// per-session [`StageSummary`] blows the budget are flagged (counted
    /// in [`ServeCounters::slo_violations`]) and — when
    /// [`StreamServerConfig::slo_evict`] is set — evicted with their
    /// checkpoint parked, exactly like an idle-timeout eviction.
    /// [`SessionOptions::slo`] overrides it per session. `None` disables
    /// SLO enforcement.
    pub slo: Option<LatencyBudget>,
    /// Whether an SLO violation evicts the session (park + free the slot)
    /// or merely flags it.
    pub slo_evict: bool,
}

impl StreamServerConfig {
    /// A config serving `stream` with 32 session slots, no idle eviction
    /// and a 60 s resume window.
    pub fn new(stream: StreamConfig) -> Self {
        StreamServerConfig {
            stream,
            max_sessions: 32,
            idle_timeout: None,
            resume_ttl: Some(Duration::from_secs(60)),
            slo: None,
            slo_evict: false,
        }
    }

    /// Sets the session-slot count.
    pub fn with_max_sessions(mut self, max_sessions: usize) -> Self {
        self.max_sessions = max_sessions;
        self
    }

    /// Sets (or disables) the idle-eviction timeout.
    pub fn with_idle_timeout(mut self, idle_timeout: Option<Duration>) -> Self {
        self.idle_timeout = idle_timeout;
        self
    }

    /// Sets (or disables) the parked-checkpoint TTL.
    pub fn with_resume_ttl(mut self, resume_ttl: Option<Duration>) -> Self {
        self.resume_ttl = resume_ttl;
        self
    }

    /// Sets the default per-session decision-latency budget (SLO).
    pub fn with_slo(mut self, slo: LatencyBudget) -> Self {
        self.slo = Some(slo);
        self
    }

    /// Makes SLO violations evict (park) the offending session instead of
    /// only flagging it.
    pub fn with_slo_evict(mut self, slo_evict: bool) -> Self {
        self.slo_evict = slo_evict;
        self
    }

    fn validate(&self) -> Result<(), ServeError> {
        if self.max_sessions == 0 {
            return Err(ServeError::BadRequest(
                "StreamServerConfig: max_sessions must be >= 1".into(),
            ));
        }
        Ok(())
    }
}

/// Lifetime counters of one logical session or one tenant (identical
/// schema, so per-session counters roll into per-tenant counters roll into
/// pool totals by plain field-wise addition).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeCounters {
    /// Sessions opened ([`StreamServer::connect`]; 1 for a session).
    pub sessions: u64,
    /// Successful [`StreamServer::resume`] reconnects.
    pub reconnects: u64,
    /// Idle-timeout evictions.
    pub evictions: u64,
    /// Client-side disconnects that parked a checkpoint (bye / dropped
    /// handle / socket loss).
    pub disconnects: u64,
    /// Streams finished cleanly.
    pub finished: u64,
    /// Streams failed by an engine error.
    pub failed: u64,
    /// Sample chunks absorbed.
    pub chunks: u64,
    /// Raw samples absorbed.
    pub samples: u64,
    /// Windows decided.
    pub windows: u64,
    /// Gesture events emitted.
    pub events: u64,
    /// Sessions flagged for blowing their decision-latency budget (one per
    /// session, on its first violation). SLO-triggered evictions
    /// additionally count under `evictions`.
    pub slo_violations: u64,
}

impl ServeCounters {
    fn add(&mut self, other: &ServeCounters) {
        self.sessions += other.sessions;
        self.reconnects += other.reconnects;
        self.evictions += other.evictions;
        self.disconnects += other.disconnects;
        self.finished += other.finished;
        self.failed += other.failed;
        self.chunks += other.chunks;
        self.samples += other.samples;
        self.windows += other.windows;
        self.events += other.events;
        self.slo_violations += other.slo_violations;
    }
}

/// One tenant's rolled-up counters inside a [`ServerStats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantStats {
    /// The tenant name (from [`StreamServer::connect`]).
    pub tenant: String,
    /// The tenant's lifetime counters.
    pub counters: ServeCounters,
}

/// A snapshot of a [`StreamServer`]'s serving state: pool totals, the
/// per-tenant breakdown they roll up from, live/parked gauges and the
/// underlying engine's [`EngineStats`].
#[derive(Debug, Clone)]
pub struct ServerStats {
    /// Pool-wide totals; each field equals the sum over `per_tenant`.
    pub totals: ServeCounters,
    /// Per-tenant breakdown, tenant-name order.
    pub per_tenant: Vec<TenantStats>,
    /// Sessions currently open (attached or awaiting their end).
    pub live_sessions: usize,
    /// Suspended checkpoints currently parked for resume.
    pub parked_sessions: usize,
    /// Per-stage decision-latency percentiles (p50/p95/p99 for buffering /
    /// queueing / compute / smoothing) over the events emitted by **all**
    /// sessions, rolled up as each push or absorb publishes. Traces from a
    /// session's final finish/suspend drain live only in that session's
    /// [`StreamSummary::stages`], so the pool view can trail the
    /// per-session view by the few events a stream emits while closing.
    pub stages: StageSummary,
    /// The **default model's** engine statistics (kept for single-model
    /// deployments; the full per-model picture is in `zoo`).
    pub engine: EngineStats,
    /// The model zoo's snapshot: every registered model's [`EngineStats`]
    /// plus the live shadow/A-B experiment's counters, if one is running.
    pub zoo: ZooStats,
}

impl ServerStats {
    /// Whether every pool total equals the sum of its per-tenant
    /// counterparts — the same totals-equal-sum invariant
    /// [`EngineStats::rollup_consistent`]
    /// keeps per replica, one layer up.
    pub fn rollup_consistent(&self) -> bool {
        let mut sum = ServeCounters::default();
        for t in &self.per_tenant {
            sum.add(&t.counters);
        }
        sum == self.totals && self.zoo.rollup_consistent()
    }
}

/// Per-session options for [`StreamServer::connect_with`].
#[derive(Debug, Clone, Default)]
pub struct SessionOptions {
    /// Model variant to serve this session with (a name registered in the
    /// server's [`ModelZoo`]); `None` selects the zoo's default model —
    /// exactly what a v1 wire client gets.
    pub model: Option<String>,
    /// Per-session decision-latency budget, overriding
    /// [`StreamServerConfig::slo`].
    pub slo: Option<LatencyBudget>,
}

impl SessionOptions {
    /// Selects a model variant by name.
    pub fn with_model(mut self, model: &str) -> Self {
        self.model = Some(model.to_string());
        self
    }

    /// Sets the per-session latency budget.
    pub fn with_slo(mut self, slo: LatencyBudget) -> Self {
        self.slo = Some(slo);
        self
    }
}

/// Per-session final counters reported by [`FinishReport`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Sample chunks absorbed over the logical stream.
    pub chunks: u64,
    /// Raw samples absorbed.
    pub samples: u64,
    /// Windows decided.
    pub windows: u64,
    /// Gesture events emitted.
    pub events: u64,
}

/// What [`SessionHandle::finish`] returns: the stream summary plus the
/// session's final counters.
#[derive(Debug, Clone)]
pub struct FinishReport {
    /// The whole logical stream's summary; its `events` field carries every
    /// event **not** already returned by [`SessionHandle::poll_events`].
    pub summary: StreamSummary,
    /// The session's lifetime counters (reconnect seams included).
    pub stats: SessionStats,
}

/// How a session ended, kept in its slot until the handle consumes it.
#[derive(Debug)]
enum SessionEnd {
    /// Finished cleanly; the summary waits for [`SessionHandle::finish`].
    Finished(Box<StreamSummary>),
    /// Suspended and parked on client request (bye / detach).
    Parked,
    /// Suspended and parked by the idle timeout or the latency budget.
    Evicted,
    /// The engine failed the stream, or the server shut down.
    Failed(ServeError),
}

/// How a stream is asked to end.
#[derive(Debug, Clone, Copy)]
enum EndKind {
    Finish,
    Park,
    Evict,
}

/// How a step ended its stream, before it is written back.
enum Outcome {
    Finished(Box<StreamSummary>),
    /// Suspended; the end is [`SessionEnd::Parked`] or
    /// [`SessionEnd::Evicted`].
    Suspended(Box<SessionCheckpoint>, SessionEnd),
    Failed(ServeError),
}

/// One session's stream and what only its steps touch, behind the session
/// lock. A handle's threads take it to push, absorb, finish or park; the
/// pump takes it with `try_lock` to evict, because a session that is being
/// pushed to is not idle. Lock order: the session lock before the registry
/// lock, never the reverse — the completion hook takes only the registry
/// lock, because with an inline engine it fires inside `push_samples`.
struct Core {
    /// The stream; `None` once it has ended.
    stream: Option<StreamSession>,
    /// The session's decision-latency budget (per-session override or the
    /// server-wide default), if any.
    slo: Option<LatencyBudget>,
    /// Whether the budget is due a check although no trace was recorded:
    /// set at open, because a resumed stream brings its recorder back.
    slo_due: bool,
    /// Set once the first SLO violation was counted, so a session is
    /// flagged (and counted) at most once.
    slo_flagged: bool,
    /// Windows decided over the logical stream, as last written back
    /// (drives the `windows` counter delta).
    decided_seen: u64,
    /// Reused buffer for the traces a step hands to the pool rollup.
    traces: Vec<LatencyTrace>,
}

impl Core {
    /// The open stream, or why there is none.
    fn open(&mut self, shared: &Shared, token: u64) -> Result<&mut StreamSession, ServeError> {
        if shared.shutdown.load(Ordering::SeqCst) {
            self.stream = None;
            return Err(ServeError::ShuttingDown);
        }
        match self.stream.as_mut() {
            Some(stream) => Ok(stream),
            None => Err(
                match shared.lock().slots.get(&token).and_then(|s| s.end.as_ref()) {
                    Some(SessionEnd::Evicted) => ServeError::Evicted,
                    Some(SessionEnd::Failed(e)) => e.clone(),
                    Some(_) => ServeError::BadRequest("session already ended".into()),
                    None => ServeError::ShuttingDown,
                },
            ),
        }
    }

    /// One step on the open stream: pushes `samples`, or — with `None` —
    /// absorbs what the engine has served since the last step; then writes
    /// the step back.
    ///
    /// # Errors
    ///
    /// Why the stream is not open, or the engine error that failed it in
    /// this step.
    fn step(
        &mut self,
        shared: &Shared,
        token: u64,
        samples: Option<&[f32]>,
    ) -> Result<(), ServeError> {
        let stream = self.open(shared, token)?;
        let result = match samples {
            Some(samples) => stream.push_samples(samples),
            None => stream.poll(),
        };
        let failure = result.as_ref().err().cloned();
        self.settle(shared, token, samples.map(<[f32]>::len), result, None);
        failure.map_or(Ok(()), Err)
    }

    /// Writes a step back to the registry: the pool's trace rollup, the
    /// session's counters and events and — when the step ends the stream
    /// (`end`, an engine failure or a blown budget under `slo_evict`) — its
    /// outcome. Runs under the session lock, so a session's events are
    /// published in decision order whichever of its threads stepped it.
    fn settle(
        &mut self,
        shared: &Shared,
        token: u64,
        samples: Option<usize>,
        result: Result<Vec<GestureEvent>, ServeError>,
        mut end: Option<EndKind>,
    ) {
        let (mut events, mut outcome) = match result {
            Ok(events) => (events, None),
            Err(e) => {
                self.stream = None;
                (Vec::new(), Some(Outcome::Failed(e)))
            }
        };
        let mut slo_violation = false;
        if let Some(stream) = self.stream.as_mut() {
            stream.drain_new_traces(&mut self.traces);
            // The stage summary copies and sorts four rings, and only a new
            // trace can change its verdict.
            let due = self.slo_due || !self.traces.is_empty();
            if let Some(budget) = self.slo.filter(|_| due) {
                self.slo_due = false;
                let summary = stream.stage_stats();
                if summary.count() > 0 && !budget.evaluate(&summary).fits {
                    slo_violation = !std::mem::replace(&mut self.slo_flagged, true);
                    if shared.cfg.slo_evict && end.is_none() {
                        // Suspend like an idle eviction, so the client can
                        // resume (perhaps against a cheaper model).
                        end = Some(EndKind::Evict);
                    }
                }
            }
        }
        let ending = end.and_then(|kind| Some((kind, self.stream.take()?)));
        if let Some((kind, stream)) = ending {
            outcome = Some(match kind {
                EndKind::Finish => stream
                    .finish()
                    .map_or_else(Outcome::Failed, |s| Outcome::Finished(Box::new(s))),
                EndKind::Park | EndKind::Evict => match stream.suspend() {
                    Ok((checkpoint, more)) => {
                        events.extend(more);
                        let end = match kind {
                            EndKind::Evict => SessionEnd::Evicted,
                            _ => SessionEnd::Parked,
                        };
                        Outcome::Suspended(Box::new(checkpoint), end)
                    }
                    Err(e) => Outcome::Failed(e),
                },
            });
        }
        let decided = match (&outcome, &self.stream) {
            (Some(Outcome::Finished(summary)), _) => summary.windows as u64,
            (Some(Outcome::Suspended(checkpoint, _)), _) => checkpoint.windows_decided() as u64,
            (_, Some(stream)) => stream.windows_decided() as u64,
            (_, None) => self.decided_seen,
        };
        if samples.is_none()
            && outcome.is_none()
            && events.is_empty()
            && self.traces.is_empty()
            && decided == self.decided_seen
            && !slo_violation
        {
            // Nothing was served since the last step.
            return;
        }
        let windows = decided.saturating_sub(self.decided_seen);
        self.decided_seen = decided;

        let mut guard = shared.lock();
        let reg = &mut *guard;
        for trace in self.traces.drain(..) {
            reg.stages.record(trace);
        }
        // A slot that has ended already was failed by the shutdown.
        let Some(slot) = reg.slots.get_mut(&token).filter(|s| s.end.is_none()) else {
            return;
        };
        let mut delta = ServeCounters {
            chunks: u64::from(samples.is_some()),
            samples: samples.unwrap_or(0) as u64,
            windows,
            events: events.len() as u64,
            slo_violations: u64::from(slo_violation),
            ..ServeCounters::default()
        };
        slot.counters.chunks += delta.chunks;
        slot.counters.samples += delta.samples;
        slot.counters.windows += delta.windows;
        slot.counters.events += delta.events;
        if samples.is_some() {
            slot.last_activity = Instant::now();
        }
        let publish = !events.is_empty() || outcome.is_some();
        slot.events.extend(events);
        match outcome {
            None => {}
            Some(Outcome::Finished(mut summary)) => {
                delta.finished = 1;
                // The report's events = everything not yet taken, in
                // decision order.
                let mut events = std::mem::take(&mut slot.events);
                events.extend(std::mem::take(&mut summary.events));
                summary.events = events;
                slot.end = Some(SessionEnd::Finished(summary));
            }
            Some(Outcome::Suspended(checkpoint, end)) => {
                match end {
                    SessionEnd::Evicted => delta.evictions = 1,
                    _ => delta.disconnects = 1,
                }
                let parked = Parked {
                    tenant: slot.tenant.clone(),
                    model: slot.model.clone(),
                    checkpoint: *checkpoint,
                    events: std::mem::take(&mut slot.events),
                    counters: slot.counters.clone(),
                    parked_at: Instant::now(),
                };
                slot.end = Some(end);
                reg.parked.insert(token, parked);
                // Its expiry may be the pump's next deadline.
                shared.pump_wake.notify_one();
            }
            Some(Outcome::Failed(e)) => {
                delta.failed = 1;
                slot.end = Some(SessionEnd::Failed(e));
            }
        }
        reg.tally.add(&slot.tenant, &delta);
        if publish {
            slot.signal.notify_all();
        }
    }
}

/// The session lock, poison-tolerant like every lock here.
fn lock_core(core: &Mutex<Core>) -> MutexGuard<'_, Core> {
    core.lock().unwrap_or_else(|e| e.into_inner())
}

/// The session lock if nobody else holds it.
fn try_lock_core(core: &Mutex<Core>) -> Option<MutexGuard<'_, Core>> {
    match core.try_lock() {
        Ok(core) => Some(core),
        Err(TryLockError::Poisoned(e)) => Some(e.into_inner()),
        Err(TryLockError::WouldBlock) => None,
    }
}

/// One open session's shared state (registry side).
struct Slot {
    tenant: String,
    /// The zoo model name this session was resolved against. Resolution
    /// happens once, at connect/resume time — a mid-session promotion or
    /// experiment change never reroutes a live stream.
    model: String,
    /// The session's stream, behind the session lock.
    core: Arc<Mutex<Core>>,
    /// `Some` once the stream has ended; the handle consumes it.
    end: Option<SessionEnd>,
    /// Events decided but not yet taken by the handle.
    events: Vec<GestureEvent>,
    /// Set by the session's completion wake-up: an in-flight window has
    /// been served and waits to be absorbed.
    ready: bool,
    /// Wakes this session's waiters — and nobody else — when a window is
    /// ready or events or the outcome are published.
    signal: Arc<Condvar>,
    /// Per-session counters (carried across reconnect seams).
    counters: SessionStats,
    /// When the last sample chunk arrived.
    last_activity: Instant,
}

impl Slot {
    /// A freshly opened session's slot over `stream`, nothing published.
    fn open(
        tenant: String,
        model: String,
        stream: StreamSession,
        slo: Option<LatencyBudget>,
    ) -> Slot {
        let core = Core {
            // A resumed stream has decided its checkpoint's windows, which
            // were counted before it parked.
            decided_seen: stream.windows_decided() as u64,
            stream: Some(stream),
            slo,
            slo_due: true,
            slo_flagged: false,
            traces: Vec::new(),
        };
        Slot {
            tenant,
            model,
            core: Arc::new(Mutex::new(core)),
            end: None,
            events: Vec::new(),
            ready: false,
            signal: Arc::new(Condvar::new()),
            counters: SessionStats::default(),
            last_activity: Instant::now(),
        }
    }
}

/// A suspended session's parked state, keyed by its token.
struct Parked {
    tenant: String,
    /// The model the session was opened with; resume re-resolves it so the
    /// stream continues on the same variant it started on.
    model: String,
    checkpoint: SessionCheckpoint,
    /// Undelivered events, re-queued into the slot on resume.
    events: Vec<GestureEvent>,
    counters: SessionStats,
    parked_at: Instant,
}

/// Per-tenant counters and the pool totals they roll up into.
#[derive(Default)]
struct Tally {
    tenants: BTreeMap<String, ServeCounters>,
    totals: ServeCounters,
}

impl Tally {
    /// Applies a counter delta to one tenant and the pool totals — the one
    /// place the two are written, which is what keeps
    /// [`ServerStats::rollup_consistent`] true. Allocates only for a tenant
    /// it has not seen before.
    fn add(&mut self, tenant: &str, delta: &ServeCounters) {
        match self.tenants.get_mut(tenant) {
            Some(counters) => counters.add(delta),
            None => {
                self.tenants.insert(tenant.to_string(), delta.clone());
            }
        }
        self.totals.add(delta);
    }
}

/// The mutable registry behind the mutex.
struct Registry {
    slots: BTreeMap<u64, Slot>,
    parked: BTreeMap<u64, Parked>,
    tally: Tally,
    /// Pool-wide decision-latency rollup, fed with the traces each step
    /// recorded.
    stages: StageRecorder,
}

impl Registry {
    /// Sessions occupying a pool slot (ended-but-unconsumed slots are
    /// zombies awaiting their handle and do not count).
    fn live(&self) -> usize {
        self.slots.values().filter(|s| s.end.is_none()).count()
    }
}

/// State shared between the server front, its handles and the pump thread.
struct Shared {
    cfg: StreamServerConfig,
    state: Mutex<Registry>,
    /// Wakes the pump before its next deadline: a session opened or
    /// parked, or the server is shutting down.
    pump_wake: Condvar,
    next_token: AtomicU64,
    shutdown: AtomicBool,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, Registry> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// The multi-tenant streaming server (see the [module docs](self)).
///
/// In-process clients use [`StreamServer::connect`] /
/// [`StreamServer::resume`] and the returned [`SessionHandle`]s directly;
/// [`TcpGateway`] exposes the same lifecycle over the wire.
///
/// The server is engine-agnostic, but the recommended deployment is over a
/// [`ShardedEngine`](super::ShardedEngine) pool rather than a single
/// [`InferenceEngine`](super::InferenceEngine): replicas absorb tenant
/// bursts independently and quarantine isolates a failing backend (see
/// `examples/serve_gateway.rs`).
pub struct StreamServer {
    shared: Arc<Shared>,
    zoo: Arc<ModelZoo>,
    pump: Mutex<Option<JoinHandle<()>>>,
}

impl StreamServer {
    /// Starts a server multiplexing sessions over a single `engine`,
    /// registered as the zoo's sole model under the name `"default"`.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] on a zero `max_sessions`.
    pub fn start(engine: Arc<dyn Engine>, cfg: StreamServerConfig) -> Result<Self, ServeError> {
        Self::start_zoo(Arc::new(ModelZoo::single("default", engine)), cfg)
    }

    /// Starts a server over a [`ModelZoo`]: sessions pick a registered
    /// model by name (wire protocol v2 `Hello.model`, or
    /// [`SessionOptions::model`] in-process) and default to the zoo's
    /// current default variant.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] on a zero `max_sessions` or an empty zoo.
    pub fn start_zoo(zoo: Arc<ModelZoo>, cfg: StreamServerConfig) -> Result<Self, ServeError> {
        cfg.validate()?;
        if zoo.names().is_empty() {
            return Err(ServeError::BadRequest(
                "StreamServer requires a zoo with at least one model".into(),
            ));
        }
        let shared = Arc::new(Shared {
            cfg,
            state: Mutex::new(Registry {
                slots: BTreeMap::new(),
                parked: BTreeMap::new(),
                tally: Tally::default(),
                stages: StageRecorder::new(),
            }),
            pump_wake: Condvar::new(),
            next_token: AtomicU64::new(1),
            shutdown: AtomicBool::new(false),
        });
        let pump = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("stream-server-pump".into())
                .spawn(move || pump_loop(&shared))
                .expect("spawn stream-server pump")
        };
        Ok(StreamServer {
            shared,
            zoo,
            pump: Mutex::new(Some(pump)),
        })
    }

    /// The server's model zoo (register variants, run experiments, promote).
    pub fn zoo(&self) -> &Arc<ModelZoo> {
        &self.zoo
    }

    /// The per-session stream template.
    pub fn stream_config(&self) -> &StreamConfig {
        &self.shared.cfg.stream
    }

    /// Opens a new session for `tenant`.
    ///
    /// # Errors
    ///
    /// [`ServeError::Unavailable`] when all
    /// [`StreamServerConfig::max_sessions`] slots are occupied,
    /// [`ServeError::BadRequest`] when the stream template does not fit the
    /// engine, and [`ServeError::ShuttingDown`] after
    /// [`StreamServer::shutdown`].
    pub fn connect(&self, tenant: &str) -> Result<SessionHandle, ServeError> {
        self.connect_with(tenant, SessionOptions::default())
    }

    /// Opens a new session with per-session [`SessionOptions`]: an explicit
    /// zoo model and/or a latency budget overriding
    /// [`StreamServerConfig::slo`].
    ///
    /// # Errors
    ///
    /// Everything [`StreamServer::connect`] returns, plus
    /// [`ServeError::BadRequest`] for a model name the zoo does not know.
    pub fn connect_with(
        &self,
        tenant: &str,
        opts: SessionOptions,
    ) -> Result<SessionHandle, ServeError> {
        if self.shared.shutdown.load(Ordering::SeqCst) {
            return Err(ServeError::ShuttingDown);
        }
        // Resolve before taking a slot so an unknown model costs nothing.
        let model = opts
            .model
            .unwrap_or_else(|| self.zoo.default_model().to_string());
        let engine = self.zoo.resolve(Some(&model))?;
        let slo = opts.slo.or(self.shared.cfg.slo);
        let token = self.shared.next_token.fetch_add(1, Ordering::Relaxed);
        let mut stream = StreamSession::new(engine, self.shared.cfg.stream.clone())?;
        stream.wake_with(ready_hook(&self.shared, token));
        let reg = self.shared.lock();
        if reg.live() >= self.shared.cfg.max_sessions {
            return Err(ServeError::Unavailable);
        }
        let slot = Slot::open(tenant.to_string(), model, stream, slo);
        let sessions = ServeCounters {
            sessions: 1,
            ..ServeCounters::default()
        };
        Ok(self.admit(reg, token, slot, &sessions))
    }

    /// Puts a fresh slot into the registry under `token`, counts it and
    /// hands out the slot's handle.
    fn admit(
        &self,
        mut reg: MutexGuard<'_, Registry>,
        token: u64,
        slot: Slot,
        counted_as: &ServeCounters,
    ) -> SessionHandle {
        let handle = SessionHandle {
            shared: Arc::clone(&self.shared),
            token,
            tenant: slot.tenant.clone(),
            core: Arc::clone(&slot.core),
            signal: Arc::clone(&slot.signal),
            consumed: false,
        };
        reg.tally.add(&slot.tenant, counted_as);
        reg.slots.insert(token, slot);
        // The new session's idle timeout may be the pump's next deadline.
        self.shared.pump_wake.notify_one();
        handle
    }

    /// Reconnects to a suspended session: the parked checkpoint (decision
    /// smoother, buffered tail samples, per-window history) and any
    /// undelivered events move into a fresh slot, and the stream continues
    /// bit-identically to one that was never interrupted. The returned
    /// handle carries a **new** token (the old one may still be held by an
    /// evicted handle); park/resume again with the new one.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] for an unknown/expired token or a tenant
    /// mismatch, [`ServeError::Unavailable`] when no slot is free,
    /// [`ServeError::ShuttingDown`] after shutdown.
    pub fn resume(&self, tenant: &str, token: u64) -> Result<SessionHandle, ServeError> {
        if self.shared.shutdown.load(Ordering::SeqCst) {
            return Err(ServeError::ShuttingDown);
        }
        let mut reg = self.shared.lock();
        if reg.live() >= self.shared.cfg.max_sessions {
            return Err(ServeError::Unavailable);
        }
        let parked = reg.parked.remove(&token).ok_or_else(|| {
            ServeError::BadRequest(format!("unknown or expired resume token {token}"))
        })?;
        if parked.tenant != tenant {
            let owner = parked.tenant.clone();
            reg.parked.insert(token, parked);
            return Err(ServeError::BadRequest(format!(
                "resume token {token} belongs to tenant {owner:?}, not {tenant:?}"
            )));
        }
        // Re-resolve the model the session started on: the stream must
        // continue on the same variant, but an experiment started while it
        // was parked may wrap it in a fresh shadow route.
        let engine = match self.zoo.resolve(Some(&parked.model)) {
            Ok(engine) => engine,
            Err(e) => {
                reg.parked.insert(token, parked);
                return Err(e);
            }
        };
        // Under a fresh token: the old one may still name an evicted zombie
        // slot whose handle has not observed the eviction yet.
        let fresh = self.shared.next_token.fetch_add(1, Ordering::Relaxed);
        let mut stream =
            StreamSession::resume(engine, self.shared.cfg.stream.clone(), parked.checkpoint)?;
        stream.wake_with(ready_hook(&self.shared, fresh));
        let slot = Slot {
            events: parked.events,
            counters: parked.counters,
            ..Slot::open(parked.tenant, parked.model, stream, self.shared.cfg.slo)
        };
        let reconnects = ServeCounters {
            reconnects: 1,
            ..ServeCounters::default()
        };
        Ok(self.admit(reg, fresh, slot, &reconnects))
    }

    /// A live snapshot of the server's statistics.
    pub fn stats(&self) -> ServerStats {
        let reg = self.shared.lock();
        ServerStats {
            totals: reg.tally.totals.clone(),
            per_tenant: reg
                .tally
                .tenants
                .iter()
                .map(|(tenant, counters)| TenantStats {
                    tenant: tenant.clone(),
                    counters: counters.clone(),
                })
                .collect(),
            live_sessions: reg.live(),
            parked_sessions: reg.parked.len(),
            stages: reg.stages.summary(),
            engine: self
                .zoo
                .engine(self.zoo.default_model())
                .expect("zoo default model is always registered")
                .engine_stats(),
            zoo: self.zoo.stats(),
        }
    }

    /// Stops the pump: open sessions fail with
    /// [`ServeError::ShuttingDown`], parked checkpoints are dropped, and
    /// the final statistics are returned. The engine itself is left
    /// running — it belongs to the caller.
    pub fn shutdown(&self) -> ServerStats {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Under the registry lock, so the pump is either still to check the
        // flag or already asleep.
        let reg = self.shared.lock();
        self.shared.pump_wake.notify_all();
        drop(reg);
        if let Some(pump) = self.pump.lock().unwrap_or_else(|e| e.into_inner()).take() {
            let _ = pump.join();
        }
        self.stats()
    }
}

impl Drop for StreamServer {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

impl std::fmt::Debug for StreamServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let reg = self.shared.lock();
        f.debug_struct("StreamServer")
            .field("default_model", &self.zoo.default_model())
            .field("models", &self.zoo.names())
            .field("live_sessions", &reg.live())
            .field("parked_sessions", &reg.parked.len())
            .field("max_sessions", &self.shared.cfg.max_sessions)
            .finish()
    }
}

/// A client's handle to one open server-side session.
///
/// Every call runs on the caller's thread: [`SessionHandle::send`] pushes
/// into the session's stream, [`SessionHandle::wait_events`] absorbs the
/// windows the engine has served, and [`SessionHandle::finish`] /
/// [`SessionHandle::disconnect`] end the stream. One session may be used
/// from two threads at once (the gateway reads on one and writes on the
/// other); its steps take turns on the session lock.
///
/// Dropping a handle without [`SessionHandle::finish`] or
/// [`SessionHandle::disconnect`] counts as a mid-stream disconnect: the
/// session is suspended on the dropping thread (which waits out the
/// windows in flight), its checkpoint parked under
/// [`SessionHandle::token`] and the slot freed.
pub struct SessionHandle {
    shared: Arc<Shared>,
    token: u64,
    tenant: String,
    /// The slot's stream (kept here too: the slot may be gone).
    core: Arc<Mutex<Core>>,
    /// The slot's condvar (kept here too: the slot may be gone).
    signal: Arc<Condvar>,
    consumed: bool,
}

impl std::fmt::Debug for SessionHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionHandle")
            .field("token", &self.token)
            .field("tenant", &self.tenant)
            .finish()
    }
}

impl SessionHandle {
    /// The session token — the resume key after a disconnect or eviction.
    pub fn token(&self) -> u64 {
        self.token
    }

    /// The tenant this session belongs to.
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    /// Pushes one chunk of raw interleaved samples into the session on
    /// this thread — windowing, normalisation and submission of every
    /// window it completes — and publishes the events decided so far. It
    /// blocks only while the session's windows in flight fill its
    /// lookahead (cooperative backpressure), or while another thread of the
    /// same session is mid-step.
    ///
    /// # Errors
    ///
    /// [`ServeError::Evicted`] after an eviction (resume with the token),
    /// the engine error that failed the stream, [`ServeError::ShuttingDown`]
    /// on server shutdown.
    pub fn send(&self, samples: &[f32]) -> Result<(), ServeError> {
        lock_core(&self.core).step(&self.shared, self.token, Some(samples))
    }

    /// Non-blocking [`SessionHandle::send`]: first absorbs whatever the
    /// engine has served, then fails fast with [`ServeError::QueueFull`] —
    /// leaving the chunk unconsumed — if another thread is mid-step on this
    /// session or the windows in flight still fill the lookahead. That is
    /// the per-session backpressure signal a flooding client observes while
    /// everyone else streams on.
    ///
    /// # Errors
    ///
    /// [`ServeError::QueueFull`] as above, otherwise as
    /// [`SessionHandle::send`].
    pub fn try_send(&self, samples: &[f32]) -> Result<(), ServeError> {
        let mut core = try_lock_core(&self.core).ok_or(ServeError::QueueFull)?;
        core.step(&self.shared, self.token, None)?;
        let bound = self.shared.cfg.stream.lookahead.max(1);
        if core.stream.as_ref().is_some_and(|s| s.pending() >= bound) {
            return Err(ServeError::QueueFull);
        }
        core.step(&self.shared, self.token, Some(samples))
    }

    /// Takes the gesture events decided since the last call (possibly
    /// none), without blocking: a window the engine has served is absorbed
    /// first, unless another thread is mid-step on this session.
    ///
    /// # Errors
    ///
    /// As [`SessionHandle::wait_events`].
    pub fn poll_events(&self) -> Result<Vec<GestureEvent>, ServeError> {
        self.wait_events(Duration::ZERO)
    }

    /// Takes the gesture events decided since the last call, blocking for
    /// up to `timeout` while there are none and the stream is still open.
    /// A served window's completion wakes the caller, which absorbs it on
    /// this thread (after any step in progress on another thread of this
    /// session); events another thread publishes wake it too. Other
    /// sessions' traffic does not. An empty vector means the timeout
    /// passed, or the stream has ended (finished or parked) with nothing
    /// left to deliver.
    ///
    /// # Errors
    ///
    /// Once the pending events are drained: [`ServeError::Evicted`] after
    /// an eviction, the failure error after an engine fault.
    pub fn wait_events(&self, timeout: Duration) -> Result<Vec<GestureEvent>, ServeError> {
        let start = Instant::now();
        loop {
            let mut reg = self.shared.lock();
            let slot = reg
                .slots
                .get_mut(&self.token)
                .ok_or(ServeError::ShuttingDown)?;
            if !slot.events.is_empty() {
                return Ok(std::mem::take(&mut slot.events));
            }
            match &slot.end {
                Some(SessionEnd::Evicted) => return Err(ServeError::Evicted),
                Some(SessionEnd::Failed(e)) => return Err(e.clone()),
                Some(_) => return Ok(Vec::new()),
                None => {}
            }
            if slot.ready {
                drop(reg);
                let core = if timeout.is_zero() {
                    try_lock_core(&self.core)
                } else {
                    Some(lock_core(&self.core))
                };
                // Busy: the step in progress absorbs and publishes.
                let Some(mut core) = core else {
                    return Ok(Vec::new());
                };
                if let Some(slot) = self.shared.lock().slots.get_mut(&self.token) {
                    slot.ready = false;
                }
                // A failure is written back; the next look reports it.
                let _ = core.step(&self.shared, self.token, None);
                continue;
            }
            let Some(left) = timeout
                .checked_sub(start.elapsed())
                .filter(|d| !d.is_zero())
            else {
                return Ok(Vec::new());
            };
            drop(
                self.signal
                    .wait_timeout(reg, left)
                    .unwrap_or_else(|e| e.into_inner()),
            );
        }
    }

    /// Ends the stream on this thread — `kind` is [`EndKind::Finish`] or
    /// [`EndKind::Park`] — and leaves the outcome in the slot, waking the
    /// session's waiters.
    fn end(&self, kind: EndKind) -> Result<(), ServeError> {
        let mut core = lock_core(&self.core);
        core.open(&self.shared, self.token)?;
        core.settle(&self.shared, self.token, None, Ok(Vec::new()), Some(kind));
        Ok(())
    }

    /// Consumes the slot of a stream that has ended.
    fn take_end(mut self) -> Result<(SessionEnd, SessionStats), ServeError> {
        let slot = self
            .shared
            .lock()
            .slots
            .remove(&self.token)
            .ok_or(ServeError::ShuttingDown)?;
        self.consumed = true;
        let end = slot.end.expect("a session's end is taken after it ended");
        Ok((end, slot.counters))
    }

    /// Ends the stream cleanly on this thread: waits out every window in
    /// flight, closes the final decision and returns the [`FinishReport`].
    /// The report's summary covers the **whole logical stream**, reconnect
    /// seams included; its `events` carry everything not already polled.
    ///
    /// # Errors
    ///
    /// [`ServeError::Evicted`] if an eviction came first, the stream's
    /// failure error after an engine fault, [`ServeError::ShuttingDown`] on
    /// server shutdown.
    pub fn finish(self) -> Result<FinishReport, ServeError> {
        self.end(EndKind::Finish)?;
        self.finished()
    }

    /// The second half of [`SessionHandle::finish`]: collects the report
    /// of a stream that has been finished.
    fn finished(self) -> Result<FinishReport, ServeError> {
        match self.take_end()? {
            (SessionEnd::Finished(summary), stats) => Ok(FinishReport {
                summary: *summary,
                stats,
            }),
            (SessionEnd::Evicted, _) => Err(ServeError::Evicted),
            (SessionEnd::Failed(e), _) => Err(e),
            (SessionEnd::Parked, _) => unreachable!("a finishing session was parked"),
        }
    }

    /// Detaches without finishing: suspends the session on this thread,
    /// parks its checkpoint (undelivered events included) and frees the
    /// slot. Returns the token to [`StreamServer::resume`] with. If the
    /// session was already evicted, the checkpoint is already parked and
    /// the token comes back immediately.
    ///
    /// # Errors
    ///
    /// The stream's failure error after an engine fault,
    /// [`ServeError::ShuttingDown`] on server shutdown.
    pub fn disconnect(self) -> Result<u64, ServeError> {
        match self.end(EndKind::Park) {
            // Evicted: already suspended and parked.
            Ok(()) | Err(ServeError::Evicted) => self.parked(),
            // Dropping the handle frees whatever slot is left.
            Err(e) => Err(e),
        }
    }

    /// The second half of [`SessionHandle::disconnect`]: frees the slot of
    /// a stream that has been parked (or evicted).
    fn parked(self) -> Result<u64, ServeError> {
        let token = self.token;
        match self.take_end()? {
            (SessionEnd::Parked | SessionEnd::Evicted, _) => Ok(token),
            (SessionEnd::Failed(e), _) => Err(e),
            (SessionEnd::Finished(_), _) => unreachable!("a detaching session finished"),
        }
    }
}

impl Drop for SessionHandle {
    fn drop(&mut self) {
        if self.consumed {
            return;
        }
        // Mid-stream disconnect: suspend and park (a no-op once the stream
        // has ended), then free the slot — nobody is left to consume it.
        let _ = self.end(EndKind::Park);
        self.shared.lock().slots.remove(&self.token);
    }
}

/// The pump thread, the server's timer: evicts sessions idle past
/// `idle_timeout` (skipping any that is mid-step), expires parked
/// checkpoints past `resume_ttl`, and fails every open session at
/// shutdown. No sample chunk and no completion passes through it. It
/// sleeps until the next deadline — the stalest open session's idle
/// timeout or the oldest checkpoint's expiry — and is woken early when a
/// session opens or parks, either of which may bring that deadline
/// forward.
fn pump_loop(shared: &Arc<Shared>) {
    let cfg = &shared.cfg;
    // The shortest sleep: a session found idle while mid-step is looked at
    // again this much later.
    let tick = cfg.idle_timeout.map_or(Duration::from_millis(20), |t| {
        (t / 4).clamp(Duration::from_millis(1), Duration::from_millis(20))
    });
    // A missed wake-up costs at most this.
    const PARK: Duration = Duration::from_secs(1);
    let mut idle: Vec<(u64, Arc<Mutex<Core>>)> = Vec::new();
    let mut reg = shared.lock();
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            // Streams are dropped outside the registry lock: the last
            // reference to an engine may join threads whose completions
            // take it. A session mid-step drops its own stream.
            let mut streams = Vec::new();
            for slot in reg.slots.values_mut() {
                if slot.end.is_none() {
                    slot.end = Some(SessionEnd::Failed(ServeError::ShuttingDown));
                }
                if let Some(mut core) = try_lock_core(&slot.core) {
                    streams.extend(core.stream.take());
                }
                slot.signal.notify_all();
            }
            reg.parked.clear();
            drop(reg);
            drop(streams);
            return;
        }
        let now = Instant::now();
        // The next deadline; one too far off to represent never comes.
        let mut next = None;
        if let Some(ttl) = cfg.resume_ttl {
            reg.parked
                .retain(|_, p| now.duration_since(p.parked_at) < ttl);
            next = reg
                .parked
                .values()
                .filter_map(|p| p.parked_at.checked_add(ttl))
                .min();
        }
        if let Some(timeout) = cfg.idle_timeout {
            for (&token, slot) in reg.slots.iter().filter(|(_, s)| s.end.is_none()) {
                let Some(due) = slot.last_activity.checked_add(timeout) else {
                    continue;
                };
                next = Some(next.map_or(due, |next: Instant| next.min(due)));
                if due <= now {
                    idle.push((token, Arc::clone(&slot.core)));
                }
            }
        }
        if !idle.is_empty() {
            drop(reg);
            for (token, core) in idle.drain(..) {
                // A session that is being pushed to is not idle.
                let Some(mut core) = try_lock_core(&core) else {
                    continue;
                };
                // Re-checked under the session lock: a chunk may have
                // landed.
                let still_idle = shared.lock().slots.get(&token).is_some_and(|slot| {
                    slot.end.is_none()
                        && cfg
                            .idle_timeout
                            .is_some_and(|t| slot.last_activity.elapsed() >= t)
                });
                if still_idle && core.stream.is_some() {
                    core.settle(shared, token, None, Ok(Vec::new()), Some(EndKind::Evict));
                }
            }
            reg = shared.lock();
        }
        let sleep = next.map_or(PARK, |next| {
            next.saturating_duration_since(now).clamp(tick, PARK)
        });
        reg = shared
            .pump_wake
            .wait_timeout(reg, sleep)
            .unwrap_or_else(|e| e.into_inner())
            .0;
    }
}

/// The wake-up a session hangs on the window it waits for: marks the slot
/// ready and wakes the session's own waiters, from whichever thread
/// completed the window. It takes only the registry lock. (`Weak`: a
/// request still queued in an engine must not keep the server's state
/// alive.)
fn ready_hook(shared: &Arc<Shared>, token: u64) -> ReadyHook {
    let shared = Arc::downgrade(shared);
    Arc::new(move || {
        let Some(shared) = shared.upgrade() else {
            return;
        };
        let mut reg = shared.lock();
        if let Some(slot) = reg.slots.get_mut(&token) {
            slot.ready = true;
            slot.signal.notify_all();
        }
    })
}

/// Maps a session-layer error onto its wire error code.
fn error_code(e: &ServeError) -> ErrorCode {
    match e {
        ServeError::BadRequest(why) if why.contains("resume token") => ErrorCode::UnknownToken,
        ServeError::BadRequest(_) => ErrorCode::BadRequest,
        ServeError::Unavailable | ServeError::QueueFull => ErrorCode::PoolFull,
        ServeError::Evicted => ErrorCode::Evicted,
        ServeError::ShuttingDown => ErrorCode::ShuttingDown,
        ServeError::DeadlineExpired | ServeError::Cancelled => ErrorCode::Internal,
    }
}

/// The TCP front door: a `std::net` loopback listener translating the
/// [`proto`](super::proto) frame protocol into [`StreamServer`] session
/// calls. Each connection has a reader thread, blocked in `read` until the
/// client sends something, which pushes every sample chunk into the session
/// itself ([`SessionHandle::send`]); and — while its session is open — a
/// writer thread, parked in [`SessionHandle::wait_events`] until the
/// reader's push publishes events or a served window's completion wakes it
/// to absorb the window itself. Nothing on the path polls or hands a chunk
/// to another thread, and the server's timer thread never touches a socket:
/// a peer that stops reading stalls its own writer and nobody else.
///
/// Failure semantics the fault-injection tests pin down:
///
/// * A dropped socket (EOF, reset) mid-stream is a **disconnect**: the
///   session is suspended and parked, the slot freed — a later connection
///   resuming with the token continues the stream seamlessly.
/// * Garbage, truncated or oversized frames get a best-effort
///   [`Frame::Error`] with [`ErrorCode::Protocol`] and the connection is
///   closed (the session parked); the gateway itself never goes down from
///   one misbehaving peer.
/// * Session-layer failures (pool full, unknown token, eviction, engine
///   faults) are explicit [`Frame::Error`]s with their typed code.
pub struct TcpGateway {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl TcpGateway {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral loopback port)
    /// and starts accepting connections for `server`.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(server: Arc<StreamServer>, addr: &str) -> std::io::Result<TcpGateway> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept = {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("gateway-accept".into())
                .spawn(move || {
                    // Each connection's thread, with a handle on its socket
                    // to shut it down by.
                    let mut conns: Vec<(JoinHandle<()>, TcpStream)> = Vec::new();
                    while let Ok((sock, _peer)) = listener.accept() {
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        conns.retain(|(conn, _)| !conn.is_finished());
                        let Ok(closer) = sock.try_clone() else {
                            continue;
                        };
                        let server = Arc::clone(&server);
                        let conn = std::thread::Builder::new()
                            .name("gateway-conn".into())
                            .spawn(move || serve_connection(&server, sock))
                            .expect("spawn gateway connection thread");
                        conns.push((conn, closer));
                    }
                    // Readers block in `read` and writers may block in
                    // `write`: shutting the sockets down releases both.
                    for (_, sock) in &conns {
                        let _ = sock.shutdown(Shutdown::Both);
                    }
                    for (conn, _) in conns {
                        let _ = conn.join();
                    }
                })
                .expect("spawn gateway accept thread")
        };
        Ok(TcpGateway {
            addr,
            stop,
            accept: Some(accept),
        })
    }

    /// The bound address (with the resolved ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, shuts every connection's socket down and joins its
    /// threads. Open sessions are disconnected (parked), not finished.
    pub fn shutdown(&mut self) {
        let Some(accept) = self.accept.take() else {
            return;
        };
        self.stop.store(true, Ordering::SeqCst);
        // The accept thread blocks in `accept`; a connection of our own
        // wakes it up to see the flag. (If even that fails the thread is
        // left to the process's exit rather than joined forever.)
        if TcpStream::connect(self.addr).is_ok() {
            let _ = accept.join();
        }
    }
}

impl Drop for TcpGateway {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for TcpGateway {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpGateway")
            .field("addr", &self.addr)
            .finish()
    }
}

/// Encodes and writes one frame; `false` on a dead socket.
fn send_frame(sock: &mut TcpStream, scratch: &mut Vec<u8>, frame: &Frame) -> bool {
    scratch.clear();
    if encode_frame(frame, scratch).is_err() {
        return false;
    }
    sock.write_all(scratch).is_ok()
}

/// Best-effort error frame.
fn send_error(sock: &mut TcpStream, scratch: &mut Vec<u8>, code: ErrorCode, message: String) {
    let _ = send_frame(sock, scratch, &Frame::Error { code, message });
}

/// Why a connection's reader stopped.
enum ReadEnd {
    /// The client sent `Finish`.
    Finish,
    /// The client sent `Bye`, or the socket closed (EOF, reset, gateway
    /// shutdown): park the session.
    Detach,
    /// The client broke the protocol, or the session refused a chunk
    /// (evicted, failed, shutting down): error frame, then park.
    Failed(ErrorCode, String),
}

/// Blocks until the client has sent more bytes and feeds them to the
/// decoder; `false` once the socket is closed (EOF, reset, shut down).
fn read_more(sock: &mut TcpStream, decoder: &mut FrameDecoder, buf: &mut [u8]) -> bool {
    loop {
        match sock.read(buf) {
            Ok(0) => return false,
            Ok(n) => {
                decoder.feed(&buf[..n]);
                return true;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
}

/// Reads until a `Hello` opens a session and acknowledges it; `None` when
/// the connection ended (or was refused, with an error frame) first.
fn handshake(
    server: &StreamServer,
    sock: &mut TcpStream,
    decoder: &mut FrameDecoder,
    scratch: &mut Vec<u8>,
) -> Option<SessionHandle> {
    let mut buf = [0u8; 1024];
    let refusal = loop {
        match decoder.next_frame() {
            Ok(Some(Frame::Hello {
                tenant,
                resume,
                model,
            })) => {
                let opened = match resume {
                    None => server.connect_with(&tenant, SessionOptions { model, slo: None }),
                    // On resume the parked session's model governs — the
                    // stream must continue on the variant it started on,
                    // so any model in the frame is ignored.
                    Some(token) => server.resume(&tenant, token),
                };
                match opened {
                    Ok(handle) => {
                        let stream = server.stream_config();
                        let ack = Frame::HelloAck {
                            token: handle.token(),
                            channels: stream.channels as u16,
                            window: stream.window as u32,
                            slide: stream.slide as u32,
                        };
                        // A dead socket drops (parks) the fresh session.
                        return send_frame(sock, scratch, &ack).then_some(handle);
                    }
                    Err(e) => break (error_code(&e), e.to_string()),
                }
            }
            Ok(Some(Frame::Bye)) => return None,
            Ok(Some(Frame::Samples(_))) => {
                break (ErrorCode::Protocol, "samples before hello".into())
            }
            Ok(Some(Frame::Finish)) => break (ErrorCode::Protocol, "finish before hello".into()),
            Ok(Some(_)) => {
                break (
                    ErrorCode::Protocol,
                    "server-to-client frame sent by client".into(),
                )
            }
            Err(e) => break (ErrorCode::Protocol, e.to_string()),
            Ok(None) if read_more(sock, decoder, &mut buf) => {}
            Ok(None) => return None,
        }
    };
    send_error(sock, scratch, refusal.0, refusal.1);
    None
}

/// The reader of an open session: feeds sample chunks to the session until
/// the client ends the stream one way or another.
fn read_frames(
    handle: &SessionHandle,
    sock: &mut TcpStream,
    decoder: &mut FrameDecoder,
) -> ReadEnd {
    let protocol = |why| ReadEnd::Failed(ErrorCode::Protocol, why);
    let mut buf = [0u8; 16 * 1024];
    loop {
        match decoder.next_frame() {
            Ok(Some(Frame::Samples(samples))) => {
                if let Err(e) = handle.send(&samples) {
                    return ReadEnd::Failed(error_code(&e), e.to_string());
                }
            }
            Ok(Some(Frame::Finish)) => return ReadEnd::Finish,
            Ok(Some(Frame::Bye)) => return ReadEnd::Detach,
            Ok(Some(Frame::Hello { .. })) => {
                return protocol("duplicate hello on an open session".into())
            }
            Ok(Some(_)) => return protocol("server-to-client frame sent by client".into()),
            Err(e) => return protocol(e.to_string()),
            Ok(None) if read_more(sock, decoder, &mut buf) => {}
            Ok(None) => return ReadEnd::Detach,
        }
    }
}

/// The writer of an open session: parks until the session has events —
/// published by the reader's push, or absorbed here when a served window
/// wakes it — and writes them out, until the reader has asked for
/// the stream's end (`closing`), the session fails, or the socket dies.
/// Returns the session's failure, if that is what ended it.
fn write_events(
    handle: &SessionHandle,
    sock: &mut TcpStream,
    closing: &AtomicBool,
) -> Option<ServeError> {
    // A missed wake-up costs at most this; the session's notification is
    // what ends the wait.
    const PARK: Duration = Duration::from_secs(1);
    let mut scratch = Vec::new();
    loop {
        match handle.wait_events(PARK) {
            Ok(events) => {
                // One write for the whole batch: an `Ended` and the
                // `Started` after it go out together.
                scratch.clear();
                for event in events {
                    encode_frame(&Frame::Event(event), &mut scratch)
                        .expect("an event frame always fits");
                }
                if !scratch.is_empty() && sock.write_all(&scratch).is_err() {
                    // Dead socket: release the reader too.
                    let _ = sock.shutdown(Shutdown::Both);
                    return None;
                }
                // Whatever is decided from here on goes out with the
                // closing exchange, or stays with the parked checkpoint.
                if closing.load(Ordering::SeqCst) {
                    return None;
                }
            }
            Err(e) => {
                // Evicted or failed under a silent client: stop the reader
                // (the write side stays open for the error frame).
                let _ = sock.shutdown(Shutdown::Read);
                return Some(e);
            }
        }
    }
}

/// Serves one TCP connection end-to-end (see [`TcpGateway`] for the
/// failure semantics). This thread reads; while the session is open a
/// second, scoped thread writes its events. The frames before (`HelloAck`)
/// and after (the `Finish` closing exchange, error frames) are written here
/// with the writer not yet started or already joined, so the wire sees one
/// order.
fn serve_connection(server: &StreamServer, mut sock: TcpStream) {
    let _ = sock.set_nodelay(true);
    let mut decoder = FrameDecoder::new();
    let mut scratch = Vec::new();
    if let Some(handle) = handshake(server, &mut sock, &mut decoder, &mut scratch) {
        serve_session(handle, &mut sock, &mut decoder, &mut scratch);
    }
    // The accept thread still holds a handle on this socket: say goodbye
    // explicitly rather than by dropping ours.
    let _ = sock.shutdown(Shutdown::Both);
}

/// The open-session part of a connection: stream, then close.
fn serve_session(
    handle: SessionHandle,
    sock: &mut TcpStream,
    decoder: &mut FrameDecoder,
    scratch: &mut Vec<u8>,
) {
    let Ok(mut events_sock) = sock.try_clone() else {
        return;
    };
    let closing = AtomicBool::new(false);
    let (end, requested, failure) = std::thread::scope(|scope| {
        let writer = std::thread::Builder::new()
            .name("gateway-writer".into())
            .spawn_scoped(scope, || write_events(&handle, &mut events_sock, &closing))
            .expect("spawn gateway writer thread");
        let end = read_frames(&handle, sock, decoder);
        // End the stream on this thread; its outcome is what wakes the
        // writer.
        closing.store(true, Ordering::SeqCst);
        let requested = handle.end(match end {
            ReadEnd::Finish => EndKind::Finish,
            _ => EndKind::Park,
        });
        let failure = writer.join().expect("gateway writer thread panicked");
        (end, requested, failure)
    });
    // A session that ended by itself (evicted, failed) beats whatever the
    // reader saw of it.
    let wire = |e: &ServeError| (error_code(e), e.to_string());
    let error = match (&failure, end, &requested) {
        (None, ReadEnd::Finish, Ok(())) => {
            match handle.finished() {
                Ok(report) => send_report(sock, scratch, &report),
                Err(e) => send_error(sock, scratch, error_code(&e), e.to_string()),
            }
            return;
        }
        (Some(e), _, _) | (None, ReadEnd::Finish, Err(e)) => Some(wire(e)),
        (None, ReadEnd::Failed(code, why), _) => Some((code, why)),
        (None, ReadEnd::Detach, _) => None,
    };
    if let Some((code, message)) = error {
        send_error(sock, scratch, code, message);
    }
    // Free the slot of the parked stream; a handle whose end was refused
    // (the session had ended already) frees its slot by dropping.
    if requested.is_ok() {
        let _ = handle.parked();
    }
}

/// The `Finish` closing exchange: the events not yet streamed, then the
/// summary, the stage statistics and the session counters.
fn send_report(sock: &mut TcpStream, scratch: &mut Vec<u8>, report: &FinishReport) {
    for event in &report.summary.events {
        if !send_frame(sock, scratch, &Frame::Event(event.clone())) {
            return;
        }
    }
    let predictions = report
        .summary
        .predictions
        .iter()
        .zip(&report.summary.confidences)
        .map(|(&class, &conf)| (class as u64, conf))
        .collect();
    let closing = [
        Frame::Summary {
            windows: report.summary.windows as u64,
            predictions,
        },
        Frame::Stats(report.summary.stages),
        Frame::SessionStats {
            windows: report.stats.windows,
            chunks: report.stats.chunks,
            samples: report.stats.samples,
            events: report.stats.events,
        },
    ];
    for frame in &closing {
        let _ = send_frame(sock, scratch, frame);
    }
}
