//! Sharded multi-replica serving: one submission API fanning out over N
//! backend replicas with latency-aware routing.
//!
//! The paper's deployment story is one Bioformer at several precisions —
//! fp32 where accuracy matters, fully-integer int8 where latency and
//! energy do. [`ShardedEngine`] turns that Pareto picture into a serving
//! topology: each replica is a full `Replica` (bounded queue + coalescing
//! worker pool + stats, the component inside
//! [`AsyncEngine`](super::AsyncEngine)), and the router sends each request
//! to the replica with the lowest expected time-to-service
//! ([`RoutingPolicy::LatencyAware`]). Replicas whose workers die or whose
//! backend fails repeatedly are **quarantined** — new traffic routes
//! around them, the pool's [`Engine::classify`] transparently re-routes a
//! request cancelled by a failing replica, and a canary probe re-admits a
//! quarantined replica once it answers again. Shutdown drains every
//! replica in parallel before joining.

use super::engine::{Engine, EngineStats, ReplicaStats};
use super::queue::{PendingResponse, RequestOutput, ServeError};
use super::worker::{AsyncEngineConfig, Replica, WorkerInner};
use super::GestureClassifier;
use bioformer_tensor::Tensor;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// How the router picks a replica for each submission. Only healthy
/// (non-quarantined) replicas are ever candidates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoutingPolicy {
    /// Pick the replica minimising `(inflight + 1) ×` its per-window
    /// batch-latency EWMA — an estimate of time-to-service that accounts
    /// for both outstanding load and how fast the replica actually is, so
    /// an fp32 replica naturally yields traffic to a faster int8 sibling
    /// under load. The latency signal is the batch EWMA normalised per
    /// window (a replica is not punished for absorbing bigger coalesced
    /// batches), and the load signal counts in-flight requests rather
    /// than queue depth (which reads zero while a worker holds the whole
    /// backlog in its forming batch). Replicas with no latency history
    /// yet score zero and are probed first; ties rotate.
    #[default]
    LatencyAware,
}

/// The pool's tuning knobs (per-replica knobs live in each replica's
/// [`AsyncEngineConfig`]); set through the [`ShardedEngineBuilder`].
struct PoolConfig {
    policy: RoutingPolicy,
    /// Consecutive backend failures (panicking batches) after which a
    /// replica is quarantined (≥ 1). A replica whose workers have all died
    /// is quarantined regardless.
    quarantine_after: usize,
    /// Maximum times `classify` re-routes a request to another replica
    /// after a [`ServeError::Cancelled`] response.
    max_reroutes: usize,
    /// How often a quarantined replica is probed with a canary request.
    probe_interval: Duration,
}

/// In-flight canary probe bookkeeping for one quarantined replica.
#[derive(Default)]
struct ProbeState {
    /// The outstanding canary's response handle, polled (never blocked on)
    /// during health refreshes.
    inflight: Option<PendingResponse>,
    /// When the last canary was submitted (or resolved unsuccessfully);
    /// the next probe waits out `probe_interval` from here.
    last: Option<Instant>,
}

/// One replica plus its quarantine flag and canary-probe state. The flag is
/// set by health refreshes on the routing path; it is cleared again only by
/// a successful canary probe (see
/// [`ShardedEngineBuilder::with_probe_interval`]), so a replica that keeps
/// failing stays out of rotation while a transiently failing one rejoins.
/// Queued work of a quarantined replica is still drained on shutdown.
struct ReplicaSlot {
    replica: Replica,
    quarantined: AtomicBool,
    probe: Mutex<ProbeState>,
}

impl ReplicaSlot {
    /// The [`RoutingPolicy::LatencyAware`] score: expected time-to-service
    /// in seconds. The requests already waiting (queued or in a forming
    /// batch — riders of an executing batch finish with it and don't add
    /// future work) plus this request, at the replica's per-window rate,
    /// plus the expected remainder of any batch executing right now (½ the
    /// batch EWMA per busy worker). Zero without latency history.
    fn score(&self) -> f64 {
        let shared = self.replica.shared();
        let win = shared
            .ewma_window_latency()
            .map_or(0.0, |d| d.as_secs_f64());
        let batch = shared.ewma_batch_latency().map_or(0.0, |d| d.as_secs_f64());
        (shared.waiting() + 1) as f64 * win + shared.busy_workers() as f64 * batch / 2.0
    }
}

/// Builder for a [`ShardedEngine`]: collect heterogeneous replicas, then
/// [`ShardedEngineBuilder::build`].
pub struct ShardedEngineBuilder {
    cfg: PoolConfig,
    replica_cfg: AsyncEngineConfig,
    replicas: Vec<Box<dyn GestureClassifier>>,
}

impl ShardedEngineBuilder {
    fn new() -> Self {
        ShardedEngineBuilder {
            cfg: PoolConfig {
                policy: RoutingPolicy::LatencyAware,
                quarantine_after: 2,
                max_reroutes: 3,
                probe_interval: Duration::from_millis(250),
            },
            // One worker per replica is the norm (each replica derives
            // its linger from its observed traffic, as every engine does).
            replica_cfg: AsyncEngineConfig::default().with_workers(1),
            replicas: Vec::new(),
        }
    }

    /// Sets the routing policy.
    pub fn with_policy(mut self, policy: RoutingPolicy) -> Self {
        self.cfg.policy = policy;
        self
    }

    /// Sets the consecutive-failure count that quarantines a replica
    /// (default 2). A replica whose workers have all died is quarantined
    /// regardless.
    ///
    /// # Panics
    ///
    /// Panics if `after` is 0.
    pub fn with_quarantine_after(mut self, after: usize) -> Self {
        assert!(after > 0, "ShardedEngine: quarantine_after must be >= 1");
        self.cfg.quarantine_after = after;
        self
    }

    /// Sets how many times the pool's [`Engine::classify`] re-routes a
    /// cancelled request to another replica (default 3; 0 disables
    /// re-routing).
    pub fn with_max_reroutes(mut self, reroutes: usize) -> Self {
        self.cfg.max_reroutes = reroutes;
        self
    }

    /// Sets how often a quarantined replica is probed with a canary
    /// request (a single zero window of the replica's served shape;
    /// default 250 ms). On a successful canary answer the replica is
    /// **re-admitted** to the routing pool. Probing piggybacks on routing
    /// decisions — an idle pool sends no canaries — and replicas whose
    /// workers have all died are never probed (a dead worker pool cannot
    /// answer).
    pub fn with_probe_interval(mut self, interval: Duration) -> Self {
        self.cfg.probe_interval = interval;
        self
    }

    /// Sets the per-replica config used by every replica (default: one
    /// worker, otherwise [`AsyncEngineConfig::default`]).
    pub fn with_replica_config(mut self, cfg: AsyncEngineConfig) -> Self {
        self.replica_cfg = cfg;
        self
    }

    /// Adds a replica serving `backend`.
    pub fn add_replica(mut self, backend: Box<dyn GestureClassifier>) -> Self {
        self.replicas.push(backend);
        self
    }

    /// Spawns every replica's worker pool and returns the engine.
    ///
    /// # Panics
    ///
    /// Panics if no replica was added, if replicas disagree on the class
    /// count (they must serve the same task), or if the replica config is
    /// invalid.
    pub fn build(self) -> ShardedEngine {
        assert!(
            !self.replicas.is_empty(),
            "ShardedEngine: at least one replica is required"
        );
        let replica_cfg = self.replica_cfg;
        let replicas: Vec<ReplicaSlot> = self
            .replicas
            .into_iter()
            .map(|backend| ReplicaSlot {
                replica: Replica::new(backend, replica_cfg.clone()),
                quarantined: AtomicBool::new(false),
                probe: Mutex::new(ProbeState::default()),
            })
            .collect();
        let classes = replicas[0].replica.num_classes();
        for slot in &replicas {
            assert_eq!(
                slot.replica.num_classes(),
                classes,
                "ShardedEngine: replica {} serves {} classes, expected {}",
                slot.replica.backend_name(),
                slot.replica.num_classes(),
                classes
            );
        }
        ShardedEngine {
            replicas,
            rr: AtomicUsize::new(0),
            cfg: self.cfg,
            classes,
        }
    }
}

/// A sharded multi-replica serving engine: one submission API over N
/// backend replicas, each with its own bounded queue and coalescing worker
/// pool, with latency-aware routing, replica quarantine and pool-level
/// statistics.
///
/// Replicas may be heterogeneous — e.g. one fp32 `Bioformer` replica plus
/// int8 `QuantBioformer` replicas — as long as they serve the same class
/// count. Each replica derives its own linger from observed traffic by
/// default ([`LingerPolicy::Adaptive`](super::LingerPolicy)).
///
/// # Example
///
/// ```
/// use bioformers::core::{Bioformer, BioformerConfig};
/// use bioformers::serve::{Engine, ShardedEngine};
/// use bioformers::tensor::Tensor;
///
/// let pool = ShardedEngine::builder()
///     .add_replica(Box::new(Bioformer::new(&BioformerConfig::bio1())))
///     .add_replica(Box::new(Bioformer::new(&BioformerConfig::bio1())))
///     .build();
/// let out = pool.classify(Tensor::zeros(&[2, 14, 300])).unwrap();
/// assert_eq!(out.logits.dims(), &[2, 8]);
/// let stats = pool.shutdown();
/// assert_eq!(stats.requests, 1);
/// assert_eq!(stats.replicas.len(), 2);
/// assert!(stats.rollup_consistent());
/// ```
pub struct ShardedEngine {
    replicas: Vec<ReplicaSlot>,
    /// Rotating start of each routing scan, so ties spread over replicas.
    rr: AtomicUsize,
    cfg: PoolConfig,
    classes: usize,
}

impl ShardedEngine {
    /// Starts building a pool.
    pub fn builder() -> ShardedEngineBuilder {
        ShardedEngineBuilder::new()
    }

    /// The replica compute reports (backend, SIMD tier and plan at spawn),
    /// parallel to [`Engine::backends`].
    pub fn compute_reports(&self) -> Vec<String> {
        self.replicas
            .iter()
            .map(|s| s.replica.compute_report().to_string())
            .collect()
    }

    /// Re-evaluates every replica's health: marks dead or persistently
    /// failing replicas as quarantined, and drives the canary-probe cycle
    /// that re-admits quarantined replicas once they answer again. Runs on
    /// every routing decision; cheap (a few atomic loads per replica, and
    /// canaries are only submitted every `probe_interval`).
    fn refresh_health(&self) {
        for slot in &self.replicas {
            if !slot.quarantined.load(Ordering::Relaxed) {
                let shared = slot.replica.shared();
                if shared.alive_workers() == 0
                    || shared.consecutive_failures() >= self.cfg.quarantine_after
                {
                    slot.quarantined.store(true, Ordering::Relaxed);
                }
                continue;
            }
            self.probe_quarantined(slot);
        }
    }

    /// One non-blocking step of the canary cycle for a quarantined
    /// replica: poll an outstanding canary (re-admit on success), or
    /// submit a fresh one once `probe_interval` has passed since the last.
    fn probe_quarantined(&self, slot: &ReplicaSlot) {
        // A replica with no live workers can never answer a canary; it
        // stays quarantined without wasting probe traffic.
        if slot.replica.shared().alive_workers() == 0 {
            return;
        }
        // Skip on contention: another router call is already probing.
        let Ok(mut probe) = slot.probe.try_lock() else {
            return;
        };
        if let Some(pending) = probe.inflight.take() {
            match pending.try_wait() {
                Ok(Ok(_)) => {
                    // The backend answered. The canary's response is sent
                    // from inside the batch, *before* the worker's own
                    // success accounting resets the failure counter — so
                    // clear it here, or the next health refresh would
                    // re-quarantine the healthy replica off stale state.
                    slot.replica.shared().reset_failures();
                    slot.quarantined.store(false, Ordering::Relaxed);
                    probe.last = Some(Instant::now());
                }
                Ok(Err(_)) => {
                    // Canary failed or was cancelled: stay quarantined and
                    // retry after the interval.
                    probe.last = Some(Instant::now());
                }
                Err(pending) => {
                    // Still in flight; keep polling on later refreshes.
                    probe.inflight = Some(pending);
                }
            }
            return;
        }
        let due = probe
            .last
            .is_none_or(|t| t.elapsed() >= self.cfg.probe_interval);
        if !due {
            return;
        }
        // A canary needs the replica's served shape; a replica that never
        // saw traffic and declares none cannot be probed (nothing could
        // have been routed to it anyway, so it cannot be quarantined by
        // backend failures — only by worker death, which is unrecoverable).
        let Some((c, s)) = slot.replica.served_shape() else {
            return;
        };
        match slot.replica.try_submit(Tensor::zeros(&[1, c, s])) {
            Ok(pending) => probe.inflight = Some(pending),
            Err(_) => probe.last = Some(Instant::now()),
        }
    }

    /// Picks the healthy replica with the lowest
    /// [`RoutingPolicy::LatencyAware`] score, skipping quarantined replicas
    /// and the explicitly `excluded` indices (already-tried replicas during
    /// a re-route). One scan from a start that rotates per decision, so
    /// ties (e.g. several replicas with no history) spread out.
    fn route(&self, excluded: &[usize]) -> Result<usize, ServeError> {
        self.refresh_health();
        let n = self.replicas.len();
        let start = self.rr.fetch_add(1, Ordering::Relaxed) % n;
        let mut best: Option<(usize, f64)> = None;
        for idx in (start..n).chain(0..start) {
            let slot = &self.replicas[idx];
            if slot.quarantined.load(Ordering::Relaxed) || excluded.contains(&idx) {
                continue;
            }
            let score = slot.score();
            if best.is_none_or(|(_, b)| score < b) {
                best = Some((idx, score));
            }
        }
        best.map(|(idx, _)| idx).ok_or(ServeError::Unavailable)
    }

    /// Graceful shutdown: closes every replica's queue (so they drain in
    /// parallel), joins all workers, and returns the final pool statistics.
    /// Accepted requests are always served; dropping the engine does the
    /// same minus the stats.
    pub fn shutdown(mut self) -> EngineStats {
        self.close_and_join();
        self.engine_stats()
    }

    fn close_and_join(&mut self) {
        // Close all queues first: replicas drain concurrently instead of
        // serially waiting on each other's backlog.
        for slot in &self.replicas {
            slot.replica.close();
        }
        for slot in &mut self.replicas {
            slot.replica.join();
        }
    }
}

impl Drop for ShardedEngine {
    fn drop(&mut self) {
        self.close_and_join();
    }
}

impl Engine for ShardedEngine {
    fn kind(&self) -> &'static str {
        "sharded"
    }

    /// The replica backend names, in `add_replica` order.
    fn backends(&self) -> Vec<String> {
        self.replicas
            .iter()
            .map(|s| s.replica.backend_name().to_string())
            .collect()
    }

    /// The shared class count every replica serves.
    fn num_classes(&self) -> usize {
        self.classes
    }

    /// The window shape the pool serves, when every replica agrees on one
    /// (declared by its backend or pinned by traffic); `None` when unknown
    /// or inconsistent.
    fn input_shape(&self) -> Option<(usize, usize)> {
        let mut shape = None;
        for slot in &self.replicas {
            match (shape, slot.replica.served_shape()) {
                (_, None) => return None,
                (None, got) => shape = got,
                (Some(expect), Some(got)) if expect != got => return None,
                _ => {}
            }
        }
        shape
    }

    /// Submits to the routed replica, blocking while that replica's queue
    /// is full (cooperative backpressure).
    fn submit(&self, windows: Tensor) -> Result<PendingResponse, ServeError> {
        let idx = self.route(&[])?;
        self.replicas[idx].replica.submit(windows)
    }

    /// If the routed replica's queue is full, the other healthy replicas
    /// are tried in routing order before failing with
    /// [`ServeError::QueueFull`] — spillover load balancing.
    fn try_submit(&self, windows: Tensor) -> Result<PendingResponse, ServeError> {
        let mut tried = Vec::new();
        let mut windows = windows;
        loop {
            let idx = match self.route(&tried) {
                Ok(idx) => idx,
                // All replicas tried and full -> report backpressure, not
                // unavailability (quarantine exhaustion still surfaces).
                Err(ServeError::Unavailable) if !tried.is_empty() => {
                    return Err(ServeError::QueueFull)
                }
                Err(e) => return Err(e),
            };
            // Keep a spillover copy of the tensor only while another
            // replica remains to spill to; the last (and the single-
            // replica) attempt moves it, clone-free.
            let retry = (tried.len() + 1 < self.replicas.len()).then(|| windows.clone());
            match (self.replicas[idx].replica.try_submit(windows), retry) {
                (Err(ServeError::QueueFull), Some(copy)) => {
                    tried.push(idx);
                    windows = copy;
                }
                (Err(ServeError::QueueFull), None) => return Err(ServeError::QueueFull),
                (other, _) => return other,
            }
        }
    }

    /// The deadline applies on the routed replica.
    fn submit_with_deadline(
        &self,
        windows: Tensor,
        ttl: Duration,
    ) -> Result<PendingResponse, ServeError> {
        let idx = self.route(&[])?;
        self.replicas[idx]
            .replica
            .submit_with_deadline(windows, ttl)
    }

    /// Routes, submits and waits — re-routing to another healthy replica
    /// (up to [`ShardedEngineBuilder::with_max_reroutes`] times) when a
    /// replica cancels the request because its backend panicked. This is
    /// how a dying replica's traffic is re-routed rather than dropped.
    fn classify(&self, windows: Tensor) -> Result<RequestOutput, ServeError> {
        let mut tried = Vec::new();
        let mut windows = windows;
        loop {
            let idx = self.route(&tried)?;
            // Keep a retry copy of the tensor only while another re-route
            // is actually possible (budget left and an untried replica to
            // go to); otherwise the submission moves it, clone-free.
            let rerouteable =
                tried.len() < self.cfg.max_reroutes && self.replicas.len() > tried.len() + 1;
            let retry = rerouteable.then(|| windows.clone());
            let pending = self.replicas[idx].replica.submit(windows)?;
            match (pending.wait(), retry) {
                (Err(ServeError::Cancelled), Some(copy)) => {
                    tried.push(idx);
                    windows = copy;
                }
                (Err(ServeError::Cancelled), None) if tried.len() < self.cfg.max_reroutes => {
                    // Re-route budget remains but there was no untried
                    // replica to keep a retry copy for. Escalate to
                    // pool-level unavailability only when no healthy
                    // replica is left at all; a transient failure on a
                    // still-healthy replica stays a plain cancellation.
                    return match self.route(&[]) {
                        Err(e) => Err(e),
                        Ok(_) => Err(ServeError::Cancelled),
                    };
                }
                (other, _) => return other,
            }
        }
    }

    /// Pool totals plus one [`ReplicaStats`] row per replica; every total
    /// is the sum of the replica rows.
    ///
    /// The `quarantined` flags reflect the router's decisions so far (the
    /// flag is evaluated on the routing path, not here — a drained pool's
    /// idle workers are not retroactively declared dead). Canary probe
    /// requests sent to quarantined replicas are counted like client
    /// requests in that replica's stats.
    fn engine_stats(&self) -> EngineStats {
        let mut merged = WorkerInner::default();
        let mut replicas = Vec::with_capacity(self.replicas.len());
        for slot in &self.replicas {
            // One snapshot per replica feeds both the pool rollup and the
            // replica row, so the totals sum exactly even mid-traffic.
            let snapshot = slot.replica.snapshot();
            merged.merge_from(&snapshot);
            let shared = slot.replica.shared();
            replicas.push(ReplicaStats {
                quarantined: slot.quarantined.load(Ordering::Relaxed),
                queue_depth: slot.replica.queue_depth(),
                ewma_batch_latency: shared.ewma_batch_latency(),
                ewma_window_latency: shared.ewma_window_latency(),
                stats: slot.replica.stats(snapshot),
            });
        }
        EngineStats {
            replicas,
            ..merged.into_stats("sharded", self.backends())
        }
    }

    fn shutdown(self: Box<Self>) -> EngineStats {
        ShardedEngine::shutdown(*self)
    }
}

impl std::fmt::Debug for ShardedEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let backends: Vec<&str> = self
            .replicas
            .iter()
            .map(|s| s.replica.backend_name())
            .collect();
        f.debug_struct("ShardedEngine")
            .field("replicas", &backends)
            .field("policy", &self.cfg.policy)
            .field("quarantine_after", &self.cfg.quarantine_after)
            .finish()
    }
}
