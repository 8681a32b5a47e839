//! Sharded multi-replica serving: one submission API fanning out over N
//! backend replicas with policy-driven, latency-aware routing.
//!
//! The paper's deployment story is one Bioformer at several precisions —
//! fp32 where accuracy matters, fully-integer int8 where latency and
//! energy do. [`ShardedEngine`] turns that Pareto picture into a serving
//! topology: each replica is a full `Replica` (bounded queue + coalescing
//! worker pool + stats, the component inside
//! [`AsyncEngine`](super::AsyncEngine)), and the router picks a replica
//! per request according to a [`RoutingPolicy`]. Replicas whose workers
//! die or whose backend fails repeatedly are **quarantined** — new traffic
//! routes around them, and [`ShardedEngine::classify`] transparently
//! re-routes a request cancelled by a failing replica. Shutdown drains
//! every replica in parallel before joining.
//!
//! Two tail-latency levers ride on top of routing:
//!
//! - **Hedged requests** ([`HedgeConfig`], opt-in): when a classify call
//!   has waited longer than the pool's running p95 estimate, the request
//!   is duplicated to a second healthy replica and the first answer wins —
//!   one slow replica stops defining the pool's p99.
//! - **Replica weights** ([`ShardedEngineBuilder::add_replica_weighted`]):
//!   an explicit capacity multiplier dividing the
//!   [`RoutingPolicy::LatencyAware`] score, so a deliberately
//!   under-provisioned fp32 replica in a mostly-int8 pool can be held to a
//!   planned share of traffic before its latency EWMA has converged.

use super::queue::{PendingResponse, RequestOutput, ServeError};
use super::worker::{AsyncEngineConfig, AsyncStats, Replica, WorkerInner};
use super::{GestureClassifier, LatencyStats};
use bioformer_tensor::Tensor;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// How often the hedged race polls each of the two in-flight copies.
const HEDGE_POLL: Duration = Duration::from_micros(200);

/// How the router picks a replica for each submission. Only healthy
/// (non-quarantined) replicas are ever candidates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoutingPolicy {
    /// Cycle through the healthy replicas in order. Fair, oblivious to
    /// load — the baseline policy.
    RoundRobin,
    /// Pick the replica with the fewest queued requests, breaking ties
    /// round-robin. Adapts to load imbalance but not to heterogeneous
    /// replica speed.
    LeastQueueDepth,
    /// Pick the replica minimising `(inflight + 1) ×` its per-window
    /// batch-latency EWMA — an estimate of time-to-service that accounts
    /// for both outstanding load and how fast the replica actually is, so
    /// an fp32 replica naturally yields traffic to a faster int8 sibling
    /// under load. The latency signal is the batch EWMA normalised per
    /// window (a replica is not punished for absorbing bigger coalesced
    /// batches), and the load signal counts in-flight requests rather
    /// than queue depth (which reads zero while a worker holds the whole
    /// backlog in its forming batch). Replicas with no latency history
    /// yet score zero and are probed first.
    #[default]
    LatencyAware,
}

/// Tuning knobs for [`ShardedEngine`] (per-replica knobs live in each
/// replica's [`AsyncEngineConfig`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardedEngineConfig {
    /// The routing policy.
    pub policy: RoutingPolicy,
    /// Consecutive backend failures (panicking batches) after which a
    /// replica is quarantined (≥ 1). A replica whose workers have all died
    /// is quarantined regardless.
    pub quarantine_after: usize,
    /// Maximum times [`ShardedEngine::classify`] re-routes a request to
    /// another replica after a [`ServeError::Cancelled`] response.
    pub max_reroutes: usize,
    /// How often a quarantined replica is probed with a canary request
    /// (a single zero window of the replica's served shape). On a
    /// successful canary answer the replica is **re-admitted** to the
    /// routing pool, so a transiently failing replica rejoins instead of
    /// staying evicted forever. `None` restores the pre-recovery sticky
    /// quarantine. Probing piggybacks on routing decisions — an idle pool
    /// sends no canaries — and replicas whose workers have all died are
    /// never probed (a dead worker pool cannot answer).
    pub probe_interval: Option<Duration>,
    /// Request hedging for [`ShardedEngine::classify`]. `None` (the
    /// default) disables hedging entirely — the classify path is then
    /// byte-for-byte the pre-hedging re-route loop.
    pub hedge: Option<HedgeConfig>,
}

impl Default for ShardedEngineConfig {
    fn default() -> Self {
        ShardedEngineConfig {
            policy: RoutingPolicy::LatencyAware,
            quarantine_after: 2,
            max_reroutes: 3,
            probe_interval: Some(Duration::from_millis(250)),
            hedge: None,
        }
    }
}

/// Hedged-request tuning for [`ShardedEngine::classify`].
///
/// A hedge fires when the primary replica has not answered within the
/// **hedge delay**: the request is duplicated (non-blocking) to a second
/// healthy replica and the first answer wins. The delay tracks the pool's
/// observed p95 classify latency via a constant-space frugal-streaming
/// estimator, clamped to `[min_delay, max_delay]`; before any latency has
/// been observed, `initial_delay` is used. Tying the delay to p95 bounds
/// the duplicate-work overhead at roughly 5 % of requests while still
/// cutting off the slowest tail — the classic "tail at scale" trade.
///
/// The losing copy is **cancelled, not un-counted**: its response handle
/// is dropped (the worker's send fails silently), but the work still shows
/// up in the losing replica's counters, so
/// [`PoolStats::rollup_consistent`] keeps holding. Pool-level
/// [`PoolStats::hedges_fired`] / [`PoolStats::hedges_won`] count the
/// duplicates separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HedgeConfig {
    /// Hedge delay used before the p95 estimator has seen any sample.
    pub initial_delay: Duration,
    /// Lower clamp on the hedge delay (guards against a cold or
    /// pathologically low estimate hedging every request).
    pub min_delay: Duration,
    /// Upper clamp on the hedge delay (guards against a spike poisoning
    /// the estimate into never hedging again).
    pub max_delay: Duration,
}

impl Default for HedgeConfig {
    fn default() -> Self {
        HedgeConfig {
            initial_delay: Duration::from_millis(20),
            min_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(250),
        }
    }
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
/// a successful canary probe (see [`ShardedEngineConfig::probe_interval`]),
/// so a replica that keeps failing stays out of rotation while a
/// transiently failing one rejoins. Queued work of a quarantined replica is
/// still drained on shutdown.
struct ReplicaSlot {
    replica: Replica,
    quarantined: AtomicBool,
    probe: Mutex<ProbeState>,
    /// Routing weight: the [`RoutingPolicy::LatencyAware`] score is
    /// divided by this, so a weight-2 replica is offered roughly twice the
    /// traffic of a weight-1 sibling at equal observed latency.
    weight: f64,
}

/// A snapshot of one replica's serving state inside a [`PoolStats`].
#[derive(Debug, Clone)]
pub struct ReplicaStats {
    /// Replica index (0-based, in `add_replica` order).
    pub replica: usize,
    /// The replica backend's name, e.g. `"bioformer-int8"`.
    pub backend: String,
    /// Whether the router has quarantined this replica.
    pub quarantined: bool,
    /// The replica's routing weight (1.0 unless set via
    /// [`ShardedEngineBuilder::add_replica_weighted`]).
    pub weight: f64,
    /// Requests waiting in this replica's queue at snapshot time.
    pub queue_depth: usize,
    /// EWMA of this replica's coalesced-batch backend latency. `None`
    /// before the first executed batch.
    pub ewma_batch_latency: Option<Duration>,
    /// EWMA of this replica's per-window backend latency — the signal
    /// [`RoutingPolicy::LatencyAware`] routes on. `None` before the first
    /// executed batch.
    pub ewma_window_latency: Option<Duration>,
    /// The replica's full per-worker statistics.
    pub stats: AsyncStats,
}

/// Pool-level statistics for a [`ShardedEngine`]: every replica's counters
/// rolled up, plus the per-replica breakdown. Counter semantics match
/// [`AsyncStats`]; each total equals the sum over `per_replica`.
#[derive(Debug, Clone)]
pub struct PoolStats {
    /// Requests served across the pool.
    pub requests: usize,
    /// Requests expired for missing their deadline.
    pub expired: usize,
    /// Requests cancelled because a backend panicked mid-batch.
    pub failed: usize,
    /// Requests rejected by a worker's defence-in-depth shape check.
    pub rejected: usize,
    /// Batches executed across the pool (backend actually invoked).
    pub batches: usize,
    /// Batches that coalesced more than one request.
    pub coalesced_batches: usize,
    /// Total windows served.
    pub windows: usize,
    /// Micro-batch latency summary across every replica's workers (exact
    /// count/total/mean/min/max; percentiles estimated over recent-sample
    /// windows).
    pub latency: LatencyStats,
    /// Hedged duplicates fired by [`ShardedEngine::classify`]. A
    /// **pool-level** counter, deliberately outside the per-replica sums:
    /// the duplicate itself is counted as an ordinary request in the hedge
    /// replica's stats, so [`PoolStats::rollup_consistent`] still holds.
    pub hedges_fired: usize,
    /// Hedged duplicates whose answer was the one returned to the caller
    /// (the primary lost the race or failed). Pool-level, like
    /// [`PoolStats::hedges_fired`].
    pub hedges_won: usize,
    /// Per-replica breakdown.
    pub per_replica: Vec<ReplicaStats>,
}

impl PoolStats {
    /// Windows served per second of backend time (0.0 before any work).
    pub fn throughput(&self) -> f64 {
        self.latency.throughput()
    }

    /// Mean requests per executed batch across the pool (0.0 before any
    /// work).
    pub fn requests_per_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.requests as f64 / self.batches as f64
        }
    }

    /// Whether every pool total equals the sum of its per-replica
    /// counterparts — the rollup invariant `tests/serving_sharded.rs` pins,
    /// and the shape the multi-tenant gateway's
    /// [`ServerStats`](super::ServerStats) per-tenant rollup mirrors.
    pub fn rollup_consistent(&self) -> bool {
        let sum =
            |f: &dyn Fn(&ReplicaStats) -> usize| -> usize { self.per_replica.iter().map(f).sum() };
        self.requests == sum(&|r| r.stats.requests)
            && self.expired == sum(&|r| r.stats.expired)
            && self.failed == sum(&|r| r.stats.failed)
            && self.rejected == sum(&|r| r.stats.rejected)
            && self.batches == sum(&|r| r.stats.batches)
            && self.coalesced_batches == sum(&|r| r.stats.coalesced_batches)
            && self.windows == sum(&|r| r.stats.windows)
    }
}

/// Builder for a [`ShardedEngine`]: collect heterogeneous replicas, then
/// [`ShardedEngineBuilder::build`].
pub struct ShardedEngineBuilder {
    cfg: ShardedEngineConfig,
    replica_cfg: AsyncEngineConfig,
    replicas: Vec<(Box<dyn GestureClassifier>, Option<AsyncEngineConfig>, f64)>,
}

impl ShardedEngineBuilder {
    fn new() -> Self {
        ShardedEngineBuilder {
            cfg: ShardedEngineConfig::default(),
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

    /// Sets the consecutive-failure count that quarantines a replica.
    ///
    /// # Panics
    ///
    /// Panics if `after` is 0.
    pub fn with_quarantine_after(mut self, after: usize) -> Self {
        assert!(after > 0, "ShardedEngine: quarantine_after must be >= 1");
        self.cfg.quarantine_after = after;
        self
    }

    /// Sets how many times [`ShardedEngine::classify`] re-routes a
    /// cancelled request to another replica (0 disables re-routing).
    pub fn with_max_reroutes(mut self, reroutes: usize) -> Self {
        self.cfg.max_reroutes = reroutes;
        self
    }

    /// Sets how often quarantined replicas are probed with canary requests
    /// for re-admission (see [`ShardedEngineConfig::probe_interval`]).
    pub fn with_probe_interval(mut self, interval: Duration) -> Self {
        self.cfg.probe_interval = Some(interval);
        self
    }

    /// Disables canary probing: quarantine becomes sticky for the
    /// engine's lifetime (the pre-recovery behaviour).
    pub fn without_probe_recovery(mut self) -> Self {
        self.cfg.probe_interval = None;
        self
    }

    /// Enables request hedging on [`ShardedEngine::classify`] (see
    /// [`HedgeConfig`]). Off by default.
    pub fn with_hedging(mut self, hedge: HedgeConfig) -> Self {
        self.cfg.hedge = Some(hedge);
        self
    }

    /// Sets the default per-replica config used by
    /// [`ShardedEngineBuilder::add_replica`] (replicas already added keep
    /// theirs).
    pub fn with_replica_config(mut self, cfg: AsyncEngineConfig) -> Self {
        self.replica_cfg = cfg;
        self
    }

    /// Adds a replica serving `backend` with the builder's default replica
    /// config.
    pub fn add_replica(mut self, backend: Box<dyn GestureClassifier>) -> Self {
        self.replicas.push((backend, None, 1.0));
        self
    }

    /// Adds a replica with an explicit routing weight. Under
    /// [`RoutingPolicy::LatencyAware`] the replica's score is divided by
    /// `weight`, so a weight-2 replica attracts roughly twice the traffic
    /// of a weight-1 sibling at equal observed latency — the knob for
    /// capacity-planning a heterogeneous fp32 + int8 pool before (and
    /// independently of) the latency EWMAs converging.
    ///
    /// # Panics
    ///
    /// Panics unless `weight` is finite and > 0.
    pub fn add_replica_weighted(
        mut self,
        backend: Box<dyn GestureClassifier>,
        weight: f64,
    ) -> Self {
        assert!(
            weight.is_finite() && weight > 0.0,
            "ShardedEngine: replica weight must be finite and > 0, got {weight}"
        );
        self.replicas.push((backend, None, weight));
        self
    }

    /// Adds a replica with an explicit per-replica config — e.g. more
    /// workers for a big-core fp32 replica, a larger micro-batch for an
    /// accelerator-offload replica.
    pub fn add_replica_with(
        mut self,
        backend: Box<dyn GestureClassifier>,
        cfg: AsyncEngineConfig,
    ) -> Self {
        self.replicas.push((backend, Some(cfg), 1.0));
        self
    }

    /// Spawns every replica's worker pool and returns the engine.
    ///
    /// # Panics
    ///
    /// Panics if no replica was added, if replicas disagree on the class
    /// count (they must serve the same task), or if any replica config is
    /// invalid.
    pub fn build(self) -> ShardedEngine {
        assert!(
            !self.replicas.is_empty(),
            "ShardedEngine: at least one replica is required"
        );
        let default_cfg = self.replica_cfg;
        let replicas: Vec<ReplicaSlot> = self
            .replicas
            .into_iter()
            .map(|(backend, cfg, weight)| ReplicaSlot {
                replica: Replica::new(backend, cfg.unwrap_or_else(|| default_cfg.clone())),
                quarantined: AtomicBool::new(false),
                probe: Mutex::new(ProbeState::default()),
                weight,
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
            hedges_fired: AtomicUsize::new(0),
            hedges_won: AtomicUsize::new(0),
            hedge_p95_ns: AtomicU64::new(0),
        }
    }
}

/// A sharded multi-replica serving engine: one submission API over N
/// backend replicas, each with its own bounded queue and coalescing worker
/// pool, with policy-driven routing, replica quarantine and pool-level
/// statistics.
///
/// Replicas may be heterogeneous — the intended deployment is the paper's
/// fp32/int8 Pareto front, e.g. one fp32 `Bioformer` replica on big cores
/// plus int8 `QuantBioformer` replicas elsewhere — as long as they serve
/// the same class count. Each replica derives its own linger from observed
/// traffic by default ([`LingerPolicy::Adaptive`](super::LingerPolicy)).
///
/// # Example
///
/// ```
/// use bioformers::core::{Bioformer, BioformerConfig};
/// use bioformers::serve::{RoutingPolicy, ShardedEngine};
/// use bioformers::tensor::Tensor;
///
/// let pool = ShardedEngine::builder()
///     .with_policy(RoutingPolicy::LatencyAware)
///     .add_replica(Box::new(Bioformer::new(&BioformerConfig::bio1())))
///     .add_replica(Box::new(Bioformer::new(&BioformerConfig::bio1())))
///     .build();
/// let out = pool.classify(Tensor::zeros(&[2, 14, 300])).unwrap();
/// assert_eq!(out.logits.dims(), &[2, 8]);
/// let stats = pool.shutdown();
/// assert_eq!(stats.requests, 1);
/// assert_eq!(stats.per_replica.len(), 2);
/// ```
pub struct ShardedEngine {
    replicas: Vec<ReplicaSlot>,
    /// Round-robin cursor; also rotates tie-breaks for the other policies.
    rr: AtomicUsize,
    cfg: ShardedEngineConfig,
    classes: usize,
    /// Hedged duplicates fired (pool-level; see [`PoolStats::hedges_fired`]).
    hedges_fired: AtomicUsize,
    /// Hedged duplicates whose answer won the race.
    hedges_won: AtomicUsize,
    /// Running p95 estimate of classify latency in nanos (frugal
    /// streaming: asymmetric ±steps at a 19:1 ratio converge on the 95th
    /// percentile in constant space). 0 = no sample yet.
    hedge_p95_ns: AtomicU64,
}

impl ShardedEngine {
    /// Starts building a pool.
    pub fn builder() -> ShardedEngineBuilder {
        ShardedEngineBuilder::new()
    }

    /// The pool's configuration.
    pub fn config(&self) -> &ShardedEngineConfig {
        &self.cfg
    }

    /// Number of replicas (healthy or quarantined).
    pub fn num_replicas(&self) -> usize {
        self.replicas.len()
    }

    /// The shared class count every replica serves.
    pub fn num_classes(&self) -> usize {
        self.classes
    }

    /// The replica backend names, in `add_replica` order.
    pub fn backend_names(&self) -> Vec<String> {
        self.replicas
            .iter()
            .map(|s| s.replica.backend_name().to_string())
            .collect()
    }

    /// The replica compute reports (backend, SIMD tier and plan at spawn),
    /// parallel to
    /// [`ShardedEngine::backend_names`].
    pub fn compute_reports(&self) -> Vec<String> {
        self.replicas
            .iter()
            .map(|s| s.replica.compute_report().to_string())
            .collect()
    }

    /// The `[channels, samples]` window shape the pool serves, when every
    /// replica agrees on one (declared by its backend or pinned by
    /// traffic); `None` when unknown or inconsistent.
    pub fn input_shape(&self) -> Option<(usize, usize)> {
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
            if let Some(interval) = self.cfg.probe_interval {
                self.probe_quarantined(slot, interval);
            }
        }
    }

    /// One non-blocking step of the canary cycle for a quarantined
    /// replica: poll an outstanding canary (re-admit on success), or
    /// submit a fresh one once `interval` has passed since the last.
    fn probe_quarantined(&self, slot: &ReplicaSlot, interval: Duration) {
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
        let due = probe.last.is_none_or(|t| t.elapsed() >= interval);
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

    /// Picks a replica for the next request, skipping quarantined replicas
    /// and the explicitly `excluded` indices (already-tried replicas during
    /// a re-route).
    fn route(&self, excluded: &[usize]) -> Result<usize, ServeError> {
        self.refresh_health();
        let healthy: Vec<usize> = (0..self.replicas.len())
            .filter(|i| !self.replicas[*i].quarantined.load(Ordering::Relaxed))
            .filter(|i| !excluded.contains(i))
            .collect();
        if healthy.is_empty() {
            return Err(ServeError::Unavailable);
        }
        // One cursor bump per decision: round-robin rotation, and a
        // rotating tie-break start for the load-aware policies.
        let start = self.rr.fetch_add(1, Ordering::Relaxed) % healthy.len();
        let pick = match self.cfg.policy {
            RoutingPolicy::RoundRobin => healthy[start],
            RoutingPolicy::LeastQueueDepth => select_min(&healthy, start, |i| {
                self.replicas[i].replica.queue_depth() as f64
            }),
            RoutingPolicy::LatencyAware => select_min(&healthy, start, |i| {
                let r = &self.replicas[i].replica;
                let shared = r.shared();
                let win = shared
                    .ewma_window_latency()
                    .map_or(0.0, |d| d.as_secs_f64());
                let batch = shared.ewma_batch_latency().map_or(0.0, |d| d.as_secs_f64());
                // Expected time-to-service: the requests already waiting
                // (queued or in a forming batch — riders of an executing
                // batch finish with it and don't add future work) plus
                // this request, at the replica's per-window rate, plus the
                // expected remainder of any batch executing right now
                // (½ the batch EWMA per busy worker). Divided by the
                // replica's explicit weight: a weight-w replica looks w×
                // cheaper, attracting a proportional share of traffic.
                ((shared.waiting() + 1) as f64 * win + shared.busy_workers() as f64 * batch / 2.0)
                    / self.replicas[i].weight
            }),
        };
        Ok(pick)
    }

    /// Submits a request to the routed replica, blocking while that
    /// replica's queue is full (cooperative backpressure). Returns the
    /// replica's response handle.
    pub fn submit(&self, windows: Tensor) -> Result<PendingResponse, ServeError> {
        let idx = self.route(&[])?;
        self.replicas[idx].replica.submit(windows)
    }

    /// Submits without blocking: if the routed replica's queue is full, the
    /// other healthy replicas are tried in routing order before failing
    /// with [`ServeError::QueueFull`] — spillover load balancing.
    pub fn try_submit(&self, windows: Tensor) -> Result<PendingResponse, ServeError> {
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

    /// Submits a request that must **start** being served within `ttl` on
    /// the routed replica.
    pub fn submit_with_deadline(
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
    /// (up to [`ShardedEngineConfig::max_reroutes`] times) when a replica
    /// cancels the request because its backend panicked. This is how a
    /// dying replica's traffic is re-routed rather than dropped.
    ///
    /// With [`ShardedEngineConfig::hedge`] set, a request that outlives the
    /// hedge delay is additionally duplicated to a second replica and the
    /// first answer wins (see [`HedgeConfig`]); with `hedge: None` (the
    /// default) this is exactly the plain re-route loop.
    pub fn classify(&self, windows: Tensor) -> Result<RequestOutput, ServeError> {
        match self.cfg.hedge {
            Some(h) => self.classify_hedged(windows, h),
            None => self.classify_unhedged(windows),
        }
    }

    /// The pre-hedging classify path: route, submit, wait, re-route on
    /// cancellation.
    fn classify_unhedged(&self, windows: Tensor) -> Result<RequestOutput, ServeError> {
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

    /// The hedged classify path: submit to the routed primary, wait out
    /// the hedge delay, then duplicate to a second healthy replica and
    /// race the two copies. The losing copy's response handle is dropped —
    /// the worker still executes and counts it, but nobody waits for it.
    ///
    /// Failure semantics are deliberately simple: the hedge *is* the
    /// retry. If one copy errors the call blocks on the other; if both
    /// error the surviving copy's error is returned. The unhedged
    /// re-route loop is not layered on top.
    fn classify_hedged(
        &self,
        windows: Tensor,
        h: HedgeConfig,
    ) -> Result<RequestOutput, ServeError> {
        let started = Instant::now();
        let primary_idx = self.route(&[])?;
        let copy = windows.clone();
        let mut primary = self.replicas[primary_idx].replica.submit(windows)?;
        match primary.wait_timeout(self.hedge_delay(&h)) {
            Ok(result) => return self.hedged_outcome(result, started, false),
            Err(pending) => primary = pending,
        }
        // The primary outlived the delay: duplicate to a second healthy
        // replica, never the primary, without blocking — a full hedge
        // queue means "no hedge this time", not backpressure.
        let hedged = self
            .route(&[primary_idx])
            .ok()
            .and_then(|idx| self.replicas[idx].replica.try_submit(copy).ok());
        let Some(mut hedge) = hedged else {
            return self.hedged_outcome(primary.wait(), started, false);
        };
        self.hedges_fired.fetch_add(1, Ordering::Relaxed);
        loop {
            match primary.wait_timeout(HEDGE_POLL) {
                Ok(Ok(out)) => return self.hedged_outcome(Ok(out), started, false),
                Ok(Err(_)) => return self.hedged_outcome(hedge.wait(), started, true),
                Err(pending) => primary = pending,
            }
            match hedge.try_wait() {
                Ok(Ok(out)) => return self.hedged_outcome(Ok(out), started, true),
                Ok(Err(_)) => return self.hedged_outcome(primary.wait(), started, false),
                Err(pending) => hedge = pending,
            }
        }
    }

    /// Accounts for a finished hedged classify: bumps the win counter when
    /// the hedge's answer was used, and feeds the p95 estimator on success.
    fn hedged_outcome(
        &self,
        result: Result<RequestOutput, ServeError>,
        started: Instant,
        won_by_hedge: bool,
    ) -> Result<RequestOutput, ServeError> {
        if result.is_ok() {
            if won_by_hedge {
                self.hedges_won.fetch_add(1, Ordering::Relaxed);
            }
            self.note_latency(started.elapsed());
        }
        result
    }

    /// The hedge delay for the next request: the running p95 estimate,
    /// clamped to the config's bounds ([`HedgeConfig::initial_delay`]
    /// before any sample).
    fn hedge_delay(&self, h: &HedgeConfig) -> Duration {
        let est = self.hedge_p95_ns.load(Ordering::Relaxed);
        let raw = if est == 0 {
            h.initial_delay
        } else {
            Duration::from_nanos(est)
        };
        raw.clamp(h.min_delay, h.max_delay)
    }

    /// Frugal-streaming p95 update: step up 19 units on a sample above the
    /// estimate, down 1 unit below it — at the 95th percentile up- and
    /// down-steps balance (5 % × 19 = 95 % × 1). The unit is a 1/256th of
    /// the current estimate, so convergence is multiplicative and scale-
    /// free. Lossy under concurrent updates by design (it is an estimate).
    fn note_latency(&self, sample: Duration) {
        let s = (sample.as_nanos().min(u64::MAX as u128) as u64).max(1);
        let cur = self.hedge_p95_ns.load(Ordering::Relaxed);
        let next = if cur == 0 {
            s
        } else {
            let unit = (cur >> 8).max(1);
            if s > cur {
                cur.saturating_add(19 * unit)
            } else {
                cur.saturating_sub(unit).max(1)
            }
        };
        self.hedge_p95_ns.store(next, Ordering::Relaxed);
    }

    /// A live snapshot of pool-level + per-replica statistics. Every pool
    /// total is the sum of the corresponding per-replica counters.
    ///
    /// The `quarantined` flags reflect the router's decisions so far (the
    /// flag is evaluated on the routing path, not here — a drained pool's
    /// idle workers are not retroactively declared dead). Canary probe
    /// requests sent to quarantined replicas are counted like client
    /// requests in that replica's stats.
    pub fn stats(&self) -> PoolStats {
        let mut merged = WorkerInner::default();
        let mut per_replica = Vec::with_capacity(self.replicas.len());
        for (i, slot) in self.replicas.iter().enumerate() {
            // One snapshot per replica feeds both the pool rollup and the
            // per-replica view, so the totals sum exactly even mid-traffic.
            let (replica_merged, per_worker) = slot.replica.snapshot();
            merged.merge_from(&replica_merged);
            per_replica.push(ReplicaStats {
                replica: i,
                backend: slot.replica.backend_name().to_string(),
                quarantined: slot.quarantined.load(Ordering::Relaxed),
                weight: slot.weight,
                queue_depth: slot.replica.queue_depth(),
                ewma_batch_latency: slot.replica.shared().ewma_batch_latency(),
                ewma_window_latency: slot.replica.shared().ewma_window_latency(),
                stats: replica_merged.into_stats(per_worker),
            });
        }
        let pool = merged.into_stats(Vec::new());
        PoolStats {
            requests: pool.requests,
            expired: pool.expired,
            failed: pool.failed,
            rejected: pool.rejected,
            batches: pool.batches,
            coalesced_batches: pool.coalesced_batches,
            windows: pool.windows,
            latency: pool.latency,
            hedges_fired: self.hedges_fired.load(Ordering::Relaxed),
            hedges_won: self.hedges_won.load(Ordering::Relaxed),
            per_replica,
        }
    }

    /// Graceful shutdown: closes every replica's queue (so they drain in
    /// parallel), joins all workers, and returns the final pool statistics.
    /// Accepted requests are always served; dropping the engine does the
    /// same minus the stats.
    pub fn shutdown(mut self) -> PoolStats {
        self.close_and_join();
        self.stats()
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

/// Picks the index in `healthy` minimising `score`, scanning from `start`
/// so ties rotate instead of always landing on the first replica.
fn select_min(healthy: &[usize], start: usize, score: impl Fn(usize) -> f64) -> usize {
    let mut best = healthy[start];
    let mut best_score = score(best);
    for k in 1..healthy.len() {
        let idx = healthy[(start + k) % healthy.len()];
        let s = score(idx);
        if s < best_score {
            best = idx;
            best_score = s;
        }
    }
    best
}
