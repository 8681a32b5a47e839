//! The replica behind [`AsyncEngine`] and the sharded pool: each worker
//! pops requests off the shared [`queue`](super::queue), coalesces
//! concurrent clients' windows into one shared micro-batch (flushing on
//! batch-full or when the linger deadline passes), expires late requests,
//! runs the backend once per batch, and scatters the logits back to every
//! waiting client.
//!
//! The queue + worker pool + stats bundle lives in the crate-internal
//! `Replica` type; [`AsyncEngine`] is a single replica with a public face,
//! and [`ShardedEngine`](super::ShardedEngine) fans one submission API out
//! over many replicas.

use super::engine::{Engine, EngineStats};
use super::queue::{PendingResponse, Request, RequestOutput, RequestQueue, ServeError};
use super::{predict_chunked, GestureClassifier, LatencyStats, DEFAULT_MICRO_BATCH};
use bioformer_tensor::{Tensor, TensorArena};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How a worker holding a partial batch decides how long to wait for
/// stragglers before flushing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LingerPolicy {
    /// Always wait the configured [`AsyncEngineConfig::linger`].
    Fixed,
    /// Derive the linger from the replica's observed traffic: the EWMA of
    /// request inter-arrival times and of batch service time. Sparse
    /// traffic (arrivals slower than service) flushes immediately — no
    /// linger tax; bursty traffic waits long enough for the batch to fill,
    /// never longer than one batch service time or `max`. Before any
    /// traffic has been observed the fixed `linger` is used as bootstrap.
    Adaptive {
        /// Hard upper bound on the derived linger.
        max: Duration,
    },
}

/// Tuning knobs for [`AsyncEngine`] (and, per replica, for
/// [`ShardedEngine`](super::ShardedEngine)).
///
/// The defaults coalesce where there is something to coalesce: the linger
/// is derived from the replica's own traffic ([`LingerPolicy::Adaptive`]),
/// so a lone window is served at once and a burst still shares a batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsyncEngineConfig {
    /// Worker threads consuming the queue (≥ 1). One worker per backend
    /// replica is the norm; more only helps when the backend itself can run
    /// batches concurrently (e.g. on spare cores).
    pub workers: usize,
    /// Maximum windows per coalesced batch, and the chunk size the batch is
    /// executed with (≥ 1) — identical semantics to
    /// [`InferenceEngine::micro_batch`](super::InferenceEngine::micro_batch).
    pub micro_batch: usize,
    /// How long a worker holding a partial batch waits for more requests
    /// before flushing (under [`LingerPolicy::Fixed`]; the bootstrap value
    /// under [`LingerPolicy::Adaptive`]). `Duration::ZERO` still coalesces
    /// whatever is already queued, it just never waits for stragglers.
    pub linger: Duration,
    /// Whether the linger is the static `linger` value or derived from the
    /// replica's observed arrival rate and batch service time.
    pub linger_policy: LingerPolicy,
    /// Bounded queue capacity in requests (≥ 1); the backpressure limit.
    pub queue_capacity: usize,
}

/// The default linger: the bootstrap value and the cap of the default
/// adaptive policy.
const DEFAULT_LINGER: Duration = Duration::from_micros(500);

impl Default for AsyncEngineConfig {
    fn default() -> Self {
        AsyncEngineConfig {
            workers: 2,
            micro_batch: DEFAULT_MICRO_BATCH,
            linger: DEFAULT_LINGER,
            linger_policy: LingerPolicy::Adaptive {
                max: DEFAULT_LINGER,
            },
            queue_capacity: 256,
        }
    }
}

impl AsyncEngineConfig {
    /// Sets the worker count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the maximum windows per coalesced batch.
    pub fn with_micro_batch(mut self, micro_batch: usize) -> Self {
        self.micro_batch = micro_batch;
        self
    }

    /// Sets the linger deadline for partial batches (and switches back to
    /// [`LingerPolicy::Fixed`]).
    pub fn with_linger(mut self, linger: Duration) -> Self {
        self.linger = linger;
        self.linger_policy = LingerPolicy::Fixed;
        self
    }

    /// Switches to [`LingerPolicy::Adaptive`] with `max` as the hard upper
    /// bound on the derived linger.
    pub fn with_adaptive_linger(mut self, max: Duration) -> Self {
        self.linger_policy = LingerPolicy::Adaptive { max };
        self
    }

    /// Sets the bounded queue capacity (in requests).
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    fn validate(&self) {
        assert!(self.workers > 0, "AsyncEngineConfig: workers must be >= 1");
        assert!(
            self.micro_batch > 0,
            "AsyncEngineConfig: micro_batch must be >= 1"
        );
        assert!(
            self.queue_capacity > 0,
            "AsyncEngineConfig: queue_capacity must be >= 1"
        );
    }
}

/// Per-worker cap on retained latency samples: totals stay exact forever,
/// while p50/p95/p99 are estimated over a sliding window of the most
/// recent samples so a long-lived engine's memory stays bounded.
const LATENCY_WINDOW: usize = 4096;

/// Smoothing factor for the replica-level EWMAs (batch service time,
/// request inter-arrival time): each new sample contributes 20%.
const EWMA_ALPHA: f64 = 0.2;

/// Folds `sample` into the EWMA stored in `cell` as nanoseconds. Zero is
/// the "no data yet" sentinel, so stored values are clamped to ≥ 1 ns.
fn ewma_update(cell: &AtomicU64, sample: Duration) {
    let s = (sample.as_nanos().min(u64::MAX as u128) as u64).max(1);
    let old = cell.load(Ordering::Relaxed);
    let new = if old == 0 {
        s
    } else {
        (EWMA_ALPHA * s as f64 + (1.0 - EWMA_ALPHA) * old as f64) as u64
    };
    cell.store(new.max(1), Ordering::Relaxed);
}

/// Live replica health + traffic signals, shared between the submission
/// side, the workers and (for sharded pools) the router. All counters are
/// advisory: they steer routing and the adaptive linger, never correctness.
pub(crate) struct ReplicaShared {
    /// Worker threads still running; decremented when a worker exits for
    /// any reason (graceful drain or a panic escaping the batch guard).
    alive_workers: AtomicUsize,
    /// Batches that failed back-to-back (backend panics); reset to zero by
    /// the next successful batch. The router quarantines on a run of these.
    consecutive_failures: AtomicUsize,
    /// Accepted requests not yet responded to (queued **or** riding an
    /// executing batch). A better load signal than queue depth alone,
    /// which reads zero while a worker holds the whole backlog in its
    /// forming batch.
    inflight: AtomicUsize,
    /// Workers currently executing a batch. A new request routed to a
    /// fully busy replica waits out the in-flight batch before service.
    busy_workers: AtomicUsize,
    /// Requests riding currently-executing batches. `inflight −
    /// executing` is the work still *waiting* (queued or in a forming
    /// batch) — the term that scales a new request's expected wait.
    executing: AtomicUsize,
    /// EWMA of coalesced-batch backend latency, in ns (0 = no data).
    ewma_batch_ns: AtomicU64,
    /// EWMA of per-window backend latency (batch latency / batch windows),
    /// in ns (0 = no data). The routing signal: unlike the raw batch EWMA
    /// it does not punish a replica for absorbing bigger batches.
    ewma_window_ns: AtomicU64,
    /// EWMA of request inter-arrival time, in ns (0 = no data).
    ewma_arrival_ns: AtomicU64,
    /// Instant of the most recent accepted request.
    last_arrival: Mutex<Option<Instant>>,
}

impl ReplicaShared {
    fn new(workers: usize) -> Self {
        ReplicaShared {
            alive_workers: AtomicUsize::new(workers),
            consecutive_failures: AtomicUsize::new(0),
            inflight: AtomicUsize::new(0),
            busy_workers: AtomicUsize::new(0),
            executing: AtomicUsize::new(0),
            ewma_batch_ns: AtomicU64::new(0),
            ewma_window_ns: AtomicU64::new(0),
            ewma_arrival_ns: AtomicU64::new(0),
            last_arrival: Mutex::new(None),
        }
    }

    fn note_batch_success(&self, latency: Duration, windows: usize) {
        ewma_update(&self.ewma_batch_ns, latency);
        if windows > 0 {
            ewma_update(&self.ewma_window_ns, latency / windows as u32);
        }
        self.consecutive_failures.store(0, Ordering::Relaxed);
    }

    fn note_batch_failure(&self) {
        self.consecutive_failures.fetch_add(1, Ordering::Relaxed);
    }

    /// Clears the consecutive-failure run. The router calls this when a
    /// canary probe succeeds: the response is delivered from *inside* the
    /// batch, before the worker's own `note_batch_success` accounting
    /// lands, so without this reset a re-admitted replica could be
    /// instantly re-quarantined by the stale counter.
    pub(crate) fn reset_failures(&self) {
        self.consecutive_failures.store(0, Ordering::Relaxed);
    }

    fn note_arrival(&self) {
        self.inflight.fetch_add(1, Ordering::Relaxed);
        let now = Instant::now();
        let mut last = self.last_arrival.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(prev) = *last {
            ewma_update(&self.ewma_arrival_ns, now.saturating_duration_since(prev));
        }
        *last = Some(now);
    }

    fn note_responded(&self, count: usize) {
        // Saturating: direct `run_batch` callers (tests) never arrived.
        let _ = self
            .inflight
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(count))
            });
    }

    pub(crate) fn busy_workers(&self) -> usize {
        self.busy_workers.load(Ordering::Relaxed)
    }

    /// Accepted requests still waiting for a backend slot (not yet part of
    /// an executing batch).
    pub(crate) fn waiting(&self) -> usize {
        self.inflight
            .load(Ordering::Relaxed)
            .saturating_sub(self.executing.load(Ordering::Relaxed))
    }

    pub(crate) fn alive_workers(&self) -> usize {
        self.alive_workers.load(Ordering::Relaxed)
    }

    pub(crate) fn consecutive_failures(&self) -> usize {
        self.consecutive_failures.load(Ordering::Relaxed)
    }

    pub(crate) fn ewma_batch_latency(&self) -> Option<Duration> {
        match self.ewma_batch_ns.load(Ordering::Relaxed) {
            0 => None,
            ns => Some(Duration::from_nanos(ns)),
        }
    }

    pub(crate) fn ewma_window_latency(&self) -> Option<Duration> {
        match self.ewma_window_ns.load(Ordering::Relaxed) {
            0 => None,
            ns => Some(Duration::from_nanos(ns)),
        }
    }
}

/// Decrements the replica's alive-worker count when the worker thread exits
/// — including by panic, so the router can detect a dead replica.
struct AliveGuard(Arc<ReplicaShared>);

impl Drop for AliveGuard {
    fn drop(&mut self) {
        self.0.alive_workers.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The linger a worker should wait for stragglers before flushing a
/// partial batch, given the replica's observed traffic.
fn effective_linger(cfg: &AsyncEngineConfig, shared: &ReplicaShared) -> Duration {
    match cfg.linger_policy {
        LingerPolicy::Fixed => cfg.linger,
        LingerPolicy::Adaptive { max } => {
            let service = shared.ewma_batch_ns.load(Ordering::Relaxed);
            let arrival = shared.ewma_arrival_ns.load(Ordering::Relaxed);
            if service == 0 || arrival == 0 {
                // No traffic signal yet: bootstrap from the fixed value.
                cfg.linger.min(max)
            } else if arrival >= service {
                // Sparse traffic: the next request is unlikely to arrive
                // within a batch's service time — flush immediately rather
                // than taxing every request with a hopeless wait.
                Duration::ZERO
            } else {
                // Bursty traffic: wait roughly as long as it takes the
                // batch to fill, but never longer than one batch service
                // time (past that, waiting costs more than it amortises).
                let fill = arrival.saturating_mul(cfg.micro_batch as u64);
                Duration::from_nanos(fill.min(service)).min(max)
            }
        }
    }
}

/// Per-worker accounting, updated after every executed batch.
#[derive(Debug, Default, Clone)]
pub(crate) struct WorkerInner {
    batches: usize,
    coalesced_batches: usize,
    requests: usize,
    windows: usize,
    expired: usize,
    failed: usize,
    rejected: usize,
    micro_batches: usize,
    total_latency: Duration,
    min_latency: Option<Duration>,
    max_latency: Option<Duration>,
    /// Ring buffer of the most recent micro-batch latencies (percentiles).
    recent: Vec<Duration>,
    next: usize,
}

impl WorkerInner {
    fn record_latencies(&mut self, latencies: &[Duration]) {
        for &d in latencies {
            self.micro_batches += 1;
            self.total_latency += d;
            self.min_latency = Some(self.min_latency.map_or(d, |m| m.min(d)));
            self.max_latency = Some(self.max_latency.map_or(d, |m| m.max(d)));
            if self.recent.len() < LATENCY_WINDOW {
                self.recent.push(d);
            } else {
                self.recent[self.next] = d;
                self.next = (self.next + 1) % LATENCY_WINDOW;
            }
        }
    }

    /// Accounts one served request of `windows` windows executed as
    /// `latencies.len()` micro-batches (the synchronous engine's per-call
    /// accounting; the async worker loop does the same bookkeeping inline
    /// because its batch/request ratio differs).
    pub(crate) fn note_served(&mut self, windows: usize, latencies: &[Duration]) {
        self.requests += 1;
        self.windows += windows;
        if !latencies.is_empty() {
            self.batches += 1;
            self.record_latencies(latencies);
        }
    }

    /// Accounts one request rejected by validation.
    pub(crate) fn note_rejected(&mut self) {
        self.rejected += 1;
    }

    /// Folds another worker's (or replica's) counters into this one. The
    /// merged `recent` buffer concatenates both sample windows, which is
    /// only used for snapshot percentile estimation.
    pub(crate) fn merge_from(&mut self, other: &WorkerInner) {
        self.batches += other.batches;
        self.coalesced_batches += other.coalesced_batches;
        self.requests += other.requests;
        self.windows += other.windows;
        self.expired += other.expired;
        self.failed += other.failed;
        self.rejected += other.rejected;
        self.micro_batches += other.micro_batches;
        self.total_latency += other.total_latency;
        self.min_latency = match (self.min_latency, other.min_latency) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.max_latency = self.max_latency.max(other.max_latency);
        self.recent.extend_from_slice(&other.recent);
    }

    /// Builds a [`LatencyStats`] with exact count/total/mean/min/max and
    /// window-estimated percentiles.
    pub(crate) fn latency_stats(&self, windows: usize) -> LatencyStats {
        let mut recent = self.recent.clone();
        let mut stats = LatencyStats::from_samples(&mut recent, windows);
        if self.micro_batches > 0 {
            stats.micro_batches = self.micro_batches;
            stats.total = self.total_latency;
            stats.mean = Duration::from_secs_f64(
                self.total_latency.as_secs_f64() / self.micro_batches as f64,
            );
            stats.min = self.min_latency.unwrap_or(Duration::ZERO);
            stats.max = self.max_latency.unwrap_or(Duration::ZERO);
        }
        stats
    }

    /// The [`EngineStats`] view of this (possibly merged) counter set, for
    /// an engine of kind `engine` over `backends`, with no replica rows.
    pub(crate) fn into_stats(self, engine: &'static str, backends: Vec<String>) -> EngineStats {
        EngineStats {
            engine,
            backends,
            requests: self.requests,
            expired: self.expired,
            failed: self.failed,
            rejected: self.rejected,
            batches: self.batches,
            coalesced_batches: self.coalesced_batches,
            windows: self.windows,
            latency: self.latency_stats(self.windows),
            replicas: Vec::new(),
        }
    }
}

/// The served `[channels, samples]` shape plus how many requests have been
/// accepted since it was pinned — both under **one** lock, so concurrent
/// first submissions with different shapes can never both be accepted
/// (validate-and-pin is atomic).
struct ShapeState {
    shape: Option<(usize, usize)>,
    /// Whether `shape` comes from [`GestureClassifier::input_shape`]
    /// (never cleared) as opposed to being pinned by traffic (cleared
    /// again while no request relies on it).
    declared: bool,
    /// Requests accepted (successfully enqueued) against `shape`.
    accepted: usize,
    /// Requests validated against `shape` whose enqueue outcome is still
    /// unknown. A traffic pin may only be rolled back when no other
    /// request has validated against it — an accepted-but-uncommitted
    /// sibling (`push` done, `commit_shape` pending) counts here.
    validating: usize,
}

/// One backend replica: a bounded request queue, a worker pool coalescing
/// requests into shared micro-batches over one shared backend, per-worker
/// counters and live health/traffic signals.
///
/// This is the reusable component behind both public engines:
/// [`AsyncEngine`] wraps exactly one replica, and
/// [`ShardedEngine`](super::ShardedEngine) routes over many.
pub(crate) struct Replica {
    queue: Arc<RequestQueue>,
    handles: Vec<JoinHandle<()>>,
    stats: Arc<Vec<Mutex<WorkerInner>>>,
    /// Requests rejected by submission-time validation (bad rank or shape);
    /// they never reach a worker, so they are counted here.
    rejected: AtomicUsize,
    shared: Arc<ReplicaShared>,
    /// `[channels, samples]` served by this replica: the backend's declared
    /// [`GestureClassifier::input_shape`] when known, else pinned
    /// atomically by the first validated submission. Mismatches are
    /// rejected at submission.
    shape: Mutex<ShapeState>,
    classes: usize,
    backend_name: String,
    /// Snapshot of the backend's compute report (backend and dispatched
    /// plan) taken at spawn, before the backend moves into the worker threads.
    compute_report: String,
    cfg: AsyncEngineConfig,
}

impl Replica {
    /// Spawns the worker pool over `backend`.
    ///
    /// # Panics
    ///
    /// Panics if any config field is zero where ≥ 1 is required
    /// (`workers`, `micro_batch`, `queue_capacity`).
    pub(crate) fn new(backend: Box<dyn GestureClassifier>, cfg: AsyncEngineConfig) -> Self {
        cfg.validate();
        let backend: Arc<dyn GestureClassifier> = Arc::from(backend);
        let queue = Arc::new(RequestQueue::new(cfg.queue_capacity));
        let shared = Arc::new(ReplicaShared::new(cfg.workers));
        let stats = Arc::new(
            (0..cfg.workers)
                .map(|_| Mutex::new(WorkerInner::default()))
                .collect::<Vec<_>>(),
        );
        let handles = (0..cfg.workers)
            .map(|id| {
                let queue = Arc::clone(&queue);
                let backend = Arc::clone(&backend);
                let stats = Arc::clone(&stats);
                let shared = Arc::clone(&shared);
                let cfg = cfg.clone();
                std::thread::Builder::new()
                    .name(format!("serve-worker-{id}"))
                    .spawn(move || {
                        let _alive = AliveGuard(Arc::clone(&shared));
                        worker_loop(id, &queue, backend.as_ref(), &cfg, &stats[id], &shared)
                    })
                    .expect("spawn serve worker")
            })
            .collect();
        Replica {
            queue,
            handles,
            stats,
            rejected: AtomicUsize::new(0),
            shared,
            shape: Mutex::new(ShapeState {
                shape: backend.input_shape(),
                declared: backend.input_shape().is_some(),
                accepted: 0,
                validating: 0,
            }),
            classes: backend.num_classes(),
            backend_name: backend.name().to_string(),
            compute_report: backend.compute_report(),
            cfg,
        }
    }

    pub(crate) fn config(&self) -> &AsyncEngineConfig {
        &self.cfg
    }

    pub(crate) fn backend_name(&self) -> &str {
        &self.backend_name
    }

    pub(crate) fn compute_report(&self) -> &str {
        &self.compute_report
    }

    pub(crate) fn num_classes(&self) -> usize {
        self.classes
    }

    pub(crate) fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    pub(crate) fn shared(&self) -> &ReplicaShared {
        &self.shared
    }

    /// The `[channels, samples]` shape this replica is currently serving:
    /// the backend's declared shape, or the traffic-pinned one, or `None`
    /// before any shape is known. Used by the streaming layer to size
    /// windows and by the router to synthesise canary probes.
    pub(crate) fn served_shape(&self) -> Option<(usize, usize)> {
        self.shape.lock().unwrap_or_else(|e| e.into_inner()).shape
    }

    /// Validates `windows` against the replica's served shape — **and pins
    /// an unknown shape in the same lock acquisition**, so two racing first
    /// submissions with different shapes can never both pass validation
    /// (one of them would later gather into a mismatched batch and cancel
    /// every rider). Also registers the request in `ShapeState::validating`;
    /// the caller must balance every success with [`Replica::commit_shape`]
    /// (enqueue succeeded) or [`Replica::rollback_shape`] (enqueue failed —
    /// clears a traffic pin nothing relies on, so a rejected request cannot
    /// brick the replica for well-formed traffic).
    #[allow(clippy::type_complexity)]
    fn make_request(
        &self,
        windows: Tensor,
        deadline: Option<Instant>,
    ) -> Result<(Request, PendingResponse, (usize, usize)), ServeError> {
        if windows.dims().len() != 3 {
            return Err(self.reject(format!(
                "windows must be [n, channels, samples], got {:?}",
                windows.dims()
            )));
        }
        let (n, c, s) = (windows.dims()[0], windows.dims()[1], windows.dims()[2]);
        let mut st = self.shape.lock().unwrap_or_else(|e| e.into_inner());
        match st.shape {
            Some((ec, es)) => {
                if (ec, es) != (c, s) {
                    return Err(self.reject(format!(
                        "window shape [{c}, {s}] does not match engine shape [{ec}, {es}]"
                    )));
                }
            }
            None => st.shape = Some((c, s)),
        }
        st.validating += 1;
        drop(st);
        let (respond, pending) = PendingResponse::channel(n);
        Ok((
            Request {
                windows,
                deadline,
                enqueued: Instant::now(),
                respond,
            },
            pending,
            (c, s),
        ))
    }

    /// Counts one submission-time validation failure.
    fn reject(&self, msg: String) -> ServeError {
        self.rejected.fetch_add(1, Ordering::Relaxed);
        ServeError::BadRequest(msg)
    }

    /// Marks one request with shape `(c, s)` as successfully enqueued.
    fn commit_shape(&self, c: usize, s: usize) {
        let mut st = self.shape.lock().unwrap_or_else(|e| e.into_inner());
        // Re-pin if a concurrent rollback cleared the shape between our
        // validation and this commit (only possible while nothing else had
        // validated against it, so re-pinning is always consistent).
        if st.shape.is_none() {
            st.shape = Some((c, s));
        }
        st.accepted += 1;
        st.validating -= 1;
    }

    /// Undoes a traffic pin after a failed enqueue. The shape is only
    /// cleared while nothing else relies on it: it was pinned by traffic
    /// (not declared by the backend), no request was accepted against it,
    /// and no sibling that validated against it is still mid-enqueue (a
    /// sibling may already have pushed successfully without committing
    /// yet). Every request reaching this point validated against the
    /// current pin, so any of them may clear it once it is unreferenced.
    fn rollback_shape(&self, c: usize, s: usize) {
        let mut st = self.shape.lock().unwrap_or_else(|e| e.into_inner());
        st.validating -= 1;
        if !st.declared && st.accepted == 0 && st.validating == 0 && st.shape == Some((c, s)) {
            st.shape = None;
        }
    }

    fn enqueue(
        &self,
        req: Request,
        pending: PendingResponse,
        (c, s): (usize, usize),
        blocking: bool,
    ) -> Result<PendingResponse, ServeError> {
        let pushed = if blocking {
            self.queue.push(req)
        } else {
            self.queue.try_push(req)
        };
        match pushed {
            Ok(()) => {
                self.commit_shape(c, s);
                self.shared.note_arrival();
                Ok(pending)
            }
            Err(e) => {
                self.rollback_shape(c, s);
                Err(e)
            }
        }
    }

    /// Submits a request, blocking while the queue is full.
    pub(crate) fn submit(&self, windows: Tensor) -> Result<PendingResponse, ServeError> {
        let (req, pending, cs) = self.make_request(windows, None)?;
        self.enqueue(req, pending, cs, true)
    }

    /// Submits a request, failing fast with [`ServeError::QueueFull`].
    pub(crate) fn try_submit(&self, windows: Tensor) -> Result<PendingResponse, ServeError> {
        let (req, pending, cs) = self.make_request(windows, None)?;
        self.enqueue(req, pending, cs, false)
    }

    /// Submits a request that must start being served within `ttl`.
    pub(crate) fn submit_with_deadline(
        &self,
        windows: Tensor,
        ttl: Duration,
    ) -> Result<PendingResponse, ServeError> {
        let (req, pending, cs) = self.make_request(windows, Some(Instant::now() + ttl))?;
        self.enqueue(req, pending, cs, true)
    }

    /// One consistent pass over the worker mutexes: the merged counters
    /// (including the recent latency-sample windows, so percentile
    /// estimation composes) plus the submission-time rejections. Each
    /// worker is locked exactly once, so a pool rollup built from these
    /// snapshots sums exactly even mid-traffic.
    pub(crate) fn snapshot(&self) -> WorkerInner {
        let mut merged = WorkerInner::default();
        for slot in self.stats.iter() {
            merged.merge_from(&slot.lock().unwrap_or_else(|e| e.into_inner()));
        }
        merged.rejected += self.rejected.load(Ordering::Relaxed);
        merged
    }

    /// This replica's [`EngineStats`] (kind `"async"`) from one snapshot.
    pub(crate) fn stats(&self, snapshot: WorkerInner) -> EngineStats {
        snapshot.into_stats("async", vec![self.backend_name.clone()])
    }

    /// Stops accepting new requests; already-queued work is still drained.
    pub(crate) fn close(&self) {
        self.queue.close();
    }

    /// Joins the worker threads (call [`Replica::close`] first, or this
    /// blocks until someone else closes the queue).
    pub(crate) fn join(&mut self) {
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }

    fn close_and_join(&mut self) {
        self.close();
        self.join();
    }
}

impl Drop for Replica {
    fn drop(&mut self) {
        self.close_and_join();
    }
}

/// A concurrent micro-batching inference engine: a bounded MPSC request
/// queue feeding a worker pool that coalesces requests from many clients
/// into shared micro-batches over one shared (never cloned) backend.
///
/// Compared to the synchronous [`InferenceEngine`](super::InferenceEngine)
/// (one caller, one request at a time), this engine accepts requests from
/// arbitrarily many threads, amortises per-invocation backend overhead
/// across clients, expires requests whose deadline passes before service,
/// pushes back on producers via the bounded queue, and drains in-flight
/// work on shutdown. It is exactly one serving replica; to fan traffic
/// across several heterogeneous replicas with latency-aware routing, use
/// [`ShardedEngine`](super::ShardedEngine).
///
/// # Example
///
/// ```
/// use bioformers::core::{Bioformer, BioformerConfig};
/// use bioformers::serve::{AsyncEngine, AsyncEngineConfig, Engine};
/// use bioformers::tensor::Tensor;
/// use std::time::Duration;
///
/// let engine = AsyncEngine::with_config(
///     Box::new(Bioformer::new(&BioformerConfig::bio1())),
///     AsyncEngineConfig::default()
///         .with_workers(1)
///         .with_micro_batch(8)
///         .with_linger(Duration::ZERO),
/// );
/// // Submit from any number of threads; each submission is independent.
/// let pending = engine.submit(Tensor::zeros(&[2, 14, 300])).unwrap();
/// let out = pending.wait().unwrap();
/// assert_eq!(out.logits.dims(), &[2, 8]);
/// assert_eq!(out.predictions.len(), 2);
/// let stats = engine.shutdown();
/// assert_eq!(stats.requests, 1);
/// assert_eq!(stats.windows, 2);
/// ```
pub struct AsyncEngine {
    replica: Replica,
}

impl AsyncEngine {
    /// Spawns the worker pool over `backend` with the default
    /// [`AsyncEngineConfig`].
    pub fn new(backend: Box<dyn GestureClassifier>) -> Self {
        AsyncEngine::with_config(backend, AsyncEngineConfig::default())
    }

    /// Spawns the worker pool over `backend` with an explicit config.
    ///
    /// # Panics
    ///
    /// Panics if any config field is zero where ≥ 1 is required
    /// (`workers`, `micro_batch`, `queue_capacity`).
    pub fn with_config(backend: Box<dyn GestureClassifier>, cfg: AsyncEngineConfig) -> Self {
        AsyncEngine {
            replica: Replica::new(backend, cfg),
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &AsyncEngineConfig {
        self.replica.config()
    }

    /// The backend's compute report at spawn time: `"default"` for
    /// backends without a compute seam, else the backend and the plan it
    /// dispatched.
    pub fn compute_report(&self) -> &str {
        self.replica.compute_report()
    }

    /// Requests currently waiting in the queue (excludes in-flight batches).
    pub fn queue_depth(&self) -> usize {
        self.replica.queue_depth()
    }

    /// Graceful shutdown: stops accepting new requests, drains and serves
    /// everything already queued, joins the workers and returns the final
    /// statistics. Dropping the engine does the same minus the stats.
    pub fn shutdown(mut self) -> EngineStats {
        self.replica.close_and_join();
        self.engine_stats()
    }
}

impl Engine for AsyncEngine {
    fn kind(&self) -> &'static str {
        "async"
    }

    fn backends(&self) -> Vec<String> {
        vec![self.replica.backend_name().to_string()]
    }

    fn num_classes(&self) -> usize {
        self.replica.num_classes()
    }

    /// The backend's declared shape, or the shape pinned by the first
    /// accepted request; `None` before either.
    fn input_shape(&self) -> Option<(usize, usize)> {
        self.replica.served_shape()
    }

    fn submit(&self, windows: Tensor) -> Result<PendingResponse, ServeError> {
        self.replica.submit(windows)
    }

    /// Fails fast with [`ServeError::QueueFull`] when the bounded queue is
    /// at capacity, so load-shedding clients can drop or redirect work
    /// immediately.
    fn try_submit(&self, windows: Tensor) -> Result<PendingResponse, ServeError> {
        self.replica.try_submit(windows)
    }

    /// Workers reject a request not started within `ttl` with
    /// [`ServeError::DeadlineExpired`]. (A batch already executing is never
    /// aborted.)
    fn submit_with_deadline(
        &self,
        windows: Tensor,
        ttl: Duration,
    ) -> Result<PendingResponse, ServeError> {
        self.replica.submit_with_deadline(windows, ttl)
    }

    fn engine_stats(&self) -> EngineStats {
        self.replica.stats(self.replica.snapshot())
    }

    fn shutdown(self: Box<Self>) -> EngineStats {
        AsyncEngine::shutdown(*self)
    }
}

impl std::fmt::Debug for AsyncEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AsyncEngine")
            .field("backend", &self.replica.backend_name)
            .field("config", &self.replica.cfg)
            .field("queue_depth", &self.replica.queue.len())
            .field("queue_capacity", &self.replica.queue.capacity())
            .finish()
    }
}

/// One worker: pop → coalesce until batch-full or linger deadline → expire
/// late requests → execute → respond, until the queue closes and drains.
fn worker_loop(
    _id: usize,
    queue: &RequestQueue,
    backend: &dyn GestureClassifier,
    cfg: &AsyncEngineConfig,
    stats: &Mutex<WorkerInner>,
    shared: &ReplicaShared,
) {
    let micro_batch = cfg.micro_batch;
    // One scratch arena per worker thread, reused across every batch this
    // worker ever executes: after the first batch of a given shape, model
    // forwards draw all their intermediates from the pool instead of the
    // global allocator.
    let mut arena = TensorArena::new();
    while let Some(first) = queue.pop() {
        let mut batch = Vec::new();
        let mut total = 0usize;
        let mut expired = 0usize;
        let mut rejected = 0usize;
        admit(first, &mut batch, &mut total, &mut expired, &mut rejected);
        // Coalesce: drain the backlog immediately, then wait out the linger
        // window for stragglers — but never once the batch is full.
        let flush_at = Instant::now() + effective_linger(cfg, shared);
        while total < micro_batch {
            match queue.pop_until(flush_at) {
                Some(req) => admit(req, &mut batch, &mut total, &mut expired, &mut rejected),
                None => break,
            }
        }
        // Re-check deadlines at execution start: lingering must not revive
        // requests that expired while the batch was forming.
        let exec_start = Instant::now();
        batch.retain(|req| {
            let late = req.deadline.is_some_and(|d| exec_start > d);
            if late {
                expired += 1;
                total -= req.windows.dims()[0];
                req.respond.send(Err(ServeError::DeadlineExpired));
            }
            !late
        });

        // A panicking backend (bad logits shape, internal assert, …) must
        // not take the worker thread down with it — that would leave every
        // queued client waiting forever. Catch the unwind, cancel the
        // batch's requests, count the failure and keep serving.
        let outcome = if batch.is_empty() {
            Ok(Vec::new())
        } else {
            shared.busy_workers.fetch_add(1, Ordering::Relaxed);
            shared.executing.fetch_add(batch.len(), Ordering::Relaxed);
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_batch(backend, micro_batch, &batch, total, exec_start, &mut arena)
            }));
            shared.executing.fetch_sub(batch.len(), Ordering::Relaxed);
            shared.busy_workers.fetch_sub(1, Ordering::Relaxed);
            outcome
        };

        // Every request admitted this iteration has now been responded to
        // (served, expired, rejected, or about to be cancelled below).
        shared.note_responded(batch.len() + expired + rejected);

        let mut inner = stats.lock().unwrap_or_else(|e| e.into_inner());
        inner.expired += expired;
        inner.rejected += rejected;
        match outcome {
            Ok(latencies) => {
                inner.requests += batch.len();
                inner.windows += total;
                // Count a batch only when the backend actually ran: a flush
                // containing only zero-window requests produces no backend
                // call (and no latency samples), and must not dilute
                // `requests_per_batch` with phantom batches.
                if !latencies.is_empty() {
                    inner.batches += 1;
                    if batch.len() > 1 {
                        inner.coalesced_batches += 1;
                    }
                    inner.record_latencies(&latencies);
                    drop(inner);
                    shared.note_batch_success(latencies.iter().sum(), total);
                }
            }
            Err(_panic) => {
                inner.failed += batch.len();
                drop(inner);
                // Bump the health signal before cancelling, so a router
                // woken by the cancellation already sees the failure.
                shared.note_batch_failure();
                for req in &batch {
                    req.respond.send(Err(ServeError::Cancelled));
                }
                continue;
            }
        }
    }
}

/// Admits `req` into the forming batch, or expires/rejects it on the spot.
/// The shape re-check against the batch's first rider is defence-in-depth:
/// submission-time validation already pins the served shape atomically, so
/// a mismatch here means a validation bypass — reject the request rather
/// than letting the gather `copy_from_slice` panic and cancel every rider.
fn admit(
    req: Request,
    batch: &mut Vec<Request>,
    total: &mut usize,
    expired: &mut usize,
    rejected: &mut usize,
) {
    if req.deadline.is_some_and(|d| Instant::now() > d) {
        *expired += 1;
        req.respond.send(Err(ServeError::DeadlineExpired));
        return;
    }
    if let Some(first) = batch.first() {
        if req.shape() != first.shape() {
            *rejected += 1;
            let (c, s) = req.shape();
            let (ec, es) = first.shape();
            req.respond.send(Err(ServeError::BadRequest(format!(
                "window shape [{c}, {s}] does not match batch shape [{ec}, {es}]"
            ))));
            return;
        }
    }
    *total += req.windows.dims()[0];
    batch.push(req);
}

/// Executes one coalesced batch and responds to every request in it;
/// returns the per-micro-batch backend latencies.
///
/// All execution scratch (the gather tensor, model intermediates, the
/// shared logits) lives in the worker's `arena` and is recycled before
/// returning — only the per-request response tensors, which escape to the
/// clients, are freshly allocated.
fn run_batch(
    backend: &dyn GestureClassifier,
    micro_batch: usize,
    batch: &[Request],
    total: usize,
    exec_start: Instant,
    arena: &mut TensorArena,
) -> Vec<Duration> {
    let classes = backend.num_classes();
    let (channels, samples) = {
        let d = batch[0].windows.dims();
        (d[1], d[2])
    };
    let sample_len = channels * samples;

    // Gather every request's windows into one shared tensor — unless the
    // batch is a single request, which can be served from its own tensor
    // without the extra copy (the common case under sparse traffic).
    let mut gathered: Option<Tensor> = None;
    if batch.len() > 1 {
        let mut buf = arena.tensor(&[total, channels, samples]);
        let mut row = 0usize;
        for req in batch {
            let n = req.windows.dims()[0];
            buf.data_mut()[row * sample_len..(row + n) * sample_len]
                .copy_from_slice(req.windows.data());
            row += n;
        }
        gathered = Some(buf);
    }
    let all = gathered.as_ref().unwrap_or(&batch[0].windows);

    let (logits, latencies) = predict_chunked(backend, all, micro_batch, arena);
    let batch_latency: Duration = latencies.iter().sum();

    // Scatter logits back, one response per request.
    let mut row = 0usize;
    for req in batch {
        let n = req.windows.dims()[0];
        let slice = Tensor::from_vec(
            logits.data()[row * classes..(row + n) * classes].to_vec(),
            &[n, classes],
        );
        let predictions = if n == 0 {
            Vec::new()
        } else {
            slice.argmax_rows()
        };
        req.respond.send(Ok(RequestOutput {
            logits: slice,
            predictions,
            queue_wait: exec_start.saturating_duration_since(req.enqueued),
            batch_requests: batch.len(),
            batch_windows: total,
            batch_latency,
        }));
        row += n;
    }
    arena.recycle(logits);
    if let Some(g) = gathered {
        arena.recycle(g);
    }
    latencies
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A backend that records the batch sizes it was asked for.
    struct Probe {
        classes: usize,
        seen: Arc<Mutex<Vec<usize>>>,
    }

    impl GestureClassifier for Probe {
        fn predict_batch(&self, windows: &Tensor) -> Tensor {
            let n = windows.dims()[0];
            self.seen.lock().unwrap().push(n);
            Tensor::from_fn(&[n, self.classes], |i| (i / self.classes) as f32)
        }

        fn num_classes(&self) -> usize {
            self.classes
        }

        fn name(&self) -> &str {
            "probe"
        }
    }

    fn probe_engine(cfg: AsyncEngineConfig) -> (AsyncEngine, Arc<Mutex<Vec<usize>>>) {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let engine = AsyncEngine::with_config(
            Box::new(Probe {
                classes: 4,
                seen: Arc::clone(&seen),
            }),
            cfg,
        );
        (engine, seen)
    }

    #[test]
    fn serves_a_single_request() {
        let (engine, _seen) = probe_engine(AsyncEngineConfig::default().with_workers(1));
        let out = engine.classify(Tensor::zeros(&[3, 2, 5])).unwrap();
        assert_eq!(out.logits.dims(), &[3, 4]);
        assert_eq!(out.predictions.len(), 3);
        assert!(out.batch_requests >= 1);
        let stats = engine.shutdown();
        assert_eq!(stats.requests, 1);
        assert_eq!(stats.windows, 3);
        assert_eq!(stats.expired, 0);
    }

    #[test]
    fn empty_requests_are_served() {
        let (engine, seen) = probe_engine(AsyncEngineConfig::default().with_workers(1));
        let out = engine.classify(Tensor::zeros(&[0, 2, 5])).unwrap();
        assert_eq!(out.logits.dims(), &[0, 4]);
        assert!(out.predictions.is_empty());
        assert!(seen.lock().unwrap().is_empty(), "no backend call for n=0");
    }

    /// Regression (phantom batches): a flush containing only zero-window
    /// requests never invokes the backend, so it must not count as an
    /// executed batch — before the fix, three n=0 submissions reported
    /// `batches == 3` and skewed `requests_per_batch` towards 1.0.
    #[test]
    fn zero_window_flushes_are_not_counted_as_batches() {
        let (engine, seen) = probe_engine(
            AsyncEngineConfig::default()
                .with_workers(1)
                .with_linger(Duration::ZERO),
        );
        for _ in 0..3 {
            let out = engine.classify(Tensor::zeros(&[0, 2, 5])).unwrap();
            assert_eq!(out.logits.dims(), &[0, 4]);
        }
        let stats = engine.shutdown();
        assert!(seen.lock().unwrap().is_empty(), "backend must not run");
        assert_eq!(stats.requests, 3, "empty requests are still served");
        assert_eq!(stats.batches, 0, "no backend call -> no executed batch");
        assert_eq!(stats.coalesced_batches, 0);
        assert_eq!(stats.requests_per_batch(), 0.0);
        assert_eq!(stats.latency.micro_batches, 0);
    }

    #[test]
    fn rejects_non_rank3_and_mismatched_shapes() {
        let (engine, _seen) = probe_engine(AsyncEngineConfig::default().with_workers(1));
        assert!(matches!(
            engine.submit(Tensor::zeros(&[4, 10])),
            Err(ServeError::BadRequest(_))
        ));
        let _ = engine.classify(Tensor::zeros(&[1, 2, 5])).unwrap();
        assert!(matches!(
            engine.submit(Tensor::zeros(&[1, 3, 5])),
            Err(ServeError::BadRequest(_))
        ));
        assert_eq!(engine.engine_stats().rejected, 2);
    }

    /// Regression (shape-pinning race): validation and pinning used to take
    /// two separate lock acquisitions, so two concurrent first submissions
    /// with different shapes could both validate against `None` and both be
    /// accepted — a later coalesced batch then gathered mismatched tensors
    /// and panicked, cancelling every rider. This drives the exact racy
    /// interleaving (two validations before either enqueue): the second
    /// validation must now lose.
    #[test]
    fn concurrent_first_submissions_with_different_shapes_cannot_both_pin() {
        let (engine, _seen) = probe_engine(AsyncEngineConfig::default().with_workers(1));
        // Both requests validated before either is pushed to the queue —
        // the interleaving the old two-lock scheme allowed.
        let first = engine.replica.make_request(Tensor::zeros(&[1, 2, 5]), None);
        let second = engine.replica.make_request(Tensor::zeros(&[1, 3, 7]), None);
        assert!(first.is_ok(), "first shape pins the engine");
        assert!(
            matches!(second, Err(ServeError::BadRequest(_))),
            "second shape must be rejected by the atomic validate-and-pin"
        );
        // The pinned shape keeps serving.
        let out = engine.classify(Tensor::zeros(&[2, 2, 5])).unwrap();
        assert_eq!(out.logits.dims(), &[2, 4]);
    }

    /// A rejected submission (failed enqueue) must not leave its
    /// provisional pin behind: the engine stays open for whatever shape the
    /// first *accepted* request has.
    #[test]
    fn failed_enqueue_rolls_back_a_provisional_pin() {
        let (engine, _seen) = probe_engine(AsyncEngineConfig::default().with_workers(1));
        engine.replica.close();
        assert_eq!(
            engine.submit(Tensor::zeros(&[1, 2, 5])).unwrap_err(),
            ServeError::ShuttingDown
        );
        // The rejected request's shape was not committed: a different shape
        // still validates (only the enqueue fails, on the closed queue).
        assert!(
            engine
                .replica
                .make_request(Tensor::zeros(&[1, 3, 7]), None)
                .is_ok(),
            "shape from a never-enqueued request must not stick"
        );
    }

    /// Defence-in-depth: even if a mismatched request reached the queue,
    /// `admit` refuses to gather it into a batch with a different shape —
    /// the rider gets `BadRequest`, the batch survives.
    #[test]
    fn admit_rejects_shape_mismatch_within_a_batch() {
        let (tx_a, _rx_a) = PendingResponse::channel(2);
        let (tx_b, rx_b) = PendingResponse::channel(1);
        let mut batch = Vec::new();
        let (mut total, mut expired, mut rejected) = (0usize, 0usize, 0usize);
        admit(
            Request {
                windows: Tensor::zeros(&[2, 2, 5]),
                deadline: None,
                enqueued: Instant::now(),
                respond: tx_a,
            },
            &mut batch,
            &mut total,
            &mut expired,
            &mut rejected,
        );
        admit(
            Request {
                windows: Tensor::zeros(&[1, 3, 7]),
                deadline: None,
                enqueued: Instant::now(),
                respond: tx_b,
            },
            &mut batch,
            &mut total,
            &mut expired,
            &mut rejected,
        );
        assert_eq!(batch.len(), 1, "mismatched request must not join");
        assert_eq!(total, 2);
        assert_eq!(rejected, 1);
        assert!(matches!(
            rx_b.try_wait().unwrap(),
            Err(ServeError::BadRequest(_))
        ));
    }

    #[test]
    fn submit_after_shutdown_fails() {
        let (engine, _seen) = probe_engine(AsyncEngineConfig::default().with_workers(1));
        engine.replica.close();
        assert_eq!(
            engine.submit(Tensor::zeros(&[1, 2, 5])).unwrap_err(),
            ServeError::ShuttingDown
        );
    }

    #[test]
    #[should_panic(expected = "workers must be >= 1")]
    fn zero_workers_rejected() {
        let _ = probe_engine(AsyncEngineConfig::default().with_workers(0));
    }

    /// A backend that panics on every batch.
    struct Exploding;

    impl GestureClassifier for Exploding {
        fn predict_batch(&self, _windows: &Tensor) -> Tensor {
            panic!("backend contract violation");
        }

        fn num_classes(&self) -> usize {
            4
        }

        fn name(&self) -> &str {
            "exploding"
        }
    }

    #[test]
    fn backend_panic_cancels_batch_but_worker_survives() {
        let engine = AsyncEngine::with_config(
            Box::new(Exploding),
            AsyncEngineConfig::default().with_workers(1),
        );
        // Two separate panicking batches: the worker must survive the
        // first to serve (and cancel) the second.
        for _ in 0..2 {
            let out = engine.classify(Tensor::zeros(&[1, 2, 5]));
            assert_eq!(out.unwrap_err(), ServeError::Cancelled);
        }
        assert_eq!(engine.replica.shared().consecutive_failures(), 2);
        assert_eq!(engine.replica.shared().alive_workers(), 1);
        let stats = engine.shutdown();
        assert_eq!(stats.failed, 2);
        assert_eq!(stats.requests, 0);
        assert_eq!(stats.batches, 0);
    }

    #[test]
    fn successful_batch_resets_consecutive_failures() {
        /// Panics only on the first call, then behaves.
        struct FlakyOnce {
            failed: Mutex<bool>,
        }
        impl GestureClassifier for FlakyOnce {
            fn predict_batch(&self, windows: &Tensor) -> Tensor {
                // The panic below poisons the mutex; recover on re-entry.
                let mut failed = self.failed.lock().unwrap_or_else(|e| e.into_inner());
                if !*failed {
                    *failed = true;
                    panic!("transient fault");
                }
                Tensor::zeros(&[windows.dims()[0], 4])
            }
            fn num_classes(&self) -> usize {
                4
            }
            fn name(&self) -> &str {
                "flaky-once"
            }
        }
        let engine = AsyncEngine::with_config(
            Box::new(FlakyOnce {
                failed: Mutex::new(false),
            }),
            AsyncEngineConfig::default().with_workers(1),
        );
        assert_eq!(
            engine.classify(Tensor::zeros(&[1, 2, 5])).unwrap_err(),
            ServeError::Cancelled
        );
        assert_eq!(engine.replica.shared().consecutive_failures(), 1);
        assert!(engine.classify(Tensor::zeros(&[1, 2, 5])).is_ok());
        // The response is delivered from inside the batch, before the
        // worker's post-batch accounting — wait for the reset to land.
        let t0 = Instant::now();
        while engine.replica.shared().consecutive_failures() != 0
            && t0.elapsed() < Duration::from_secs(2)
        {
            std::thread::yield_now();
        }
        assert_eq!(engine.replica.shared().consecutive_failures(), 0);
    }

    #[test]
    fn latency_window_stays_bounded_with_exact_totals() {
        let mut inner = WorkerInner::default();
        let samples: Vec<Duration> = (1..=10_000).map(Duration::from_micros).collect();
        inner.record_latencies(&samples);
        assert_eq!(inner.recent.len(), LATENCY_WINDOW);
        let stats = inner.latency_stats(10_000);
        assert_eq!(stats.micro_batches, 10_000);
        assert_eq!(stats.min, Duration::from_micros(1));
        assert_eq!(stats.max, Duration::from_micros(10_000));
        // total = Σ 1..=10000 µs
        assert_eq!(stats.total, Duration::from_micros(10_000 * 10_001 / 2));
        // p50 is estimated over the most recent window (samples 5905..=10000
        // after wrap-around), not over all history.
        assert!(stats.p50 >= Duration::from_micros(5905));
    }

    fn shared_with(batch_ns: u64, arrival_ns: u64) -> ReplicaShared {
        let shared = ReplicaShared::new(1);
        shared.ewma_batch_ns.store(batch_ns, Ordering::Relaxed);
        shared.ewma_arrival_ns.store(arrival_ns, Ordering::Relaxed);
        shared
    }

    #[test]
    fn adaptive_linger_flushes_immediately_under_sparse_traffic() {
        let cfg = AsyncEngineConfig::default()
            .with_micro_batch(16)
            .with_adaptive_linger(Duration::from_millis(5));
        // Arrivals (10 ms apart) slower than service (1 ms): lingering is a
        // pure tax, so flush immediately.
        let shared = shared_with(1_000_000, 10_000_000);
        assert_eq!(effective_linger(&cfg, &shared), Duration::ZERO);
    }

    #[test]
    fn adaptive_linger_waits_to_fill_under_bursty_traffic() {
        let cfg = AsyncEngineConfig::default()
            .with_micro_batch(16)
            .with_adaptive_linger(Duration::from_millis(5));
        // Arrivals every 10 µs, service 1 ms: wait ~16 × 10 µs to fill the
        // batch — well under both the service time and the cap.
        let shared = shared_with(1_000_000, 10_000);
        assert_eq!(effective_linger(&cfg, &shared), Duration::from_micros(160));
        // With a tighter cap, the cap wins.
        let capped = AsyncEngineConfig::default()
            .with_micro_batch(16)
            .with_adaptive_linger(Duration::from_micros(50));
        assert_eq!(
            effective_linger(&capped, &shared),
            Duration::from_micros(50)
        );
    }

    #[test]
    fn adaptive_linger_is_bounded_by_service_time() {
        let cfg = AsyncEngineConfig::default()
            .with_micro_batch(1024)
            .with_adaptive_linger(Duration::from_secs(1));
        // Filling 1024 slots at 100 µs apart would take 102 ms, but the
        // batch only takes 2 ms to serve — waiting longer than one service
        // time costs more than it amortises.
        let shared = shared_with(2_000_000, 100_000);
        assert_eq!(effective_linger(&cfg, &shared), Duration::from_millis(2));
    }

    #[test]
    fn adaptive_linger_bootstraps_from_fixed_value_without_data() {
        let cfg = AsyncEngineConfig::default()
            .with_linger(Duration::from_micros(300))
            .with_adaptive_linger(Duration::from_millis(5));
        let shared = ReplicaShared::new(1);
        assert_eq!(effective_linger(&cfg, &shared), Duration::from_micros(300));
    }

    #[test]
    fn arrivals_update_interarrival_ewma() {
        let shared = ReplicaShared::new(1);
        shared.note_arrival();
        assert_eq!(shared.ewma_arrival_ns.load(Ordering::Relaxed), 0);
        std::thread::sleep(Duration::from_millis(2));
        shared.note_arrival();
        let ewma = shared.ewma_arrival_ns.load(Ordering::Relaxed);
        assert!(ewma >= 1_000_000, "EWMA should see the ~2 ms gap: {ewma}");
    }

    /// Property tests over `run_batch`'s gather/scatter: for arbitrary
    /// mixes of request sizes (including n = 0) and micro-batch sizes, the
    /// logits every request receives must be row-aligned with a direct
    /// full-batch forward of the concatenated windows — for both the fp32
    /// and the integer-only int8 backend.
    mod gather_scatter {
        use super::*;
        use bioformer_core::{Bioformer, BioformerConfig};
        use bioformer_nn::serialize::state_dict;
        use bioformer_quant::QuantBioformer;
        use proptest::collection;
        use proptest::prelude::*;

        fn tiny_config(seed: u64) -> BioformerConfig {
            BioformerConfig {
                heads: 2,
                depth: 1,
                head_dim: 8,
                hidden: 32,
                filter: 30,
                dropout: 0.0,
                seed,
                ..BioformerConfig::bio1()
            }
        }

        /// Deterministic pseudo-random windows `[n, channels, samples]`.
        fn windows(n: usize, channels: usize, samples: usize, seed: u64) -> Tensor {
            let mut state = seed | 1;
            Tensor::from_fn(&[n, channels, samples], |_| {
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                ((state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 40) as f32 / (1u64 << 24) as f32)
                    - 0.5
            })
        }

        /// Splits `full` into per-size requests, runs them through
        /// `run_batch`, and checks each response bit-matches the
        /// corresponding rows of a direct full-batch forward.
        fn check_row_alignment(backend: &dyn GestureClassifier, sizes: &[usize], micro: usize) {
            let total: usize = sizes.iter().sum();
            let (channels, samples) = backend.input_shape().expect("backends declare shapes");
            let classes = backend.num_classes();
            let full = windows(total, channels, samples, 41);
            let direct = if total == 0 {
                Tensor::zeros(&[0, classes])
            } else {
                backend.predict_batch(&full)
            };

            let sample_len = channels * samples;
            let mut batch = Vec::new();
            let mut receivers = Vec::new();
            let mut row = 0usize;
            for &n in sizes {
                let (tx, rx) = PendingResponse::channel(n);
                batch.push(Request {
                    windows: Tensor::from_vec(
                        full.data()[row * sample_len..(row + n) * sample_len].to_vec(),
                        &[n, channels, samples],
                    ),
                    deadline: None,
                    enqueued: Instant::now(),
                    respond: tx,
                });
                receivers.push((rx, row, n));
                row += n;
            }

            let latencies = run_batch(
                backend,
                micro,
                &batch,
                total,
                Instant::now(),
                &mut TensorArena::new(),
            );
            assert_eq!(latencies.len(), total.div_ceil(micro));

            for (rx, row, n) in receivers {
                let out = rx.try_wait().expect("every request gets a response");
                let out = out.expect("request must be served");
                prop_assert_eq!(out.logits.dims(), &[n, classes]);
                prop_assert_eq!(out.predictions.len(), n);
                prop_assert_eq!(
                    out.logits.data(),
                    &direct.data()[row * classes..(row + n) * classes],
                    "request rows {}..{} differ from the direct forward",
                    row,
                    row + n
                );
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(4))]

            #[test]
            fn fp32_rows_align_with_direct_forward(
                sizes in collection::vec(0usize..4, 1..6),
                micro in prop::sample::select(vec![1usize, 2, 3, 16]),
            ) {
                let model = Bioformer::new(&tiny_config(31));
                check_row_alignment(&model, &sizes, micro);
            }

            #[test]
            fn int8_rows_align_with_direct_forward(
                sizes in collection::vec(0usize..4, 1..6),
                micro in prop::sample::select(vec![1usize, 2, 3, 16]),
            ) {
                let cfg = tiny_config(32);
                let mut model = Bioformer::new(&cfg);
                let calib = windows(4, cfg.channels, cfg.window, 5);
                let dict = state_dict(&mut model);
                let qmodel =
                    QuantBioformer::convert(&cfg, &dict, &calib).expect("int8 conversion");
                check_row_alignment(&qmodel, &sizes, micro);
            }
        }
    }
}
