//! The serving layer: one inference API over every model precision.
//!
//! The paper's deployment story is that the *same* Bioformer runs as fp32
//! during training and as a fully-integer int8 pipeline on the MCU. This
//! module makes that a first-class property of the codebase:
//!
//! * [`GestureClassifier`] — the infer-only contract every backend
//!   implements: fp32 [`Bioformer`], fp32 [`TempoNet`] and integer-only
//!   [`QuantBioformer`]. All impls run through the shared-state
//!   [`bioformer_nn::InferForward`] path, so no backend clones model
//!   weights per request.
//! * [`InferenceEngine`] — the synchronous engine: owns a boxed backend,
//!   splits arbitrarily-sized request batches into model-sized
//!   micro-batches and reports per-batch latency statistics. One caller,
//!   one request at a time.
//! * [`AsyncEngine`] — the concurrent engine: a bounded MPSC request
//!   [`queue`] feeding a [`worker`] pool that **coalesces requests from
//!   many clients into shared micro-batches** (flush on batch-full or a
//!   configurable linger deadline), with per-request deadlines,
//!   backpressure and graceful shutdown.
//! * [`ShardedEngine`] — the multi-replica engine: one submission API
//!   fanning out over N backend replicas (each its own queue + worker
//!   pool, possibly different precisions), with latency-aware
//!   [`router`]-level routing ([`RoutingPolicy`]), quarantine of dead or
//!   failing replicas, adaptive per-replica linger, and pool-level
//!   statistics rollup.
//!
//! All three engines are called through the one [`Engine`] trait
//! (submit / classify / stats / shutdown over one [`ServeError`] surface)
//! and report one [`EngineStats`], so callers are generic over topology;
//! the [`StreamSession`] layer builds on that to turn a **raw sEMG sample
//! stream** into debounced [`GestureEvent`] decisions through any engine.
//! One level up, [`StreamServer`] multiplexes N concurrent sessions over one shared
//! engine — each session running on its caller's thread, its lookahead the
//! backpressure bound — with idle-timeout eviction and checkpointed
//! reconnects, and [`TcpGateway`]
//! serves it over TCP loopback with the hand-rolled length-prefixed
//! [`proto`] frame protocol ([`GatewayClient`] is the matching client
//! codec).
//!
//! `docs/serving.md` is the end-to-end architecture guide for this module.
//!
//! ```
//! use bioformers::core::{Bioformer, BioformerConfig};
//! use bioformers::serve::{Engine, InferenceEngine};
//! use bioformers::tensor::Tensor;
//!
//! let engine = InferenceEngine::new(Box::new(Bioformer::new(&BioformerConfig::bio1())))
//!     .with_micro_batch(8);
//! let out = engine.classify(Tensor::zeros(&[3, 14, 300])).unwrap();
//! assert_eq!(out.logits.dims(), &[3, 8]);
//! assert_eq!(out.predictions.len(), 3);
//! assert_eq!(engine.engine_stats().requests, 1);
//! ```

pub mod client;
pub mod engine;
pub mod proto;
pub mod queue;
pub mod router;
pub mod server;
pub mod stream;
pub mod trace;
pub mod worker;
pub mod zoo;

pub use client::{ClientSessionStats, ClientSummary, GatewayClient, GatewayError};
pub use engine::{Engine, EngineStats, ReplicaStats};
pub use proto::{ErrorCode, Frame, FrameDecoder, ProtoError};
pub use queue::{PendingResponse, ReadyHook, RequestOutput, ServeError};
pub use router::{RoutingPolicy, ShardedEngine, ShardedEngineBuilder};
pub use server::{
    FinishReport, ServeCounters, ServerStats, SessionHandle, SessionOptions, SessionStats,
    StreamServer, StreamServerConfig, TcpGateway, TenantStats,
};
pub use stream::{
    DecisionPolicy, DecisionSmoother, GestureEvent, SessionCheckpoint, StreamConfig, StreamSession,
    StreamSummary,
};
pub use trace::{
    BudgetReport, LatencyBudget, LatencyTrace, StageRecorder, StageStats, StageSummary,
};
pub use worker::{AsyncEngine, AsyncEngineConfig, LingerPolicy};
pub use zoo::{
    ExperimentStats, ModelStats, ModelZoo, PromotionDecision, PromotionPolicy, RouteMode,
    ShadowEngine, ZooStats,
};

/// The serving prelude: one `use` for engine-generic code.
///
/// ```
/// use bioformers::serve::prelude::*;
/// ```
pub mod prelude {
    pub use super::client::{ClientSummary, GatewayClient, GatewayError};
    pub use super::engine::{Engine, EngineStats};
    pub use super::queue::{PendingResponse, ReadyHook, RequestOutput, ServeError};
    pub use super::router::{RoutingPolicy, ShardedEngine};
    pub use super::server::{
        ServerStats, SessionHandle, SessionOptions, StreamServer, StreamServerConfig, TcpGateway,
    };
    pub use super::stream::{
        DecisionPolicy, DecisionSmoother, GestureEvent, SessionCheckpoint, StreamConfig,
        StreamSession, StreamSummary,
    };
    pub use super::trace::{LatencyBudget, LatencyTrace, StageStats, StageSummary};
    pub use super::worker::{AsyncEngine, AsyncEngineConfig, LingerPolicy};
    pub use super::zoo::{ModelZoo, PromotionDecision, PromotionPolicy, RouteMode, ZooStats};
    pub use super::{GestureClassifier, InferenceEngine, LatencyStats};
}

use bioformer_core::{Bioformer, TempoNet, WaveFormer};
use bioformer_nn::InferForward;
use bioformer_quant::QuantBioformer;
use bioformer_semg::GESTURE_CLASSES;
use bioformer_tensor::{Tensor, TensorArena};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// An inference-only gesture classifier: maps a batch of sEMG windows
/// `[n, channels, samples]` to logits `[n, classes]`.
///
/// Unlike [`bioformer_nn::Model`] this trait is object-safe and takes
/// `&self`, so heterogeneous trained backends (fp32, int8, …) can sit
/// behind one `Box<dyn GestureClassifier>` in a serving engine and be
/// shared across threads.
pub trait GestureClassifier: Send + Sync {
    /// Runs inference on `windows` (`[n, channels, samples]`, `n` may be 0)
    /// and returns logits `[n, classes]`.
    fn predict_batch(&self, windows: &Tensor) -> Tensor;

    /// Arena variant of [`GestureClassifier::predict_batch`]: scratch
    /// tensors come from `arena` so a worker that reuses one arena across
    /// batches performs no steady-state heap allocations inside the model
    /// forward. The returned logits may be arena-owned — callers that keep
    /// them past the next call must copy them out (engines recycle them
    /// after scattering per-request responses).
    ///
    /// The default ignores the arena and delegates, so backends without an
    /// arena-threaded forward (e.g. TEMPONet) stay correct.
    fn predict_batch_in(&self, windows: &Tensor, arena: &mut TensorArena) -> Tensor {
        let _ = arena;
        self.predict_batch(windows)
    }

    /// Number of output classes (the width of the logit rows).
    fn num_classes(&self) -> usize;

    /// Human-readable backend name, e.g. `"bioformer-fp32"`.
    fn name(&self) -> &str;

    /// The `[channels, samples]` window shape this backend serves, when
    /// fixed and known. Engines use it to reject malformed requests at
    /// submission time; `None` (the default) makes the async engine fall
    /// back to pinning the shape of the first successfully queued request.
    fn input_shape(&self) -> Option<(usize, usize)> {
        None
    }

    /// One-line description of what the model dispatches — the compute
    /// backend of an fp32 model, the plan and SIMD tier of the int8 one —
    /// queried per replica through [`ShardedEngine::compute_reports`].
    /// Backends without a compute seam report `"default"`.
    fn compute_report(&self) -> String {
        "default".to_string()
    }
}

/// Delegation through `Arc`, so one shared model instance can back any
/// number of engines (or replicas of a sharded pool) without cloning
/// weights: `Box::new(Arc::clone(&model))` is a valid backend.
impl<T: GestureClassifier + ?Sized> GestureClassifier for Arc<T> {
    fn predict_batch(&self, windows: &Tensor) -> Tensor {
        (**self).predict_batch(windows)
    }

    fn predict_batch_in(&self, windows: &Tensor, arena: &mut TensorArena) -> Tensor {
        (**self).predict_batch_in(windows, arena)
    }

    fn num_classes(&self) -> usize {
        (**self).num_classes()
    }

    fn name(&self) -> &str {
        (**self).name()
    }

    fn input_shape(&self) -> Option<(usize, usize)> {
        (**self).input_shape()
    }

    fn compute_report(&self) -> String {
        (**self).compute_report()
    }
}

impl GestureClassifier for Bioformer {
    /// Eval-mode forward through the zero-clone [`InferForward`] path: one
    /// model instance serves arbitrarily many concurrent callers without
    /// copying weights.
    fn predict_batch(&self, windows: &Tensor) -> Tensor {
        self.forward_infer(windows)
    }

    /// Arena-threaded forward: packed weights plus recycled scratch make
    /// steady-state forwards allocation-free.
    fn predict_batch_in(&self, windows: &Tensor, arena: &mut TensorArena) -> Tensor {
        self.forward_infer_in(windows, arena)
    }

    fn num_classes(&self) -> usize {
        self.config().classes
    }

    fn name(&self) -> &str {
        "bioformer-fp32"
    }

    fn input_shape(&self) -> Option<(usize, usize)> {
        Some((self.config().channels, self.config().window))
    }

    fn compute_report(&self) -> String {
        Bioformer::compute_report(self)
    }
}

impl GestureClassifier for TempoNet {
    /// Eval-mode forward through the zero-clone [`InferForward`] path.
    fn predict_batch(&self, windows: &Tensor) -> Tensor {
        self.forward_infer(windows)
    }

    fn num_classes(&self) -> usize {
        GESTURE_CLASSES
    }

    fn name(&self) -> &str {
        "temponet-fp32"
    }

    fn input_shape(&self) -> Option<(usize, usize)> {
        Some((bioformer_semg::CHANNELS, bioformer_semg::WINDOW))
    }

    fn compute_report(&self) -> String {
        TempoNet::compute_report(self)
    }
}

impl GestureClassifier for WaveFormer {
    /// Eval-mode forward through the zero-clone [`InferForward`] path; the
    /// fixed Haar front-end has no weights to share, so the model-zoo
    /// variant serves through the same seam as the paper's models.
    fn predict_batch(&self, windows: &Tensor) -> Tensor {
        self.forward_infer(windows)
    }

    fn num_classes(&self) -> usize {
        GESTURE_CLASSES
    }

    fn name(&self) -> &str {
        "waveformer-fp32"
    }

    fn input_shape(&self) -> Option<(usize, usize)> {
        Some((bioformer_semg::CHANNELS, bioformer_semg::WINDOW))
    }

    fn compute_report(&self) -> String {
        WaveFormer::compute_report(self)
    }
}

impl GestureClassifier for QuantBioformer {
    /// Integer-only inference through the model's one batch body: batches
    /// of a live stream's size run on the caller's thread, large ones fan
    /// out by the shared rule of [`bioformer_tensor::parallel`].
    fn predict_batch(&self, windows: &Tensor) -> Tensor {
        self.forward_batch(windows)
    }

    /// The same body with the logits drawn from the engine's `arena`: a
    /// warmed call that stays on the caller's thread is allocation-free.
    fn predict_batch_in(&self, windows: &Tensor, arena: &mut TensorArena) -> Tensor {
        self.forward_infer_in(windows, arena)
    }

    fn num_classes(&self) -> usize {
        self.config().classes
    }

    fn name(&self) -> &str {
        "bioformer-int8"
    }

    fn input_shape(&self) -> Option<(usize, usize)> {
        Some((self.config().channels, self.config().window))
    }

    fn compute_report(&self) -> String {
        QuantBioformer::compute_report(self)
    }
}

/// Default micro-batch size: large enough to amortise per-call overhead,
/// small enough to bound per-request latency.
pub const DEFAULT_MICRO_BATCH: usize = 32;

/// Latency statistics over a set of micro-batches. Durations cover the
/// backend's `predict_batch` only (splitting and reassembly are excluded).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyStats {
    /// Number of micro-batches executed (0 for an empty request).
    pub micro_batches: usize,
    /// Total windows served.
    pub windows: usize,
    /// Sum of micro-batch latencies.
    pub total: Duration,
    /// Mean micro-batch latency (zero for an empty request).
    pub mean: Duration,
    /// Fastest micro-batch.
    pub min: Duration,
    /// Slowest micro-batch.
    pub max: Duration,
    /// Median micro-batch latency.
    pub p50: Duration,
    /// 95th-percentile micro-batch latency.
    pub p95: Duration,
    /// 99th-percentile micro-batch latency (nearest rank, like p50/p95).
    pub p99: Duration,
}

impl LatencyStats {
    /// Builds the summary from raw per-micro-batch latency samples (sorts
    /// `samples` in place) over `windows` total served windows.
    ///
    /// ```
    /// use bioformers::serve::LatencyStats;
    /// use std::time::Duration;
    ///
    /// let mut samples = vec![Duration::from_micros(20), Duration::from_micros(10)];
    /// let stats = LatencyStats::from_samples(&mut samples, 8);
    /// assert_eq!(stats.micro_batches, 2);
    /// assert_eq!(stats.min, Duration::from_micros(10));
    /// ```
    pub fn from_samples(samples: &mut [Duration], windows: usize) -> Self {
        if samples.is_empty() {
            return LatencyStats {
                micro_batches: 0,
                windows,
                total: Duration::ZERO,
                mean: Duration::ZERO,
                min: Duration::ZERO,
                max: Duration::ZERO,
                p50: Duration::ZERO,
                p95: Duration::ZERO,
                p99: Duration::ZERO,
            };
        }
        samples.sort_unstable();
        let total: Duration = samples.iter().sum();
        let n = samples.len();
        // Nearest-rank percentile: the q-quantile of n sorted samples is
        // the ⌈n·q⌉-th smallest (1-based), i.e. index ⌈n·q⌉ − 1. The naive
        // `(n·q) as usize` reads one sample too high whenever n·q is an
        // integer (p95 of 100 samples read the 96th) and relied on a clamp
        // to avoid indexing past the end at q → 1.0.
        let pct = |q: f64| {
            let rank = ((n as f64) * q).ceil() as usize;
            samples[rank.saturating_sub(1).min(n - 1)]
        };
        LatencyStats {
            micro_batches: n,
            windows,
            total,
            mean: total / n as u32,
            min: samples[0],
            max: samples[n - 1],
            p50: pct(0.50),
            p95: pct(0.95),
            p99: pct(0.99),
        }
    }

    /// Windows served per second of backend time (0.0 before any work).
    pub fn throughput(&self) -> f64 {
        if self.total.is_zero() {
            0.0
        } else {
            self.windows as f64 / self.total.as_secs_f64()
        }
    }
}

/// A micro-batching inference engine over one [`GestureClassifier`] backend.
///
/// Requests of any size are split into micro-batches of at most
/// [`InferenceEngine::micro_batch`] windows; results are reassembled in
/// request order, so serving is batch-size invariant: the logits equal a
/// single full-batch `predict_batch` call bar float associativity.
///
/// This is the synchronous member of the [`Engine`] family: requests are
/// served **inline on the calling thread** ([`Engine::submit`] returns an
/// already-resolved handle), which makes it the right engine for offline
/// evaluation, batch jobs, and single-caller streaming.
pub struct InferenceEngine {
    backend: Box<dyn GestureClassifier>,
    micro_batch: usize,
    /// Scratch arena reused across calls (one caller at a time, so a
    /// mutex — workers in the async engines own per-thread arenas
    /// instead).
    arena: Mutex<TensorArena>,
    /// Lifetime counters behind [`Engine::engine_stats`].
    totals: Mutex<worker::WorkerInner>,
}

impl InferenceEngine {
    /// Wraps `backend` with the [`DEFAULT_MICRO_BATCH`] size.
    pub fn new(backend: Box<dyn GestureClassifier>) -> Self {
        InferenceEngine {
            backend,
            micro_batch: DEFAULT_MICRO_BATCH,
            arena: Mutex::new(TensorArena::new()),
            totals: Mutex::new(worker::WorkerInner::default()),
        }
    }

    /// Sets the micro-batch size.
    ///
    /// # Panics
    ///
    /// Panics if `micro_batch` is 0.
    pub fn with_micro_batch(mut self, micro_batch: usize) -> Self {
        assert!(micro_batch > 0, "InferenceEngine: micro_batch must be >= 1");
        self.micro_batch = micro_batch;
        self
    }

    /// The configured micro-batch size.
    pub fn micro_batch(&self) -> usize {
        self.micro_batch
    }

    /// The backend model's compute report (backend and dispatched plan).
    pub fn compute_report(&self) -> String {
        self.backend.compute_report()
    }

    fn totals(&self) -> std::sync::MutexGuard<'_, worker::WorkerInner> {
        self.totals.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl Engine for InferenceEngine {
    fn kind(&self) -> &'static str {
        "inference"
    }

    fn backends(&self) -> Vec<String> {
        vec![self.backend.name().to_string()]
    }

    fn num_classes(&self) -> usize {
        self.backend.num_classes()
    }

    /// The backend's declared window shape, if any.
    fn input_shape(&self) -> Option<(usize, usize)> {
        self.backend.input_shape()
    }

    /// Serves `windows` (`n` may be 0, and need not divide the micro-batch
    /// size) inline on the calling thread; the returned handle is already
    /// resolved, its `batch_latency` the sum of the micro-batch latencies.
    ///
    /// Concurrent callers run their backend forwards in parallel: the
    /// engine's shared scratch arena is taken with `try_lock`, and a
    /// contending caller falls back to a throwaway arena (paying that
    /// call's allocations) rather than serialising on the lock.
    ///
    /// # Panics
    ///
    /// Panics if the backend returns logits of the wrong shape (backend
    /// contract violation).
    fn submit(&self, windows: Tensor) -> Result<PendingResponse, ServeError> {
        let reject = |msg: String| {
            self.totals().note_rejected();
            Err(ServeError::BadRequest(msg))
        };
        if windows.dims().len() != 3 {
            return reject(format!(
                "windows must be [n, channels, samples], got {:?}",
                windows.dims()
            ));
        }
        let (n, c, s) = (windows.dims()[0], windows.dims()[1], windows.dims()[2]);
        if let Some((ec, es)) = self.backend.input_shape() {
            if (c, s) != (ec, es) {
                return reject(format!(
                    "window shape [{c}, {s}] does not match engine shape [{ec}, {es}]"
                ));
            }
        }
        // Reuse the engine arena when free; never block a concurrent
        // caller on it — scratch reuse is an optimisation, not a
        // serialisation point.
        let mut guard = match self.arena.try_lock() {
            Ok(guard) => Some(guard),
            Err(std::sync::TryLockError::Poisoned(p)) => Some(p.into_inner()),
            Err(std::sync::TryLockError::WouldBlock) => None,
        };
        let mut local = TensorArena::new();
        let arena = guard.as_deref_mut().unwrap_or(&mut local);
        let (logits, latencies) =
            predict_chunked(self.backend.as_ref(), &windows, self.micro_batch, arena);
        drop(guard);
        let predictions = if n == 0 {
            Vec::new()
        } else {
            logits.argmax_rows()
        };
        self.totals().note_served(n, &latencies);
        Ok(PendingResponse::ready(
            n,
            Ok(RequestOutput {
                logits,
                predictions,
                queue_wait: Duration::ZERO,
                batch_requests: 1,
                batch_windows: n,
                batch_latency: latencies.iter().sum(),
            }),
        ))
    }

    /// Identical to [`Engine::submit`]: the inline engine has no queue to
    /// be full.
    fn try_submit(&self, windows: Tensor) -> Result<PendingResponse, ServeError> {
        self.submit(windows)
    }

    /// Identical to [`Engine::submit`]: service starts immediately, so a
    /// deadline in the future cannot expire before service.
    fn submit_with_deadline(
        &self,
        windows: Tensor,
        _ttl: Duration,
    ) -> Result<PendingResponse, ServeError> {
        self.submit(windows)
    }

    fn engine_stats(&self) -> EngineStats {
        let totals = self.totals().clone();
        totals.into_stats("inference", self.backends())
    }

    fn shutdown(self: Box<Self>) -> EngineStats {
        self.engine_stats()
    }
}

/// Runs `windows` (`[n, channels, samples]`) through `backend` in chunks of
/// at most `micro` rows, reassembling logits in request order and recording
/// one backend latency sample per chunk. Shared by the sync engine and the
/// async worker pool so both have identical micro-batch semantics.
///
/// Scratch (chunk copies, per-chunk logits, and the backend's internal
/// intermediates) comes from `arena`; the returned logits tensor may be
/// arena-owned, so callers that hold it past their next arena use should
/// copy it out and [`TensorArena::recycle`] it.
///
/// # Panics
///
/// Panics if the backend returns logits of the wrong shape.
pub(crate) fn predict_chunked(
    backend: &dyn GestureClassifier,
    windows: &Tensor,
    micro: usize,
    arena: &mut TensorArena,
) -> (Tensor, Vec<Duration>) {
    let n = windows.dims()[0];
    let (channels, samples) = (windows.dims()[1], windows.dims()[2]);
    let classes = backend.num_classes();
    let sample_len = channels * samples;

    // Single-chunk fast path: the whole request fits one micro-batch, so
    // serve it from the caller's tensor without the chunk copy.
    if n > 0 && n <= micro {
        let t0 = Instant::now();
        let out = backend.predict_batch_in(windows, arena);
        let latencies = vec![t0.elapsed()];
        assert_eq!(
            out.dims(),
            &[n, classes],
            "backend {} returned bad logits shape",
            backend.name()
        );
        return (out, latencies);
    }

    let mut logits = arena.tensor(&[n, classes]);
    let mut latencies = Vec::with_capacity(n.div_ceil(micro.max(1)));
    let mut chunk_buf = arena.alloc(micro.min(n) * sample_len);
    let mut start = 0usize;
    while start < n {
        let end = (start + micro).min(n);
        let rows = end - start;
        chunk_buf.truncate(rows * sample_len);
        chunk_buf.copy_from_slice(&windows.data()[start * sample_len..end * sample_len]);
        let chunk = Tensor::from_vec(std::mem::take(&mut chunk_buf), &[rows, channels, samples]);
        let t0 = Instant::now();
        let out = backend.predict_batch_in(&chunk, arena);
        latencies.push(t0.elapsed());
        chunk_buf = chunk.into_vec();
        assert_eq!(
            out.dims(),
            &[rows, classes],
            "backend {} returned bad logits shape",
            backend.name()
        );
        logits.data_mut()[start * classes..end * classes].copy_from_slice(out.data());
        arena.recycle(out);
        start = end;
    }
    arena.recycle_vec(chunk_buf);
    (logits, latencies)
}

impl std::fmt::Debug for InferenceEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InferenceEngine")
            .field("backend", &self.backend.name())
            .field("micro_batch", &self.micro_batch)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::sync::{Arc, Mutex};

    /// A backend that records the micro-batch sizes it was asked for.
    struct Probe {
        classes: usize,
        seen: Arc<Mutex<Vec<usize>>>,
    }

    impl GestureClassifier for Probe {
        fn predict_batch(&self, windows: &Tensor) -> Tensor {
            let n = windows.dims()[0];
            self.seen.lock().unwrap().push(n);
            // Logit = window index within the micro-batch, so reassembly
            // errors are visible in the output.
            Tensor::from_fn(&[n, self.classes], |i| (i / self.classes) as f32)
        }

        fn num_classes(&self) -> usize {
            self.classes
        }

        fn name(&self) -> &str {
            "probe"
        }
    }

    fn probe_engine(micro: usize) -> (InferenceEngine, Arc<Mutex<Vec<usize>>>) {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let engine = InferenceEngine::new(Box::new(Probe {
            classes: 4,
            seen: Arc::clone(&seen),
        }))
        .with_micro_batch(micro);
        (engine, seen)
    }

    #[test]
    fn splits_non_divisible_batches() {
        let (engine, seen) = probe_engine(3);
        let out = engine.classify(Tensor::zeros(&[7, 2, 5])).unwrap();
        assert_eq!(*seen.lock().unwrap(), vec![3, 3, 1]);
        let stats = engine.engine_stats();
        assert_eq!(stats.latency.micro_batches, 3);
        assert_eq!(stats.latency.windows, 7);
        assert_eq!(out.logits.dims(), &[7, 4]);
        // Last micro-batch has 1 window; its logit row must be 0.
        assert_eq!(out.logits.row(6), &[0.0; 4]);
    }

    #[test]
    fn empty_batch_is_served_without_backend_calls() {
        let (engine, seen) = probe_engine(4);
        let out = engine.classify(Tensor::zeros(&[0, 2, 5])).unwrap();
        assert!(seen.lock().unwrap().is_empty());
        assert_eq!(out.logits.dims(), &[0, 4]);
        assert!(out.predictions.is_empty());
        let stats = engine.engine_stats();
        assert_eq!(stats.latency.micro_batches, 0);
        assert_eq!(stats.throughput(), 0.0);
    }

    #[test]
    fn batch_smaller_than_micro_batch_is_one_call() {
        let (engine, seen) = probe_engine(100);
        let out = engine.classify(Tensor::zeros(&[5, 2, 5])).unwrap();
        assert_eq!(*seen.lock().unwrap(), vec![5]);
        assert_eq!(engine.engine_stats().latency.micro_batches, 1);
        assert_eq!(out.predictions.len(), 5);
    }

    #[test]
    #[should_panic(expected = "micro_batch must be >= 1")]
    fn zero_micro_batch_is_rejected() {
        let _ = probe_engine(0).0;
    }

    #[test]
    fn non_rank3_requests_are_rejected() {
        let (engine, _seen) = probe_engine(4);
        let err = engine.classify(Tensor::zeros(&[4, 10])).unwrap_err();
        assert!(matches!(err, ServeError::BadRequest(_)), "got {err:?}");
        assert_eq!(engine.engine_stats().rejected, 1);
    }

    /// A classify call counts one request and its windows.
    #[test]
    fn classify_counts_requests_and_windows() {
        let (engine, _seen) = probe_engine(4);
        let out = engine.classify(Tensor::zeros(&[3, 2, 5])).unwrap();
        assert_eq!(out.logits.dims(), &[3, 4]);
        assert_eq!(engine.engine_stats().requests, 1);
        assert_eq!(engine.engine_stats().windows, 3);
    }

    /// Backends without a compute seam report the default compute state.
    #[test]
    fn probe_backend_reports_default_compute() {
        let (engine, _seen) = probe_engine(4);
        assert_eq!(engine.compute_report(), "default");
    }

    /// Lifetime stats accumulate across calls.
    #[test]
    fn inference_engine_stats_accumulate() {
        let (engine, _seen) = probe_engine(2);
        for n in [3usize, 0, 5] {
            let _ = engine.classify(Tensor::zeros(&[n, 2, 5])).unwrap();
        }
        let stats = engine.engine_stats();
        assert_eq!(stats.engine, "inference");
        assert_eq!(stats.backends, vec!["probe".to_string()]);
        assert!(stats.replicas.is_empty());
        assert_eq!(stats.requests, 3);
        assert_eq!(stats.windows, 8);
        // The n=0 request never invoked the backend: 2 executed batches.
        assert_eq!(stats.batches, 2);
        // ceil(3/2) + ceil(5/2) micro-batches.
        assert_eq!(stats.latency.micro_batches, 5);
    }

    /// Regression (percentile off-by-one): the old `(n·q) as usize` index
    /// read one sample too high whenever n·q landed on an integer — p95 of
    /// exactly 100 samples reported the 96th-smallest — and only the
    /// `.min(n-1)` clamp hid the out-of-bounds read at q → 1.0. Nearest
    /// rank (⌈n·q⌉ − 1) pins every boundary case.
    #[test]
    fn percentiles_use_nearest_rank() {
        let micros = |k: u64| Duration::from_micros(k);
        // n = 1: every percentile is the single sample.
        let mut one = vec![micros(7)];
        let s = LatencyStats::from_samples(&mut one, 1);
        assert_eq!((s.p50, s.p95, s.p99), (micros(7), micros(7), micros(7)));

        // n = 2: p50 is the 1st sample (⌈1.0⌉−1 = 0), not the 2nd; p95 and
        // p99 are the 2nd (⌈1.9⌉−1 = ⌈1.98⌉−1 = 1).
        let mut two = vec![micros(10), micros(20)];
        let s = LatencyStats::from_samples(&mut two, 2);
        assert_eq!((s.p50, s.p95, s.p99), (micros(10), micros(20), micros(20)));

        // n = 20 over 1..=20 µs: p50 = 10th sample, p95 = 19th sample,
        // p99 = 20th (⌈19.8⌉−1 = 19).
        let mut twenty: Vec<Duration> = (1..=20).map(micros).collect();
        let s = LatencyStats::from_samples(&mut twenty, 20);
        assert_eq!((s.p50, s.p95, s.p99), (micros(10), micros(19), micros(20)));

        // n = 100 over 1..=100 µs: p50 = 50th, p95 = 95th, p99 = 99th —
        // the old index read the 51st and 96th here, and would read the
        // 100th for p99.
        let mut hundred: Vec<Duration> = (1..=100).map(micros).collect();
        let s = LatencyStats::from_samples(&mut hundred, 100);
        assert_eq!((s.p50, s.p95, s.p99), (micros(50), micros(95), micros(99)));
    }

    #[test]
    fn latency_stats_are_consistent() {
        let mut samples = vec![
            Duration::from_micros(50),
            Duration::from_micros(10),
            Duration::from_micros(30),
        ];
        let stats = LatencyStats::from_samples(&mut samples, 9);
        assert_eq!(stats.micro_batches, 3);
        assert_eq!(stats.min, Duration::from_micros(10));
        assert_eq!(stats.max, Duration::from_micros(50));
        assert_eq!(stats.p50, Duration::from_micros(30));
        assert_eq!(stats.p95, Duration::from_micros(50));
        assert_eq!(stats.p99, Duration::from_micros(50));
        assert_eq!(stats.total, Duration::from_micros(90));
        assert_eq!(stats.mean, Duration::from_micros(30));
        assert!((stats.throughput() - 100_000.0).abs() < 1.0);
    }
}
