//! The unified serving-engine contract: one trait over every topology.
//!
//! The three engines grew up with divergent entry points — the synchronous
//! [`InferenceEngine`] had a bespoke `serve` returning a `ServeOutcome`,
//! while [`AsyncEngine`] and [`ShardedEngine`] spoke
//! `submit`/`classify`. [`Engine`] unifies them: **submit / classify /
//! stats / shutdown with one [`ServeError`] surface**, so callers, tests
//! and higher layers (the streaming [`StreamSession`](super::StreamSession)
//! in particular) are generic over backend topology — swap a single-caller
//! inline engine for a sharded heterogeneous pool without touching client
//! code.
//!
//! ```
//! use bioformers::core::{Bioformer, BioformerConfig};
//! use bioformers::serve::{AsyncEngine, Engine, InferenceEngine, ShardedEngine};
//! use bioformers::tensor::Tensor;
//! use std::sync::Arc;
//!
//! let model = Arc::new(Bioformer::new(&BioformerConfig::bio1()));
//! let engines: Vec<Box<dyn Engine>> = vec![
//!     Box::new(InferenceEngine::new(Box::new(Arc::clone(&model)))),
//!     Box::new(AsyncEngine::new(Box::new(Arc::clone(&model)))),
//!     Box::new(ShardedEngine::builder()
//!         .add_replica(Box::new(Arc::clone(&model)))
//!         .build()),
//! ];
//! for engine in engines {
//!     let out = engine.classify(Tensor::zeros(&[2, 14, 300])).unwrap();
//!     assert_eq!(out.logits.dims(), &[2, 8]);
//!     assert_eq!(engine.shutdown().requests, 1);
//! }
//! ```

use super::queue::{PendingResponse, RequestOutput, ServeError};
use super::router::{PoolStats, ShardedEngine};
use super::worker::{AsyncEngine, AsyncStats};
use super::{InferenceEngine, LatencyStats};
use bioformer_tensor::Tensor;
use std::time::Duration;

/// One serving summary schema for every engine topology, so dashboards and
/// generic callers need a single type. Counter semantics match
/// [`AsyncStats`] (for the synchronous engine, each `serve`/`classify`
/// call is one request and one executed batch).
#[derive(Debug, Clone)]
pub struct EngineStats {
    /// The engine topology: `"inference"`, `"async"` or `"sharded"`.
    pub engine: &'static str,
    /// Backend name per replica (one entry for the single-backend engines).
    pub backends: Vec<String>,
    /// Requests served (responses delivered with logits).
    pub requests: usize,
    /// Requests expired for missing their deadline.
    pub expired: usize,
    /// Requests cancelled because a backend panicked mid-batch.
    pub failed: usize,
    /// Requests rejected by validation (bad rank or window shape).
    pub rejected: usize,
    /// Batches executed (the backend was actually invoked).
    pub batches: usize,
    /// Batches that coalesced more than one request.
    pub coalesced_batches: usize,
    /// Total windows served.
    pub windows: usize,
    /// Micro-batch latency summary across all workers/replicas.
    pub latency: LatencyStats,
}

impl EngineStats {
    /// Windows served per second of backend time (0.0 before any work).
    pub fn throughput(&self) -> f64 {
        self.latency.throughput()
    }

    /// Mean requests per executed batch (0.0 before any work).
    pub fn requests_per_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.requests as f64 / self.batches as f64
        }
    }
}

/// Flattens an [`AsyncStats`] into the unified schema.
pub(crate) fn stats_from_async(
    engine: &'static str,
    backends: Vec<String>,
    s: AsyncStats,
) -> EngineStats {
    EngineStats {
        engine,
        backends,
        requests: s.requests,
        expired: s.expired,
        failed: s.failed,
        rejected: s.rejected,
        batches: s.batches,
        coalesced_batches: s.coalesced_batches,
        windows: s.windows,
        latency: s.latency,
    }
}

/// Flattens a [`PoolStats`] into the unified schema.
fn stats_from_pool(backends: Vec<String>, s: PoolStats) -> EngineStats {
    EngineStats {
        engine: "sharded",
        backends,
        requests: s.requests,
        expired: s.expired,
        failed: s.failed,
        rejected: s.rejected,
        batches: s.batches,
        coalesced_batches: s.coalesced_batches,
        windows: s.windows,
        latency: s.latency,
    }
}

/// The unified serving contract implemented by all three engines
/// ([`InferenceEngine`], [`AsyncEngine`], [`ShardedEngine`]).
///
/// The trait is object-safe: `&dyn Engine` / `Box<dyn Engine>` let tests
/// and clients switch serving topology at runtime. Every method reports
/// failures through the one [`ServeError`] surface — no panicking entry
/// points, no engine-specific error enums.
///
/// Semantics worth knowing when writing engine-generic code:
///
/// * [`Engine::submit`] on the synchronous engine **serves inline** —
///   the returned [`PendingResponse`] is already resolved by the time you
///   get it, and `try_submit`/`submit_with_deadline` behave like `submit`
///   (there is no queue to be full and service starts immediately, so a
///   positive deadline cannot expire).
/// * The concurrent engines validate shapes at submission and may make a
///   caller of `submit` wait when the bounded queue is full; `try_submit`
///   fails fast with [`ServeError::QueueFull`] instead.
/// * [`Engine::shutdown`] always drains accepted work before returning
///   the final statistics.
pub trait Engine: Send + Sync {
    /// The engine topology: `"inference"`, `"async"` or `"sharded"`.
    fn kind(&self) -> &'static str;

    /// Backend name per replica (single-element for one-backend engines).
    fn backends(&self) -> Vec<String>;

    /// Number of output classes (the width of the logit rows).
    fn num_classes(&self) -> usize;

    /// The `[channels, samples]` window shape this engine serves, when
    /// known — declared by the backend(s) or pinned by traffic. `None`
    /// when unknown or (for a sharded pool) when replicas disagree.
    fn input_shape(&self) -> Option<(usize, usize)>;

    /// Submits a request batch `[n, channels, samples]`, blocking while a
    /// bounded queue is full (cooperative backpressure); returns a handle
    /// to redeem with [`PendingResponse::wait`].
    fn submit(&self, windows: Tensor) -> Result<PendingResponse, ServeError>;

    /// Submits without blocking: fails fast with [`ServeError::QueueFull`]
    /// when the engine cannot accept the request right now.
    fn try_submit(&self, windows: Tensor) -> Result<PendingResponse, ServeError>;

    /// Submits a request that must **start** being served within `ttl`.
    fn submit_with_deadline(
        &self,
        windows: Tensor,
        ttl: Duration,
    ) -> Result<PendingResponse, ServeError>;

    /// Submit-and-wait convenience; engines with retry logic (the sharded
    /// pool's re-routing) hook it here.
    fn classify(&self, windows: Tensor) -> Result<RequestOutput, ServeError> {
        self.submit(windows)?.wait()
    }

    /// A live snapshot of the engine's serving statistics in the unified
    /// [`EngineStats`] schema.
    fn engine_stats(&self) -> EngineStats;

    /// Graceful shutdown: stops accepting requests, drains and serves
    /// everything already accepted, and returns the final statistics.
    fn shutdown(self: Box<Self>) -> EngineStats;
}

impl Engine for InferenceEngine {
    fn kind(&self) -> &'static str {
        "inference"
    }

    fn backends(&self) -> Vec<String> {
        vec![self.backend_name().to_string()]
    }

    fn num_classes(&self) -> usize {
        InferenceEngine::num_classes(self)
    }

    fn input_shape(&self) -> Option<(usize, usize)> {
        InferenceEngine::input_shape(self)
    }

    /// Serves inline on the calling thread; the returned handle is already
    /// resolved.
    fn submit(&self, windows: Tensor) -> Result<PendingResponse, ServeError> {
        let outcome = self.serve_checked(&windows)?;
        let n = windows.dims()[0];
        Ok(PendingResponse::ready(
            n,
            Ok(RequestOutput {
                logits: outcome.logits,
                predictions: outcome.predictions,
                queue_wait: Duration::ZERO,
                batch_requests: 1,
                batch_windows: n,
                batch_latency: outcome.stats.total,
            }),
        ))
    }

    /// Identical to [`Engine::submit`]: the inline engine has no queue to
    /// be full.
    fn try_submit(&self, windows: Tensor) -> Result<PendingResponse, ServeError> {
        Engine::submit(self, windows)
    }

    /// Identical to [`Engine::submit`]: service starts immediately, so a
    /// deadline in the future cannot expire before service.
    fn submit_with_deadline(
        &self,
        windows: Tensor,
        _ttl: Duration,
    ) -> Result<PendingResponse, ServeError> {
        Engine::submit(self, windows)
    }

    fn engine_stats(&self) -> EngineStats {
        self.stats()
    }

    fn shutdown(self: Box<Self>) -> EngineStats {
        self.stats()
    }
}

impl Engine for AsyncEngine {
    fn kind(&self) -> &'static str {
        "async"
    }

    fn backends(&self) -> Vec<String> {
        vec![self.backend_name().to_string()]
    }

    fn num_classes(&self) -> usize {
        AsyncEngine::num_classes(self)
    }

    fn input_shape(&self) -> Option<(usize, usize)> {
        AsyncEngine::input_shape(self)
    }

    fn submit(&self, windows: Tensor) -> Result<PendingResponse, ServeError> {
        AsyncEngine::submit(self, windows)
    }

    fn try_submit(&self, windows: Tensor) -> Result<PendingResponse, ServeError> {
        AsyncEngine::try_submit(self, windows)
    }

    fn submit_with_deadline(
        &self,
        windows: Tensor,
        ttl: Duration,
    ) -> Result<PendingResponse, ServeError> {
        AsyncEngine::submit_with_deadline(self, windows, ttl)
    }

    fn engine_stats(&self) -> EngineStats {
        stats_from_async("async", Engine::backends(self), self.stats())
    }

    fn shutdown(self: Box<Self>) -> EngineStats {
        let backends = Engine::backends(self.as_ref());
        let this = *self;
        stats_from_async("async", backends, AsyncEngine::shutdown(this))
    }
}

impl Engine for ShardedEngine {
    fn kind(&self) -> &'static str {
        "sharded"
    }

    fn backends(&self) -> Vec<String> {
        self.backend_names()
    }

    fn num_classes(&self) -> usize {
        ShardedEngine::num_classes(self)
    }

    fn input_shape(&self) -> Option<(usize, usize)> {
        ShardedEngine::input_shape(self)
    }

    fn submit(&self, windows: Tensor) -> Result<PendingResponse, ServeError> {
        ShardedEngine::submit(self, windows)
    }

    fn try_submit(&self, windows: Tensor) -> Result<PendingResponse, ServeError> {
        ShardedEngine::try_submit(self, windows)
    }

    fn submit_with_deadline(
        &self,
        windows: Tensor,
        ttl: Duration,
    ) -> Result<PendingResponse, ServeError> {
        ShardedEngine::submit_with_deadline(self, windows, ttl)
    }

    /// Routes through the pool's re-routing `classify`, so a replica
    /// cancellation costs a retry on another healthy replica rather than
    /// surfacing to the generic caller.
    fn classify(&self, windows: Tensor) -> Result<RequestOutput, ServeError> {
        ShardedEngine::classify(self, windows)
    }

    fn engine_stats(&self) -> EngineStats {
        stats_from_pool(self.backend_names(), self.stats())
    }

    fn shutdown(self: Box<Self>) -> EngineStats {
        let backends = self.backend_names();
        let this = *self;
        stats_from_pool(backends, ShardedEngine::shutdown(this))
    }
}
