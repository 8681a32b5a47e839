//! The serving-engine contract: one trait over every topology and one
//! statistics schema for every engine.
//!
//! [`Engine`] is the only way to call an engine — **submit / classify /
//! stats / shutdown with one [`ServeError`] surface** — so callers, tests
//! and higher layers (the streaming [`StreamSession`](super::StreamSession)
//! in particular) are generic over backend topology: swap a single-caller
//! inline engine for a sharded heterogeneous pool without touching client
//! code. Every engine reports one [`EngineStats`].
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
use super::LatencyStats;
use bioformer_tensor::Tensor;
use std::time::Duration;

/// The one serving summary every engine topology returns, so dashboards
/// and generic callers need a single type. For the inline engine each
/// `submit`/`classify` call that reaches the backend is one request and
/// one executed batch.
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
    /// Requests rejected by validation: a bad rank or window shape at
    /// submission, or a shape that slipped past it into a forming batch.
    pub rejected: usize,
    /// Batches executed (the backend was actually invoked; batches of only
    /// zero-window requests don't count).
    pub batches: usize,
    /// Batches that coalesced more than one request.
    pub coalesced_batches: usize,
    /// Total windows served.
    pub windows: usize,
    /// Micro-batch latency summary across all workers and replicas (exact
    /// count/total/mean/min/max; p50/p95/p99 estimated over the most
    /// recent samples).
    pub latency: LatencyStats,
    /// The sharded engine's per-replica breakdown, parallel to `backends`;
    /// empty for the inline and async engines.
    pub replicas: Vec<ReplicaStats>,
}

/// One replica of a [`ShardedEngine`](super::ShardedEngine) inside its
/// [`EngineStats::replicas`]: what the router owns plus the replica's own
/// counters. The replica's index is its position, its backend the entry of
/// [`EngineStats::backends`] at that position.
#[derive(Debug, Clone)]
pub struct ReplicaStats {
    /// Whether the router has quarantined this replica.
    pub quarantined: bool,
    /// Requests waiting in this replica's queue at snapshot time.
    pub queue_depth: usize,
    /// EWMA of this replica's coalesced-batch backend latency. `None`
    /// before the first executed batch.
    pub ewma_batch_latency: Option<Duration>,
    /// EWMA of this replica's per-window backend latency — the signal
    /// [`RoutingPolicy::LatencyAware`](super::RoutingPolicy::LatencyAware)
    /// routes on. `None` before the first executed batch.
    pub ewma_window_latency: Option<Duration>,
    /// The replica's counters.
    pub stats: EngineStats,
}

impl EngineStats {
    /// Windows served per second of backend time (0.0 before any work).
    pub fn throughput(&self) -> f64 {
        self.latency.throughput()
    }

    /// Mean requests per executed batch (0.0 before any work) — the
    /// coalescing factor: > 1 means cross-request batching is happening.
    pub fn requests_per_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.requests as f64 / self.batches as f64
        }
    }

    /// Whether every total equals the sum of its per-replica counterparts —
    /// the rollup invariant the multi-tenant gateway's
    /// [`ServerStats`](super::ServerStats) per-tenant rollup mirrors one
    /// layer up. Trivially true without replicas.
    pub fn rollup_consistent(&self) -> bool {
        if self.replicas.is_empty() {
            return true;
        }
        let sum = |f: fn(&EngineStats) -> usize| -> usize {
            self.replicas.iter().map(|r| f(&r.stats)).sum()
        };
        self.requests == sum(|s| s.requests)
            && self.expired == sum(|s| s.expired)
            && self.failed == sum(|s| s.failed)
            && self.rejected == sum(|s| s.rejected)
            && self.batches == sum(|s| s.batches)
            && self.coalesced_batches == sum(|s| s.coalesced_batches)
            && self.windows == sum(|s| s.windows)
    }
}

/// The serving contract implemented by all three engines
/// ([`InferenceEngine`](super::InferenceEngine),
/// [`AsyncEngine`](super::AsyncEngine),
/// [`ShardedEngine`](super::ShardedEngine)), and the only way to call one.
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

    /// A live snapshot of the engine's serving statistics.
    fn engine_stats(&self) -> EngineStats;

    /// Graceful shutdown: stops accepting requests, drains and serves
    /// everything already accepted, and returns the final statistics.
    fn shutdown(self: Box<Self>) -> EngineStats;
}
