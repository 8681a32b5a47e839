//! End-to-end tests of the sharded multi-replica serving engine: a
//! heterogeneous fp32+int8 pool under concurrent clients with per-replica
//! stats rolling up to pool totals, latency-aware routing steering traffic
//! away from a slow replica, fresh replicas probed first, quarantine of a
//! panicking replica with transparent re-routing and canary re-admission,
//! `try_submit` spill-over, and draining shutdown across the pool.

use bioformers::core::{Bioformer, BioformerConfig};
use bioformers::nn::serialize::state_dict;
use bioformers::quant::QuantBioformer;
use bioformers::semg::{CHANNELS, WINDOW};
use bioformers::serve::{
    AsyncEngineConfig, Engine, GestureClassifier, RoutingPolicy, ServeError, ShardedEngine,
};
use bioformers::tensor::Tensor;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

fn small_bioformer(seed: u64) -> Bioformer {
    Bioformer::new(&BioformerConfig {
        heads: 2,
        depth: 1,
        head_dim: 8,
        hidden: 32,
        filter: 30,
        dropout: 0.0,
        seed,
        ..BioformerConfig::bio1()
    })
}

fn one_window(seed: u64) -> Tensor {
    let mut state = seed | 1;
    Tensor::from_fn(&[1, CHANNELS, WINDOW], |_| {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        ((state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 40) as f32 / (1u64 << 24) as f32) - 0.5
    })
}

/// The heterogeneous deployment the paper's Pareto front describes: one
/// fp32 Bioformer replica plus the same network quantized to int8, behind
/// one sharded pool. Concurrent clients are all served, and every pool
/// total equals the sum of its per-replica counters.
#[test]
fn heterogeneous_fp32_int8_pool_serves_with_stats_summing_to_totals() {
    let mut model = small_bioformer(51);
    let calib = Tensor::from_fn(&[8, CHANNELS, WINDOW], |i| ((i % 17) as f32 - 8.0) / 8.0);
    let dict = state_dict(&mut model);
    let qmodel = QuantBioformer::convert(model.config(), &dict, &calib).expect("int8 conversion");

    let pool = Arc::new(
        ShardedEngine::builder()
            .add_replica(Box::new(model))
            .add_replica(Box::new(qmodel))
            .build(),
    );
    assert_eq!(
        pool.backends(),
        vec!["bioformer-fp32".to_string(), "bioformer-int8".to_string()]
    );
    assert_eq!(pool.num_classes(), 8);

    const CLIENTS: usize = 8;
    const PER_CLIENT: usize = 5;
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let pool = Arc::clone(&pool);
            scope.spawn(move || {
                for r in 0..PER_CLIENT {
                    let out = pool.classify(one_window((c * 31 + r) as u64)).unwrap();
                    assert_eq!(out.logits.dims(), &[1, 8]);
                    assert_eq!(out.predictions.len(), 1);
                }
            });
        }
    });

    let stats = Arc::into_inner(pool).unwrap().shutdown();
    assert_eq!(stats.requests, CLIENTS * PER_CLIENT);
    assert_eq!(stats.windows, CLIENTS * PER_CLIENT);
    assert_eq!(stats.expired, 0);
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.rejected, 0);
    assert_eq!(stats.replicas.len(), 2);

    // Replicas with no latency history are probed first, so both must have
    // taken traffic.
    for (backend, rs) in stats.backends.iter().zip(&stats.replicas) {
        assert!(rs.stats.requests > 0, "replica {backend} served nothing");
        assert_eq!(rs.stats.backends, vec![backend.clone()]);
        assert!(!rs.quarantined);
    }
    // Every pool total is the sum of its per-replica counters.
    assert!(stats.rollup_consistent(), "{stats:?}");
    assert_eq!(
        stats.latency.micro_batches,
        stats
            .replicas
            .iter()
            .map(|r| r.stats.latency.micro_batches)
            .sum::<usize>()
    );
}

/// A backend with a controllable per-batch delay, counting its calls.
struct Delayed {
    delay: Duration,
    calls: Arc<AtomicUsize>,
}

impl GestureClassifier for Delayed {
    fn predict_batch(&self, windows: &Tensor) -> Tensor {
        self.calls.fetch_add(1, Ordering::Relaxed);
        std::thread::sleep(self.delay);
        Tensor::from_fn(&[windows.dims()[0], 4], |i| (i % 4) as f32)
    }

    fn num_classes(&self) -> usize {
        4
    }

    fn name(&self) -> &str {
        "delayed"
    }
}

/// LatencyAware routing must shift traffic away from an artificially
/// slowed replica once it has observed both replicas' batch latencies.
#[test]
fn latency_aware_routing_shifts_traffic_off_the_slow_replica() {
    let slow_calls = Arc::new(AtomicUsize::new(0));
    let fast_calls = Arc::new(AtomicUsize::new(0));
    let pool = ShardedEngine::builder()
        .with_policy(RoutingPolicy::LatencyAware)
        .add_replica(Box::new(Delayed {
            delay: Duration::from_millis(25),
            calls: Arc::clone(&slow_calls),
        }))
        .add_replica(Box::new(Delayed {
            delay: Duration::from_micros(200),
            calls: Arc::clone(&fast_calls),
        }))
        .build();

    const REQUESTS: usize = 30;
    for r in 0..REQUESTS {
        let out = pool.classify(Tensor::zeros(&[1, 2, 5])).unwrap();
        assert_eq!(out.logits.dims(), &[1, 4]);
        let _ = r;
    }
    let stats = pool.shutdown();
    assert_eq!(stats.requests, REQUESTS);

    let slow = slow_calls.load(Ordering::Relaxed);
    let fast = fast_calls.load(Ordering::Relaxed);
    // Each replica is probed while it has no latency history (score 0);
    // after that, every closed-loop request must prefer the fast replica
    // (25 ms vs 0.2 ms EWMA, empty queues).
    assert!(
        slow <= 3,
        "slow replica kept receiving traffic: {slow} batches (fast {fast})"
    );
    assert!(
        fast >= REQUESTS - 3,
        "fast replica should absorb nearly all traffic: {fast} batches"
    );
}

/// `RoutingPolicy::LatencyAware` scores a replica with no latency history
/// at zero, so a fresh replica is tried before any replica with history:
/// three sequential requests on three fresh replicas land one on each.
#[test]
fn replicas_with_no_history_are_probed_first() {
    let mut builder = ShardedEngine::builder();
    for _ in 0..3 {
        builder = builder.add_replica(Box::new(Delayed {
            delay: Duration::from_millis(1),
            calls: Arc::default(),
        }));
    }
    let pool = builder.build();
    for _ in 0..3 {
        pool.classify(Tensor::zeros(&[1, 2, 5])).unwrap();
    }
    let stats = pool.shutdown();
    for (i, rs) in stats.replicas.iter().enumerate() {
        assert_eq!(
            rs.stats.requests, 1,
            "replica {i} served {} requests, expected exactly one probe",
            rs.stats.requests
        );
    }
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

/// A replica whose backend panics is quarantined after the configured
/// number of consecutive failures; its cancelled requests are re-routed by
/// `classify`, and the surviving replicas keep serving everything.
#[test]
fn panicking_replica_is_quarantined_and_traffic_rerouted() {
    let good_calls = Arc::new(AtomicUsize::new(0));
    let pool = ShardedEngine::builder()
        .with_quarantine_after(1)
        .add_replica(Box::new(Exploding))
        .add_replica(Box::new(Delayed {
            delay: Duration::ZERO,
            calls: Arc::clone(&good_calls),
        }))
        .build();

    const REQUESTS: usize = 10;
    for _ in 0..REQUESTS {
        // Every request must succeed: a Cancelled response from the
        // exploding replica is transparently re-routed to the healthy one.
        let out = pool.classify(Tensor::zeros(&[1, 2, 5])).unwrap();
        assert_eq!(out.logits.dims(), &[1, 4]);
    }

    let stats = pool.shutdown();
    assert_eq!(stats.requests, REQUESTS, "all requests served");
    assert!(
        stats.failed >= 1,
        "the exploding replica failed at least once"
    );
    assert!(
        stats.replicas[0].quarantined,
        "exploding replica quarantined"
    );
    assert!(!stats.replicas[1].quarantined);
    assert_eq!(stats.replicas[1].stats.requests, REQUESTS);
    assert_eq!(good_calls.load(Ordering::Relaxed), REQUESTS);
}

/// A backend that panics for its first `failures` batches, then serves.
struct FlakyThenHealthy {
    failures_left: AtomicUsize,
    served: Arc<AtomicUsize>,
}

impl GestureClassifier for FlakyThenHealthy {
    fn predict_batch(&self, windows: &Tensor) -> Tensor {
        if self
            .failures_left
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| v.checked_sub(1))
            .is_ok()
        {
            panic!("transient fault");
        }
        self.served.fetch_add(1, Ordering::Relaxed);
        Tensor::zeros(&[windows.dims()[0], 4])
    }

    fn num_classes(&self) -> usize {
        4
    }

    fn name(&self) -> &str {
        "flaky-then-healthy"
    }

    fn input_shape(&self) -> Option<(usize, usize)> {
        Some((2, 5))
    }
}

/// Regression for replica auto-recovery (ROADMAP): a transiently failing
/// replica is quarantined, gets probed with canary requests, answers one
/// successfully, and **rejoins the pool** — subsequently serving client
/// traffic again.
#[test]
fn transiently_failing_replica_rejoins_after_canary_probe() {
    let served = Arc::new(AtomicUsize::new(0));
    let good_calls = Arc::new(AtomicUsize::new(0));
    let pool = ShardedEngine::builder()
        .with_quarantine_after(1)
        .with_probe_interval(Duration::from_millis(2))
        .add_replica(Box::new(FlakyThenHealthy {
            failures_left: AtomicUsize::new(1),
            served: Arc::clone(&served),
        }))
        .add_replica(Box::new(Delayed {
            delay: Duration::ZERO,
            calls: Arc::clone(&good_calls),
        }))
        .build();

    // Drive traffic until the flaky replica has failed once (re-routed
    // transparently) and been quarantined.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while !pool.engine_stats().replicas[0].quarantined {
        assert!(
            std::time::Instant::now() < deadline,
            "flaky replica was never quarantined"
        );
        let out = pool.classify(Tensor::zeros(&[1, 2, 5])).unwrap();
        assert_eq!(out.logits.dims(), &[1, 4]);
    }

    // Keep traffic flowing: routing drives the canary cycle, the backend
    // is healthy now, so a canary succeeds and the replica is re-admitted.
    let mut rejoined = false;
    while std::time::Instant::now() < deadline {
        let _ = pool.classify(Tensor::zeros(&[1, 2, 5])).unwrap();
        let replica = &pool.engine_stats().replicas[0];
        // Rejoined = flag lifted AND the replica served something (the
        // canary at minimum; client traffic follows once its latency EWMA
        // competes with the healthy sibling's).
        if !replica.quarantined && replica.stats.requests > 0 {
            rejoined = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(rejoined, "quarantined replica never rejoined the pool");

    // After re-admission the replica takes real client traffic again.
    let before = served.load(Ordering::Relaxed);
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while served.load(Ordering::Relaxed) <= before {
        assert!(
            std::time::Instant::now() < deadline,
            "re-admitted replica got no client traffic"
        );
        let _ = pool.classify(Tensor::zeros(&[1, 2, 5])).unwrap();
    }

    let stats = pool.shutdown();
    assert!(!stats.replicas[0].quarantined, "rejoined for good");
    assert_eq!(stats.failed, 1, "exactly the one transient fault");
}

/// With every replica quarantined the pool reports `Unavailable` instead
/// of hanging or panicking.
#[test]
fn fully_quarantined_pool_reports_unavailable() {
    let pool = ShardedEngine::builder()
        .with_quarantine_after(1)
        .with_max_reroutes(2)
        .add_replica(Box::new(Exploding))
        .build();
    // First request: routed to the only replica, cancelled, re-route finds
    // no healthy replica left -> Unavailable.
    assert_eq!(
        pool.classify(Tensor::zeros(&[1, 2, 5])).unwrap_err(),
        ServeError::Unavailable
    );
    assert_eq!(
        pool.submit(Tensor::zeros(&[1, 2, 5])).unwrap_err(),
        ServeError::Unavailable
    );
    let stats = pool.shutdown();
    assert!(stats.replicas[0].quarantined);
}

/// A backend that reports each batch on `started`, then holds it until the
/// test sends a token on its `release` channel (or drops the sender), and
/// then sleeps `delay`.
struct Gated {
    delay: Duration,
    started: mpsc::Sender<()>,
    release: Mutex<mpsc::Receiver<()>>,
}

impl GestureClassifier for Gated {
    fn predict_batch(&self, windows: &Tensor) -> Tensor {
        let _ = self.started.send(());
        let _ = self.release.lock().unwrap().recv();
        std::thread::sleep(self.delay);
        Tensor::zeros(&[windows.dims()[0], 4])
    }

    fn num_classes(&self) -> usize {
        4
    }

    fn name(&self) -> &str {
        "gated"
    }
}

/// `try_submit` spills over: a request whose routed replica has a full
/// queue is accepted by another healthy replica with room, and only once
/// every queue is full does the pool push back with `QueueFull` — never
/// `Unavailable`, since every replica is healthy.
#[test]
fn try_submit_spills_over_until_every_queue_is_full() {
    let (started_tx, started) = mpsc::channel();
    let mut release = Vec::new();
    let mut builder = ShardedEngine::builder().with_replica_config(
        AsyncEngineConfig::default()
            .with_workers(1)
            .with_micro_batch(1)
            .with_linger(Duration::ZERO)
            .with_queue_capacity(1),
    );
    // Replica 0 is fast, replica 1 slow, so once both have latency history
    // the router prefers replica 0 and reaches replica 1 only by spilling.
    for delay in [Duration::ZERO, Duration::from_millis(50)] {
        let (tx, rx) = mpsc::channel();
        release.push(tx);
        builder = builder.add_replica(Box::new(Gated {
            delay,
            started: started_tx.clone(),
            release: Mutex::new(rx),
        }));
    }
    let pool = builder.build();
    let window = || Tensor::zeros(&[1, 2, 5]);
    let await_start = || {
        started
            .recv_timeout(Duration::from_secs(10))
            .expect("a worker picked up the request")
    };

    // Warm-up: one released request per replica (fresh replicas are probed
    // first), then wait until both latency EWMAs are visible.
    for tx in &release {
        tx.send(()).unwrap();
    }
    for _ in 0..2 {
        pool.classify(window()).unwrap();
        await_start();
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while !pool
        .engine_stats()
        .replicas
        .iter()
        .all(|r| r.ewma_window_latency.is_some())
    {
        assert!(std::time::Instant::now() < deadline, "no latency history");
        std::thread::sleep(Duration::from_millis(1));
    }

    // Each replica holds at most two requests: one blocked in its worker
    // and one in its capacity-1 queue.
    let mut pending = Vec::new();
    // Fills replica 0's worker, then its queue.
    pending.push(pool.try_submit(window()).expect("replica 0 idle"));
    await_start();
    pending.push(pool.try_submit(window()).expect("replica 0 queue free"));
    // Replica 0 is full: these spill to replica 1's worker, then its queue.
    pending.push(pool.try_submit(window()).expect("spills to replica 1"));
    await_start();
    pending.push(pool.try_submit(window()).expect("replica 1 queue free"));
    let stats = pool.engine_stats();
    for (i, rs) in stats.replicas.iter().enumerate() {
        assert_eq!(rs.queue_depth, 1, "replica {i} queue");
        assert_eq!(rs.stats.requests, 1, "replica {i} warm-up");
    }
    // Every queue is full: backpressure, not unavailability.
    for _ in 0..2 {
        assert_eq!(pool.try_submit(window()).err(), Some(ServeError::QueueFull));
    }

    drop(release);
    for p in pending {
        assert_eq!(p.wait().unwrap().logits.dims(), &[1, 4]);
    }
    let stats = pool.shutdown();
    assert_eq!(stats.requests, 6);
    assert_eq!(stats.replicas[0].stats.requests, 3);
    assert_eq!(stats.replicas[1].stats.requests, 3);
}

/// Shutdown closes every replica's queue up front and drains all accepted
/// requests across the pool.
#[test]
fn pool_shutdown_drains_all_replicas() {
    let model_a = small_bioformer(52);
    let model_b = small_bioformer(53);
    let pool = ShardedEngine::builder()
        .with_replica_config(
            AsyncEngineConfig::default()
                .with_workers(1)
                .with_micro_batch(4)
                .with_linger(Duration::ZERO),
        )
        .add_replica(Box::new(model_a))
        .add_replica(Box::new(model_b))
        .build();

    let pending: Vec<_> = (0..8)
        .map(|i| pool.submit(one_window(60 + i as u64)).unwrap())
        .collect();
    let stats = pool.shutdown();
    for p in pending {
        let out = p.wait().expect("drained request must be served");
        assert_eq!(out.logits.dims(), &[1, 8]);
    }
    assert_eq!(stats.requests, 8);
    assert_eq!(stats.expired, 0);
    assert_eq!(stats.failed, 0);
}

/// One shared model instance can back several replicas through the
/// `Arc<T>` backend impl — replicas add workers and queues, not weights.
#[test]
fn shared_model_backs_multiple_replicas_without_cloning() {
    let model = Arc::new(small_bioformer(54));
    let pool = ShardedEngine::builder()
        .add_replica(Box::new(Arc::clone(&model)))
        .add_replica(Box::new(Arc::clone(&model)))
        .build();
    let w = one_window(70);
    let direct = model.predict_batch(&w);
    let out = pool.classify(w).unwrap();
    assert_eq!(out.logits.data(), direct.data());
    let stats = pool.shutdown();
    assert_eq!(stats.requests, 1);
}
