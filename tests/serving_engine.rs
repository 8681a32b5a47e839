//! The unified `Engine` trait: all three serving engines —
//! `InferenceEngine`, `AsyncEngine`, `ShardedEngine` — driven through
//! `&dyn Engine` by one shared test body, with bit-identical logits, one
//! shared error surface, unified stats and draining shutdown.

use bioformers::core::{Bioformer, BioformerConfig};
use bioformers::semg::{CHANNELS, WINDOW};
use bioformers::serve::prelude::*;
use bioformers::tensor::Tensor;
use std::sync::Arc;
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

/// Deterministic pseudo-random windows `[n, CHANNELS, WINDOW]`.
fn windows(n: usize, seed: u64) -> Tensor {
    let mut state = seed | 1;
    Tensor::from_fn(&[n, CHANNELS, WINDOW], |_| {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        ((state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 40) as f32 / (1u64 << 24) as f32) - 0.5
    })
}

/// One shared model instance behind all three engine topologies.
fn engines(model: &Arc<Bioformer>) -> Vec<Box<dyn Engine>> {
    vec![
        Box::new(InferenceEngine::new(Box::new(Arc::clone(model))).with_micro_batch(4)),
        Box::new(AsyncEngine::with_config(
            Box::new(Arc::clone(model)),
            AsyncEngineConfig::default()
                .with_workers(1)
                .with_micro_batch(4)
                .with_linger(Duration::ZERO),
        )),
        Box::new(
            ShardedEngine::builder()
                .add_replica(Box::new(Arc::clone(model)))
                .build(),
        ),
    ]
}

/// The acceptance-criterion test: one generic body exercises every engine
/// through `&dyn Engine` — same submissions, same expectations, logits
/// bit-matching the direct forward.
#[test]
fn all_three_engines_serve_identically_through_dyn_engine() {
    let model = Arc::new(small_bioformer(81));
    let w = windows(5, 7);
    let direct = model.predict_batch(&w);
    let engine_list = engines(&model);
    assert_eq!(
        engine_list.iter().map(|e| e.kind()).collect::<Vec<_>>(),
        vec!["inference", "async", "sharded"]
    );

    for engine in &engine_list {
        let engine: &dyn Engine = engine.as_ref();
        assert_eq!(engine.num_classes(), 8, "{}", engine.kind());
        assert_eq!(
            engine.input_shape(),
            Some((CHANNELS, WINDOW)),
            "{}",
            engine.kind()
        );
        assert_eq!(engine.backends(), vec!["bioformer-fp32".to_string()]);

        // classify: logits bit-match the direct forward.
        let out = engine.classify(w.clone()).unwrap();
        assert_eq!(out.logits.data(), direct.data(), "{}", engine.kind());
        assert_eq!(out.predictions, direct.argmax_rows());

        // submit → wait.
        let out = engine.submit(w.clone()).unwrap().wait().unwrap();
        assert_eq!(out.logits.data(), direct.data());

        // try_submit (no load: must be accepted everywhere).
        let out = engine.try_submit(w.clone()).unwrap().wait().unwrap();
        assert_eq!(out.logits.data(), direct.data());

        // A generous deadline is met by every topology.
        let out = engine
            .submit_with_deadline(w.clone(), Duration::from_secs(30))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(out.logits.data(), direct.data());

        // Zero-window requests are served, not rejected.
        let out = engine
            .classify(Tensor::zeros(&[0, CHANNELS, WINDOW]))
            .unwrap();
        assert_eq!(out.logits.dims(), &[0, 8]);
        assert!(out.predictions.is_empty());

        // One error surface: bad rank and bad shape are BadRequest for
        // every engine — no panicking entry points.
        for bad in [Tensor::zeros(&[2, 2]), Tensor::zeros(&[1, 3, 7])] {
            let err = engine.classify(bad).unwrap_err();
            assert!(
                matches!(err, ServeError::BadRequest(_)),
                "{}: {err:?}",
                engine.kind()
            );
        }
    }

    // Unified stats + shutdown: every engine served the same traffic.
    for engine in engine_list {
        let kind = engine.kind();
        // The concurrent engines deliver responses from inside the batch,
        // before the worker flushes its counters — poll the live snapshot
        // until the accounting lands (bounded).
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while engine.engine_stats().requests < 5 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        let live = engine.engine_stats();
        assert_eq!(live.engine, kind);
        assert_eq!(live.requests, 5, "{kind}: 5 well-formed requests");
        assert_eq!(live.windows, 20, "{kind}: 4 × 5 windows");
        let final_stats = engine.shutdown();
        assert_eq!(final_stats.requests, 5, "{kind}");
        assert_eq!(final_stats.windows, 20, "{kind}");
        assert!(final_stats.latency.micro_batches > 0, "{kind}");
        assert!(final_stats.throughput() > 0.0, "{kind}");
    }
}

/// Engine-generic helper code (the pattern the streaming layer uses): a
/// plain function over `&dyn Engine` behaves identically regardless of the
/// topology behind it.
#[test]
fn generic_caller_is_topology_agnostic() {
    fn serve_all(engine: &dyn Engine, batches: &[Tensor]) -> Vec<usize> {
        let pending: Vec<_> = batches
            .iter()
            .map(|b| engine.submit(b.clone()).unwrap())
            .collect();
        pending
            .into_iter()
            .flat_map(|p| p.wait().unwrap().predictions)
            .collect()
    }

    let model = Arc::new(small_bioformer(82));
    let batches: Vec<Tensor> = (0..3).map(|i| windows(2, 100 + i)).collect();
    let mut all: Vec<Vec<usize>> = Vec::new();
    for engine in engines(&model) {
        all.push(serve_all(engine.as_ref(), &batches));
        let stats = engine.shutdown();
        assert_eq!(stats.requests, 3);
        assert_eq!(stats.windows, 6);
    }
    assert_eq!(all[0], all[1], "async differs from inference");
    assert_eq!(all[0], all[2], "sharded differs from inference");
}

/// A rank-2 tensor is one rejected request on every engine: the inline
/// engine and the replicas behind the concurrent ones count it alike.
#[test]
fn bad_rank_is_counted_as_rejected_by_every_engine() {
    let model = Arc::new(small_bioformer(83));
    for engine in engines(&model) {
        let err = engine.classify(Tensor::zeros(&[2, 2])).unwrap_err();
        assert!(matches!(err, ServeError::BadRequest(_)), "{err:?}");
        let stats = engine.shutdown();
        assert_eq!(stats.rejected, 1, "{}", stats.engine);
        assert_eq!(stats.requests, 0, "{}", stats.engine);
        assert!(stats.rollup_consistent(), "{stats:?}");
    }
}

/// Mixed traffic — served, empty, malformed and deadline-bound requests —
/// leaves every engine's totals equal to the sum of its replica rows.
#[test]
fn mixed_traffic_rolls_up_on_every_engine() {
    let model = Arc::new(small_bioformer(84));
    let mut list = engines(&model);
    // A two-replica pool, so the rollup sums more than one row.
    list.push(Box::new(
        ShardedEngine::builder()
            .add_replica(Box::new(Arc::clone(&model)))
            .add_replica(Box::new(Arc::clone(&model)))
            .build(),
    ));
    for engine in list {
        for (i, n) in [1usize, 3, 0, 6, 2].into_iter().enumerate() {
            engine.classify(windows(n, 200 + i as u64)).unwrap();
        }
        for bad in [Tensor::zeros(&[2, 2]), Tensor::zeros(&[1, 3, 7])] {
            assert!(engine.classify(bad).is_err());
        }
        // A zero deadline may expire or be served; either way it counts
        // on exactly one replica.
        let _ = engine
            .submit_with_deadline(windows(1, 300), Duration::ZERO)
            .and_then(|p| p.wait());
        let stats = engine.shutdown();
        let kind = stats.engine;
        assert!(stats.rollup_consistent(), "{kind}: {stats:?}");
        assert_eq!(stats.rejected, 2, "{kind}");
        assert_eq!(stats.requests + stats.expired, 6, "{kind}");
        if kind == "sharded" {
            assert_eq!(stats.replicas.len(), stats.backends.len());
            let rows = |f: fn(&EngineStats) -> usize| -> usize {
                stats.replicas.iter().map(|r| f(&r.stats)).sum()
            };
            assert_eq!(rows(|s| s.requests), stats.requests, "{kind}");
            assert_eq!(rows(|s| s.rejected), stats.rejected, "{kind}");
            assert_eq!(rows(|s| s.windows), stats.windows, "{kind}");
        } else {
            assert!(stats.replicas.is_empty(), "{kind}");
        }
    }
}
