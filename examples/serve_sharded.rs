//! Sharded multi-replica serving demo: one trained Bioformer served as a
//! heterogeneous fp32 + int8 replica pool behind a [`ShardedEngine`] —
//! latency-aware routing, per-replica adaptive linger, pool statistics,
//! and quarantine of a failing replica with transparent re-routing.
//!
//! ```text
//! cargo run --release --example serve_sharded
//! ```

use bioformers::core::protocol::{run_standard, ProtocolConfig};
use bioformers::core::{Bioformer, BioformerConfig};
use bioformers::nn::serialize::state_dict;
use bioformers::quant::QuantBioformer;
use bioformers::semg::{DatasetSpec, NinaproDb6, Normalizer, CHANNELS, WINDOW};
use bioformers::serve::{Engine, EngineStats, GestureClassifier, ShardedEngine};
use bioformers::tensor::Tensor;

const CLIENTS: usize = 8;

mod common;
use common::drive_clients;

fn print_stats(stats: &EngineStats) {
    println!(
        "pool totals: {} requests, {} batches ({:.1} req/batch), {} failed, {} expired",
        stats.requests,
        stats.batches,
        stats.requests_per_batch(),
        stats.failed,
        stats.expired,
    );
    println!(
        "{:<16} {:>6} {:>8} {:>10} {:>12} {:>12} {:>12}",
        "replica", "reqs", "batches", "share", "ewma/batch", "ewma/window", "quarantined"
    );
    for (backend, r) in stats.backends.iter().zip(&stats.replicas) {
        println!(
            "{:<16} {:>6} {:>8} {:>9.1}% {:>12} {:>12} {:>12}",
            backend,
            r.stats.requests,
            r.stats.batches,
            r.stats.requests as f64 / stats.requests.max(1) as f64 * 100.0,
            r.ewma_batch_latency
                .map_or("-".to_string(), |d| format!("{d:.2?}")),
            r.ewma_window_latency
                .map_or("-".to_string(), |d| format!("{d:.2?}")),
            r.quarantined,
        );
    }
}

fn main() {
    // 1. Data + a quickly-trained Bioformer, quantized to int8 — the two
    //    precisions that will share the pool.
    println!("generating tiny synthetic DB6 + training a small Bioformer...");
    let db = NinaproDb6::generate(&DatasetSpec::tiny());
    let mut model = Bioformer::new(&BioformerConfig {
        heads: 2,
        depth: 1,
        head_dim: 8,
        hidden: 32,
        filter: 30,
        dropout: 0.0,
        seed: 1,
        ..BioformerConfig::bio1()
    });
    let outcome = run_standard(&mut model, &db, 0, &ProtocolConfig::quick());
    println!(
        "fp32 test accuracy after quick training: {:.1}%\n",
        outcome.overall * 100.0
    );

    let train = db.train_dataset(0);
    let norm = Normalizer::fit(&train);
    let train_data = norm.apply(&train);
    let calib_n = train_data.x().dims()[0].min(64);
    let calib = Tensor::from_vec(
        train_data.x().data()[..calib_n * CHANNELS * WINDOW].to_vec(),
        &[calib_n, CHANNELS, WINDOW],
    );
    let dict = state_dict(&mut model);
    let qmodel = QuantBioformer::convert(model.config(), &dict, &calib).expect("quantization");

    let test = norm.apply(&db.test_dataset(0));
    let windows = test.x().clone();
    let labels = test.labels().to_vec();
    let n = windows.dims()[0];

    // 2. A heterogeneous pool: one fp32 replica, one int8 replica, with
    //    latency-aware routing and adaptive linger (both the builder
    //    default). The int8 replica serves the same gestures faster — the
    //    router discovers that from observed batch latencies, nobody
    //    configures a speed ranking by hand.
    let pool = ShardedEngine::builder()
        .add_replica(Box::new(model))
        .add_replica(Box::new(qmodel))
        .build();
    println!(
        "{CLIENTS} concurrent clients streaming {n} windows of [{CHANNELS} x {WINDOW}] \
         through a {} pool\n",
        pool.backends().len()
    );

    let preds = drive_clients(&pool, &windows, CLIENTS);
    let correct = preds.iter().zip(&labels).filter(|(p, l)| p == l).count();

    let stats = pool.shutdown();
    print_stats(&stats);
    println!(
        "\npool accuracy under mixed-precision serving: {:.1}% ({correct}/{n})",
        correct as f32 / n as f32 * 100.0
    );

    // 3. Quarantine demo: a replica whose backend panics on every batch is
    //    quarantined after `quarantine_after` consecutive failures; its
    //    traffic is re-routed to the healthy replica, so every request
    //    still succeeds.
    println!("\n-- quarantine & re-route demo (1 healthy + 1 exploding replica) --");
    struct Exploding;
    impl GestureClassifier for Exploding {
        fn predict_batch(&self, _windows: &Tensor) -> Tensor {
            panic!("simulated replica crash");
        }
        fn num_classes(&self) -> usize {
            8
        }
        fn name(&self) -> &str {
            "exploding"
        }
    }
    let pool = ShardedEngine::builder()
        .with_quarantine_after(1)
        .add_replica(Box::new(Exploding))
        .add_replica(Box::new(Bioformer::new(&BioformerConfig::bio1())))
        .build();
    // The crash is the demo; keep its backtrace out of the report.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut served = 0usize;
    for _ in 0..12 {
        if pool.classify(Tensor::zeros(&[1, CHANNELS, WINDOW])).is_ok() {
            served += 1;
        }
    }
    std::panic::set_hook(default_hook);
    let stats = pool.shutdown();
    print_stats(&stats);
    println!(
        "\n{served}/12 requests served despite the crash-looping replica \
         (its {} failures triggered quarantine + re-routing)",
        stats.failed
    );
}
