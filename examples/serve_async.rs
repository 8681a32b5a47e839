//! Asynchronous serving demo: one trained Bioformer (fp32 and int8) behind
//! an [`AsyncEngine`] — concurrent clients, cross-request micro-batching,
//! per-request deadlines, bounded-queue backpressure and a graceful,
//! draining shutdown.
//!
//! ```text
//! cargo run --release --example serve_async
//! ```

use bioformers::core::protocol::{run_standard, ProtocolConfig};
use bioformers::core::{Bioformer, BioformerConfig};
use bioformers::nn::serialize::state_dict;
use bioformers::quant::QuantBioformer;
use bioformers::semg::{DatasetSpec, NinaproDb6, Normalizer, CHANNELS, WINDOW};
use bioformers::serve::{AsyncEngine, AsyncEngineConfig, Engine, ServeError};
use bioformers::tensor::Tensor;
use std::time::Duration;

const CLIENTS: usize = 8;

mod common;
use common::drive_clients;

fn main() {
    // 1. Data + a quickly-trained Bioformer, quantized to int8 (same flow
    //    as `serve_batch`, which demos the synchronous engine).
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
    println!("{CLIENTS} concurrent clients streaming {n} windows of [{CHANNELS} x {WINDOW}]\n");

    // 2. Serve both precisions through async engines under concurrent load.
    let cfg = AsyncEngineConfig::default()
        .with_workers(2)
        .with_micro_batch(16)
        .with_linger(Duration::from_millis(1));
    let backends: [Box<dyn bioformers::serve::GestureClassifier>; 2] =
        [Box::new(model), Box::new(qmodel)];

    println!(
        "{:<16} {:>7} {:>9} {:>10} {:>10} {:>10} {:>12} {:>9}",
        "backend", "batches", "req/batch", "p50", "p95", "expired", "win/s", "accuracy"
    );
    let mut predictions: Vec<Vec<usize>> = Vec::new();
    for backend in backends {
        let name = backend.name().to_string();
        let engine = AsyncEngine::with_config(backend, cfg.clone());
        let preds = drive_clients(&engine, &windows, CLIENTS);
        let stats = engine.shutdown();
        let correct = preds.iter().zip(&labels).filter(|(p, l)| p == l).count();
        println!(
            "{:<16} {:>7} {:>9.1} {:>9.2?} {:>9.2?} {:>10} {:>12.0} {:>8.1}%",
            name,
            stats.batches,
            stats.requests_per_batch(),
            stats.latency.p50,
            stats.latency.p95,
            stats.expired,
            stats.throughput(),
            correct as f32 / n as f32 * 100.0,
        );
        predictions.push(preds);
    }

    let agree = predictions[0]
        .iter()
        .zip(predictions[1].iter())
        .filter(|(a, b)| a == b)
        .count();
    println!(
        "\nfp32/int8 prediction agreement under concurrent serving: {}/{} ({:.1}%)",
        agree,
        n,
        agree as f32 / n as f32 * 100.0
    );

    // 3. Deadlines and backpressure on a deliberately tiny engine.
    println!("\n-- deadline & backpressure demo (capacity-2 queue, 1 worker) --");
    let tiny = AsyncEngine::with_config(
        Box::new(Bioformer::new(&BioformerConfig::bio1())),
        AsyncEngineConfig::default()
            .with_workers(1)
            .with_queue_capacity(2)
            .with_linger(Duration::ZERO),
    );
    let mut accepted = 0usize;
    let mut shed = 0usize;
    let mut pending = Vec::new();
    for _ in 0..32 {
        match tiny.try_submit(Tensor::zeros(&[1, 14, 300])) {
            Ok(p) => {
                accepted += 1;
                pending.push(p);
            }
            Err(ServeError::QueueFull) => shed += 1,
            Err(e) => panic!("unexpected submit error: {e}"),
        }
    }
    let expired = tiny
        .submit_with_deadline(Tensor::zeros(&[1, 14, 300]), Duration::from_nanos(1))
        .and_then(|p| p.wait());
    println!(
        "burst of 32 fire-and-forget submits: {accepted} accepted, {shed} shed (QueueFull); \
         1 ns deadline -> {:?}",
        expired.expect_err("deadline must expire")
    );
    for p in pending {
        let _ = p.wait();
    }
    let stats = tiny.shutdown();
    println!(
        "graceful shutdown drained the queue: {} requests served, {} expired",
        stats.requests, stats.expired
    );
}
