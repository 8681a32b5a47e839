//! End-to-end tests of the serving layer: the same trained Bioformer served
//! through [`InferenceEngine`] as fp32 and as the fully-integer int8
//! pipeline, plus micro-batch splitting edge cases on real model backends.

use bioformers::core::protocol::{run_standard, ProtocolConfig};
use bioformers::core::{Bioformer, BioformerConfig, TempoNet, WaveFormer};
use bioformers::nn::serialize::state_dict;
use bioformers::nn::Model;
use bioformers::quant::QuantBioformer;
use bioformers::semg::{DatasetSpec, NinaproDb6, Normalizer, CHANNELS, WINDOW};
use bioformers::serve::{Engine, GestureClassifier, InferenceEngine};
use bioformers::tensor::Tensor;

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

/// Normalised windows from the tiny synthetic DB6.
fn tiny_windows(n: usize) -> Tensor {
    let db = NinaproDb6::generate(&DatasetSpec::tiny());
    let train = db.train_dataset(0);
    let norm = Normalizer::fit(&train);
    let data = norm.apply(&train);
    let n = n.min(data.x().dims()[0]);
    Tensor::from_vec(
        data.x().data()[..n * CHANNELS * WINDOW].to_vec(),
        &[n, CHANNELS, WINDOW],
    )
}

#[test]
fn engine_matches_direct_forward_for_all_micro_batch_sizes() {
    let model = small_bioformer(11);
    let windows = tiny_windows(7);
    let direct = model.clone().forward(&windows, false);

    // Non-divisible, divisible, larger-than-batch and unit micro-batches
    // must all reproduce the full-batch logits exactly: micro-batching
    // only partitions rows, it never changes per-row arithmetic.
    for micro in [1, 3, 7, 64] {
        let engine = InferenceEngine::new(Box::new(model.clone())).with_micro_batch(micro);
        let out = engine.classify(windows.clone()).expect("serve");
        assert_eq!(out.logits.dims(), direct.dims());
        assert!(
            out.logits.allclose(&direct, 1e-6),
            "micro={micro}: engine logits diverge from direct forward"
        );
        let stats = engine.engine_stats();
        let expected_batches = windows.dims()[0].div_ceil(micro);
        assert_eq!(stats.latency.micro_batches, expected_batches);
        assert_eq!(stats.latency.windows, 7);
        assert_eq!(stats.windows, 7);
        assert_eq!(out.predictions, direct.argmax_rows());
    }
}

#[test]
fn empty_request_yields_empty_logits() {
    let engine = InferenceEngine::new(Box::new(small_bioformer(12)));
    let out = engine
        .classify(Tensor::zeros(&[0, CHANNELS, WINDOW]))
        .expect("serve");
    assert_eq!(out.logits.dims(), &[0, 8]);
    assert!(out.predictions.is_empty());
    assert_eq!(engine.engine_stats().latency.micro_batches, 0);
}

#[test]
fn temponet_backend_serves_through_the_same_engine() {
    let engine = InferenceEngine::new(Box::new(TempoNet::new(3))).with_micro_batch(2);
    let out = engine.classify(tiny_windows(5)).expect("serve");
    assert_eq!(engine.backends(), vec!["temponet-fp32".to_string()]);
    assert_eq!(out.logits.dims(), &[5, 8]);
    assert_eq!(engine.engine_stats().latency.micro_batches, 3);
    assert!(!out.logits.has_non_finite());
}

/// Every fp32 model names its compute path `packed-cpu`, directly and
/// per replica through the engine.
#[test]
fn fp32_models_report_packed_cpu() {
    let (bio, temponet, waveformer) = (small_bioformer(4), TempoNet::new(4), WaveFormer::new(4));
    assert_eq!(bio.compute_report(), "packed-cpu");
    assert_eq!(temponet.compute_report(), "packed-cpu");
    assert_eq!(waveformer.compute_report(), "packed-cpu");
    let models: [Box<dyn GestureClassifier>; 3] =
        [Box::new(bio), Box::new(temponet), Box::new(waveformer)];
    for model in models {
        let name = model.name().to_string();
        let engine = InferenceEngine::new(model);
        assert_eq!(engine.compute_report(), "packed-cpu", "{name}");
    }
}

/// The tentpole acceptance path: train → quantize → serve the same windows
/// through both precisions via the one trait, and require the int8 backend
/// to track the fp32 one.
#[test]
fn fp32_and_int8_backends_agree_on_tiny_dataset() {
    let db = NinaproDb6::generate(&DatasetSpec::tiny());
    let mut model = small_bioformer(13);
    let outcome = run_standard(&mut model, &db, 0, &ProtocolConfig::quick());
    assert!(
        outcome.overall > 0.125,
        "training failed: {}",
        outcome.overall
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
    let qmodel = QuantBioformer::convert(model.config(), &dict, &calib).expect("conversion");

    let test = norm.apply(&db.test_dataset(0));
    let windows = test.x().clone();
    let n = windows.dims()[0];
    assert!(n > 0);

    let fp32 = InferenceEngine::new(Box::new(model.clone())).with_micro_batch(16);
    let int8 = InferenceEngine::new(Box::new(qmodel)).with_micro_batch(16);
    assert_eq!(fp32.num_classes(), int8.num_classes());

    let out32 = fp32.classify(windows.clone()).expect("serve");
    let out8 = int8.classify(windows).expect("serve");
    assert_eq!(out32.logits.dims(), out8.logits.dims());

    let agree = out32
        .predictions
        .iter()
        .zip(out8.predictions.iter())
        .filter(|(a, b)| a == b)
        .count() as f32
        / n as f32;
    // Disagreements concentrate on low-margin windows (the synthetic DB6 is
    // deliberately hard — fp32 ceiling ≈66%), so require solid prediction
    // agreement plus paper-style accuracy tracking between precisions.
    assert!(
        agree > 0.7,
        "int8 backend agrees with fp32 on only {agree:.2} of {n} windows"
    );
    let acc = |preds: &[usize]| {
        preds
            .iter()
            .zip(test.labels())
            .filter(|(p, l)| p == l)
            .count() as f32
            / n as f32
    };
    let (acc32, acc8) = (acc(&out32.predictions), acc(&out8.predictions));
    assert!(
        (acc32 - acc8).abs() < 0.15,
        "int8 accuracy {acc8} too far from fp32 {acc32}"
    );

    // Both backends ran micro-batched.
    let (stats32, stats8) = (fp32.engine_stats(), int8.engine_stats());
    assert_eq!(stats32.latency.micro_batches, n.div_ceil(16));
    assert_eq!(stats8.latency.micro_batches, n.div_ceil(16));
    assert!(stats32.latency.total > std::time::Duration::ZERO);
    assert_eq!(out32.batch_latency, stats32.latency.total);
}

/// Fast end-to-end smoke: 1-epoch train → quantize → serve both precisions.
/// Mirrors the `--smoke` experiment preset at test scale; runs in seconds
/// under `cargo test -q`.
#[test]
fn smoke_train_quantize_serve() {
    let db = NinaproDb6::generate(&DatasetSpec::tiny());
    let mut model = small_bioformer(14);
    let cfg = ProtocolConfig {
        standard_epochs: 1,
        ..ProtocolConfig::quick()
    };
    let _ = run_standard(&mut model, &db, 0, &cfg);

    let norm = Normalizer::fit(&db.train_dataset(0));
    let calib = norm.apply(&db.train_dataset(0));
    let calib_n = calib.x().dims()[0].min(32);
    let calib = Tensor::from_vec(
        calib.x().data()[..calib_n * CHANNELS * WINDOW].to_vec(),
        &[calib_n, CHANNELS, WINDOW],
    );
    let dict = state_dict(&mut model);
    let qmodel = QuantBioformer::convert(model.config(), &dict, &calib).expect("conversion");

    let windows = tiny_windows(9);
    for engine in [
        InferenceEngine::new(Box::new(model)).with_micro_batch(4),
        InferenceEngine::new(Box::new(qmodel)).with_micro_batch(4),
    ] {
        let out = engine.classify(windows.clone()).expect("serve");
        assert_eq!(out.logits.dims(), &[9, 8]);
        assert_eq!(out.predictions.len(), 9);
        assert_eq!(engine.engine_stats().latency.micro_batches, 3);
        assert!(!out.logits.has_non_finite());
        assert!(out.predictions.iter().all(|&p| p < engine.num_classes()));
    }
}

/// The trait object itself is usable directly (without the engine), which
/// is what backend sharding will build on.
#[test]
fn trait_objects_are_interchangeable() {
    let backends: Vec<Box<dyn GestureClassifier>> =
        vec![Box::new(small_bioformer(15)), Box::new(TempoNet::new(15))];
    let windows = tiny_windows(2);
    for b in &backends {
        assert_eq!(b.num_classes(), 8);
        assert_eq!(b.predict_batch(&windows).dims(), &[2, 8]);
        assert!(!b.name().is_empty());
    }
}
