//! Cross-crate integration tests: data generation → training → evaluation
//! → quantization → deployment analysis.

use bioformers::core::descriptor::{bioformer_descriptor, temponet_descriptor};
use bioformers::core::protocol::{run_pretrained, run_standard, ProtocolConfig};
use bioformers::core::{Bioformer, BioformerConfig};
use bioformers::gap8::deploy::analyze_default;
use bioformers::nn::serialize::{load_state_dict, state_dict};
use bioformers::nn::trainer::evaluate;
use bioformers::nn::Model;
use bioformers::quant::QuantBioformer;
use bioformers::semg::{DatasetSpec, NinaproDb6, Normalizer, CHANNELS, WINDOW};
use bioformers::tensor::Tensor;

/// A Bioformer small enough to train in seconds but structurally complete
/// (conv front-end, attention, class token, LN, head).
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

#[test]
fn train_evaluate_quantize_deploy_pipeline() {
    let db = NinaproDb6::generate(&DatasetSpec::tiny());
    let subject = 0;

    // Train.
    let mut model = small_bioformer(1);
    let outcome = run_standard(&mut model, &db, subject, &ProtocolConfig::quick());
    assert!(
        outcome.overall > 0.125,
        "trained model should beat 8-class chance, got {}",
        outcome.overall
    );

    // Quantize with a calibration subset and compare against fp32.
    let train_raw = db.train_dataset(subject);
    let norm = Normalizer::fit(&train_raw);
    let train_data = norm.apply(&train_raw);
    let dict = state_dict(&mut model);
    let calib_n = train_data.x().dims()[0].min(64);
    let calib = Tensor::from_vec(
        train_data.x().data()[..calib_n * CHANNELS * WINDOW].to_vec(),
        &[calib_n, CHANNELS, WINDOW],
    );
    let qmodel =
        QuantBioformer::convert(model.config(), &dict, &calib).expect("quantized conversion");

    let test = norm.apply(&db.test_dataset(subject));
    let (_, fp32_acc) = evaluate(&model, test.x(), test.labels(), 128);
    let int8_acc = qmodel.accuracy(test.x(), test.labels());
    assert!(
        (fp32_acc - int8_acc).abs() < 0.15,
        "int8 accuracy {int8_acc} too far from fp32 {fp32_acc}"
    );

    // Deployment analysis must accept the trained architecture.
    let report = analyze_default(&bioformer_descriptor(model.config()));
    assert!(report.deployable);
    assert!(report.latency_ms > 0.0 && report.energy_mj > 0.0);
}

#[test]
fn pretraining_protocol_end_to_end() {
    let db = NinaproDb6::generate(&DatasetSpec::tiny());
    let mut model = small_bioformer(2);
    let outcome = run_pretrained(&mut model, &db, 1, &ProtocolConfig::quick());
    assert!(outcome.overall > 0.125, "accuracy {}", outcome.overall);
    assert_eq!(
        outcome.per_session.len(),
        db.spec().test_sessions().len(),
        "one accuracy per held-out session"
    );
}

#[test]
fn weights_roundtrip_preserves_predictions() {
    let db = NinaproDb6::generate(&DatasetSpec::tiny());
    let mut model = small_bioformer(3);
    let _ = run_standard(&mut model, &db, 0, &ProtocolConfig::quick());

    let data = db.subject_session_dataset(0, 2);
    let norm = Normalizer::fit(&db.train_dataset(0));
    let nd = norm.apply(&data);
    let before = {
        let mut m = model.clone();
        m.clear_cache();
        m.forward(nd.x(), false)
    };

    // Serialize → fresh model → load → identical logits.
    let dict = state_dict(&mut model);
    let mut fresh = small_bioformer(99);
    load_state_dict(&mut fresh, &dict).expect("load");
    let after = fresh.forward(nd.x(), false);
    assert!(
        before.allclose(&after, 1e-5),
        "loaded model must reproduce predictions exactly"
    );
}

#[test]
fn training_is_reproducible_across_runs() {
    let db = NinaproDb6::generate(&DatasetSpec::tiny());
    let cfg = ProtocolConfig::quick();
    let mut a = small_bioformer(7);
    let out_a = run_standard(&mut a, &db, 0, &cfg);
    let mut b = small_bioformer(7);
    let out_b = run_standard(&mut b, &db, 0, &cfg);
    // The shuffle, the augmentation and the dropout masks are seeded, and
    // the data-parallel gradient merge joins shards in order, so two runs
    // train the same weights bit for bit.
    let bits = |m: &mut Bioformer| -> Vec<(String, Vec<u32>)> {
        state_dict(m)
            .into_iter()
            .map(|(name, t)| (name, t.data().iter().map(|v| v.to_bits()).collect()))
            .collect()
    };
    assert_eq!(bits(&mut a), bits(&mut b), "trained weights diverged");
    assert_eq!(out_a.overall, out_b.overall, "accuracy diverged");
}

#[test]
fn complexity_ratios_match_paper_claims() {
    // The paper's headline: 4.9× fewer ops & parameters than TEMPONet,
    // ~8× lower energy on GAP8.
    let bio = bioformer_descriptor(&BioformerConfig::bio1());
    let tempo = temponet_descriptor();
    let ops_ratio = tempo.macs() as f64 / bio.macs() as f64;
    assert!((3.9..6.0).contains(&ops_ratio), "ops ratio {ops_ratio}");

    let bio_dep = analyze_default(&bio);
    let tempo_dep = analyze_default(&tempo);
    let energy_ratio = tempo_dep.energy_mj / bio_dep.energy_mj;
    assert!(
        (6.0..11.0).contains(&energy_ratio),
        "energy ratio {energy_ratio} (paper: 8.0×)"
    );
}

#[test]
fn dataset_statistics_are_protocol_shaped() {
    let spec = DatasetSpec::tiny();
    let db = NinaproDb6::generate(&spec);
    // Balanced classes in every split.
    let train = db.train_dataset(0);
    let counts = train.class_counts();
    assert!(counts.iter().all(|&c| c == counts[0]), "{counts:?}");
    // Test split only contains held-out sessions.
    let test = db.test_dataset(0);
    let min_test_session = (spec.sessions / 2) as u16;
    assert!(test.sessions().iter().all(|&s| s >= min_test_session));
}
