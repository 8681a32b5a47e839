//! Runs the `check` mode of the built benchmark: `BENCHMARK.json` is the
//! registry, and a four-second run of every workload, untraced and traced,
//! prints every metric of its kind exactly once with its unit and checks
//! its outputs. Takes about three minutes.

use std::process::Command;

#[test]
fn every_named_metric_and_workload_is_printed_once_with_its_unit() {
    let status = Command::new(env!("CARGO_BIN_EXE_bioformers-benchmark"))
        .arg("check")
        // The modes read `BENCHMARK.json` and write `benchmark/out/`
        // relative to the repository root.
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
        .status()
        .expect("the benchmark binary starts");
    assert!(
        status.success(),
        "`check` reported problems (see its output)"
    );
}
