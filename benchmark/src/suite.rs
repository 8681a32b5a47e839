//! The modes an operator runs: the whole suite (`all`), two sets of ten
//! seeds against the benchmark's own bounds (`repeat`) and the harness's
//! check of itself (`check`). Each run of a workload is a child process of
//! this same program, so that memory, thread pools and caches never leak
//! from one workload into the next.

use crate::host::fingerprint;
use crate::registry::{manifest, quote, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use crate::stats::{median, quartile_spread};
use crate::{result_line, sut, Args};
use std::collections::BTreeMap;
use std::process::{Command, Stdio};

pub fn names() -> Vec<&'static str> {
    WORKLOADS.iter().map(|w| w.name).collect()
}

/// What one child run printed.
struct Child {
    /// Every output was right: the child's exit status.
    correct: bool,
    /// The run counts as a measurement (`run_valid`).
    valid: bool,
    attempted: u64,
    failed: u64,
    limit_misses: u64,
    /// Every `name value unit` line in printed order: the metrics of the
    /// run's kind, then the operation counts.
    lines: Vec<(String, f64, String)>,
    checksum: Option<String>,
    last_line: String,
}

/// The lines the runner prints after the metrics of a run's kind.
const COUNTS: [&str; 5] = [
    "ops_attempted",
    "ops_failed",
    "limit_misses",
    "fail_ratio",
    "run_valid",
];

impl Child {
    fn metrics(&self) -> impl Iterator<Item = &(String, f64, String)> {
        self.lines
            .iter()
            .filter(|(n, _, _)| !COUNTS.contains(&n.as_str()))
    }
}

/// Runs one workload in a child process under the driver's protocol and
/// reads back the `name value unit` lines it printed. The child's output
/// is echoed.
fn child(workload: &str, seed: u64, seconds: f64, trace: u8) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", &trace.to_string()])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    print!("{stdout}");
    let correct = match output.status.code() {
        Some(0) => true,
        Some(1) => false,
        _ => {
            return Err(format!(
                "{workload} (trace {trace}) exited with {}",
                output.status
            ))
        }
    };
    let lines: Vec<(String, f64, String)> = stdout
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| match l.split(' ').collect::<Vec<_>>()[..] {
            [name, value, unit] => Some((name.to_string(), value.parse().ok()?, unit.to_string())),
            _ => None,
        })
        .collect();
    let count = |name: &str| {
        let line = lines.iter().find(|(n, _, _)| n == name);
        line.map(|(_, value, _)| *value as u64)
            .ok_or(format!("{workload}: no {name} line"))
    };
    Ok(Child {
        correct,
        valid: count("run_valid")? == 1,
        attempted: count("ops_attempted")?,
        failed: count("ops_failed")?,
        limit_misses: count("limit_misses")?,
        checksum: stdout
            .lines()
            .find_map(|l| l.strip_prefix("# output_checksum "))
            .map(str::to_string),
        last_line: stdout.lines().last().unwrap_or_default().to_string(),
        lines,
    })
}

fn metrics_object<'a>(metrics: impl Iterator<Item = &'a (String, f64, String)>) -> String {
    let members: Vec<String> = metrics
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                quote(name),
                quote(unit)
            )
        })
        .collect();
    format!("{{{}}}", members.join(", "))
}

/// Every workload untraced and then traced, each in its own process;
/// every metric by name with its unit; a non-zero exit if any output was
/// wrong or any run did not count. The summary is also written to
/// `benchmark/out/summary.json`.
pub fn all(args: &Args) -> Result<bool, String> {
    let seed: u64 = args.get("seed", 1)?;
    let seconds: f64 = args.get("seconds", RUN_SECONDS as f64)?;
    let host = fingerprint();
    let mut ok = true;
    let mut rows = Vec::new();
    for w in &WORKLOADS {
        let plain = child(w.name, seed, seconds, 0)?;
        let traced = child(w.name, seed, seconds, 1)?;
        ok &= plain.correct && plain.valid && traced.correct;
        rows.push(format!(
            "    {}: {{\"correct\": {}, \"valid\": {}, \"ops_attempted\": {}, \"ops_failed\": {}, \"limit_misses\": {}, \"output_checksum\": {}, \"end_to_end\": {}, \"traced_correct\": {}, \"per_layer\": {}}}",
            quote(w.name),
            plain.correct,
            plain.valid,
            plain.attempted,
            plain.failed,
            plain.limit_misses,
            quote(plain.checksum.as_deref().unwrap_or("")),
            metrics_object(plain.metrics()),
            traced.correct,
            metrics_object(traced.metrics()),
        ));
    }
    let summary = format!(
        "{{\n  \"host\": {{\"cpu_model\": {}, \"nproc\": {}, \"bioformer_simd\": {}, \"rustc\": {}, \"git_commit\": {}}},\n  \"seed\": {seed},\n  \"run_seconds\": {seconds},\n  \"workloads\": {{\n{}\n  }},\n  \"claim\": null\n}}\n",
        quote(&host.cpu_model),
        host.nproc,
        quote(sut::simd_tier()),
        quote(&host.rustc),
        quote(&host.git_commit),
        rows.join(",\n"),
    );
    std::fs::create_dir_all("benchmark/out").map_err(|e| e.to_string())?;
    std::fs::write("benchmark/out/summary.json", &summary).map_err(|e| e.to_string())?;
    print!("{summary}");
    Ok(ok)
}

/// Runs of a workload in one set of `repeat`, each with another seed.
const REPEAT_RUNS: u64 = 10;

/// What the acceptance check of the benchmark computes, on this build:
/// the suite's end-to-end runs in two sets, each of ten runs per workload
/// with seeds `seed..seed + 10`. A metric passes on a workload when the
/// quartile spread of each set's ten values is within the metric's bound
/// (a third of it is the target) and the two sets' medians lie no further
/// apart than the bound, whichever is the better one. Every run must be
/// correct and count, and a seed's output checksum must repeat.
pub fn repeat(args: &Args) -> Result<bool, String> {
    let first_seed: u64 = args.get("seed", 1)?;
    let seconds: f64 = args.get("seconds", RUN_SECONDS as f64)?;
    let mut ok = true;
    // (workload, metric) -> the values of each set.
    let mut values: BTreeMap<(&str, String), [Vec<f64>; 2]> = BTreeMap::new();
    let mut checksums: BTreeMap<(&str, u64), Option<String>> = BTreeMap::new();
    let mut table = Vec::new();
    for set in 0..2 {
        for w in &WORKLOADS {
            for seed in first_seed..first_seed + REPEAT_RUNS {
                let run = child(w.name, seed, seconds, 0)?;
                if !(run.correct && run.valid) {
                    ok = false;
                    table.push(format!(
                        "{} seed {seed} set {set}: correct {} valid {}",
                        w.name, run.correct, run.valid
                    ));
                }
                for (name, value, _) in run.metrics() {
                    values.entry((w.name, name.clone())).or_default()[set].push(*value);
                }
                let first = checksums
                    .entry((w.name, seed))
                    .or_insert(run.checksum.clone());
                if first.is_none() || *first != run.checksum {
                    ok = false;
                    table.push(format!(
                        "{} seed {seed}: output_checksum {first:?} then {:?}",
                        w.name, run.checksum
                    ));
                }
            }
        }
    }
    table.push(
        "workload metric median_1 spread_1 median_2 spread_2 apart bound verdict".to_string(),
    );
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let [a, b] = &values[&(w.name, m.name.to_string())];
            let (median_a, median_b) = (median(a), median(b));
            let (spread_a, spread_b) = (quartile_spread(a), quartile_spread(b));
            let apart = (median_b - median_a).abs() / median_a.min(median_b);
            let widest = spread_a.max(spread_b);
            let pass = widest <= m.bound && apart <= m.bound;
            ok &= pass;
            table.push(format!(
                "{} {} {median_a:.4} {spread_a:.4} {median_b:.4} {spread_b:.4} {apart:.4} {} {}",
                w.name,
                m.name,
                m.bound,
                match (pass, widest <= m.bound / 3.0) {
                    (false, _) => "FAIL",
                    (true, false) => "wide",
                    (true, true) => "steady",
                },
            ));
        }
    }
    println!("{}", table.join("\n"));
    Ok(ok)
}

/// The harness's check of itself: `BENCHMARK.json` is the registry, and a
/// four-second run of every workload prints every metric of its kind
/// exactly once, with its unit, both as a line and in the result object.
pub fn check() -> Result<bool, String> {
    let mut problems = Vec::new();
    match std::fs::read_to_string("BENCHMARK.json") {
        Ok(text) if text == manifest() => {}
        Ok(_) => problems.push("BENCHMARK.json differs from the `manifest` mode's output".into()),
        Err(e) => problems.push(format!("BENCHMARK.json: {e}")),
    }
    for w in &WORKLOADS {
        for trace in [0, 1] {
            let expected: Vec<(&str, &str)> = match trace {
                0 => END_TO_END.iter().map(|m| (m.name, m.unit)).collect(),
                _ => PER_LAYER.iter().map(|m| (m.name, m.unit)).collect(),
            };
            let run = child(w.name, 1, 4.0, trace)?;
            if !run.correct {
                problems.push(format!("{} trace {trace}: outputs were wrong", w.name));
            }
            let printed: Vec<(&str, &str)> = run
                .metrics()
                .map(|(n, _, u)| (n.as_str(), u.as_str()))
                .collect();
            if printed != expected {
                problems.push(format!(
                    "{} trace {trace}: the metric lines are not the registry's, each once, in order",
                    w.name
                ));
            }
            // The lines hold what the result object was printed from, so
            // the object must be exactly what they give.
            let metrics: Vec<(&str, f64, &str)> = run
                .metrics()
                .map(|(n, v, u)| (n.as_str(), *v, u.as_str()))
                .collect();
            if run.last_line != result_line(run.correct, run.attempted, run.failed, &metrics) {
                problems.push(format!(
                    "{} trace {trace}: the last line is not the result object of the lines above it",
                    w.name
                ));
            }
        }
    }
    for p in &problems {
        println!("check: {p}");
    }
    println!("check: {} problems", problems.len());
    Ok(problems.is_empty())
}
