//! Sample-in → gesture-event-out benchmark of the bioformers serving
//! stack. See `README.md` beside this package.
//!
//! ```text
//! bioformers-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! bioformers-benchmark all    [--seed <n>] [--seconds <s>]
//! bioformers-benchmark repeat [--seed <n>] [--seconds <s>]
//! bioformers-benchmark check
//! bioformers-benchmark manifest
//! ```

mod closed;
mod host;
mod layers;
mod measure;
mod registry;
mod run;
mod stats;
mod suite;
mod sut;
mod trace;
mod wire;
mod workload;

use std::process::ExitCode;

/// The command line: an optional mode word, then `--flag value` pairs.
pub struct Args {
    pub mode: Option<String>,
    flags: Vec<(String, String)>,
}

impl Args {
    fn parse(mut words: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            mode: None,
            flags: Vec::new(),
        };
        while let Some(word) = words.next() {
            match word.strip_prefix("--") {
                Some(flag) => {
                    let value = words.next().ok_or(format!("--{flag} needs a value"))?;
                    args.flags.push((flag.to_string(), value));
                }
                None if args.mode.is_none() && args.flags.is_empty() => args.mode = Some(word),
                None => return Err(format!("unexpected argument {word:?}")),
            }
        }
        Ok(args)
    }

    pub fn get<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.flags.iter().find(|(f, _)| f == flag) {
            Some((_, v)) => v.parse().map_err(|_| format!("--{flag}: bad value {v:?}")),
            None => Ok(default),
        }
    }
}

/// One run under the driver's protocol: metric lines for the operator,
/// then the result object as the last line.
fn driver_run(args: &Args) -> Result<bool, String> {
    let workload: String = args.get("workload", String::new())?;
    let seed: u64 = args.get("seed", 1)?;
    let seconds: f64 = args.get("seconds", registry::RUN_SECONDS as f64)?;
    let trace: u8 = args.get("trace", 0)?;
    if !registry::WORKLOADS.iter().any(|w| w.name == workload) {
        return Err(format!("--workload must be one of {:?}", suite::names()));
    }
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    println!("# workload {workload} seed {seed} seconds {seconds} trace {trace}");
    let report = match trace {
        0 => run::untraced(&workload, seed, seconds)?,
        _ => run::traced(&workload, seed, seconds)?,
    };
    for (name, value, unit) in &report.metrics {
        println!("{name} {value} {unit}");
    }
    println!("ops_attempted {} count", report.attempted);
    println!("ops_failed {} count", report.failed);
    println!("limit_misses {} count", report.late);
    println!("fail_ratio {} ratio", report.fail_ratio());
    println!("run_valid {} count", u8::from(report.invalid.is_empty()));
    for reason in &report.invalid {
        println!("# invalid: {reason}");
    }
    for line in &report.info {
        println!("# {line}");
    }
    if report.metrics.iter().any(|(_, v, _)| !v.is_finite()) {
        return Err("a metric is not a finite number (no operation completed?)".into());
    }
    println!(
        "{}",
        result_line(
            report.correct,
            report.attempted,
            report.failed,
            &report.metrics
        )
    );
    Ok(report.correct)
}

/// The result object the driver reads from a run's last line.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let metrics: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let outcome =
        Args::parse(std::env::args().skip(1)).and_then(|args| match args.mode.as_deref() {
            None => driver_run(&args),
            Some("all") => suite::all(&args),
            Some("repeat") => suite::repeat(&args),
            Some("check") => suite::check(),
            Some("manifest") => {
                print!("{}", registry::manifest());
                Ok(true)
            }
            Some(other) => Err(format!("unknown mode {other:?}")),
        });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
