//! One run of one workload, as the driver asks for it: set-up, measured
//! interval, output check and the metrics of either kind.

use crate::host::now_ns;
use crate::layers::{probe_pass, serve_probes};
use crate::measure::{end_to_end, on_the_wall_clock, Measured, SLICE_NS};
use crate::registry::{END_TO_END, PER_LAYER};
use crate::stats::{median, percentile, samples_beyond};
use crate::sut::Fixture;
use crate::trace::{write_json, SpanLog};
use crate::workload::{start, LayerMetrics, Running};
use std::collections::HashMap;
use std::sync::Arc;

/// What a run prints: the metrics of its kind in registry order, the
/// operation counts and lines for the operator.
#[derive(Default)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    /// Operations that errored or answered wrongly.
    pub failed: u64,
    /// Correct operations that missed the workload's latency limit.
    pub late: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Why the run does not count as a measurement; empty if it does.
    pub invalid: Vec<String>,
    pub info: Vec<String>,
}

/// Share of a run's operations that may fail or miss their latency limit
/// before the run stops counting as a measurement. `BENCHMARK.json` cannot
/// hold `fail_ratio` (it is 0 on a good run), and the issue's bound of
/// +0.002 is against a parent's figure that a single run does not know:
/// `wire_realtime` reads 0 to 0.004 here from run to run (a few events in
/// 350 leave one scheduler tick too late for the 50 ms limit), so the line
/// is drawn above that.
pub const FAIL_RATIO_LIMIT: f64 = 0.01;

impl Report {
    fn count(&mut self, m: &Measured) {
        self.attempted += m.attempted;
        self.failed += m.failed;
        self.late += m.late;
        self.invalid.extend(m.invalid.iter().cloned());
        self.info
            .extend(m.notes.iter().map(|n| format!("note: {n}")));
    }

    /// (failed + limit misses) ÷ attempted.
    pub fn fail_ratio(&self) -> f64 {
        (self.failed + self.late) as f64 / self.attempted.max(1) as f64
    }

    /// Judges the counts once every segment is in: outputs are correct when
    /// nothing failed, and the run counts when few enough operations failed
    /// or were late.
    fn conclude(&mut self) {
        self.correct = self.failed == 0 && self.attempted > 0;
        if self.fail_ratio() > FAIL_RATIO_LIMIT {
            self.invalid.push(format!(
                "fail_ratio {:.4} is above {FAIL_RATIO_LIMIT}",
                self.fail_ratio()
            ));
        }
    }
}

/// A workload that is set up and ready to be measured.
struct Ready {
    fixture: Arc<Fixture>,
    running: Box<dyn Running>,
    setup_s: f64,
}

/// Builds the fixture, starts `workload` and warms it up: what `setup_s`
/// times, on the wall clock.
fn set_up(workload: &str, seed: u64) -> Result<Ready, String> {
    let begin = now_ns();
    let fixture = Arc::new(Fixture::build(seed));
    let mut running = start(workload, &fixture, seed, None)?;
    running.warm_up();
    Ok(Ready {
        fixture,
        running,
        setup_s: (now_ns() - begin) as f64 / 1e9,
    })
}

/// Set-ups timed per untraced run; `setup_s` is their median. Five, because
/// one set-up in three or four here takes a fifth longer than the rest.
const SETUP_REPS: usize = 5;

/// A run with tracing off: the end-to-end metrics.
///
/// Only the first set-up is measured on; the others come after the
/// measured interval, so that it always meets the heap one set-up leaves
/// behind.
pub fn untraced(workload: &str, seed: u64, seconds: f64) -> Result<Report, String> {
    let mut ready = set_up(workload, seed)?;
    let measured = ready.running.measure(seconds);
    ready.running.stop();
    let accuracy = ready.fixture.accuracy;
    let mut setups = vec![ready.setup_s];
    drop(ready.fixture);
    for _ in 1..SETUP_REPS {
        let again = set_up(workload, seed)?;
        again.running.stop();
        setups.push(again.setup_s);
    }

    let mut values = end_to_end(&measured);
    values.push(("setup_s", median(&setups)));
    let mut report = Report {
        metrics: END_TO_END
            .iter()
            .map(|m| {
                let value = values.iter().find(|(name, _)| *name == m.name);
                (
                    m.name,
                    value.expect("every end-to-end metric is computed").1,
                    m.unit,
                )
            })
            .collect(),
        ..Report::default()
    };
    report.count(&measured);
    report.info.push(format!(
        "medians across {} slices of {} s",
        measured.slices.len(),
        SLICE_NS as f64 / 1e9
    ));
    let mut slowdowns: Vec<f64> = measured.slices.iter().map(|s| s.slowdown).collect();
    slowdowns.sort_by(f64::total_cmp);
    report.info.push(format!(
        "the core ran {:.3}x to {:.3}x slower than its reference speed; the same medians on the wall clock: {}",
        slowdowns.first().copied().unwrap_or(1.0),
        slowdowns.last().copied().unwrap_or(1.0),
        on_the_wall_clock(&measured)
            .iter()
            .take(4)
            .map(|(name, value)| format!("{name} {value:.1}"))
            .collect::<Vec<_>>()
            .join(", "),
    ));
    report.info.push(format!(
        "whole interval on the wall clock: {} windows in {:.3} s, {} latency samples, p50 {:.1} us, p95 {:.1} us ({} samples beyond), p99 {:.1} us",
        measured.windows,
        measured.wall_ns as f64 / 1e9,
        measured.latencies_ns.len(),
        percentile(&measured.latencies_ns, 0.50).unwrap_or(0) as f64 / 1e3,
        percentile(&measured.latencies_ns, 0.95).unwrap_or(0) as f64 / 1e3,
        samples_beyond(measured.latencies_ns.len(), 0.95),
        percentile(&measured.latencies_ns, 0.99).unwrap_or(0) as f64 / 1e3,
    ));
    if measured.open_loop {
        report.info.push(format!(
            "generator lag p99 {:.1} us",
            measured.lag_p99_ns as f64 / 1e3
        ));
    }
    report.info.push(format!(
        "set-up times: {setups:.3?} s; quick-trained fp32 accuracy {accuracy:.3}"
    ));
    report
        .info
        .push(format!("output_checksum {:#018x}", measured.checksum));
    report.conclude();
    Ok(report)
}

/// Starts `workload` over `fixture`, warms it up, measures `seconds` and
/// stops it; with a `log` the segment is traced.
fn segment(
    workload: &str,
    fixture: &Arc<Fixture>,
    seed: u64,
    seconds: f64,
    log: Option<&Arc<SpanLog>>,
) -> Result<(Measured, LayerMetrics), String> {
    let mut running = start(workload, fixture, seed, log)?;
    running.warm_up();
    let measured = running.measure(seconds);
    let layer = running.layer_metrics();
    running.stop();
    Ok((measured, layer))
}

/// A traced run: the per-layer metrics.
///
/// The time is split between the `layers` pass (every layer's public
/// functions timed from outside), the workload itself untraced and then
/// traced (the difference is the tracing overhead), and — for a workload
/// that does not use the wire — a traced `wire_loaded` segment, so that
/// the serve and wire layers are measured in every traced run.
pub fn traced(workload: &str, seed: u64, seconds: f64) -> Result<Report, String> {
    let fixture = Arc::new(Fixture::build(seed));
    let mut report = Report::default();
    let mut values: HashMap<&'static str, f64> = probe_pass(&fixture, (seconds * 0.25e9) as u64);
    values.extend(serve_probes(&fixture, seed)?);

    // A wire workload's latency samples are its gesture events, a few
    // tens a second, so its two segments get the reference segment's time.
    let uses_wire = workload.starts_with("wire_");
    let (plain_share, traced_share) = if uses_wire { (0.25, 0.35) } else { (0.15, 0.2) };
    let (plain, _) = segment(workload, &fixture, seed, seconds * plain_share, None)?;
    report.count(&plain);
    let log = Arc::new(SpanLog::new(1 << 20));
    let (with_spans, layer) =
        segment(workload, &fixture, seed, seconds * traced_share, Some(&log))?;
    report.count(&with_spans);
    values.extend(layer);
    if !uses_wire {
        let (spans, _) = log.take();
        let path = format!("benchmark/out/trace-{workload}.json");
        if let Err(e) = write_json(std::path::Path::new(&path), &spans) {
            report.info.push(format!("note: {path}: {e}"));
        }
        // `take` left the first log without room, so the reference
        // segment records into one of its own.
        let log = Arc::new(SpanLog::new(1 << 20));
        let (reference, layer) =
            segment("wire_loaded", &fixture, seed, seconds * 0.25, Some(&log))?;
        report.count(&reference);
        values.extend(layer);
    }
    // Both sides are the end-to-end `latency_mid_us` of their segment.
    let mid = |m: &Measured| end_to_end(m)[0].1;
    values.insert(
        "loadgen.trace_overhead_ratio",
        mid(&with_spans) / mid(&plain),
    );
    values.insert(
        "loadgen.latency_p99_us",
        percentile(&with_spans.latencies_ns, 0.99).unwrap_or(0) as f64 / 1e3,
    );
    values.insert("loadgen.events", with_spans.latencies_ns.len() as f64);

    report.conclude();
    for m in &PER_LAYER {
        match values.get(m.name) {
            Some(&v) => report.metrics.push((m.name, v, m.unit)),
            None => return Err(format!("per-layer metric {} was not measured", m.name)),
        }
    }
    Ok(report)
}
