//! The `layers` pass of a traced run: every layer's public functions timed
//! from outside at bio1 shapes, and one-window calls through each engine
//! and session type with the model wrapped in the tracing decorator.

use crate::host::{now_ns, Reference};
use crate::registry::PER_LAYER;
use crate::stats::{median, median_ns};
use crate::sut::{
    self, Classifier, Client, Fixture, InlineStream, Precision, Server, Topology, WINDOW_LEN,
};
use crate::trace::{self_times, Span, SpanLog, NO_PARENT};
use crate::wire::Plan;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// Time one timed sample of a probe should take: long enough that the
/// clock reads (about 25 ns each) vanish, short enough for two dozen
/// rounds of some fifty probes.
const SAMPLE_NS: u64 = 2_000_000;

/// Nanoseconds per unit of a time metric.
fn unit_ns(metric: &str) -> f64 {
    let unit = PER_LAYER
        .iter()
        .find(|m| m.name == metric)
        .unwrap_or_else(|| panic!("{metric} is not a per-layer metric"))
        .unit;
    match unit {
        "ns" => 1.0,
        "us" => 1e3,
        "ms" => 1e6,
        other => panic!("{metric}: {other} is not a time unit"),
    }
}

/// Times every probe of `sut::probes` round-robin for `budget_ns`, so that
/// all of them meet the same phases of the host, and derives the rates
/// and ratios that are defined on their results.
pub fn probe_pass(fixture: &Fixture, budget_ns: u64) -> HashMap<&'static str, f64> {
    let mut probes = sut::probes(fixture);
    let iterations: Vec<u64> = probes
        .iter_mut()
        .map(|p| {
            (p.run)();
            let start = now_ns();
            (p.run)();
            (SAMPLE_NS / (now_ns() - start).max(1)).clamp(1, 1 << 20)
        })
        .collect();
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); probes.len()];
    let mut reference = Reference::new();
    let until = now_ns() + budget_ns;
    while now_ns() < until || samples[0].len() < 3 {
        for ((p, &n), out) in probes.iter_mut().zip(&iterations).zip(&mut samples) {
            // Each sample is brought to the core's reference speed as
            // timed right before it: the median of three kernel runs after
            // one that warms it.
            reference.time_ns();
            for _ in 0..3 {
                reference.sample();
            }
            let slowdown = reference.slowdown();
            // The probes before this one evicted its code and data; the
            // call a layer makes in a serving loop finds them warm.
            (p.run)();
            let start = now_ns();
            for _ in 0..n {
                (p.run)();
            }
            out.push((now_ns() - start) as f64 / n as f64 / slowdown);
        }
    }
    // Nanoseconds per call (or per window, where a call handles several).
    let ns: HashMap<&'static str, f64> = probes
        .iter()
        .zip(samples)
        .map(|(p, s)| (p.name, median(&s) / p.per_call))
        .collect();
    let mut out: HashMap<&'static str, f64> = ns
        .iter()
        .map(|(&name, &t)| (name, t / unit_ns(name)))
        .collect();

    // MACs per nanosecond are GMAC/s.
    let peak = |shapes: &[(&str, usize, usize, usize)]| {
        shapes
            .iter()
            .map(|&(name, m, k, n)| (m * k * n) as f64 / ns[name])
            .fold(0.0, f64::max)
    };
    out.insert("tensor.gemm_peak_gmacs", peak(&sut::GEMM_PROBES));
    out.insert("quant.qgemm_peak_gmacs", peak(&sut::QGEMM_PROBES));
    out.extend(sut::model_facts());
    let macs = out["core.macs_per_window"];
    let (fp32, int8) = (ns["core.fp32_b1_us"], ns["core.int8_b1_us"]);
    out.insert("core.fp32_gmacs", macs / fp32);
    out.insert("core.int8_gmacs", macs / int8);
    out.insert("core.int8_over_fp32_b1", int8 / fp32);
    out.insert(
        "core.int8_roofline_share",
        macs / int8 / out["quant.qgemm_peak_gmacs"],
    );
    // Patch conv, the one encoder block and the head are bio1's stages;
    // what is left of the forward is tokenizing and arena traffic.
    out.insert(
        "nn.stage_sum_ratio",
        (ns["nn.patch_conv_us"] + ns["nn.block_us"] + ns["nn.head_us"]) / fp32,
    );
    let (fp32_misses, int8_misses) = sut::warm_arena_misses(fixture);
    out.insert("tensor.arena_misses_warm", fp32_misses as f64);
    out.insert("quant.arena_misses_warm", int8_misses as f64);
    out.insert(
        "core.int8_fp32_agree_ratio",
        sut::precision_agreement(fixture),
    );
    out
}

/// One-window `classify` calls through `topology`, closed loop: the
/// median call and the median of what each call spent outside the model
/// (its own span minus the `backend` span it caused).
fn classify_probe(fixture: &Fixture, topology: Topology, calls: usize) -> (f64, f64) {
    let log = Arc::new(SpanLog::new(4 * calls + 16));
    let engine = Classifier::start(fixture, topology, Precision::Int8, Some(&log));
    let windows = fixture.eval_windows();
    let distinct = windows.len() / WINDOW_LEN;
    let mut call_spans = Vec::with_capacity(calls);
    for i in 0..calls + 8 {
        let at = i % distinct;
        let window = windows[at * WINDOW_LEN..(at + 1) * WINDOW_LEN].to_vec();
        let start_ns = now_ns();
        let answer = engine.classify(window);
        let end_ns = now_ns();
        assert!(answer.is_ok(), "classify probe: {answer:?}");
        // The first calls warm the arena and the routing estimates.
        if i >= 8 {
            call_spans.push((start_ns, end_ns));
        }
    }
    let (backend, _) = log.take();
    // Join each call with the backend span inside it and take self times.
    let mut spans: Vec<Span> = Vec::new();
    let mut inside = backend.iter().filter(|s| s.name == "backend").peekable();
    for &(start_ns, end_ns) in &call_spans {
        let parent = spans.len() as u32;
        spans.push(Span {
            name: "classify",
            start_ns,
            end_ns,
            parent: NO_PARENT,
            request: 0,
        });
        while let Some(s) = inside.next_if(|s| s.start_ns < end_ns) {
            if s.start_ns >= start_ns {
                spans.push(Span { parent, ..*s });
            }
        }
    }
    let own = self_times(&spans);
    let (mut total, mut overhead) = (Vec::new(), Vec::new());
    for (s, own_ns) in spans.iter().zip(own) {
        if s.name == "classify" {
            total.push(s.end_ns - s.start_ns);
            overhead.push(own_ns);
        }
    }
    (median_ns(total) / 1e3, median_ns(overhead) / 1e3)
}

/// The serve-layer calls a wire workload does not make directly: engines
/// called one window at a time, a session pushed inline, an in-process
/// server session and the program's own wire client.
pub fn serve_probes(fixture: &Fixture, seed: u64) -> Result<HashMap<&'static str, f64>, String> {
    let mut out = HashMap::new();
    for (topology, total, overhead) in [
        (
            Topology::Inline,
            "engine.classify_b1_us",
            "engine.overhead_us",
        ),
        (
            Topology::Worker,
            "worker.classify_b1_us",
            "worker.overhead_us",
        ),
        (
            Topology::Sharded,
            "router.classify_b1_us",
            "router.overhead_us",
        ),
    ] {
        let (t, o) = classify_probe(fixture, topology, 300);
        out.insert(total, t);
        out.insert(overhead, o);
    }

    let recordings = fixture.recordings();
    let plan = Plan::new(seed, 1, &recordings);
    let bursts: Vec<Vec<f32>> = (0..300)
        .map(|b| {
            let mut burst = Vec::new();
            plan.fill_burst(&recordings, 0, b, &mut burst);
            burst
        })
        .collect();

    // stream: a push's self time is the push minus the engine calls in it.
    let log = Arc::new(SpanLog::new(4096));
    let mut stream = InlineStream::start(fixture, Some(&log));
    let mut pushes = Vec::with_capacity(bursts.len());
    for burst in &bursts {
        let start_ns = now_ns();
        stream.push(burst)?;
        pushes.push((start_ns, now_ns()));
    }
    let (spans, _) = log.take();
    let calls: Vec<&Span> = spans.iter().filter(|s| s.name == "backend").collect();
    let pushed: u64 = pushes.iter().map(|(s, e)| e - s).sum();
    let served: u64 = calls.iter().map(|s| s.end_ns - s.start_ns).sum();
    out.insert(
        "stream.push_us_per_window",
        pushed.saturating_sub(served) as f64 / 1e3 / calls.len().max(1) as f64,
    );

    // server: handing a burst to an in-process session.
    let server = Server::start(fixture, Topology::Worker, false, None);
    let session = server.connect("probe")?;
    let mut sends = Vec::with_capacity(bursts.len());
    for burst in &bursts {
        let start_ns = now_ns();
        session.send(burst)?;
        sends.push(now_ns() - start_ns);
        std::thread::sleep(Duration::from_micros(300));
    }
    session.finish()?;
    server.shutdown();
    out.insert("server.send_us", median_ns(sends) / 1e3);

    // client: the program's own client, whose send also polls for events.
    let server = Server::start(fixture, Topology::Worker, true, None);
    let mut client = Client::connect(server.addr(), "probe")?;
    let mut sends = Vec::with_capacity(100);
    for burst in &bursts[..100] {
        let start_ns = now_ns();
        client.send_samples(burst)?;
        sends.push(now_ns() - start_ns);
    }
    client.finish()?;
    server.shutdown();
    out.insert("client.send_samples_us", median_ns(sends) / 1e3);
    Ok(out)
}
