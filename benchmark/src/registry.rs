//! The names the benchmark reports under: its workloads, its end-to-end
//! metrics with their regression bounds, and its per-layer metrics.
//! `BENCHMARK.json` is this file printed by the `manifest` mode, never
//! edited by hand.

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

/// Seconds one run measures.
pub const RUN_SECONDS: u64 = 12;

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "solo_int8",
        why: "One caller, one window per call, int8 model run inline: the paper's MCU-shaped path, where quant and simd do the work and serve almost none.",
    },
    Workload {
        name: "solo_fp32",
        why: "Same driver over the fp32 model: tensor and nn do the work, so it is the bypass workload for any int8 change and the reverse.",
    },
    Workload {
        name: "offline_b32",
        why: "Whole recordings through extract, normalize and micro-batch 32 in both precisions: batch GEMMs and arena use that a batch-1 win could cost.",
    },
    Workload {
        name: "wire_realtime",
        why: "Two wearers over TCP at the real 2 kHz cadence into a one-worker engine: the system idles, so per-hop cost (socket, decode, pump, resolve) shows.",
    },
    Workload {
        name: "wire_loaded",
        why: "The same path 8x time-compressed (about 16 wearers) into two routed replicas: queueing, coalescing and router cost only appear under load.",
    },
];

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// Each bound is three times the widest quartile spread the metric showed
/// on any workload over sets of ten runs on the host the benchmark was
/// written on (README, "Steadiness"), rounded to a twentieth and held at
/// the contract's ceiling of a quarter.
pub const END_TO_END: [EndToEnd; 6] = [
    e2e("latency_mid_us", "us", "lower", 0.25),
    e2e("latency_tail_us", "us", "lower", 0.25),
    e2e("throughput_wps", "1/s", "higher", 0.2),
    e2e("cpu_us_per_window", "us", "lower", 0.25),
    e2e("peak_rss_kb", "kB", "lower", 0.1),
    e2e("setup_s", "s", "lower", 0.25),
];

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Which end-to-end metric each of these should move, on which workload,
/// is the table "How the layers move the end-to-end numbers" of the README.
pub const PER_LAYER: [PerLayer; 82] = [
    layer("tensor.gemm_qkv_us", "us", "lower"),
    layer("tensor.gemm_wo_us", "us", "lower"),
    layer("tensor.gemm_ffn_us", "us", "lower"),
    layer("tensor.gemm_qkv_b32_us", "us", "lower"),
    layer("tensor.gemm_peak_gmacs", "GMAC/s", "higher"),
    layer("tensor.arena_misses_warm", "count", "lower"),
    layer("nn.patch_conv_us", "us", "lower"),
    layer("nn.attention_us", "us", "lower"),
    layer("nn.ffn_us", "us", "lower"),
    layer("nn.block_us", "us", "lower"),
    layer("nn.layernorm_us", "us", "lower"),
    layer("nn.head_us", "us", "lower"),
    layer("nn.stage_sum_ratio", "ratio", "higher"),
    layer("quant.qgemm_qkv_us", "us", "lower"),
    layer("quant.qgemm_wo_us", "us", "lower"),
    layer("quant.qgemm_ffn_us", "us", "lower"),
    layer("quant.qgemm_patch_us", "us", "lower"),
    layer("quant.qgemm_peak_gmacs", "GMAC/s", "higher"),
    layer("quant.patch_conv_us", "us", "lower"),
    layer("quant.linear_qkv_us", "us", "lower"),
    layer("quant.linear_wo_us", "us", "lower"),
    layer("quant.linear_ffn_us", "us", "lower"),
    layer("quant.softmax_row_us", "us", "lower"),
    layer("quant.gelu_us", "us", "lower"),
    layer("quant.layernorm_row_us", "us", "lower"),
    layer("quant.arena_misses_warm", "count", "lower"),
    layer("core.fp32_b1_us", "us", "lower"),
    layer("core.fp32_b8_us", "us", "lower"),
    layer("core.fp32_b32_us", "us", "lower"),
    layer("core.int8_b1_us", "us", "lower"),
    layer("core.int8_b8_us", "us", "lower"),
    layer("core.int8_b32_us", "us", "lower"),
    layer("core.temponet_b1_us", "us", "lower"),
    layer("core.int8_over_fp32_b1", "ratio", "lower"),
    layer("core.macs_per_window", "count", "lower"),
    layer("core.params", "count", "lower"),
    layer("core.fp32_gmacs", "GMAC/s", "higher"),
    layer("core.int8_gmacs", "GMAC/s", "higher"),
    layer("core.int8_roofline_share", "ratio", "higher"),
    layer("core.int8_fp32_agree_ratio", "ratio", "higher"),
    layer("gap8.bio1_cycles", "cycles", "lower"),
    layer("gap8.bio1_latency_ms", "model_ms", "lower"),
    layer("gap8.bio1_energy_mj", "model_mJ", "lower"),
    layer("gap8.bio1_memory_kb", "kB", "lower"),
    layer("gap8.temponet_latency_ms", "model_ms", "lower"),
    layer("semg.extract_us_per_window", "us", "lower"),
    layer("semg.normalize_us_per_window", "us", "lower"),
    layer("semg.windower_us_per_window", "us", "lower"),
    layer("semg.generate_ms_per_session", "ms", "lower"),
    layer("proto.encode_samples_us", "us", "lower"),
    layer("proto.decode_samples_us", "us", "lower"),
    layer("proto.encode_event_us", "us", "lower"),
    layer("proto.decode_event_us", "us", "lower"),
    layer("proto.bytes_per_window", "B", "lower"),
    layer("engine.classify_b1_us", "us", "lower"),
    layer("engine.overhead_us", "us", "lower"),
    layer("worker.classify_b1_us", "us", "lower"),
    layer("worker.overhead_us", "us", "lower"),
    layer("worker.queue_wait_p50_us", "us", "lower"),
    layer("worker.queue_wait_p95_us", "us", "lower"),
    layer("worker.batch_mean", "windows", "higher"),
    layer("worker.busy_share", "ratio", "lower"),
    layer("router.classify_b1_us", "us", "lower"),
    layer("router.overhead_us", "us", "lower"),
    layer("router.replica_share_max", "ratio", "lower"),
    layer("stream.push_us_per_window", "us", "lower"),
    layer("stream.smoother_push_ns", "ns", "lower"),
    layer("stream.events_per_window", "ratio", "lower"),
    layer("server.send_us", "us", "lower"),
    layer("server.pickup_wait_p50_us", "us", "lower"),
    layer("wire.connect_ms", "ms", "lower"),
    layer("wire.finish_ms", "ms", "lower"),
    layer("wire.write_us", "us", "lower"),
    layer("wire.ingress_p50_us", "us", "lower"),
    layer("wire.compute_p50_us", "us", "lower"),
    layer("wire.egress_p50_us", "us", "lower"),
    layer("wire.self_report_ratio", "ratio", "higher"),
    layer("client.send_samples_us", "us", "lower"),
    layer("loadgen.lag_p99_us", "us", "lower"),
    layer("loadgen.latency_p99_us", "us", "lower"),
    layer("loadgen.events", "count", "higher"),
    layer("loadgen.trace_overhead_ratio", "ratio", "lower"),
];

/// `BENCHMARK.json`, exactly as committed at the repository root.
pub fn manifest() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    let rows = |rows: Vec<String>| rows.join(",\n");
    out.push_str("  \"workloads\": [\n");
    out.push_str(&rows(
        WORKLOADS
            .iter()
            .map(|w| {
                format!(
                    "    {{\"name\": \"{}\", \"why\": {}}}",
                    w.name,
                    quote(w.why)
                )
            })
            .collect(),
    ));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    out.push_str(&rows(
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    m.name, m.unit, m.better, m.bound
                )
            })
            .collect(),
    ));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    out.push_str(&rows(
        PER_LAYER
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    m.name, m.unit, m.better
                )
            })
            .collect(),
    ));
    out.push_str("\n  ]\n}\n");
    out
}

/// `text` as a JSON string literal, quotes included.
pub fn quote(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// The contract's limits on `BENCHMARK.json`, checked on the generated
    /// text so a bad name or bound never reaches the driver.
    #[test]
    fn manifest_meets_the_contract() {
        let text = manifest();
        assert!(text.len() <= 64 * 1024);
        // The six keys, each once, in the contract's order.
        let mut rest = text.as_str();
        for key in [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer",
        ] {
            let at = rest.find(&format!("\n  \"{key}\": "));
            rest = &rest[at.unwrap_or_else(|| panic!("{key} is missing or out of order"))..];
            assert_eq!(text.matches(&format!("\n  \"{key}\": ")).count(), 1);
        }
        assert_eq!(text.matches("\n  \"").count(), 6);
        let ok_name = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.as_bytes()[0].is_ascii_alphanumeric()
                && s.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
        };
        let mut names = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(ok_name(w.name) && names.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(ok_name(m.name) && names.insert(m.name), "{}", m.name);
            assert!(ok_unit(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(m.bound <= 0.25 && ["lower", "higher"].contains(&m.better));
        }
        for m in &PER_LAYER {
            assert!(ok_name(m.name) && names.insert(m.name), "{}", m.name);
            assert!(ok_unit(m.unit), "{}: {}", m.name, m.unit);
            assert!(["lower", "higher"].contains(&m.better));
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!((1..=60).contains(&RUN_SECONDS));
        let command = text.lines().find(|l| l.starts_with("  \"command\": ["));
        assert!(command.expect("a command line").matches("\", \"").count() < 32);
        assert_eq!(quote("a\"b\\c\nd\u{1}"), "\"a\\\"b\\\\c\\nd\\u0001\"");
    }
}
