//! Shape-specialized kernel autotuning.
//!
//! bio1's GEMMs are tiny and skinny (31×64·64×64 attention projections,
//! 31-row FFN mats), where tile choice dominates and no single fixed tile
//! wins everywhere. At model-load time [`tune`] benchmarks a small grid of
//! candidates per distinct `(m, k, n)` in the model — fp32 tiles ×
//! {FMA, AVX-512, portable} plus variable-geometry generic tiles, int8 ×
//! {whole-GEMM, dot tile} — and records the winners in a [`TuneTable`]
//! that a [`crate::backend::PackedCpuBackend`] consults on every plan
//! query.
//!
//! Design points:
//!
//! * **Only wins count.** A non-default candidate must beat the default by
//!   more than [`TUNE_MARGIN_PCT`]% of its time to enter the table;
//!   anything closer is measurement noise and the default stays (with the
//!   reason logged). The table stores non-default winners only.
//! * **Injectable cost.** [`tune_with_cost`] takes the timing function as
//!   an argument, so tests drive the tuner with a deterministic synthetic
//!   cost model and assert byte-identical tables; [`tune`] plugs in
//!   wall-clock measurement.
//! * **Tier-keyed persistence.** [`TuneTable::to_json`] /
//!   [`TuneTable::from_json`] round-trip the table through a hand-rolled
//!   JSON form (no serde in this workspace) keyed by the CPU tier name, so
//!   serving restarts reload the table instead of re-tuning — and a table
//!   recorded on a different tier is rejected instead of trusted.
//! * **`BIOFORMER_TUNE=off`** (or `0`/`false`) short-circuits [`tune`] to
//!   an empty table, forcing the default tile everywhere — deterministic
//!   CI runs regardless of host timing noise.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::backend::{gemm_with_plan, Fp32Kernel, GemmPlan, Int8Kernel, TileSpec};
use crate::pack::{self, Epilogue};
use crate::qgemm;

/// Required win margin for a non-default candidate, in percent of the
/// default's time: below this the default is kept.
pub const TUNE_MARGIN_PCT: f64 = 5.0;

/// Row count used to benchmark wildcard (`m = 0`) shapes — linear layers
/// pack weights before any batch exists, so their plans are tuned at a
/// representative token-row count (one bio1 window's 31 tokens, rounded
/// to a tile multiple).
pub const WILDCARD_M: usize = 32;

/// One GEMM shape occurring in a model, as reported by
/// `gemm_shapes()`-style inventories. `m = 0` means the row count varies
/// call to call (a wildcard plan).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct GemmShape {
    /// Output rows (`0` = varies).
    pub m: usize,
    /// Contraction depth.
    pub k: usize,
    /// Output columns.
    pub n: usize,
    /// `true` for the int8 path, `false` for fp32.
    pub int8: bool,
}

impl GemmShape {
    /// An fp32 GEMM shape.
    pub fn fp32(m: usize, k: usize, n: usize) -> Self {
        GemmShape {
            m,
            k,
            n,
            int8: false,
        }
    }

    /// An int8 GEMM shape.
    pub fn int8(m: usize, k: usize, n: usize) -> Self {
        GemmShape {
            m,
            k,
            n,
            int8: true,
        }
    }
}

/// One kernel candidate under evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Candidate {
    /// An fp32 plan.
    Fp32(GemmPlan),
    /// An int8 kernel choice.
    Int8(Int8Kernel),
}

impl Candidate {
    /// Compact name for logs.
    pub fn describe(&self) -> String {
        match self {
            Candidate::Fp32(p) => p.describe(),
            Candidate::Int8(k) => k.name().to_string(),
        }
    }
}

/// `true` unless `BIOFORMER_TUNE` is set to `off`/`0`/`false`.
///
/// Read on every call (not cached): tuning happens a handful of times per
/// process, and tests flip the variable.
pub fn tuning_enabled() -> bool {
    match std::env::var("BIOFORMER_TUNE") {
        Ok(v) => !matches!(
            v.trim().to_ascii_lowercase().as_str(),
            "off" | "0" | "false"
        ),
        Err(_) => true,
    }
}

/// The per-shape winners the autotuner found, keyed by the CPU tier they
/// were measured on. Stores only shapes where a **non-default** candidate
/// won; everything else falls through to the default plan.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TuneTable {
    tier: String,
    fp32: BTreeMap<(usize, usize, usize), GemmPlan>,
    int8: BTreeMap<(usize, usize, usize), Int8Kernel>,
    log: Vec<String>,
}

impl TuneTable {
    /// An empty table for the given tier name.
    pub fn new(tier: impl Into<String>) -> Self {
        TuneTable {
            tier: tier.into(),
            ..Default::default()
        }
    }

    /// An empty table for the process's current CPU tier.
    pub fn for_current_tier() -> Self {
        Self::new(bioformer_simd::kernels().name)
    }

    /// The CPU tier this table was measured on.
    pub fn tier(&self) -> &str {
        &self.tier
    }

    /// `true` when the table's tier matches the process's dispatch tier.
    pub fn matches_current_tier(&self) -> bool {
        self.tier == bioformer_simd::kernels().name
    }

    /// Records a non-default fp32 winner.
    pub fn insert_fp32(&mut self, m: usize, k: usize, n: usize, plan: GemmPlan) {
        self.fp32.insert((m, k, n), plan);
    }

    /// Records a non-default int8 winner.
    pub fn insert_int8(&mut self, m: usize, k: usize, n: usize, kernel: Int8Kernel) {
        self.int8.insert((m, k, n), kernel);
    }

    /// Appends a tuning-decision log line.
    pub fn push_log(&mut self, line: impl Into<String>) {
        self.log.push(line.into());
    }

    /// The fp32 winner for a shape: exact `(m, k, n)` first, then the
    /// `m = 0` wildcard. `None` = use the default plan.
    pub fn lookup_fp32(&self, m: usize, k: usize, n: usize) -> Option<GemmPlan> {
        self.fp32
            .get(&(m, k, n))
            .or_else(|| self.fp32.get(&(0, k, n)))
            .copied()
    }

    /// The int8 winner for a shape (exact, then wildcard).
    pub fn lookup_int8(&self, m: usize, k: usize, n: usize) -> Option<Int8Kernel> {
        self.int8
            .get(&(m, k, n))
            .or_else(|| self.int8.get(&(0, k, n)))
            .copied()
    }

    /// Number of shapes with a non-default winner.
    pub fn tuned_shapes(&self) -> usize {
        self.fp32.len() + self.int8.len()
    }

    /// The decision log — one line per shape examined, including why the
    /// default was kept where it was.
    pub fn log(&self) -> &[String] {
        &self.log
    }

    /// One-line form for stats surfaces, e.g.
    /// `tier=avx2+fma, 3 tuned shapes`.
    pub fn summary(&self) -> String {
        format!("tier={}, {} tuned shapes", self.tier, self.tuned_shapes())
    }

    /// Iterates non-default fp32 winners as `((m, k, n), plan)`.
    pub fn fp32_entries(&self) -> impl Iterator<Item = (&(usize, usize, usize), &GemmPlan)> {
        self.fp32.iter()
    }

    /// Iterates non-default int8 winners as `((m, k, n), kernel)`.
    pub fn int8_entries(&self) -> impl Iterator<Item = (&(usize, usize, usize), &Int8Kernel)> {
        self.int8.iter()
    }

    /// Serialises the table as JSON (hand-rolled writer — this workspace
    /// vendors no serde). Entries are emitted in sorted key order, so the
    /// output is byte-deterministic for a given table.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(256);
        s.push_str("{\n  \"tier\": ");
        json::write_string(&mut s, &self.tier);
        s.push_str(",\n  \"fp32\": [");
        for (i, (&(m, k, n), plan)) in self.fp32.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("\n    ");
            let TileSpec { mr, nr, kc } = plan.spec;
            s.push_str(&format!(
                "{{\"m\": {m}, \"k\": {k}, \"n\": {n}, \"kernel\": \"{}\", \
                 \"mr\": {mr}, \"nr\": {nr}, \"kc\": {kc}}}",
                plan.kernel.name()
            ));
        }
        if !self.fp32.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("],\n  \"int8\": [");
        for (i, (&(m, k, n), kernel)) in self.int8.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("\n    ");
            s.push_str(&format!(
                "{{\"m\": {m}, \"k\": {k}, \"n\": {n}, \"kernel\": \"{}\"}}",
                kernel.name()
            ));
        }
        if !self.int8.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("],\n  \"log\": [");
        for (i, line) in self.log.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("\n    ");
            json::write_string(&mut s, line);
        }
        if !self.log.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("]\n}\n");
        s
    }

    /// Parses a table previously written by [`TuneTable::to_json`].
    pub fn from_json(src: &str) -> Result<TuneTable, String> {
        let mut p = json::Parser::new(src);
        let mut table = TuneTable::default();
        p.skip_ws();
        p.expect(b'{')?;
        loop {
            p.skip_ws();
            if p.try_consume(b'}') {
                break;
            }
            let key = p.parse_string()?;
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            match key.as_str() {
                "tier" => table.tier = p.parse_string()?,
                "fp32" => {
                    p.parse_array(|p| {
                        let e = parse_entry(p, true)?;
                        table.fp32.insert((e.0, e.1, e.2), e.3);
                        Ok(())
                    })?;
                }
                "int8" => {
                    p.parse_array(|p| {
                        let e = parse_entry(p, false)?;
                        table.int8.insert((e.0, e.1, e.2), e.4);
                        Ok(())
                    })?;
                }
                "log" => {
                    p.parse_array(|p| {
                        let line = p.parse_string()?;
                        table.log.push(line);
                        Ok(())
                    })?;
                }
                other => return Err(format!("tune table: unknown key {other:?}")),
            }
            p.skip_ws();
            if !p.try_consume(b',') {
                p.skip_ws();
                p.expect(b'}')?;
                break;
            }
        }
        Ok(table)
    }

    /// Writes the table to a file as JSON.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Loads a table from a JSON file.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<TuneTable, String> {
        let src = std::fs::read_to_string(path.as_ref())
            .map_err(|e| format!("tune table {}: {e}", path.as_ref().display()))?;
        Self::from_json(&src)
    }
}

/// One parsed table entry: `(m, k, n, fp32 plan, int8 kernel)` — the side
/// not being parsed holds its default.
fn parse_entry(
    p: &mut json::Parser<'_>,
    fp32: bool,
) -> Result<(usize, usize, usize, GemmPlan, Int8Kernel), String> {
    let (mut m, mut k, mut n) = (0usize, 0usize, 0usize);
    let mut spec = TileSpec::DEFAULT;
    let mut fp32_kernel = Fp32Kernel::Dispatch;
    let mut int8_kernel = Int8Kernel::Dispatch;
    p.skip_ws();
    p.expect(b'{')?;
    loop {
        p.skip_ws();
        if p.try_consume(b'}') {
            break;
        }
        let key = p.parse_string()?;
        p.skip_ws();
        p.expect(b':')?;
        p.skip_ws();
        match key.as_str() {
            "m" => m = p.parse_usize()?,
            "k" => k = p.parse_usize()?,
            "n" => n = p.parse_usize()?,
            "mr" => spec.mr = p.parse_usize()?,
            "nr" => spec.nr = p.parse_usize()?,
            "kc" => spec.kc = p.parse_usize()?,
            "kernel" => {
                let name = p.parse_string()?;
                if fp32 {
                    fp32_kernel = Fp32Kernel::from_name(&name)
                        .ok_or_else(|| format!("unknown fp32 kernel {name:?}"))?;
                } else {
                    int8_kernel = Int8Kernel::from_name(&name)
                        .ok_or_else(|| format!("unknown int8 kernel {name:?}"))?;
                }
            }
            other => return Err(format!("tune entry: unknown key {other:?}")),
        }
        p.skip_ws();
        if !p.try_consume(b',') {
            p.skip_ws();
            p.expect(b'}')?;
            break;
        }
    }
    Ok((m, k, n, GemmPlan::new(spec, fp32_kernel), int8_kernel))
}

/// The fp32 candidate grid for the current dispatch tier: the default
/// dispatched plan first, then the fixed SIMD tiles the tier can actually
/// run, then a handful of variable-geometry generic tiles. Respects the
/// `BIOFORMER_SIMD` cap (candidates come from the capped dispatch table).
pub fn fp32_candidates() -> Vec<GemmPlan> {
    let name = bioformer_simd::kernels().name;
    let mut v = vec![GemmPlan::default()];
    if !bioformer_simd::kernels().portable {
        // On a SIMD tier the dispatched tile is FMA or AVX-512; the
        // portable tile is a genuinely different candidate.
        v.push(GemmPlan::new(TileSpec::DEFAULT, Fp32Kernel::Portable));
        if name.contains("avx512") {
            // Dispatch resolves to AVX-512; FMA is the distinct middle tier.
            v.push(GemmPlan::new(TileSpec::DEFAULT, Fp32Kernel::Fma));
        }
    }
    for (mr, nr, kc) in [(8, 16, 0), (4, 32, 0), (8, 32, 0), (2, 16, 0), (4, 16, 64)] {
        v.push(GemmPlan::new(TileSpec { mr, nr, kc }, Fp32Kernel::Generic));
    }
    v
}

/// The int8 candidate grid for a `(k, n)` shape: the default dispatch
/// first, plus the forced dot-tile path when the tier has a whole-GEMM
/// kernel the dispatch would otherwise pick (on tiers without one the two
/// are the same code path, so there is nothing to race).
pub fn int8_candidates(k: usize, n: usize) -> Vec<Int8Kernel> {
    let mut v = vec![Int8Kernel::Dispatch];
    let whole_available =
        bioformer_simd::kernels().qgemm_nt.is_some() && bioformer_simd::qgemm_nt_fits(k, n);
    if whole_available {
        v.push(Int8Kernel::Tile);
    }
    v
}

/// Autotunes the given shapes with wall-clock measurement, returning the
/// winners table for the current CPU tier. Honors `BIOFORMER_TUNE=off`
/// (returns an empty, all-default table with the reason logged).
pub fn tune(shapes: &[GemmShape]) -> TuneTable {
    if !tuning_enabled() {
        let mut t = TuneTable::for_current_tier();
        t.push_log("tuning disabled by BIOFORMER_TUNE; default plans everywhere");
        return t;
    }
    tune_with_cost(shapes, &mut measure)
}

/// [`tune`] with an injectable cost function (seconds per GEMM; lower
/// wins). The first candidate per shape is always the default; a
/// non-default candidate enters the table only by beating the default by
/// more than [`TUNE_MARGIN_PCT`]%. Duplicate shapes are tuned once.
/// Deterministic for a deterministic cost function.
pub fn tune_with_cost(
    shapes: &[GemmShape],
    cost: &mut dyn FnMut(&Candidate, &GemmShape) -> f64,
) -> TuneTable {
    let mut table = TuneTable::for_current_tier();
    let mut seen = std::collections::BTreeSet::new();
    for &shape in shapes {
        if !seen.insert(shape) {
            continue;
        }
        let GemmShape { m, k, n, int8 } = shape;
        let label = if int8 { "int8" } else { "fp32" };
        let candidates: Vec<Candidate> = if int8 {
            int8_candidates(k, n)
                .into_iter()
                .map(Candidate::Int8)
                .collect()
        } else {
            fp32_candidates().into_iter().map(Candidate::Fp32).collect()
        };
        let costs: Vec<f64> = candidates.iter().map(|c| cost(c, &shape)).collect();
        let default_cost = costs[0];
        let (best_idx, &best_cost) = costs
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .expect("candidate grid is never empty");
        let needed = default_cost * (1.0 - TUNE_MARGIN_PCT / 100.0);
        if best_idx != 0 && best_cost < needed {
            let winner = candidates[best_idx];
            let gain = (1.0 - best_cost / default_cost) * 100.0;
            table.push_log(format!(
                "{label} {m}x{k}x{n}: {} won ({:.1}% over default)",
                winner.describe(),
                gain
            ));
            match winner {
                Candidate::Fp32(plan) => table.insert_fp32(m, k, n, plan),
                Candidate::Int8(kernel) => table.insert_int8(m, k, n, kernel),
            }
        } else if candidates.len() == 1 {
            table.push_log(format!(
                "{label} {m}x{k}x{n}: default kept (no distinct candidates on tier {})",
                table.tier
            ));
        } else {
            table.push_log(format!(
                "{label} {m}x{k}x{n}: default kept (best alternative {} within {:.0}% margin)",
                candidates[best_idx].describe(),
                TUNE_MARGIN_PCT
            ));
        }
    }
    table
}

/// Deterministic pseudo-random fp32 fill for benchmarking inputs.
fn filled_f32(len: usize, seed: u64) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            ((state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 40) as f32 / (1u64 << 24) as f32) - 0.5
        })
        .collect()
}

fn filled_i8(len: usize, seed: u64) -> Vec<i8> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 40) as i8
        })
        .collect()
}

/// Wall-clock cost of one candidate at one shape: packs once, warms the
/// kernel, then takes the best of three timed batches (batch size scaled
/// to the GEMM's FLOP count so tiny shapes are not measured at
/// nanosecond granularity).
fn measure(candidate: &Candidate, shape: &GemmShape) -> f64 {
    let m = if shape.m == 0 { WILDCARD_M } else { shape.m };
    let (k, n) = (shape.k, shape.n);
    let work = crate::matmul::gemm_work(m, n, k).max(1);
    let reps = (20_000_000 / work).clamp(3, 400);
    match *candidate {
        Candidate::Fp32(plan) => {
            let a = filled_f32(m * k, 11);
            let b = filled_f32(k * n, 13);
            let mut packed = vec![0.0f32; plan.packed_len(k, n)];
            pack::pack_b_nr(&b, n, k, n, plan.spec.nr, &mut packed);
            let mut out = vec![0.0f32; m * n];
            let mut run = || gemm_with_plan(plan, &a, m, k, &packed, n, &mut out, Epilogue::None);
            run();
            best_of_three(reps, &mut run)
        }
        Candidate::Int8(kernel) => {
            let a = filled_i8(m * k, 17);
            let b = filled_i8(n * k, 19);
            let mut out = vec![0i32; m * n];
            let mut run = || match kernel {
                Int8Kernel::Dispatch => qgemm::qgemm_i32_into(&a, &b, None, m, k, n, &mut out),
                Int8Kernel::WholeGemm => {
                    if !qgemm::qgemm_i32_whole_into(&a, &b, None, m, k, n, &mut out) {
                        qgemm::qgemm_i32_tile_into(&a, &b, None, m, k, n, &mut out);
                    }
                }
                Int8Kernel::Tile => qgemm::qgemm_i32_tile_into(&a, &b, None, m, k, n, &mut out),
            };
            run();
            best_of_three(reps, &mut run)
        }
    }
}

/// Runs `reps` iterations three times and returns the best per-iteration
/// seconds — minimum-of-batches rejects scheduler noise the way the
/// criterion shim's IQR pass does, at a fraction of the cost.
fn best_of_three(reps: usize, run: &mut dyn FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        for _ in 0..reps {
            run();
        }
        best = best.min(start.elapsed().as_secs_f64() / reps as f64);
    }
    best
}

/// Minimal JSON reader/writer for the tuning table, following the same
/// hand-rolled idiom as `bioformer-nn`'s `serialize.rs` (this workspace
/// vendors no JSON crate).
mod json {
    pub(super) fn write_string(out: &mut String, s: &str) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
    }

    pub(super) struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl<'a> Parser<'a> {
        pub(super) fn new(src: &'a str) -> Self {
            Parser {
                bytes: src.as_bytes(),
                pos: 0,
            }
        }

        fn error(&self, msg: &str) -> String {
            format!("tune table JSON at byte {}: {msg}", self.pos)
        }

        pub(super) fn skip_ws(&mut self) {
            while self
                .bytes
                .get(self.pos)
                .is_some_and(|b| b.is_ascii_whitespace())
            {
                self.pos += 1;
            }
        }

        pub(super) fn expect(&mut self, b: u8) -> Result<(), String> {
            if self.bytes.get(self.pos) == Some(&b) {
                self.pos += 1;
                Ok(())
            } else {
                Err(self.error(&format!("expected {:?}", b as char)))
            }
        }

        pub(super) fn try_consume(&mut self, b: u8) -> bool {
            if self.bytes.get(self.pos) == Some(&b) {
                self.pos += 1;
                true
            } else {
                false
            }
        }

        pub(super) fn parse_string(&mut self) -> Result<String, String> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                let Some(&b) = self.bytes.get(self.pos) else {
                    return Err(self.error("unterminated string"));
                };
                self.pos += 1;
                match b {
                    b'"' => return Ok(out),
                    b'\\' => {
                        let Some(&esc) = self.bytes.get(self.pos) else {
                            return Err(self.error("unterminated escape"));
                        };
                        self.pos += 1;
                        match esc {
                            b'"' => out.push('"'),
                            b'\\' => out.push('\\'),
                            b'/' => out.push('/'),
                            b'n' => out.push('\n'),
                            b'r' => out.push('\r'),
                            b't' => out.push('\t'),
                            b'u' => {
                                let hex = self
                                    .bytes
                                    .get(self.pos..self.pos + 4)
                                    .ok_or_else(|| self.error("truncated \\u escape"))?;
                                let hex = std::str::from_utf8(hex)
                                    .map_err(|_| self.error("bad \\u escape"))?;
                                let code = u32::from_str_radix(hex, 16)
                                    .map_err(|_| self.error("bad \\u escape"))?;
                                self.pos += 4;
                                out.push(
                                    char::from_u32(code)
                                        .ok_or_else(|| self.error("bad \\u code point"))?,
                                );
                            }
                            _ => return Err(self.error("unknown escape")),
                        }
                    }
                    _ => {
                        // Re-sync to the char boundary for multi-byte UTF-8.
                        let start = self.pos - 1;
                        let len = utf8_len(b);
                        let chunk = self
                            .bytes
                            .get(start..start + len)
                            .ok_or_else(|| self.error("truncated UTF-8"))?;
                        let s =
                            std::str::from_utf8(chunk).map_err(|_| self.error("invalid UTF-8"))?;
                        out.push_str(s);
                        self.pos = start + len;
                    }
                }
            }
        }

        pub(super) fn parse_usize(&mut self) -> Result<usize, String> {
            let start = self.pos;
            while self.bytes.get(self.pos).is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
            if start == self.pos {
                return Err(self.error("expected a number"));
            }
            std::str::from_utf8(&self.bytes[start..self.pos])
                .expect("digits are ASCII")
                .parse()
                .map_err(|e| self.error(&format!("bad number: {e}")))
        }

        /// Parses `[ item, item, ... ]`, delegating each item to `item`.
        pub(super) fn parse_array(
            &mut self,
            mut item: impl FnMut(&mut Self) -> Result<(), String>,
        ) -> Result<(), String> {
            self.skip_ws();
            self.expect(b'[')?;
            self.skip_ws();
            if self.try_consume(b']') {
                return Ok(());
            }
            loop {
                item(self)?;
                self.skip_ws();
                if self.try_consume(b',') {
                    self.skip_ws();
                    continue;
                }
                self.expect(b']')?;
                return Ok(());
            }
        }
    }

    fn utf8_len(first: u8) -> usize {
        match first {
            0x00..=0x7F => 1,
            0xC0..=0xDF => 2,
            0xE0..=0xEF => 3,
            _ => 4,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic cost model: generic 8×32 wins fp32 at k ≥ 64, the tile
    /// path wins int8 at n < 8, everything else prefers the default.
    fn synthetic_cost(c: &Candidate, s: &GemmShape) -> f64 {
        match c {
            Candidate::Fp32(p)
                if p.spec
                    == (TileSpec {
                        mr: 8,
                        nr: 32,
                        kc: 0,
                    })
                    && s.k >= 64 =>
            {
                0.5
            }
            Candidate::Fp32(p) if *p == GemmPlan::default() => 1.0,
            Candidate::Fp32(_) => 1.5,
            Candidate::Int8(Int8Kernel::Tile) if s.n < 8 => 0.5,
            Candidate::Int8(Int8Kernel::Dispatch) => 1.0,
            Candidate::Int8(_) => 2.0,
        }
    }

    fn shapes() -> Vec<GemmShape> {
        vec![
            GemmShape::fp32(0, 64, 256),
            GemmShape::fp32(31, 32, 31),
            GemmShape::int8(31, 64, 4),
            GemmShape::int8(0, 64, 256),
            GemmShape::fp32(0, 64, 256), // duplicate — tuned once
        ]
    }

    #[test]
    fn tuner_is_deterministic_for_a_deterministic_cost() {
        let t1 = tune_with_cost(&shapes(), &mut synthetic_cost);
        let t2 = tune_with_cost(&shapes(), &mut synthetic_cost);
        assert_eq!(t1, t2);
        assert_eq!(t1.to_json(), t2.to_json());
        // The synthetic model makes generic 8x32 win the k=64 fp32 shape.
        let plan = t1.lookup_fp32(0, 64, 256).expect("winner recorded");
        assert_eq!(
            plan.spec,
            TileSpec {
                mr: 8,
                nr: 32,
                kc: 0
            }
        );
        assert_eq!(plan.kernel, Fp32Kernel::Generic);
        // Wildcard lookup serves exact-m queries too.
        assert!(t1.lookup_fp32(31, 64, 256).is_some());
        // The small fp32 shape kept its default.
        assert!(t1.lookup_fp32(31, 32, 31).is_none());
        // One decision line per distinct shape.
        assert_eq!(t1.log().len(), 4);
    }

    #[test]
    fn json_round_trip_preserves_the_table() {
        let table = tune_with_cost(&shapes(), &mut synthetic_cost);
        let parsed = TuneTable::from_json(&table.to_json()).expect("parse");
        assert_eq!(parsed, table);
        // An empty table round-trips too.
        let empty = TuneTable::new("portable");
        assert_eq!(TuneTable::from_json(&empty.to_json()).unwrap(), empty);
    }

    #[test]
    fn json_rejects_garbage() {
        assert!(TuneTable::from_json("").is_err());
        assert!(TuneTable::from_json("{\"tier\": 3}").is_err());
        assert!(TuneTable::from_json("{\"fp32\": [{\"kernel\": \"nope\"}]}").is_err());
        assert!(TuneTable::from_json("{\"bogus\": []}").is_err());
    }

    #[test]
    fn wrong_tier_table_is_ignored_by_the_backend() {
        use crate::backend::ComputeBackend;
        let mut table = TuneTable::new("some-other-cpu");
        table.insert_fp32(
            0,
            64,
            256,
            GemmPlan::new(
                TileSpec {
                    mr: 8,
                    nr: 32,
                    kc: 0,
                },
                Fp32Kernel::Generic,
            ),
        );
        let backend = crate::backend::PackedCpuBackend::with_table(table);
        assert!(
            backend.table().is_none(),
            "foreign-tier table must be dropped"
        );
        assert_eq!(backend.plan_fp32(31, 64, 256), GemmPlan::default());
    }

    #[test]
    fn candidate_grids_start_with_the_default() {
        assert_eq!(fp32_candidates()[0], GemmPlan::default());
        assert_eq!(int8_candidates(64, 64)[0], Int8Kernel::Dispatch);
        // Over-cap shapes offer no whole-GEMM alternative.
        assert_eq!(int8_candidates(bioformer_simd::QGEMM_K_CAP + 1, 4).len(), 1);
    }

    #[test]
    fn wall_clock_tune_smoke() {
        // Tiny shapes so the smoke test stays fast; we only assert the
        // table is well-formed, not which kernel wins.
        let shapes = [GemmShape::fp32(4, 8, 8), GemmShape::int8(4, 8, 8)];
        let table = tune(&shapes);
        assert!(table.matches_current_tier() || !tuning_enabled());
        assert!(!table.log().is_empty());
    }
}
