//! What one measured interval yields, for closed and open loops alike, and
//! how the end-to-end metrics are computed from it.

use crate::host::{now_ns, process_cpu_ns, rss_kb, Reference};
use crate::stats::{
    across_slices, slice_cpu_per_window, slice_mid_ns, slice_tail_ns, slice_throughput, Slice,
};

/// Length of the slices a measured interval is cut into. Short enough that
/// a run has two dozen of them, long enough that a slice of the slowest
/// workload still holds about ten operations.
pub const SLICE_NS: u64 = 500_000_000;

/// The outcome of one measured interval.
#[derive(Debug, Default)]
pub struct Measured {
    pub slices: Vec<Slice>,
    /// Operations attempted over the whole interval, how many of them
    /// errored or answered wrongly, and how many answered correctly but
    /// missed the workload's latency limit.
    pub attempted: u64,
    pub failed: u64,
    pub late: u64,
    /// Windows decided and wall time over the whole interval (an open
    /// loop's throughput is taken over all of it).
    pub windows: u64,
    pub wall_ns: u64,
    /// An open loop sends on a schedule, so the windows of a slice are set
    /// by the schedule and say nothing about the program.
    pub open_loop: bool,
    /// Highest resident set size sampled at slice boundaries.
    pub peak_rss_kb: u64,
    /// Hash of the outputs; repeats exactly for a seed and run length.
    pub checksum: u64,
    /// Every latency of the interval, ascending (for the tail percentile).
    pub latencies_ns: Vec<u64>,
    /// An open loop's 99th-percentile lag of a burst's send behind its due
    /// time; 0 for a closed loop.
    pub lag_p99_ns: u64,
    /// Why the interval does not count as a measurement, if it does not.
    pub invalid: Vec<String>,
    /// What went wrong, for the operator.
    pub notes: Vec<String>,
}

/// FNV-1a over a stream of words.
pub fn checksum(words: impl Iterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Cuts a closed loop's interval into slices as its operations complete.
/// The caller's thread samples CPU time and memory at slice boundaries.
pub struct Slicer {
    begin_ns: u64,
    boundary_ns: u64,
    cpu_at_boundary: u64,
    current: Slice,
    done: Vec<Slice>,
    peak_rss_kb: u64,
    reference: Reference,
    reference_due_ns: u64,
}

/// A closed loop times the reference kernel this often between its
/// operations: under 1 % of its time, some 250 samples a slice.
const REFERENCE_EVERY_NS: u64 = 2_000_000;

impl Slicer {
    /// Starts slicing now; `ops_per_slice` sizes the latency buffers.
    pub fn start(ops_per_slice: usize) -> Slicer {
        let cpu = process_cpu_ns();
        let begin_ns = now_ns();
        Slicer {
            begin_ns,
            boundary_ns: begin_ns,
            cpu_at_boundary: cpu,
            current: Slice {
                latencies_ns: Vec::with_capacity(ops_per_slice),
                ..Slice::default()
            },
            done: Vec::new(),
            peak_rss_kb: rss_kb(),
            reference: Reference::new(),
            reference_due_ns: begin_ns,
        }
    }

    /// Records an operation that ended at `end_ns`, closing the current
    /// slice first if the operation ran past its end.
    pub fn record(&mut self, end_ns: u64, latency_ns: u64, windows: u64) {
        if end_ns >= self.boundary_ns + SLICE_NS {
            self.close(end_ns);
        }
        self.current.latencies_ns.push(latency_ns);
        self.current.windows += windows;
        if end_ns >= self.reference_due_ns {
            self.reference.sample();
            self.reference_due_ns = end_ns + REFERENCE_EVERY_NS;
        }
    }

    fn close(&mut self, at_ns: u64) {
        let cpu = process_cpu_ns();
        let capacity = self.current.latencies_ns.capacity();
        let mut slice = std::mem::replace(
            &mut self.current,
            Slice {
                latencies_ns: Vec::with_capacity(capacity),
                ..Slice::default()
            },
        );
        slice.cpu_ns = cpu - self.cpu_at_boundary;
        slice.wall_ns = at_ns - self.boundary_ns;
        slice.slowdown = self.reference.slowdown();
        self.done.push(slice);
        self.boundary_ns = at_ns;
        self.cpu_at_boundary = cpu;
        self.peak_rss_kb = self.peak_rss_kb.max(rss_kb());
    }

    /// Ends the interval. A trailing slice shorter than half a slice is
    /// dropped from the slices (its operations still count in the totals),
    /// unless it is the only one.
    pub fn finish(mut self) -> Measured {
        let end_ns = now_ns();
        let all = self.done.iter().chain(std::iter::once(&self.current));
        let windows = all.clone().map(|s| s.windows).sum();
        let mut latencies_ns: Vec<u64> = all.flat_map(|s| s.latencies_ns.iter().copied()).collect();
        latencies_ns.sort_unstable();
        if self.done.is_empty() || end_ns.saturating_sub(self.boundary_ns) >= SLICE_NS / 2 {
            self.close(end_ns);
        }
        Measured {
            slices: self.done,
            windows,
            wall_ns: end_ns - self.begin_ns,
            peak_rss_kb: self.peak_rss_kb.max(rss_kb()),
            latencies_ns,
            ..Measured::default()
        }
    }
}

/// The end-to-end metrics of one interval, without `setup_s`.
///
/// Every slice counts: each metric is the median across all of the
/// interval's slices of that slice's own figure (`stats::across_slices`),
/// so a change that slows most of a run shows in full. The slices are
/// first brought to the core's reference speed
/// (`Slice::at_reference_speed`).
pub fn end_to_end(m: &Measured) -> Vec<(&'static str, f64)> {
    let slices: Vec<Slice> = m
        .slices
        .iter()
        .map(|s| s.at_reference_speed(m.open_loop))
        .collect();
    figures(m, &slices)
}

/// The same figures from the slices as the wall clock saw them, for the
/// operator to hold beside the reference-speed ones.
pub fn on_the_wall_clock(m: &Measured) -> Vec<(&'static str, f64)> {
    figures(m, &m.slices)
}

/// An open loop decides the windows its schedule sends, so its throughput
/// is taken over the whole interval, up to the arrival of the last
/// summary: a backlog shows there.
fn figures(m: &Measured, slices: &[Slice]) -> Vec<(&'static str, f64)> {
    let throughput = if m.open_loop {
        m.windows as f64 / (m.wall_ns as f64 / 1e9)
    } else {
        across_slices(slices, slice_throughput)
    };
    vec![
        ("latency_mid_us", across_slices(slices, slice_mid_ns) / 1e3),
        (
            "latency_tail_us",
            across_slices(slices, slice_tail_ns) / 1e3,
        ),
        ("throughput_wps", throughput),
        (
            "cpu_us_per_window",
            across_slices(slices, slice_cpu_per_window) / 1e3,
        ),
        ("peak_rss_kb", m.peak_rss_kb as f64),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slicer_cuts_on_boundaries_and_keeps_totals() {
        let mut s = Slicer::start(4);
        let t0 = s.begin_ns;
        s.record(t0 + 100, 10, 1);
        s.record(t0 + SLICE_NS - 1, 20, 1);
        // Ends past the first boundary: closes slice 0, lands in slice 1.
        s.record(t0 + SLICE_NS + 5, 30, 2);
        assert_eq!(s.done.len(), 1);
        assert_eq!(s.done[0].latencies_ns, vec![10, 20]);
        assert_eq!((s.done[0].windows, s.done[0].wall_ns), (2, SLICE_NS + 5));
        let m = s.finish();
        // The short tail is not a slice, but its operation still counts.
        assert_eq!(m.slices.len(), 1);
        assert_eq!((m.windows, m.latencies_ns.len()), (4, 3));
        // An interval shorter than a slice is one slice.
        let mut s = Slicer::start(4);
        s.record(s.begin_ns + 7, 7, 1);
        assert_eq!(s.finish().slices.len(), 1);
    }

    #[test]
    fn checksum_depends_on_order_and_content() {
        assert_eq!(checksum([1, 2].into_iter()), checksum([1, 2].into_iter()));
        assert_ne!(checksum([1, 2].into_iter()), checksum([2, 1].into_iter()));
    }
}
