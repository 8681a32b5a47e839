//! Percentiles, quartile spread and the per-slice statistics whose median
//! keeps a run steady on a host whose neighbours slow it down for seconds
//! at a time.

/// Nearest-rank percentile of ascending `sorted`: the `ceil(n·q)`-th
/// smallest sample. `None` for an empty slice.
pub fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((n as f64) * q).ceil() as usize;
    Some(sorted[rank.clamp(1, n) - 1])
}

/// Samples above the `q`-th percentile's rank: a percentile is trusted
/// only with at least ten of them.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n.saturating_sub(((n as f64) * q).ceil() as usize)
}

/// Nearest-rank median of unsorted nanosecond samples, 0 for none.
pub fn median_ns(mut values: Vec<u64>) -> f64 {
    values.sort_unstable();
    percentile(&values, 0.5).map_or(0.0, |v| v as f64)
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Distance between the first and third quartile as a share of the
/// median, with the quartiles Python's `statistics.quantiles(v, n=4)`
/// gives (the exclusive method) — the figure the acceptance check uses.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return 0.0;
    }
    let quantile = |p: f64| {
        let pos = p * (n as f64 + 1.0);
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + frac * (v[j] - v[j - 1])
    };
    (quantile(0.75) - quantile(0.25)) / median(&v)
}

/// What one fixed-length slice of the measured interval observed.
#[derive(Debug, Clone, Default)]
pub struct Slice {
    /// Latency of every operation that was due in the slice.
    pub latencies_ns: Vec<u64>,
    /// Windows decided by those operations.
    pub windows: u64,
    /// Process CPU time spent during the slice.
    pub cpu_ns: u64,
    /// Wall time the slice covers.
    pub wall_ns: u64,
    /// How much slower than its reference speed the core ran during the
    /// slice (`host::Reference`); 0 when it was not sampled.
    pub slowdown: f64,
}

impl Slice {
    /// The slice as it would have been measured with the core at its
    /// reference speed (itself, if the speed was not sampled). A closed
    /// loop is compute-bound, so all its times scale. An open loop's
    /// latencies and wall time are set by timers and the schedule, not by
    /// arithmetic, so only its CPU time does.
    pub fn at_reference_speed(&self, open_loop: bool) -> Slice {
        if self.slowdown <= 0.0 {
            return self.clone();
        }
        let scale = |ns: u64| (ns as f64 / self.slowdown) as u64;
        let mut at = self.clone();
        (at.cpu_ns, at.slowdown) = (scale(self.cpu_ns), 1.0);
        if !open_loop {
            at.wall_ns = scale(self.wall_ns);
            at.latencies_ns.iter_mut().for_each(|l| *l = scale(*l));
        }
        at
    }
}

/// Mean of the samples of ascending `sorted` between the `lo` and `hi`
/// quantiles (shares of the sample count, rounded outwards). `None` for
/// an empty slice.
///
/// Latencies here are quantised by timers and burst intervals, so a
/// nearest-rank percentile that sits between two clusters jumps from one
/// to the other as the clusters' weights drift; a mean over a range of
/// ranks moves smoothly instead.
pub fn trimmed_mean(sorted: &[u64], lo: f64, hi: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let first = ((n as f64 * lo).floor() as usize).min(n - 1);
    let last = ((n as f64 * hi).ceil() as usize).clamp(first + 1, n);
    let kept = &sorted[first..last];
    Some(kept.iter().sum::<u64>() as f64 / kept.len() as f64)
}

/// Typical latency of a slice: the mean of its samples without the
/// fastest and the slowest tenth.
pub fn slice_mid_ns(slice: &Slice) -> Option<f64> {
    let mut sorted = slice.latencies_ns.clone();
    sorted.sort_unstable();
    trimmed_mean(&sorted, 0.1, 0.9)
}

/// Mean of the slowest fifth of a slice's latencies: the slice's tail.
pub fn slice_tail_ns(slice: &Slice) -> Option<f64> {
    let mut sorted = slice.latencies_ns.clone();
    sorted.sort_unstable();
    trimmed_mean(&sorted, 0.8, 1.0)
}

/// Windows decided per second of a slice.
pub fn slice_throughput(slice: &Slice) -> Option<f64> {
    (slice.wall_ns > 0).then(|| slice.windows as f64 * 1e9 / slice.wall_ns as f64)
}

/// Process CPU time per window decided in a slice.
pub fn slice_cpu_per_window(slice: &Slice) -> Option<f64> {
    (slice.windows > 0).then(|| slice.cpu_ns as f64 / slice.windows as f64)
}

/// The median across `slices` of `of`, over the slices that have a value.
///
/// Interference from the host's other tenants comes in phases of one to
/// ten seconds and only some slices meet it; a change to the program meets
/// every slice. The median slice follows the second and ignores the first
/// as long as it touches under half of the run.
pub fn across_slices(slices: &[Slice], of: fn(&Slice) -> Option<f64>) -> f64 {
    median(&slices.iter().filter_map(of).collect::<Vec<f64>>())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        assert_eq!(percentile(&[], 0.5), None);
        // n = 1: every percentile is the sample.
        assert_eq!(percentile(&[7], 0.5), Some(7));
        assert_eq!(percentile(&[7], 0.95), Some(7));
        // n = 2: p50 is the first, p95 the second.
        assert_eq!(percentile(&[1, 2], 0.5), Some(1));
        assert_eq!(percentile(&[1, 2], 0.95), Some(2));
        // n = 20: p50 is the 10th, p95 the 19th.
        let v: Vec<u64> = (1..=20).collect();
        assert_eq!(percentile(&v, 0.5), Some(10));
        assert_eq!(percentile(&v, 0.95), Some(19));
        // n = 100: p50 is the 50th, p95 the 95th, p99 the 99th.
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), Some(50));
        assert_eq!(percentile(&v, 0.95), Some(95));
        assert_eq!(percentile(&v, 0.99), Some(99));
        assert_eq!(percentile(&v, 1.0), Some(100));
    }

    #[test]
    fn samples_beyond_a_percentile() {
        assert_eq!(samples_beyond(100, 0.95), 5);
        assert_eq!(samples_beyond(200, 0.95), 10);
        assert_eq!(samples_beyond(20, 0.5), 10);
        assert_eq!(samples_beyond(0, 0.5), 0);
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(quartile_spread(&[3.0]), 0.0);
    }

    #[test]
    fn trimmed_mean_keeps_the_ranks_between_the_quantiles() {
        let v: Vec<u64> = (1..=10).collect();
        assert_eq!(trimmed_mean(&[], 0.1, 0.9), None);
        assert_eq!(trimmed_mean(&v, 0.0, 1.0), Some(5.5));
        // Drops the lowest and the highest of ten.
        assert_eq!(trimmed_mean(&v, 0.1, 0.9), Some(5.5));
        // The slowest fifth of ten is the top two; of three, the top one.
        assert_eq!(trimmed_mean(&v, 0.8, 1.0), Some(9.5));
        assert_eq!(trimmed_mean(&[1, 2, 9], 0.8, 1.0), Some(9.0));
        assert_eq!(trimmed_mean(&[4], 0.1, 0.9), Some(4.0));
    }

    #[test]
    fn slice_statistics_and_their_median_across_slices() {
        let slice = |lat: u64| Slice {
            latencies_ns: vec![lat, lat, lat, lat, lat + 5],
            windows: 5,
            cpu_ns: lat * 10,
            wall_ns: 1_000,
            slowdown: 0.0,
        };
        let slices: Vec<Slice> = [30, 10, 20, 40, 90].map(slice).to_vec();
        assert_eq!(slice_mid_ns(&slices[0]), Some(31.0));
        assert_eq!(slice_tail_ns(&slices[0]), Some(35.0));
        assert_eq!(slice_throughput(&slices[0]), Some(5e6));
        assert_eq!(slice_cpu_per_window(&slices[0]), Some(60.0));
        // One slow slice in five does not move the median slice.
        assert_eq!(across_slices(&slices, slice_tail_ns), 35.0);
        assert_eq!(across_slices(&slices, slice_cpu_per_window), 60.0);
        // A slice with no operation has no latency and is left out.
        let mut with_empty = slices.clone();
        with_empty.push(Slice::default());
        assert_eq!(across_slices(&with_empty, slice_tail_ns), 35.0);
        assert!(across_slices(&[Slice::default()], slice_mid_ns).is_nan());
        // At reference speed a slice that ran 25 % slow reads a fifth less.
        let slow = Slice {
            latencies_ns: vec![1_250],
            windows: 1,
            cpu_ns: 2_500,
            wall_ns: 5_000,
            slowdown: 1.25,
        };
        let fixed = slow.at_reference_speed(false);
        assert_eq!(
            (&fixed.latencies_ns[..], fixed.cpu_ns, fixed.wall_ns),
            (&[1_000][..], 2_000, 4_000)
        );
        // Of an open loop's slice only the CPU time is arithmetic.
        let fixed = slow.at_reference_speed(true);
        assert_eq!(
            (&fixed.latencies_ns[..], fixed.cpu_ns, fixed.wall_ns),
            (&[1_250][..], 2_000, 5_000)
        );
        // A slice whose speed was not sampled is left as measured.
        assert_eq!(slices[0].at_reference_speed(false).cpu_ns, slices[0].cpu_ns);
    }
}
